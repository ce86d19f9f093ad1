"""Every public name has a caller.

Each name in the ``__all__`` of a module of ``dirac_mfp`` must be
referenced from the program (``src/``), the demos (``demos/``) or the
benchmark (``perfbench/``) beyond its own definition and its ``__all__``
entry, or be listed in `KEPT` with the reason it stays public.  A reference
counts only when it resolves to the module that defines the name:

- ``from .fields import x`` or ``from dirac_mfp.fields import x``;
- ``F.x`` where ``F`` is bound to the module, by ``from . import fields as
  F``, ``from dirac_mfp import fields`` or ``import dirac_mfp.fields as F``;
- a bare ``x`` read inside the module itself, outside the body of ``x``.

So the ``f.density`` property of a flow is no reference to a function
``fields.density``.  The package ``__init__`` re-exports names for library
users; a re-export is not a caller.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "dirac_mfp"
SRC = ROOT / "src" / PACKAGE
CALLER_DIRS = ("src", "demos", "perfbench")

_TABLE_ROUTE = ("the quantile-table route that the tests compare "
                "wasserstein_maps (cauchy_d1.csv) against")

# (module, name) -> why a name that no program code calls stays public
KEPT = {
    ("fields", "hj_residuals"): "acceptance criterion 5",
    ("rescale", "hat_gamma_residual"): "acceptance criterion 7",
    ("metrics", "QuantileTable"): _TABLE_ROUTE,
    ("metrics", "wasserstein"): _TABLE_ROUTE,
    ("solver", "energy"): ("the tests compare the energy of a solved flow "
                           "against that of its initial guess"),
    ("target", "save_csv"): "writes the tables the tests feed to load_csv",
}


def public_names() -> dict:
    """``{module: its __all__}`` for every module that declares one."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__"
                            for t in node.targets)):
                out[path.stem] = ast.literal_eval(node.value)
    return out


def _module_of(node: ast.ImportFrom, in_package: bool) -> str | None:
    """The dotted module an import-from names, relative ones resolved
    against the package."""
    if node.level:
        if not in_package or node.level != 1:
            return None
        return f"{PACKAGE}.{node.module}" if node.module else PACKAGE
    return node.module


def _own_reads(tree: ast.AST, names: set) -> set:
    """Bare reads of ``names`` in a module, skipping each name's own body
    and type annotations (an annotation calls nothing)."""
    out = set()

    def visit(node, inside: frozenset):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in names and node.id not in inside:
                out.add(node.id)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            inside = inside | {node.name}
        for field, child in ast.iter_fields(node):
            if field in ("annotation", "returns"):
                continue
            for c in child if isinstance(child, list) else [child]:
                if isinstance(c, ast.AST):
                    visit(c, inside)

    visit(tree, frozenset())
    return out


def references() -> set:
    """``(module, name)`` pairs that some caller file references."""
    found = set()
    publics = public_names()
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path == SRC / "__init__.py":
                continue
            in_package = path.parent == SRC
            tree = ast.parse(path.read_text())
            aliases = {}            # local name -> module it is bound to
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    mod = _module_of(node, in_package)
                    for a in node.names:
                        if mod == PACKAGE:
                            aliases[a.asname or a.name] = a.name
                        elif mod and mod.startswith(PACKAGE + "."):
                            found.add((mod.split(".", 1)[1], a.name))
                elif isinstance(node, ast.Import):
                    for a in node.names:
                        if a.name.startswith(PACKAGE + ".") and a.asname:
                            aliases[a.asname] = a.name.split(".", 1)[1]
            for node in ast.walk(tree):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Name)
                        and node.value.id in aliases):
                    found.add((aliases[node.value.id], node.attr))
            if in_package and path.stem in publics:
                found |= {(path.stem, name) for name in
                          _own_reads(tree, set(publics[path.stem]))}
    return found


def test_every_public_name_has_a_caller():
    called = references()
    missing = [f"{mod}.{name}" for mod, names in public_names().items()
               for name in names
               if (mod, name) not in called and (mod, name) not in KEPT]
    assert not missing, f"public names without a caller: {missing}"


def test_kept_names_are_public_and_uncalled():
    # an entry goes once its name gains a caller or stops being public
    publics = public_names()
    called = references()
    for mod, name in KEPT:
        assert name in publics.get(mod, ()), f"{mod}.{name} is not public"
        assert (mod, name) not in called, f"{mod}.{name} has a caller"


OWN_MODULE = """__all__ = ["a", "b", "c"]
def a(x: c) -> c:
    return a(x)
def b():
    pass
class c:
    pass
x = b()
"""


@pytest.mark.parametrize("where, source, expected", [
    ("demos/caller.py", "from .fields import snapshot", set()),
    ("src/dirac_mfp/cli.py", "from .fields import snapshot",
     {("fields", "snapshot")}),
    ("demos/caller.py", "from dirac_mfp.fields import snapshot",
     {("fields", "snapshot")}),
    ("src/dirac_mfp/cli.py", "from . import fields as F\nF.snapshot(f, 0)",
     {("fields", "snapshot")}),
    ("perfbench/caller.py", "from dirac_mfp import fields\nfields.snapshot(f)",
     {("fields", "snapshot")}),
    ("demos/caller.py", "import dirac_mfp.fields as F\nF.snapshot(f, 0)",
     {("fields", "snapshot")}),
    ("demos/caller.py", "f.density[0]", set()),
    ("demos/caller.py", "density = 1\nfields.density", set()),
    ("src/dirac_mfp/mod.py", OWN_MODULE, {("mod", "b")}),
], ids=["relative-outside-package", "relative", "absolute", "relative-alias",
        "package-import", "module-import", "property", "unbound-module-name",
        "own-module"])
def test_reference_rules(tmp_path, monkeypatch, where, source, expected):
    # one caller file in a scratch tree
    for top in CALLER_DIRS:
        (tmp_path / top).mkdir()
    (tmp_path / "src" / PACKAGE).mkdir()
    (tmp_path / where).write_text(source)
    monkeypatch.setitem(globals(), "ROOT", tmp_path)
    monkeypatch.setitem(globals(), "SRC", tmp_path / "src" / PACKAGE)
    assert references() == expected
