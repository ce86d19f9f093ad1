"""Digest every artifact of a fixed matrix of CLI calls, so that two trees can
be compared byte for byte with one ``diff``.

    python3 scripts/artifact_digests.py OUTDIR [--src TREE] [--against OTHER] > digests.txt

``TREE`` is the root of the checkout to run (default: the one holding this
script); its ``src/`` provides ``dirac_mfp`` and its ``perfbench/workloads.py``
the benchmark inputs.  ``OUTDIR`` must not exist.  Every call runs in-process
through ``dirac_mfp.cli.main`` with ``OUTDIR`` as the working directory and
relative output paths, so ``config.json`` carries no absolute path.

The matrix: one operation of each benchmark workload at seed 0; ``solve``,
``export`` and ``rates`` at theta in {0.5, 1, 2, 3, 10} on a 64^2 grid;
``solve`` and ``export`` of ``--a -0.3 --b 0.3`` at theta 1 on 64^2, whose
series reads w at labels beyond ny pad nodes of its rows; ``solve`` and
``export`` of ``--theta 0.5 --eps 1e-2 --a -0.7 --b 1.2`` on 64^2
(``turning``), whose series pads reach the exterior continuation next to
a turning boundary; ``solve --theta 3 --nt 192 --ny 128`` (``nonsquare``),
whose grid ladder 48x64, 96x64, 192x128 coarsens one axis at a time;
``solve --theta 3 --nt 100 --ny 75`` (``odd``), whose ladder 50x38, 100x75
coarsens the odd axis 75 to 38, where the coarse nodes are not fine ones;
a theta sweep over {1, 3}; one ``--target
self_similar`` run; ``validate``, ``solve`` and ``export`` at theta 1 on
64^2 of a ``(1 - x^2)_+`` table that the script writes (``parabola``), so
that table targets are checked beyond the one benchmark operation; the
``--help`` of the program
and of each subcommand, at a fixed width of 80 columns; and one call down
each failure path: a malformed ``--config`` file, a bad value inside one, a
Newton budget too small (exit 2), ``--strict`` at the default horizon (exit
3), ``rates`` on a missing run directory, ``validate --theta 0``,
``validate`` on a table with a three-field row and on a header-only table,
``solve --theta 0.005`` (whose profile radius overflows), ``solve --theta
0.009`` on 64^2 (whose terminal row is not monotone), an ``--outdir`` that
is a file or lies under one, a sweep with a rejected value, a flag value that
does not parse (``--nt abc``), and ``export`` and ``rates --write`` on a
run directory whose ``export`` is a file and whose ``rates.json`` is a
directory.  Last, ``rates`` on a run directory whose
``config.json`` carries the retired keys ``seed``, ``solver.linear_solver``
and ``solver.gamma_y_floor``, and ``rates`` on one (``mismatched``) whose
``config.json`` says theta 3 beside the ``flow.csv`` of ``theta=1``, which
exits 1.  Then the output paths that no call above takes: ``rates --write``
on a copy of ``theta=1`` (``rewritten``); ``rates theta=3 --window 0.2
0.201``, which fits no law; ``export`` on a copy of ``theta=3`` without
``series.csv`` and ``export`` (``no-series``), which rebuilds the series;
``rates --write --window 0.02 0.2`` and then ``export`` on a copy of
``theta=3`` without ``export`` (``rewindowed``), whose export follows the
window of ``config.json``, not that of the rewritten ``rates.json``, and so
equals that of ``theta=3``; an eps sweep over {1e-3, 0.5} on 64^2
(``failed-sweep``), whose second run fails inside its pipeline, so the
sweep writes a ``failed`` row and an empty Cauchy table and exits 2; an
eps sweep over {1e-2, 1e-3, 0.5} on 64^2 (``partial-sweep``), whose
Cauchy table holds the three rows of the pair (1e-2, 1e-3) and skips the
pair with the failed run; and ``solve --strict`` at theta 1 on 64^2
of a ((1 + x)(1 - x))^3 table on 400 rows that the script writes
(``steep``), whose envelope ratio 5.5e3 exceeds the bound 1e3 (exit 3).
A set-up step between calls (building such a run directory) prints
nothing.  The output lists, for each call, its argv,
its exit code (or ``raised <Type>`` for an exception that escapes
``main``), its standard output and its standard error, each stderr line
prefixed ``stderr: ``; then one ``sha256  path`` line for each file
written, sorted by path.

A boundary turns (its velocity changes sign inside the horizon) in the runs
``theta=0.5``, ``theta=1``, ``narrow``, ``turning``, ``strict``,
``sweep-theta/theta=1`` and ``sweep-eps/eps=0.01``.  A change to the turning
rule of the exterior continuation may move only their snapshots,
``series.csv`` and ``export/lyapunov.csv``.

``--against OTHER`` names the ``OUTDIR`` of an earlier run of this script
(for instance on the parent commit).  After the digests, each file whose
bytes differ between the two directories gets one ``differs`` line with the
largest absolute difference of its numbers: over the numeric fields of a
CSV file, or the numeric leaves of a JSON file, at the positions both files
have.  The line also counts the non-numeric fields that differ, and the
positions only one file has: it counts them in a CSV file, and names their
dotted key paths in a JSON file, with the run that has them.  A file present
in one directory only, or neither CSV nor JSON, is named as such.  The
script exits 1 when it prints any ``differs`` line, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
import sys
from pathlib import Path

GRID64 = ["--nt", "64", "--ny", "64"]
SUBCOMMANDS = ("solve", "sweep", "rates", "validate", "export")


def write_table(path: Path, density, rows: int) -> None:
    """``x,density`` table of ``density(x)`` on ``rows`` evenly spaced nodes
    of [-1, 1]."""
    x = [-1.0 + 2 * k / (rows - 1) for k in range(rows)]
    path.write_text("x,density\n" + "".join(
        f"{a:.17g},{density(a):.17g}\n" for a in x))


def copied_run(run: Path, copy_of: Path, *leave_out: str) -> None:
    """A copy of the run directory ``copy_of`` without the entries named
    ``leave_out``."""
    shutil.copytree(copy_of, run, ignore=shutil.ignore_patterns(*leave_out))


def wrong_kinds(run: Path, copy_of: Path) -> None:
    """A run directory holding the ``config.json`` and ``flow.csv`` of
    ``copy_of``, whose ``export`` is a file and whose ``rates.json`` is a
    directory."""
    run.mkdir()
    for name in ("config.json", "flow.csv"):
        shutil.copyfile(copy_of / name, run / name)
    (run / "export").write_text("")
    (run / "rates.json").mkdir()


def edited_config(run: Path, copy_of: Path, edit) -> None:
    """A run directory holding the ``flow.csv`` of ``copy_of`` and its
    ``config.json`` as changed in place by ``edit``."""
    run.mkdir()
    shutil.copyfile(copy_of / "flow.csv", run / "flow.csv")
    doc = json.loads((copy_of / "config.json").read_text())
    edit(doc)
    (run / "config.json").write_text(json.dumps(doc, indent=2) + "\n")


def retired_keys(doc: dict) -> None:
    """Add the retired keys to a ``config.json``, as older versions wrote
    them."""
    doc["seed"] = 0
    doc["solver"].update(linear_solver="banded-direct", gamma_y_floor=1e-8)


def numbers(path: Path) -> dict | None:
    """The numbers of a CSV or JSON file by their position (row and column,
    or key path), non-numeric fields by their text; None for other files."""
    if path.suffix == ".csv":
        rows = list(csv.reader(path.read_text().splitlines()))
        return {(i, j): _number(v) for i, row in enumerate(rows)
                for j, v in enumerate(row)}
    if path.suffix == ".json":
        out = {}

        def walk(node, key):
            items = (node.items() if isinstance(node, dict)
                     else enumerate(node) if isinstance(node, list) else None)
            if items is None:
                out[key] = node
                return
            for k, v in items:
                walk(v, (*key, k))
        walk(json.loads(path.read_text()), ())
        return out
    return None


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _gap(x: float, y: float) -> float:
    """|x - y|, with equal values (NaN included) 0 and NaN against a number
    infinite."""
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    d = abs(x - y)
    return d if d == d else math.inf


def compare(here: Path, other: Path) -> bool:
    """Print one line for each file whose bytes differ between the two
    directories; True when there is any."""
    files = {p.relative_to(d) for d in (here, other)
             for p in d.rglob("*") if p.is_file()}
    differs = False
    for rel in sorted(files):
        a, b = here / rel, other / rel
        if a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes():
            continue
        differs = True
        if not (a.is_file() and b.is_file()):
            where = "this run" if a.is_file() else "the other run"
            print(f"differs: {rel}  only in {where}")
            continue
        na, nb = numbers(a), numbers(b)
        if na is None:
            print(f"differs: {rel}  (neither CSV nor JSON)")
            continue
        common = na.keys() & nb.keys()
        gap = max((_gap(na[k], nb[k]) for k in common
                   if _is_number(na[k]) and _is_number(nb[k])), default=0.0)
        note = f"max abs difference {gap:.3g}"
        text = sum(na[k] != nb[k] for k in common
                   if not (_is_number(na[k]) and _is_number(nb[k])))
        if text:
            note += f"; {text} non-numeric fields differ"
        if na.keys() != nb.keys() and rel.suffix == ".json":
            for where, x, y in (("this run", na, nb),
                                ("the other run", nb, na)):
                only = sorted(".".join(map(str, k))
                              for k in x.keys() - y.keys())
                if only:
                    note += f"; only in {where}: {', '.join(only)}"
        elif na.keys() != nb.keys():
            note += f"; {len(na.keys() ^ nb.keys())} fields in one file only"
        print(f"differs: {rel}  {note}")
    return differs


def matrix(workloads) -> list:
    """The calls in order: argv lists, and set-up steps as callables."""
    calls = []
    for name in workloads.WORKLOADS:
        inputs = Path("inputs") / name
        inputs.mkdir(parents=True)
        inp = workloads.make_inputs(name, 0, inputs)
        calls += workloads.operation(inp, Path(name))
    for theta in ("0.5", "1", "2", "3", "10"):
        out = f"theta={theta}"
        calls += [["solve", "--theta", theta, *GRID64, "--outdir", out],
                  ["export", out],
                  ["rates", out]]
    calls += [["solve", *GRID64, "--a", "-0.3", "--b", "0.3",
               "--outdir", "narrow"],
              ["export", "narrow"]]
    calls += [["solve", "--theta", "0.5", "--eps", "1e-2", "--a", "-0.7",
               "--b", "1.2", *GRID64, "--outdir", "turning"],
              ["export", "turning"]]
    calls.append(["solve", "--theta", "3", "--nt", "192", "--ny", "128",
                  "--outdir", "nonsquare"])
    calls.append(["solve", "--theta", "3", "--nt", "100", "--ny", "75",
                  "--outdir", "odd"])
    calls.append(["sweep", "--axis", "theta", "--values", "1,3", *GRID64,
                  "--outdir", "sweep-theta"])
    calls.append(["solve", "--target", "self_similar", *GRID64,
                  "--outdir", "self-similar"])
    table = Path("inputs") / "parabola.csv"
    write_table(table, lambda a: max(1.0 - a * a, 0.0), 101)
    calls += [["validate", str(table), "--theta", "1"],
              ["solve", "--target", "file", "--target-path", str(table),
               "--theta", "1", *GRID64, "--outdir", "parabola"],
              ["export", "parabola"]]
    calls.append(["--help"])
    calls += [[name, "--help"] for name in SUBCOMMANDS]

    malformed = Path("inputs") / "malformed.json"
    malformed.write_text("{ not json\n")
    bad_value = Path("inputs") / "bad-value.json"
    bad_value.write_text('{"theta": -1}\n')
    three_fields = Path("inputs") / "three-fields.csv"
    three_fields.write_text("x,density\n0,1\n1,1,1\n")
    header_only = Path("inputs") / "header-only.csv"
    header_only.write_text("x,density\n")
    a_file = Path("inputs") / "a-file"
    a_file.write_text("")
    steep = Path("inputs") / "steep.csv"
    write_table(steep, lambda a: ((1.0 + a) * (1.0 - a)) ** 3, 400)
    calls += [
        ["solve", "--config", str(malformed)],
        ["solve", "--config", str(bad_value)],
        ["solve", *GRID64, "--max-iter", "1", "--tol", "1e-16",
         "--outdir", "diverged"],
        ["solve", *GRID64, "--strict", "--outdir", "strict"],
        ["rates", "no-such-run"],
        ["validate", str(table), "--theta", "0"],
        ["validate", str(three_fields), "--theta", "1"],
        ["validate", str(header_only), "--theta", "1"],
        ["solve", "--theta", "0.005"],
        ["solve", "--theta", "0.009", *GRID64],
        ["solve", *GRID64, "--outdir", str(a_file)],
        ["solve", *GRID64, "--outdir", str(a_file / "sub")],
        ["sweep", "--axis", "eps", "--values", "1e-2", *GRID64,
         "--outdir", str(a_file)],
        ["sweep", "--axis", "eps", "--values", "1e-3,-1", *GRID64,
         "--outdir", "rejected-sweep"],
        ["solve", "--nt", "abc"],
        lambda: wrong_kinds(Path("wrong-kind"), Path("theta=1")),
        ["export", "wrong-kind"],
        ["rates", "wrong-kind", "--write"],
        lambda: edited_config(Path("retired-keys"), Path("theta=1"),
                              retired_keys),
        ["rates", "retired-keys"],
        lambda: edited_config(Path("mismatched"), Path("theta=1"),
                              lambda doc: doc.update(theta=3.0)),
        ["rates", "mismatched"],
        lambda: copied_run(Path("rewritten"), Path("theta=1")),
        ["rates", "rewritten", "--write"],
        ["rates", "theta=3", "--window", "0.2", "0.201"],
        lambda: copied_run(Path("no-series"), Path("theta=3"), "series.csv",
                           "export"),
        ["export", "no-series"],
        lambda: copied_run(Path("rewindowed"), Path("theta=3"), "export"),
        ["rates", "rewindowed", "--write", "--window", "0.02", "0.2"],
        ["export", "rewindowed"],
        ["sweep", "--axis", "eps", "--values", "1e-3,0.5", *GRID64,
         "--outdir", "failed-sweep"],
        ["sweep", "--axis", "eps", "--values", "1e-2,1e-3,0.5", *GRID64,
         "--outdir", "partial-sweep"],
        ["solve", "--target", "file", "--target-path", str(steep),
         "--theta", "1", *GRID64, "--strict", "--outdir", "steep"],
    ]
    return calls


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("outdir", type=Path, help="new directory for the runs")
    ap.add_argument("--src", type=Path,
                    default=Path(__file__).resolve().parent.parent,
                    help="root of the checkout to run")
    ap.add_argument("--against", type=Path, metavar="OTHER",
                    help="OUTDIR of an earlier run to compare the files with")
    args = ap.parse_args()
    tree = args.src.resolve()
    against = args.against.resolve() if args.against else None
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import workloads
    from dirac_mfp.cli import main as cli_main

    args.outdir.mkdir(parents=True)
    os.chdir(args.outdir)
    os.environ["COLUMNS"] = "80"        # argparse wraps help to the terminal
    for argv in matrix(workloads):
        if callable(argv):
            argv()
            continue
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = f"exit {cli_main(argv)}"
            except SystemExit as exc:   # --help
                status = f"exit {exc.code}"
            except Exception as exc:    # noqa: BLE001 - recorded, not fatal
                status = f"raised {type(exc).__name__}"
        print(f"$ dirac-mfp {' '.join(argv)}\n{status}")
        print(out.getvalue(), end="")
        print("".join(f"stderr: {line}\n"
                      for line in err.getvalue().splitlines()), end="")
    for path in sorted(p for p in Path(".").rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path}")
    if against is not None and compare(Path("."), against):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
