"""Start-up cost: which scipy subpackages a `dirac-mfp` process loads.

Every command is a fresh process, so each import the package makes is paid
once per command.  The package uses ``scipy.special`` and
``scipy.linalg`` only: a table target builds its PCHIP in numpy, so neither
``scipy.interpolate`` nor ``scipy.integrate`` is ever loaded.  The pytest
session itself imports both, so each case runs in a fresh interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

IMPORT_ALL = """
import importlib, pkgutil
import dirac_mfp, dirac_mfp.cli
for m in pkgutil.iter_modules(dirac_mfp.__path__):
    importlib.import_module("dirac_mfp." + m.name)
"""

SOLVE = """
from dirac_mfp import cli
assert cli.main(["solve", "--nt", "32", "--ny", "32", "--outdir", "run"]) == 0
"""

LOAD_CSV = """
from dirac_mfp import target
with open("table.csv", "w") as fh:
    fh.write("x,density\\n" + "".join(
        f"{-1 + k / 10},{1 - (-1 + k / 10) ** 2}\\n" for k in range(21)))
target.load_csv("table.csv", 1.0)
"""

REPORT = """
import sys
print("loaded:", *sorted(m for m in ("scipy.integrate", "scipy.interpolate")
                         if m in sys.modules))
"""


def loaded_after(code, cwd):
    """The scipy subpackages of interest that ``code`` leaves loaded in a
    fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code + REPORT], cwd=cwd,
                         env=env, capture_output=True, text=True, check=True)
    report = out.stdout.splitlines()[-1].split()
    assert report[0] == "loaded:"
    return set(report[1:])


@pytest.mark.parametrize("code, expected", [
    (IMPORT_ALL, set()),
    (SOLVE, set()),
    (LOAD_CSV, set()),
], ids=["import-every-module", "solve-power-bump", "load-csv"])
def test_scipy_subpackages_loaded(tmp_path, code, expected):
    assert loaded_after(code, tmp_path) == expected
