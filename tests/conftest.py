"""Flows shared by the module suites.

``solved64`` solves each (theta, target) case at 64x64 once per session:
theta in {0.5, 1, 3}, on the affine ``power_bump`` and on a two-bump CSV
table, whose flow depends genuinely on the label.
"""

import numpy as np
import pytest

from dirac_mfp import cli
from dirac_mfp.profile import make_profile
from dirac_mfp.solver import make_grid, solve
from dirac_mfp.target import load_csv, power_bump


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread():
    """The BLAS threads `cli.main` sets, from the first test on: tests call
    the CLI in-process, and results must not depend on which runs first."""
    cli._one_blas_thread()


def write_table(path, x, density):
    """Write the ``x,density`` CSV that `load_csv` reads, at 17 significant
    digits."""
    with open(path, "w") as fh:
        fh.write("x,density\n")
        for xi, di in zip(x, density):
            fh.write(f"{xi:.17g},{di:.17g}\n")


def write_two_bump_csv(path, theta):
    """Bimodal ``x,density`` table on [-1, 1] whose edges vanish like
    dist^(1/theta), as compatibility asks."""
    x = np.linspace(-1.0, 1.0, 200)
    edge = np.clip((x + 1.0) * (1.0 - x), 0.0, None) ** (1.0 / theta)
    bumps = (np.exp(-0.5 * ((x + 0.4) / 0.25) ** 2)
             + 0.8 * np.exp(-0.5 * ((x - 0.45) / 0.25) ** 2) + 0.3)
    write_table(path, x, edge * bumps)


@pytest.fixture(scope="session",
                params=[(th, kind) for th in (0.5, 1.0, 3.0)
                        for kind in ("power_bump", "two_bump_csv")],
                ids=lambda c: f"theta={c[0]:g}-{c[1]}")
def solved64(request, tmp_path_factory):
    theta, kind = request.param
    p = make_profile(theta)
    if kind == "power_bump":
        target = power_bump(-0.7, 1.2, theta)
    else:
        path = tmp_path_factory.mktemp("target") / "two_bump.csv"
        write_two_bump_csv(path, theta)
        target = load_csv(path, theta)
    return p, solve(p, target, make_grid(p, eps=1e-3, T=1.0, nt=64, ny=64))
