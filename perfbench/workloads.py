"""The three benchmark workloads: seeded inputs and the CLI calls of one
operation.  Why each workload exists is recorded in BENCHMARK.json.

The seed only generates inputs; the program sees a CSV file or two support
endpoints.  The seed moves each input a little around a fixed centre, so that
every seed gives the same amount of work (the same Newton step counts) and
runs with different seeds measure the same operation on different data.

The centres and jitters were chosen by scanning seeds, because the Newton
solver stagnates when a step lands with a scaled gradient just above the
default tolerance 1e-10: the Armijo test can no longer see the energy drop,
the step length halves each iteration and the solve ends in
NewtonDivergenceError or takes twice the steps.  Reproducers at the default
tolerance: ``power_bump(*power_bump_support(0, 1.05), 3)`` at theta=3,
128x128, eps=1e-3 (an affine flow), and sharper two-bump tables (bump centres at
0.31/0.69 of the support +-0.03, weights +-20 %) at 256x256, where about
one seed in twenty fails and one in seven needs a seventh step.  With the
inputs below, 80 two-bump seeds at 256x256 and 100 or more power_bump seeds
per workload all converged with the same step counts, to a scaled gradient
at least four times below the tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0

WORKLOADS = ("solve-nonaffine", "session-supercritical", "sweep-eps")
THETA = {"solve-nonaffine": 3.0, "session-supercritical": 3.0, "sweep-eps": 1.0}
GRID = {"solve-nonaffine": 256, "session-supercritical": 128, "sweep-eps": 128}
HALF_WIDTH = {"session-supercritical": 1.0, "sweep-eps": 1.06}
SMOKE_GRID = 32
SWEEP_EPS = "1e-2,1e-3,1e-4"
CSV_ROWS = 400


@dataclass(frozen=True)
class Inputs:
    """Generated inputs of one run: a CSV target or power_bump endpoints."""

    workload: str
    theta: float
    n: int
    target_csv: Path | None = None
    a: float = -1.0
    b: float = 1.0


def two_bump_density(seed: int, theta: float,
                     rows: int = CSV_ROWS) -> tuple[np.ndarray, np.ndarray]:
    """Two overlapping Gaussian bumps on a positive floor, times
    ((x-a)(b-x))^(1/theta) so both outer edges vanish like dist^(1/theta).
    The seed jitters the support ends, the bump centres and their weights."""
    rng = np.random.default_rng(seed)
    a = -1.0 + rng.uniform(-0.02, 0.02)
    b = 1.0 + rng.uniform(-0.02, 0.02)
    width = b - a
    c1 = a + width * (0.29 + rng.uniform(-0.01, 0.01))
    c2 = a + width * (0.71 + rng.uniform(-0.01, 0.01))
    w2 = 1.0 + rng.uniform(-0.05, 0.05)
    s = 0.15 * width
    x = np.linspace(a, b, rows)
    edge = np.clip((x - a) * (b - x), 0.0, None) ** (1.0 / theta)
    bumps = (np.exp(-0.5 * ((x - c1) / s) ** 2)
             + w2 * np.exp(-0.5 * ((x - c2) / s) ** 2) + 0.3)
    return x, edge * bumps


def power_bump_support(seed: int, half_width: float) -> tuple[float, float]:
    rng = np.random.default_rng(seed)
    return (-half_width + float(rng.uniform(-0.02, 0.02)),
            half_width + float(rng.uniform(-0.02, 0.02)))


def make_inputs(workload: str, seed: int, workdir: Path,
                smoke: bool = False) -> Inputs:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    theta = THETA[workload]
    n = SMOKE_GRID if smoke else GRID[workload]
    if workload == "solve-nonaffine":
        x, d = two_bump_density(seed, theta)
        path = workdir / "target.csv"
        with open(path, "w") as fh:
            fh.write("x,density\n")
            for xi, di in zip(x, d):
                fh.write(f"{xi:.17g},{di:.17g}\n")
        return Inputs(workload, theta, n, target_csv=path)
    a, b = power_bump_support(seed, HALF_WIDTH[workload])
    return Inputs(workload, theta, n, a=a, b=b)


def operation(inp: Inputs, outdir: Path) -> list[list[str]]:
    """The argv lists, for ``dirac_mfp.cli.main``, of one operation."""
    grid = ["--nt", str(inp.n), "--ny", str(inp.n)]
    theta = ["--theta", repr(inp.theta)]
    out = str(outdir)
    if inp.workload == "solve-nonaffine":
        return [["solve", *theta, *grid, "--eps", "1e-3", "--target", "file",
                 "--target-path", str(inp.target_csv), "--outdir", out]]
    bump = ["--target", "power_bump", "--a", repr(inp.a), "--b", repr(inp.b)]
    if inp.workload == "session-supercritical":
        return [["solve", *theta, *grid, *bump, "--outdir", out],
                ["export", out],
                ["rates", out, "--window", "0.01", "0.25"]]
    return [["sweep", "--axis", "eps", "--values", SWEEP_EPS, *theta, *grid,
             *bump, "--outdir", out]]


def run_dirs(inp: Inputs, outdir: Path) -> list[Path]:
    """Run directories (each with a manifest) one operation leaves."""
    if inp.workload == "sweep-eps":
        return [outdir / f"eps={float(v):g}" for v in SWEEP_EPS.split(",")]
    return [outdir]


def build_target(inp: Inputs):
    """The terminal density, built independently of the CLI's config."""
    from dirac_mfp import target
    if inp.target_csv is not None:
        return target.load_csv(inp.target_csv, inp.theta)
    return target.power_bump(inp.a, inp.b, inp.theta)
