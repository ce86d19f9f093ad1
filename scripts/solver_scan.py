"""Solve a fixed scan of 40 cases and save every flow, so that two trees can
be compared case by case: the same Newton steps and CG iterations on every
grid of the ladder, the same flows, and the CPU time each takes.

    python3 scripts/solver_scan.py OUTDIR [--src TREE] [--against OTHER]

``TREE`` is the root of the checkout to run (default: the one holding this
script); its ``src/`` provides ``dirac_mfp`` and its ``perfbench/workloads.py``
the benchmark table.  ``OUTDIR`` must not exist.

The cases: theta in {0.25, 0.5, 1, 3, 10} x eps in {1e-3, 1e-6} x two
targets x the grids 128^2 and 256^2, all at T = 1.  The targets are the
benchmark's two-bump table at seed 0 (``table``: 400 rows of
``workloads.two_bump_density(0, theta)``) and ``power_bump(-0.7, 1.2)``
(``bump``).  Each case runs ``dirac_mfp.solver.solve`` once in this process,
on one BLAS thread (``cli._one_blas_thread``), and prints one line: its name,
``SolveInfo.levels``, the final scaled gradient and the CPU time of the solve
(``time.process_time``).  The last lines give the CPU time of each grid's
half.  Each flow is saved as ``OUTDIR/<case>.npy`` and the printed figures
as ``OUTDIR/scan.json``.

``--against OTHER`` names the ``OUTDIR`` of an earlier run (for instance on
the parent commit).  Then each case also prints the largest |delta gamma|
between the two flows and the ratio of the CPU times, and each half its
ratio.  The script exits 1 when a case's ``levels`` differ, a flow moves by
more than 1e-12 or a case is missing from ``OTHER``, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

THETAS = (0.25, 0.5, 1.0, 3.0, 10.0)
EPSILONS = (1e-3, 1e-6)
TARGETS = ("table", "bump")
GRIDS = (128, 256)
FLOW_TOL = 1e-12


def cases():
    """``(name, theta, eps, target, n)`` of every case, in order."""
    return [(f"n={n}-theta={theta:g}-eps={eps:g}-{target}", theta, eps,
             target, n)
            for n in GRIDS for theta in THETAS for eps in EPSILONS
            for target in TARGETS]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("outdir", type=Path, help="new directory for the flows")
    ap.add_argument("--src", type=Path,
                    default=Path(__file__).resolve().parent.parent,
                    help="root of the checkout to run")
    ap.add_argument("--against", type=Path, metavar="OTHER",
                    help="OUTDIR of an earlier run to compare the flows with")
    args = ap.parse_args()
    tree = args.src.resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import numpy as np
    import workloads
    from dirac_mfp.cli import _one_blas_thread
    from dirac_mfp.profile import make_profile
    from dirac_mfp.solver import make_grid, solve
    from dirac_mfp.target import TerminalDensity, power_bump

    _one_blas_thread()
    other = None
    if args.against is not None:
        other = json.loads((args.against / "scan.json").read_text())
    args.outdir.mkdir(parents=True)
    record, failed = {}, False
    for name, theta, eps, target, n in cases():
        p = make_profile(theta)
        m = (TerminalDensity.from_table(*workloads.two_bump_density(0, theta),
                                        theta=theta)
             if target == "table" else power_bump(-0.7, 1.2, theta))
        g = make_grid(p, eps, 1.0, n, n)
        start = time.process_time()
        f = solve(p, m, g)
        cpu = time.process_time() - start
        np.save(args.outdir / f"{name}.npy", f.gamma)
        levels = [list(lv) for lv in f.info.levels]
        record[name] = {"levels": levels, "grad_norm": f.info.grad_norm,
                        "cpu_s": cpu}
        line = (f"{name}  levels {levels}  gradient {f.info.grad_norm:.3g}"
                f"  cpu {cpu:.3f} s")
        if other is not None:
            if name not in other:
                line += "  missing from OTHER"
                failed = True
            else:
                moved = float(np.max(np.abs(
                    f.gamma - np.load(args.against / f"{name}.npy"))))
                line += (f"  max |dgamma| {moved:.3g}"
                         f"  cpu ratio {cpu / other[name]['cpu_s']:.3f}")
                if other[name]["levels"] != levels:
                    line += f"  levels differ: {other[name]['levels']}"
                    failed = True
                if not moved <= FLOW_TOL:
                    failed = True
        print(line, flush=True)
    for n in GRIDS:
        names = [c[0] for c in cases() if c[4] == n]
        cpu = sum(record[k]["cpu_s"] for k in names)
        line = f"n={n}: cpu {cpu:.3f} s"
        if other is not None and all(k in other for k in names):
            before = sum(other[k]["cpu_s"] for k in names)
            line += f" against {before:.3f} s, ratio {cpu / before:.3f}"
        print(line)
    (args.outdir / "scan.json").write_text(json.dumps(record, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
