"""Digest every artifact of a fixed matrix of CLI calls, so that two trees can
be compared byte for byte with one ``diff``.

    python3 scripts/artifact_digests.py OUTDIR [--src TREE] > digests.txt

``TREE`` is the root of the checkout to run (default: the one holding this
script); its ``src/`` provides ``dirac_mfp`` and its ``perfbench/workloads.py``
the benchmark inputs.  ``OUTDIR`` must not exist.  Every call runs in-process
through ``dirac_mfp.cli.main`` with ``OUTDIR`` as the working directory and
relative output paths, so ``config.json`` carries no absolute path.

The matrix: one operation of each benchmark workload at seed 0; ``solve``,
``export`` and ``rates`` at theta in {0.5, 1, 2, 3, 10} on a 64^2 grid; a
theta sweep over {1, 3}; one ``--target self_similar`` run.  The output lists,
for each call, its argv, exit code and standard output, then one
``sha256  path`` line for each file written, sorted by path.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

GRID64 = ["--nt", "64", "--ny", "64"]


def matrix(workloads) -> list[list[str]]:
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
    calls.append(["sweep", "--axis", "theta", "--values", "1,3", *GRID64,
                  "--outdir", "sweep-theta"])
    calls.append(["solve", "--target", "self_similar", *GRID64,
                  "--outdir", "self-similar"])
    return calls


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("outdir", type=Path, help="new directory for the runs")
    ap.add_argument("--src", type=Path,
                    default=Path(__file__).resolve().parent.parent,
                    help="root of the checkout to run")
    args = ap.parse_args()
    tree = args.src.resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import workloads
    from dirac_mfp.cli import main as cli_main

    args.outdir.mkdir(parents=True)
    os.chdir(args.outdir)
    for argv in matrix(workloads):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(argv)
        print(f"$ dirac-mfp {' '.join(argv)}\nexit {code}")
        print(buf.getvalue(), end="")
    for path in sorted(p for p in Path(".").rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
