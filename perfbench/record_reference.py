"""Write reference_rates.json: the fitted exponents of every workload at the
default seed, which `checks.py` compares later runs with.

    PYTHONPATH=src python3 perfbench/record_reference.py

Run it only when a change to the package is meant to move the fitted
exponents, and say so in that change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import checks
import envinfo
import workloads
from worker import import_package, run_operation

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    cli = import_package()
    work = ROOT / ".perfbench" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out = {"seed": workloads.DEFAULT_SEED, "rel_tol": checks.REL_TOL,
           "src_sha256": envinfo.source_digest(ROOT / "src"), "workloads": {}}
    for name in workloads.WORKLOADS:
        inp = workloads.make_inputs(name, workloads.DEFAULT_SEED, work)
        outdir = work / name
        error = run_operation(cli, workloads.operation(inp, outdir))
        if error:
            print(f"{name}: {error}", file=sys.stderr)
            return 1
        out["workloads"][name] = {
            d.relative_to(outdir).as_posix(): checks.fitted_exponents(d)
            for d in workloads.run_dirs(inp, outdir)}
    checks.REFERENCE.write_text(json.dumps(out, indent=1) + "\n")
    shutil.rmtree(work)
    print(f"wrote {checks.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
