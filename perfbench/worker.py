"""One workload in a fresh interpreter: a closed loop of operations.

One client sends the next operation only after the previous one has
completed and been checked.  The loop runs until the operations' summed wall
time reaches ``--seconds``.  With ``--trace 1`` every other operation, the
first included, runs with the span wrappers installed, so the traced and
untraced times of the same run give the tracing overhead.  Results go to
``<workdir>/worker.json`` and the spans to ``<workdir>/spans.json``;
``run.py`` turns them into metrics.

Run through ``run.py``, which sets ``PYTHONPATH`` to the checkout's ``src``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import pkgutil
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import checks
import envinfo
import spans
import workloads


def _cpu_s() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def _bytes_under(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def import_package():
    import dirac_mfp
    for mod in pkgutil.iter_modules(dirac_mfp.__path__):
        importlib.import_module(f"dirac_mfp.{mod.name}")
    return importlib.import_module("dirac_mfp.cli")


def run_operation(cli, argvs: list[list[str]]) -> str | None:
    """Run the CLI calls of one operation; the first error, or None."""
    for argv in argvs:
        try:
            rc = cli.main(argv)
        except Exception:  # a crash is a failed operation, not a crashed run
            return traceback.format_exc(limit=4)
        if rc != 0:
            return f"dirac-mfp {argv[0]} exited {rc}"
    return None


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    cli = import_package()
    env = envinfo.environment(Path(__file__).resolve().parents[1])
    inp = workloads.make_inputs(args.workload, args.seed, args.workdir,
                                smoke=args.smoke)
    m_target = workloads.build_target(inp)
    reference = (checks.load_reference(args.workload)
                 if args.seed == workloads.DEFAULT_SEED and not args.smoke
                 else None)
    tracer = spans.Tracer()

    ops = []
    measured = 0.0
    k = 0
    while measured < args.seconds:
        traced = bool(args.trace) and k % 2 == 0
        outdir = args.workdir / f"op{k:04d}"
        argvs = workloads.operation(inp, outdir)
        cpu0 = _cpu_s()
        if traced:
            with tracer.installed(), tracer.operation(k):
                t0 = time.perf_counter()
                error = run_operation(cli, argvs)
                wall = time.perf_counter() - t0
        else:
            t0 = time.perf_counter()
            error = run_operation(cli, argvs)
            wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
        record = {"op": k, "traced": traced, "wall_s": wall,
                  "cpu_s": cpu, "error": error, "facts": []}
        if error is None:
            record["bytes_written"] = _bytes_under(outdir)
            try:
                record["facts"] = checks.check_operation(
                    args.workload, outdir, workloads.run_dirs(inp, outdir),
                    m_target, reference)
            except Exception as exc:  # any check that cannot complete fails
                record["error"] = f"check: {type(exc).__name__}: {exc}"
        if traced:
            record["layers"] = spans.layer_totals(
                [s for s in tracer.spans if s.op == k])
        ops.append(record)
        shutil.rmtree(outdir, ignore_errors=True)
        measured += wall
        k += 1

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"workload": args.workload, "seed": args.seed,
              "n": inp.n, "env": env, "ops": ops,
              "peak_rss_mb": peak_kb / 1024.0,
              "absent": tracer.absent}
    (args.workdir / "spans.json").write_text(json.dumps(tracer.dump()))
    (args.workdir / "worker.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
