"""Benchmark of dirac-mfp: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve-nonaffine --seed 0 --seconds 30 --trace 0

The package is imported from the checkout's ``src`` (nothing is installed).
The run

1. times a cold-interpreter import of ``dirac_mfp.cli`` and every module of
   the package in fresh interpreters (``setup_s``, median of `SETUP_REPEATS`
   after one untimed import that fills the bytecode cache);
2. runs the workload in a fresh worker process (``worker.py``), a closed
   loop of one client, and checks every operation's output (``checks.py``);
3. prints a summary, the environment, and as the last line one JSON object
   ``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
   metrics are the end-to-end ones of BENCHMARK.json, with ``--trace 1`` the
   per-layer ones, taken from spans (``spans.py``).

Everything the run writes goes under ``.perfbench/`` in the checkout.  The
exit code is 0 when a result was printed, 2 when the checkout holds no
package or the worker did not finish.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import workloads
from spans import ROOT as ROOT_SPAN, WRAPPED

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 150.0

IMPORT_PROBE = """
import time
t0 = time.perf_counter()
import importlib, pkgutil
import dirac_mfp.cli, dirac_mfp
for m in pkgutil.iter_modules(dirac_mfp.__path__):
    importlib.import_module("dirac_mfp." + m.name)
dt = time.perf_counter() - t0
print(dirac_mfp.__file__)
print(repr(dt))
"""

# per-layer metric -> (layers whose wrappers it needs, unit)
LAYER_METRICS = {
    "target.build_s": (("target.build",), "s"),
    "target.quantile_s": (("target.quantile",), "s"),
    "target.quantile_calls": (("target.quantile",), "count"),
    "solver.self_s": (("solver.solve",), "s"),
    "solver.newton_steps": ((), "count"),
    "solver.linear_s": (("solver.linear",), "s"),
    "solver.linear_calls": (("solver.linear",), "count"),
    "solver.linear_share": (("solver.linear", "solver.solve"), "ratio"),
    "solver.energy_evals": (("solver.energy",), "count"),
    "solver.band_mb": ((), "MiB"),
    "fields.value_s": (("fields.value",), "s"),
    "fields.value_calls": (("fields.value",), "count"),
    "fields.snapshot_s": (("fields.snapshot",), "s"),
    "fields.snapshot_calls": (("fields.snapshot",), "count"),
    "fields.boundary_calls": (("fields.boundary",), "count"),
    "rescale.series_s": (("rescale.series",), "s"),
    "rescale.series_calls": (("rescale.series",), "count"),
    "metrics.rates_self_s": (("metrics.rates",), "s"),
    "metrics.rates_calls": (("metrics.rates",), "count"),
    "metrics.wasserstein_s": (("metrics.wasserstein",), "s"),
    "cli.sweep_overlap": (("cli.pipeline", "cli.sweep"), "ratio"),
    "cli.write_s": (("cli.write",), "s"),
    "cli.read_s": (("cli.read",), "s"),
    "cli.bytes_written_mb": ((), "MiB"),
    "cli.self_s": ((), "s"),
    "trace.overhead_frac": ((), "ratio"),
}

END_TO_END_UNITS = {"op_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB",
                    "setup_s": "s"}


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def package_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONSTARTUP", None)
    return env


def measure_setup(repeats: int) -> list[float]:
    """Cold-interpreter import times; the first, untimed, fills __pycache__."""
    times = []
    for i in range(repeats + 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                             env=package_env(), capture_output=True,
                             text=True, timeout=60)
        if out.returncode != 0:
            raise RuntimeError(f"import failed:\n{out.stderr}")
        path, dt = out.stdout.split()
        if not Path(path).resolve().is_relative_to(ROOT / "src"):
            raise RuntimeError(f"dirac_mfp was imported from {path}, "
                               f"not from the checkout")
        if i:
            times.append(float(dt))
    return times


def upper_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return None
    pct = int(100 * (n - 10) / n)
    return pct, statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def layer_values(ops: list[dict], absent_funcs: dict) -> tuple[dict, dict]:
    """Median over the traced operations of each per-layer metric, and the
    reasons of those that cannot be measured."""
    traced = [o for o in ops if o["traced"]]
    plain = [o for o in ops if not o["traced"]]
    # a layer with an unwrappable function is absent only if none of its
    # other functions recorded a call (the solver may drop one linear path)
    missing: dict[str, list[str]] = {}
    for layer, mod, attr in WRAPPED:
        if f"{mod}:{attr}" in absent_funcs:
            missing.setdefault(layer, []).append(
                f"{mod}:{attr}: {absent_funcs[f'{mod}:{attr}']}")
    seen = {layer for o in traced for layer in o.get("layers", {})}
    absent = {}
    for name, (needs, _) in LAYER_METRICS.items():
        lost = [layer for layer in needs if layer in missing and layer not in seen]
        if lost:
            absent[name] = "; ".join(r for layer in lost for r in missing[layer])
    if "cli.sweep" not in seen:
        absent.setdefault("cli.sweep_overlap", "the workload runs no sweep")
    if any(f.get("newton_steps") is None for o in traced for f in o["facts"]):
        absent.setdefault("solver.newton_steps",
                          "manifest.json has no solver.iterations")
    if not plain:
        absent.setdefault("trace.overhead_frac", "no untraced operation ran")

    def per_op(o: dict) -> dict:
        L = o.get("layers", {})

        def get(layer, key):
            return L.get(layer, {}).get(key, 0.0)

        solve_incl = get("solver.solve", "incl_s")
        sweep_incl = get("cli.sweep", "incl_s")
        return {
            "target.build_s": get("target.build", "self_s"),
            "target.quantile_s": get("target.quantile", "self_s"),
            "target.quantile_calls": get("target.quantile", "calls"),
            "solver.self_s": get("solver.solve", "self_s"),
            "solver.newton_steps": sum(f["newton_steps"] or 0 for f in o["facts"]),
            "solver.linear_s": get("solver.linear", "self_s"),
            "solver.linear_calls": get("solver.linear", "calls"),
            "solver.linear_share": (get("solver.linear", "incl_s") / solve_incl
                                    if solve_incl else 0.0),
            "solver.energy_evals": get("solver.energy", "calls"),
            "solver.band_mb": max((f["band_mb"] for f in o["facts"]), default=0.0),
            "fields.value_s": get("fields.value", "self_s"),
            "fields.value_calls": get("fields.value", "calls"),
            "fields.snapshot_s": get("fields.snapshot", "self_s"),
            "fields.snapshot_calls": get("fields.snapshot", "calls"),
            "fields.boundary_calls": get("fields.boundary", "calls"),
            "rescale.series_s": get("rescale.series", "self_s"),
            "rescale.series_calls": get("rescale.series", "calls"),
            "metrics.rates_self_s": get("metrics.rates", "self_s"),
            "metrics.rates_calls": get("metrics.rates", "calls"),
            "metrics.wasserstein_s": get("metrics.wasserstein", "self_s"),
            "cli.sweep_overlap": (get("cli.pipeline", "incl_s") / sweep_incl
                                  if sweep_incl else 0.0),
            "cli.write_s": get("cli.write", "self_s"),
            "cli.read_s": get("cli.read", "self_s"),
            "cli.bytes_written_mb": o.get("bytes_written", 0) / 2**20,
            "cli.self_s": sum(get(layer, "self_s") for layer in
                              (ROOT_SPAN, "cli.pipeline", "cli.sweep")),
        }

    rows = [per_op(o) for o in traced]
    values = {name: float(statistics.median(r[name] for r in rows))
              for name in rows[0]} if rows else {}
    if plain and traced:
        values["trace.overhead_frac"] = (
            statistics.median(o["wall_s"] for o in traced)
            / statistics.median(o["wall_s"] for o in plain) - 1.0)
    for name in LAYER_METRICS:
        if name in absent or name not in values:
            values[name] = 0.0
    return values, absent


def self_time_table(ops: list[dict]) -> tuple[dict, float]:
    """Self time per layer summed over traced operations, and its total as
    a share of the traced wall time (above 1 when pool threads overlap)."""
    totals: dict[str, float] = {}
    wall = 0.0
    for o in ops:
        if o["traced"]:
            wall += o["wall_s"]
            for layer, row in o["layers"].items():
                totals[layer] = totals.get(layer, 0.0) + row["self_s"]
    return totals, (sum(totals.values()) / wall if wall else 0.0)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help=f"{workloads.SMOKE_GRID}x{workloads.SMOKE_GRID} grid, "
                         "one setup import: for the self-test")
    args = ap.parse_args()

    if not (ROOT / "src" / "dirac_mfp" / "__init__.py").is_file():
        return fail(f"no package at {ROOT / 'src' / 'dirac_mfp'}")
    workdir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    setup = []
    if not args.trace:
        try:
            setup = measure_setup(1 if args.smoke else SETUP_REPEATS)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            return fail(f"setup import: {exc}")

    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)]
    if args.smoke:
        cmd.append("--smoke")
    with open(workdir / "worker.out", "w") as out, \
            open(workdir / "worker.err", "w") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=package_env(),
                                stdout=out, stderr=err)
        try:
            rc = proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return fail(f"worker exceeded {WORKER_TIMEOUT_S:g} s")
    if rc != 0 or not (workdir / "worker.json").is_file():
        tail = (workdir / "worker.err").read_text()[-2000:]
        return fail(f"worker exited {rc}:\n{tail}")
    res = json.loads((workdir / "worker.json").read_text())

    ops = res["ops"]
    errors = [o["error"] for o in ops if o["error"]]
    attempted, failed = len(ops), len(errors)
    for e in errors[:3]:
        print(f"failed operation: {e}")
    print(f"workload {args.workload} seed {args.seed} grid {res['n']}: "
          f"{failed} of {attempted} operations failed "
          f"(failed_frac {failed / attempted:.3g})")

    if args.trace:
        metrics, absent = layer_values(ops, res["absent"])
        units = {k: u for k, (_, u) in LAYER_METRICS.items()}
        totals, share = self_time_table(ops)
        print("self time per layer over traced operations: "
              + ", ".join(f"{k} {v:.4f}s" for k, v in sorted(totals.items())))
        print(f"layer self times sum to {share:.4f} of the traced wall time")
        for func, reason in sorted(res["absent"].items()):
            print(f"not wrapped: {func}: {reason}")
        for name, reason in sorted(absent.items()):
            print(f"absent: {name}: {reason}")
    else:
        walls = [o["wall_s"] for o in ops]
        pct = upper_percentile(walls)
        print(f"op_s median {statistics.median(walls):.4f} s over n={len(walls)}"
              + (f", p{pct[0]} {pct[1]:.4f} s" if pct else
                 " (too few operations for an upper percentile)"))
        print(f"setup_s samples {[round(s, 4) for s in setup]}")
        metrics = {
            "op_s": statistics.median(walls),
            "cpu_s": statistics.median(o["cpu_s"] for o in ops),
            "peak_rss_mb": res["peak_rss_mb"],
            "setup_s": statistics.median(setup),
        }
        units = END_TO_END_UNITS
    print("env " + json.dumps(res["env"], sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
