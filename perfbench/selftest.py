"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. BENCHMARK.json has exactly the allowed keys, and its names, units and
   bounds are well formed.
2. A smoke pass of every workload on a tiny grid, traced and untraced,
   prints as its last line one JSON object with exactly the keys
   ``correct``, ``attempted``, ``failed`` and ``metrics``, whose metric
   names and units are those BENCHMARK.json lists for that mode.
3. A copy of BENCHMARK.json and the benchmark's files alone, without the
   package, exits nonzero and prints no result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_spec(spec: dict) -> list[str]:
    errs = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != keys:
        errs.append(f"top-level keys {sorted(spec)} != {sorted(keys)}")
        return errs
    cmd = spec["command"]
    if not (isinstance(cmd, list) and 1 <= len(cmd) <= 32
            and all(isinstance(c, str) and len(c) <= 200 for c in cmd)):
        errs.append("command must be a list of at most 32 short strings")
    if any(c.startswith("/") or ".." in Path(c).parts for c in cmd):
        errs.append("command names an absolute path or leaves the repo")
    paths = spec["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16):
        errs.append("paths must list 1 to 16 directories")
    for p in paths:
        if not (PATH.fullmatch(p) and (ROOT / p).is_dir()
                and ".." not in Path(p).parts):
            errs.append(f"bad path {p!r}")
    for c in cmd:
        if ("/" in c and not any(Path(c).parts[:len(Path(p).parts)]
                                 == Path(p).parts for p in paths)):
            errs.append(f"command names {c!r} outside paths")
    secs = spec["run_seconds"]
    if not (isinstance(secs, int) and 1 <= secs <= 60):
        errs.append("run_seconds must be a whole number from 1 to 60")
    names = []
    wls = spec["workloads"]
    if not 2 <= len(wls) <= 8:
        errs.append("need 2 to 8 workloads")
    for w in wls:
        if set(w) != {"name", "why"}:
            errs.append(f"workload keys {sorted(w)}")
            continue
        names.append(w["name"])
        if len(w["why"]) > 200 or "\n" in w["why"]:
            errs.append(f"why of {w['name']} is not one line of <= 200 chars")
    e2e = spec["end_to_end"]
    if not 1 <= len(e2e) <= 16:
        errs.append("need 1 to 16 end-to-end metrics")
    for m in e2e:
        if set(m) != {"name", "unit", "better", "bound"}:
            errs.append(f"end-to-end keys {sorted(m)}")
            continue
        if not (isinstance(m["bound"], (int, float)) and 0 < m["bound"] <= 0.25):
            errs.append(f"bound of {m['name']} outside (0, 0.25]")
    setup = [m for m in e2e if m.get("name") == "setup_s"]
    if not (setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"):
        errs.append("setup_s with unit s and better=lower is required")
    elif setup[0]["bound"] < max(m["bound"] for m in e2e):
        errs.append("setup_s should carry the largest bound")
    layer = spec["per_layer"]
    if not 1 <= len(layer) <= 128:
        errs.append("need 1 to 128 per-layer metrics")
    for m in layer:
        if set(m) != {"name", "unit", "better"}:
            errs.append(f"per-layer keys {sorted(m)}")
    for m in e2e + layer:
        names.append(m.get("name", ""))
        if not UNIT.fullmatch(m.get("unit", "")):
            errs.append(f"bad unit {m.get('unit')!r}")
        if m.get("better") not in ("lower", "higher"):
            errs.append(f"better of {m.get('name')} must be lower or higher")
    for n in names:
        if not NAME.fullmatch(n):
            errs.append(f"bad name {n!r}")
    if len(names) != len(set(names)):
        errs.append("names are not unique")
    if len(json.dumps(spec)) > 64 * 1024:
        errs.append("BENCHMARK.json exceeds 64 KiB")
    return errs


def check_result(line: str, expected: dict, end_to_end: bool) -> list[str]:
    """``expected`` maps metric name to unit."""
    try:
        res = json.loads(line)
    except json.JSONDecodeError as exc:
        return [f"last line is not JSON: {exc}"]
    if not isinstance(res, dict) or set(res) != RESULT_KEYS:
        return [f"result keys {sorted(res) if isinstance(res, dict) else res}"]
    errs = []
    if res["correct"] is not True:
        errs.append("correct is not true")
    att, failed = res["attempted"], res["failed"]
    if not (type(att) is int and att >= 1 and type(failed) is int
            and 0 <= failed <= att):
        errs.append(f"attempted={att!r} failed={failed!r}")
    elif failed:
        errs.append(f"{failed} of {att} operations failed")
    metrics = res["metrics"]
    if set(metrics) != set(expected):
        errs.append(f"metrics differ: missing {sorted(set(expected) - set(metrics))}"
                    f", extra {sorted(set(metrics) - set(expected))}")
    for name, m in metrics.items():
        if not (isinstance(m, dict) and set(m) == {"value", "unit"}):
            errs.append(f"{name}: entry {m!r}")
            continue
        v = m["value"]
        if not (isinstance(v, (int, float)) and not isinstance(v, bool)
                and math.isfinite(v)):
            errs.append(f"{name}: value {v!r} is not a finite number")
        elif end_to_end and v <= 0:
            errs.append(f"{name}: end-to-end value {v} is not positive")
        if name in expected and m["unit"] != expected[name]:
            errs.append(f"{name}: unit {m['unit']!r} != {expected[name]!r}")
    return errs


def run(script: Path, cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = [f"BENCHMARK.json: {e}" for e in check_spec(spec)]

    sys.path.insert(0, str(HERE))
    import workloads
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(workloads.WORKLOADS):
        failures.append(f"workloads {names} != {list(workloads.WORKLOADS)}")

    modes = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for wl in names:
        for trace, expected in modes.items():
            out = run(HERE / "run.py", ROOT, wl, trace)
            lines = out.stdout.strip().splitlines()
            errs = ([f"exit {out.returncode}: {out.stderr[-500:]}"]
                    if out.returncode != 0 or not lines
                    else check_result(lines[-1], expected, trace == 0))
            failures += [f"{wl} --trace {trace}: {e}" for e in errs]
            print(f"{wl} --trace {trace}: {'ok' if not errs else 'FAIL'}")

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for p in spec["paths"]:
        shutil.copytree(ROOT / p, bare / p,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = run(bare / "perfbench" / "run.py", bare, names[0], 0)
    printed = out.stdout.strip().splitlines()
    if out.returncode == 0 or (printed and printed[-1].startswith("{")):
        failures.append("without the package the benchmark did not fail")
    print(f"bare directory: exit {out.returncode}")
    shutil.rmtree(bare)

    for f in failures:
        print(f"FAIL {f}")
    print("selftest " + ("passed" if not failures else "failed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
