"""Output check of one operation, independent of the solver's own report.

Every run directory the operation leaves is re-read from disk:

* the scaled energy gradient is recomputed from ``flow.csv`` and must meet
  the configured ``residual_tol``;
* every time row of the flow map must be strictly increasing in the label;
* the terminal row must match the target the benchmark built itself
  (``fields.value_on_support`` raises on a mismatch);
* every artifact listed in ``manifest.json`` must exist;
* at the default seed, the fitted exponents in ``rates.json`` must match the
  values in ``reference_rates.json`` to a relative tolerance of `REL_TOL`.

Certificate misses (such as the documented theta=3 rate misses) exit 0 and
are not failures.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

REL_TOL = 1e-6
REFERENCE = Path(__file__).with_name("reference_rates.json")


class CheckFailed(Exception):
    pass


def read_flow_csv(path: Path):
    """(t, y, gamma) from a flow CSV whose header is ``t,<labels...>``.
    Parsed here, not with ``cli.load_flow_csv``, so that the check shares
    no reader with the program it checks."""
    with open(path) as fh:
        head = fh.readline().rstrip("\n").split(",")
    if head[0] != "t":
        raise CheckFailed(f"{path}: header does not start with 't'")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], np.array([float(v) for v in head[1:]]), data[:, 1:]


def listed_artifacts(manifest: dict) -> list[str]:
    out = []
    for val in manifest.get("artifacts", {}).values():
        out.extend(val if isinstance(val, list) else [val])
    return out


def fitted_exponents(rundir: Path) -> dict:
    report = json.loads((rundir / "rates.json").read_text())
    return {r["law"]: r["fitted_exponent"] for r in report["laws"]}


def check_run_dir(rundir: Path, m_target, reference: dict | None) -> dict:
    """Check one run directory; returns facts the benchmark reports
    (Newton steps, band size).  Raises `CheckFailed`."""
    from dirac_mfp import fields, profile, solver
    from dirac_mfp.errors import CompatibilityError

    manifest = json.loads((rundir / "manifest.json").read_text())
    config = json.loads((rundir / "config.json").read_text())
    missing = [a for a in listed_artifacts(manifest)
               if not (rundir / a).is_file()]
    if missing:
        raise CheckFailed(f"{rundir}: missing artifacts {missing}")

    t, y, gamma = read_flow_csv(rundir / "flow.csv")
    if not np.all(np.diff(gamma, axis=1) > 0.0):
        raise CheckFailed(f"{rundir}: a row of gamma is not strictly increasing")
    p = profile.make_profile(config["theta"])
    grid = solver.SpaceTimeGrid(eps=config["eps"], T=config["T"], t=t, y=y)
    f = solver.FlowField(grid=grid, profile=p, gamma=gamma)
    tol = config["solver"]["residual_tol"]
    gn = solver.scaled_gradient_norm(f, p)
    if not gn <= tol:
        raise CheckFailed(f"{rundir}: recomputed scaled gradient {gn:.3e} "
                          f"exceeds residual_tol {tol:.1e}")
    try:
        fields.value_on_support(f, p, m_target)
    except CompatibilityError as exc:
        raise CheckFailed(f"{rundir}: {exc}") from exc

    if reference is not None:
        got = fitted_exponents(rundir)
        if set(got) != set(reference):
            raise CheckFailed(f"{rundir}: laws {sorted(got)} differ from the "
                              f"reference {sorted(reference)}")
        for law, ref in reference.items():
            val = got[law]
            if (val is None) != (ref is None) or (
                    ref is not None and abs(val - ref) > REL_TOL * abs(ref)):
                raise CheckFailed(f"{rundir}: {law} exponent {val} differs "
                                  f"from reference {ref} (rel tol {REL_TOL})")

    M = grid.ny + 1
    return {
        "newton_steps": manifest.get("solver", {}).get("iterations"),
        # band storage of the banded Newton solve, computed, not measured
        "band_mb": (M + 1) * (grid.nt - 1) * M * 8 / 2**20,
    }


def check_operation(workload: str, outdir: Path, rundirs: list[Path],
                    m_target, reference: dict | None) -> list[dict]:
    """Check everything one operation wrote; raises `CheckFailed`."""
    facts = [check_run_dir(d, m_target, None if reference is None
                           else reference[d.relative_to(outdir).as_posix()])
             for d in rundirs]
    if workload == "session-supercritical":
        for name in ("mu_overlay.csv", "lyapunov.csv", "support_radius.csv",
                     "boundary_fan.csv"):
            if not (outdir / "export" / name).is_file():
                raise CheckFailed(f"{outdir}: export wrote no {name}")
    if workload == "sweep-eps":
        lines = (outdir / "sweep.csv").read_text().splitlines()[1:]
        if len(lines) != len(rundirs) or any(",ok," not in ln for ln in lines):
            raise CheckFailed(f"{outdir}: sweep.csv does not list "
                              f"{len(rundirs)} ok runs")
        cauchy = (outdir / "cauchy_d1.csv").read_text().splitlines()[1:]
        if len(cauchy) != 3 * (len(rundirs) - 1):
            raise CheckFailed(f"{outdir}: cauchy_d1.csv has {len(cauchy)} rows")
    return facts


def load_reference(workload: str) -> dict:
    """Fitted exponents per run directory (relative to the operation's
    output directory), for the default seed."""
    return json.loads(REFERENCE.read_text())["workloads"][workload]
