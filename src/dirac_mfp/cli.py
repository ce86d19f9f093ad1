"""Command-line driver: end-to-end runs, sweeps, and plot-ready exports.

A run directory is self-describing: ``config.json`` echoes the fully
resolved configuration, ``manifest.json`` records solver diagnostics and
certificate outcomes, and every float is written with 17 significant
digits so a rerun with the same configuration produces bit-identical
files.

Exit codes: 0 success, 1 malformed configuration or input file, 2
solver failure or missing run artifacts, 3 certificate failure under
``--strict``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (CompatibilityError, CrossingCharacteristicsError,
                     DegenerateStateError, FormatError, InvalidParameterError,
                     NewtonDivergenceError, UnsupportedParameterError)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_CERTIFICATE = 3

TARGET_KINDS = ("power_bump", "self_similar", "file")

# canonical column order of sweep summaries; runs lacking a law leave nan
SWEEP_LAWS = ("support_radius", "m_inf", "m_power_norm", "ux_inf",
              "osc_u", "lyapunov", "d2_profile", "duality_pairing")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run description (file defaults + flag overrides)."""

    theta: float = 1.0
    eps: float = 1e-3
    T: float = 1.0
    nt: int = 128
    ny: int = 128
    target_kind: str = "power_bump"
    target_a: float = -1.0
    target_b: float = 1.0
    target_path: str | None = None
    newton_max_iter: int = 200
    residual_tol: float = 1e-10
    gamma_y_floor: float = 1e-8
    fit_window: tuple[float, float] | None = None
    outdir: str = "run"
    strict: bool = False

    def __post_init__(self):
        for name in ("theta", "eps", "T"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and v > 0.0 and np.isfinite(v)):
                raise InvalidParameterError(f"config: {name} must be a "
                                            f"positive number, got {v!r}")
        for name in ("nt", "ny"):
            v = getattr(self, name)
            if not (isinstance(v, int) and v >= 16):
                raise InvalidParameterError(f"config: {name} must be an "
                                            f"integer >= 16, got {v!r}")
        if self.target_kind not in TARGET_KINDS:
            raise InvalidParameterError(
                f"config: target kind must be one of {TARGET_KINDS}, "
                f"got {self.target_kind!r}")
        if self.target_kind == "file" and not self.target_path:
            raise InvalidParameterError(
                "config: target kind 'file' needs a path")
        if self.target_kind == "power_bump" and not self.target_b > self.target_a:
            raise InvalidParameterError(
                f"config: power_bump needs a < b, got "
                f"[{self.target_a}, {self.target_b}]")
        if self.fit_window is not None:
            lo, hi = self.fit_window
            if not (0.0 < lo < hi):
                raise InvalidParameterError(
                    f"config: fit window must satisfy 0 < lo < hi, "
                    f"got [{lo}, {hi}]")
            object.__setattr__(self, "fit_window", (float(lo), float(hi)))
        if self.newton_max_iter < 1:
            raise InvalidParameterError("config: newton_max_iter must be >= 1")
        if not self.residual_tol > 0.0:
            raise InvalidParameterError("config: residual_tol must be positive")


def config_to_nested(cfg: RunConfig) -> dict:
    return {
        "theta": cfg.theta, "eps": cfg.eps, "T": cfg.T,
        "nt": cfg.nt, "ny": cfg.ny,
        "target": {"kind": cfg.target_kind, "a": cfg.target_a,
                   "b": cfg.target_b, "path": cfg.target_path},
        "solver": {"newton_max_iter": cfg.newton_max_iter,
                   "residual_tol": cfg.residual_tol,
                   "gamma_y_floor": cfg.gamma_y_floor},
        "fit_window": list(cfg.fit_window) if cfg.fit_window else None,
        "outdir": cfg.outdir, "strict": cfg.strict,
    }


def nested_to_config(doc: dict, where: str = "config") -> RunConfig:
    """Build a RunConfig from the nested document, rejecting unknown keys."""
    if not isinstance(doc, dict):
        raise FormatError(f"{where}: expected a JSON object at top level")
    # retired keys (seed, solver.linear_solver): older run dirs must still load
    known = {"theta", "eps", "T", "nt", "ny", "target", "solver",
             "fit_window", "outdir", "strict", "seed"}
    for key in doc:
        if key not in known:
            raise FormatError(f"{where}: unknown key {key!r}")
    kw: dict = {}
    for key in ("theta", "eps", "T", "nt", "ny", "outdir", "strict"):
        if key in doc:
            kw[key] = doc[key]
    tgt = doc.get("target", {})
    if not isinstance(tgt, dict):
        raise FormatError(f"{where}: 'target' must be an object")
    for key in tgt:
        if key not in ("kind", "a", "b", "path"):
            raise FormatError(f"{where}: unknown target key {key!r}")
    if "kind" in tgt:
        kw["target_kind"] = tgt["kind"]
    if "a" in tgt:
        kw["target_a"] = tgt["a"]
    if "b" in tgt:
        kw["target_b"] = tgt["b"]
    if "path" in tgt:
        kw["target_path"] = tgt["path"]
    sol = doc.get("solver", {})
    if not isinstance(sol, dict):
        raise FormatError(f"{where}: 'solver' must be an object")
    for key in sol:
        if key not in ("newton_max_iter", "residual_tol", "gamma_y_floor",
                       "linear_solver"):
            raise FormatError(f"{where}: unknown solver key {key!r}")
    kw.update(sol)
    kw.pop("linear_solver", None)
    win = doc.get("fit_window")
    if win is not None:
        if not (isinstance(win, (list, tuple)) and len(win) == 2):
            raise FormatError(f"{where}: fit_window must be [lo, hi]")
        kw["fit_window"] = (win[0], win[1])
    try:
        return RunConfig(**kw)
    except TypeError as exc:
        raise FormatError(f"{where}: {exc}") from exc


def load_config(path) -> RunConfig:
    p = Path(path)
    if not p.is_file():
        raise FormatError(f"{path}: no such config file")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        # carry the position so a truncated or mistyped file is locatable
        raise FormatError(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return nested_to_config(doc, where=str(path))


def _merge_flags(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    """Apply CLI flags (None = not given) on top of the config file."""
    updates: dict = {}
    pairs = [("theta", "theta"), ("eps", "eps"), ("T", "T"),
             ("nt", "nt"), ("ny", "ny"), ("target", "target_kind"),
             ("a", "target_a"), ("b", "target_b"),
             ("target_path", "target_path"), ("outdir", "outdir"),
             ("max_iter", "newton_max_iter"), ("tol", "residual_tol")]
    for flag, field in pairs:
        v = getattr(args, flag, None)
        if v is not None:
            updates[field] = v
    if getattr(args, "window", None) is not None:
        updates["fit_window"] = tuple(args.window)
    if getattr(args, "strict", None):
        updates["strict"] = True
    return dataclasses.replace(cfg, **updates) if updates else cfg


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    return _merge_flags(cfg, args)


# ---------------------------------------------------------------------------
# artifact I/O
# ---------------------------------------------------------------------------

def save_flow_csv(f, path) -> None:
    """Flow map as one row per time node; header carries the label grid."""
    g = f.grid
    header = "t," + ",".join(f"{v:.17g}" for v in g.y)
    np.savetxt(path, np.column_stack([g.t, f.gamma]), fmt="%.17g",
               delimiter=",", header=header, comments="")


def load_flow_csv(path):
    with open(path) as fh:
        head = fh.readline().rstrip("\n").split(",")
    if head[0] != "t" or len(head) < 3:
        raise FormatError(f"{path}: expected a 't,<labels...>' header")
    y = np.array([float(v) for v in head[1:]])
    data = np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1))
    return data[:, 0], y, data[:, 1:]


def _load_run(rundir: Path):
    """Rebuild the flow field of a finished run from its artifacts."""
    from .profile import make_profile
    from .solver import FlowField, SpaceTimeGrid

    cfg = nested_to_config(
        json.loads((rundir / "config.json").read_text()),
        where=str(rundir / "config.json"))
    t, y, gamma = load_flow_csv(rundir / "flow.csv")
    p = make_profile(cfg.theta)
    grid = SpaceTimeGrid(eps=cfg.eps, T=cfg.T, t=t, y=y)
    return cfg, p, FlowField(grid=grid, profile=p, gamma=gamma)


def _snapshot_rows(nt: int, n: int = 8) -> np.ndarray:
    """Row indices of the persisted slices: geometric in t, t=0 excluded."""
    return np.unique(np.linspace(1, nt, n).round().astype(int))


def _build_target(cfg: RunConfig, p):
    from . import target as target_mod
    if cfg.target_kind == "power_bump":
        return target_mod.power_bump(cfg.target_a, cfg.target_b, cfg.theta)
    if cfg.target_kind == "self_similar":
        return target_mod.self_similar_terminal(p, cfg.T, cfg.eps)
    return target_mod.load_csv(cfg.target_path, cfg.theta, strict=cfg.strict)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _run_pipeline(cfg: RunConfig):
    """solve -> fields -> rescale -> metrics; returns (field, certificates,
    rate report).  The value, the free boundaries and the rescaled series
    are derived once and handed to every consumer."""
    from . import fields as fields_mod
    from . import metrics as metrics_mod
    from . import rescale as rescale_mod
    from .profile import make_profile
    from .solver import SolverConfig, make_grid, solve

    p = make_profile(cfg.theta)
    grid = make_grid(p, cfg.eps, cfg.T, cfg.nt, cfg.ny)
    m_T = _build_target(cfg, p)
    scfg = SolverConfig(newton_max_iter=cfg.newton_max_iter,
                        residual_tol=cfg.residual_tol,
                        gamma_y_floor=cfg.gamma_y_floor)
    f = solve(p, m_T, grid, scfg)

    out = Path(cfg.outdir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "snapshots").mkdir(exist_ok=True)

    with open(out / "config.json", "w") as fh:
        json.dump(config_to_nested(cfg), fh, indent=2)
        fh.write("\n")
    save_flow_csv(f, out / "flow.csv")
    ubar = fields_mod.value_on_support(f, p)
    fb = fields_mod.free_boundaries(f)
    for i in _snapshot_rows(grid.nt):
        snap = fields_mod.snapshot(f, int(i), p, ubar=ubar, fb=fb)
        fields_mod.save_snapshot_csv(snap, out / "snapshots" / f"slice_{i:04d}.csv")
    fields_mod.save_boundary_csv(fb, out / "boundary.csv")
    series = rescale_mod.build_series(f, p, ubar=ubar, fb=fb)
    rescale_mod.save_series_csv(series, out / "series.csv")
    report = metrics_mod.rate_report(f, p, window=cfg.fit_window, ubar=ubar,
                                     fb=fb, series=series)
    metrics_mod.save_rate_report(report, out / "rates.json")

    masses = fields_mod.pushforward_masses(f, p)
    mass_err = float(np.max(np.abs(masses - 1.0)))
    interior = slice(1, grid.nt)
    curv_ok = bool(np.all(fb.ddgL[interior] > 0.0)
                   and np.all(fb.ddgR[interior] < 0.0))
    fitted = [r for r in report["laws"] if r["fitted_exponent"] is not None]
    failed = [r["law"] for r in fitted if not r["pass"]]
    certificates = {
        "mass_error": mass_err,
        "mass_conserved": bool(mass_err <= 1e-6),
        "boundary_curvature_signs": curv_ok,
        "rates_all_pass": not failed,
        "laws_out_of_band": failed,
    }
    manifest = {
        "schema_version": 1,
        "config": config_to_nested(cfg),
        "solver": {"iterations": f.info.iterations,
                   "grad_norm": f.info.grad_norm,
                   "energy": f.info.energy,
                   "converged": f.info.converged},
        "certificates": certificates,
        "artifacts": {
            "flow": "flow.csv", "boundary": "boundary.csv",
            "series": "series.csv", "rates": "rates.json",
            "config": "config.json",
            "snapshots": [f"snapshots/slice_{i:04d}.csv"
                          for i in _snapshot_rows(grid.nt)],
        },
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return f, certificates, report


def cmd_solve(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    try:
        f, certs, _ = _run_pipeline(cfg)
    except (NewtonDivergenceError, DegenerateStateError,
            CrossingCharacteristicsError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    print(f"wrote {cfg.outdir} ({f.info.iterations} Newton steps, "
          f"scaled gradient {f.info.grad_norm:.3g})")
    cert_ok = (certs["mass_conserved"] and certs["boundary_curvature_signs"]
               and certs["rates_all_pass"])
    if not cert_ok:
        bad = [k for k in ("mass_conserved", "boundary_curvature_signs",
                           "rates_all_pass") if not certs[k]]
        print(f"certificates out of band: {', '.join(bad)}"
              + (f" (laws: {', '.join(certs['laws_out_of_band'])})"
                 if certs["laws_out_of_band"] else ""))
        if cfg.strict:
            return EXIT_CERTIFICATE
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _pool_size(n_jobs: int) -> int:
    cap = os.environ.get("DIRAC_MFP_THREADS", "2")
    try:
        cap = max(1, int(cap))
    except ValueError:
        raise InvalidParameterError(
            f"DIRAC_MFP_THREADS must be an integer, got {cap!r}")
    return max(1, min(cap, n_jobs))


def _sweep_one(cfg: RunConfig):
    try:
        f, _, report = _run_pipeline(cfg)
        return f, report, None
    except (NewtonDivergenceError, DegenerateStateError,
            CrossingCharacteristicsError, InvalidParameterError,
            UnsupportedParameterError, FormatError) as exc:
        return None, None, f"{type(exc).__name__}: {exc}"


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        print(f"sweep values must be numbers, got {args.values!r}",
              file=sys.stderr)
        return EXIT_CONFIG
    if not values:
        print("sweep needs a nonempty comma-separated --values list",
              file=sys.stderr)
        return EXIT_CONFIG
    axis = args.axis

    out = Path(cfg.outdir)
    out.mkdir(parents=True, exist_ok=True)
    subcfgs = []
    for v in values:
        sub = {axis: v} if axis == "eps" else {"theta": v}
        subcfgs.append(dataclasses.replace(
            cfg, outdir=str(out / f"{axis}={v:g}"), **sub))

    with ThreadPoolExecutor(max_workers=_pool_size(len(values))) as pool:
        results = list(pool.map(_sweep_one, subcfgs))

    rows = []
    for v, (f, report, err) in zip(values, results):
        law_fit = {law: float("nan") for law in SWEEP_LAWS}
        status = "ok"
        if err is not None:
            status = "failed"
        else:
            for r in report["laws"]:
                if r["fitted_exponent"] is not None:
                    law_fit[r["law"]] = r["fitted_exponent"]
        rows.append((v, status, law_fit))
        if err is not None:
            print(f"{axis}={v:g}: {err}", file=sys.stderr)

    with open(out / "sweep.csv", "w") as fh:
        fh.write(f"{axis},status," + ",".join(SWEEP_LAWS) + "\n")
        for v, status, law_fit in rows:
            vals = ",".join(f"{law_fit[law]:.17g}" for law in SWEEP_LAWS)
            fh.write(f"{v:.17g},{status},{vals}\n")

    if axis == "eps":
        _write_cauchy_table(cfg, values, results, out)

    n_failed = sum(1 for _, status, _ in rows if status == "failed")
    print(f"wrote {out / 'sweep.csv'} ({len(values)} runs, {n_failed} failed)")
    return EXIT_SOLVER if n_failed else EXIT_OK


def _gamma_at_time(f, t_star: float) -> np.ndarray:
    t = f.grid.t
    i = int(np.clip(np.searchsorted(t, t_star), 1, t.size - 1))
    lam = (t_star - t[i - 1]) / (t[i] - t[i - 1])
    return (1.0 - lam) * f.gamma[i - 1] + lam * f.gamma[i]


def _write_cauchy_table(cfg: RunConfig, values, results, out: Path) -> None:
    """Pairwise d1 between consecutive eps runs at shared probe times."""
    from .metrics import wasserstein_maps
    from .profile import make_profile

    p = make_profile(cfg.theta)
    probes = [cfg.T / 20.0, cfg.T / 10.0, cfg.T / 2.0]
    with open(out / "cauchy_d1.csv", "w") as fh:
        fh.write("t,eps_a,eps_b,d1\n")
        for k in range(len(values) - 1):
            fa, fb = results[k][0], results[k + 1][0]
            if fa is None or fb is None:
                continue
            for t_star in probes:
                d1 = wasserstein_maps(p, _gamma_at_time(fa, t_star),
                                      _gamma_at_time(fb, t_star),
                                      order=1, y=fa.grid.y)
                fh.write(f"{t_star:.17g},{values[k]:.17g},"
                         f"{values[k + 1]:.17g},{d1:.17g}\n")


# ---------------------------------------------------------------------------
# rates / validate / export
# ---------------------------------------------------------------------------

def cmd_rates(args: argparse.Namespace) -> int:
    from .metrics import rate_report, save_rate_report
    from .rescale import load_series_csv

    rundir = Path(args.rundir)
    for name in ("config.json", "flow.csv"):
        if not (rundir / name).is_file():
            print(f"missing run artifact: {rundir / name}", file=sys.stderr)
            return EXIT_SOLVER
    cfg, p, f = _load_run(rundir)
    window = tuple(args.window) if args.window else cfg.fit_window
    report = rate_report(f, p, window=window,
                         series=load_series_csv(rundir / "series.csv", f))

    print(f"theta={report['theta']:g} alpha={report['alpha']:.6f} "
          f"kappa={report['kappa']:.6f} window=[{report['window'][0]:g}, "
          f"{report['window'][1]:g}]")
    for flag in report["flags"]:
        print(f"  note: {flag}")
    any_fail = False
    for r in report["laws"]:
        if r["fitted_exponent"] is None:
            print(f"  {r['law']:16s} theoretical {r['theoretical_exponent']:+.4f}"
                  f"   (window too short to fit)")
            continue
        verdict = "pass" if r["pass"] else "FAIL"
        any_fail |= not r["pass"]
        print(f"  {r['law']:16s} theoretical {r['theoretical_exponent']:+.4f} "
              f"fitted {r['fitted_exponent']:+.6f} r2 {r['r2']:.5f} {verdict}")
    if args.write:
        save_rate_report(report, rundir / "rates.json")
        print(f"wrote {rundir / 'rates.json'}")
    if args.strict and any_fail:
        return EXIT_CERTIFICATE
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    from .target import load_csv, validate_compatibility

    if not Path(args.path).is_file():
        print(f"{args.path}: no such target file", file=sys.stderr)
        return EXIT_CONFIG
    m = load_csv(args.path, theta=args.theta)
    report = validate_compatibility(m, ratio_bound=args.ratio_bound)
    print(f"c_lower={report.c_lower:.17g}")
    print(f"c_upper={report.c_upper:.17g}")
    print(f"envelope ratio {report.ratio:.6g} against bound {report.bound:g}: "
          f"{'pass' if report.passed else 'FAIL'}")
    if args.strict and not report.passed:
        return EXIT_CERTIFICATE
    return EXIT_OK


def cmd_export(args: argparse.Namespace) -> int:
    from . import fields as fields_mod
    from . import rescale as rescale_mod
    from .metrics import fit_rate

    rundir = Path(args.rundir)
    for name in ("config.json", "flow.csv"):
        if not (rundir / name).is_file():
            print(f"missing run artifact: {rundir / name}", file=sys.stderr)
            return EXIT_SOLVER
    cfg, p, f = _load_run(rundir)
    g = f.grid
    out = rundir / "export"
    out.mkdir(exist_ok=True)
    ubar = fields_mod.value_on_support(f, p)
    fb = fields_mod.free_boundaries(f)

    # rescaled density overlays with the stationary reference column
    rows = []
    for i in _snapshot_rows(g.nt):
        snap = fields_mod.snapshot(f, int(i), p, ubar=ubar, fb=fb)
        state = rescale_mod.rescale_snapshot(snap, p)
        eta = state.eta_nodes
        rows.append(np.column_stack([
            np.full_like(eta, state.tau), eta, state.mu, p.phi(eta)]))
    np.savetxt(out / "mu_overlay.csv", np.vstack(rows), fmt="%.17g",
               delimiter=",", header="tau,eta,mu,phi", comments="")

    # Lyapunov series with both dH/dtau columns and the fitted envelope;
    # the run's series.csv when it is the series of this flow
    series = rescale_mod.load_series_csv(rundir / "series.csv", f)
    if series is None:
        series = rescale_mod.build_series(f, p, ubar=ubar, fb=fb)
    tau, H = series["tau"], series["H"]
    lo, hi = cfg.fit_window or (10.0 * g.eps, g.T / 4.0)
    env = np.full_like(tau, np.nan)
    keep = (H > 0.0) & (tau >= np.log(lo)) & (tau <= np.log(hi))
    if np.count_nonzero(keep) >= 4:
        fit = fit_rate(tau[keep], H[keep], kind="exp")
        env = np.exp(fit.log_prefactor + fit.exponent * tau)
    np.savetxt(out / "lyapunov.csv",
               np.column_stack([tau, H, series["dH_fd"],
                                series["dH_identity"], env]),
               fmt="%.17g", delimiter=",",
               header="tau,H,dH_fd,dH_identity,envelope", comments="")

    # log-log support radius with its fitted power law
    pos = g.t > 0.0
    t_pos = g.t[pos]
    radius = 0.5 * (fb.gamma_R[pos] - fb.gamma_L[pos])
    in_win = (t_pos >= lo) & (t_pos <= hi)
    fitted = np.full_like(t_pos, np.nan)
    if np.count_nonzero(in_win) >= 4:
        fit = fit_rate(t_pos[in_win], radius[in_win], kind="power")
        fitted = np.exp(fit.log_prefactor) * t_pos ** fit.exponent
    np.savetxt(out / "support_radius.csv",
               np.column_stack([t_pos, radius, fitted]),
               fmt="%.17g", delimiter=",", header="t,radius,fitted",
               comments="")

    # free-boundary fan: straight characteristics leaving the boundary
    fan = []
    for side, gam, dgam in (("L", fb.gamma_L, fb.dgL),
                            ("R", fb.gamma_R, fb.dgR)):
        side_code = 0.0 if side == "L" else 1.0
        for i in np.unique(np.linspace(1, g.nt - 1, 24).round().astype(int)):
            s = g.t[i]
            ahead = g.t >= s
            x = gam[i] + (g.t[ahead] - s) * dgam[i]
            fan.append(np.column_stack([
                np.full(x.size, side_code), np.full(x.size, s),
                g.t[ahead], x]))
    np.savetxt(out / "boundary_fan.csv", np.vstack(fan), fmt="%.17g",
               delimiter=",", header="side,s,t,x", comments="")

    print(f"wrote {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_config_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="JSON config file; flags override it")
    sp.add_argument("--theta", type=float)
    sp.add_argument("--eps", type=float)
    sp.add_argument("--T", type=float)
    sp.add_argument("--nt", type=int)
    sp.add_argument("--ny", type=int)
    sp.add_argument("--target", choices=TARGET_KINDS)
    sp.add_argument("--a", type=float, help="left support endpoint")
    sp.add_argument("--b", type=float, help="right support endpoint")
    sp.add_argument("--target-path", help="CSV for target kind 'file'")
    sp.add_argument("--outdir")
    sp.add_argument("--window", type=float, nargs=2, metavar=("LO", "HI"),
                    help="fit window in t")
    sp.add_argument("--max-iter", type=int, dest="max_iter")
    sp.add_argument("--tol", type=float, help="scaled gradient tolerance")
    sp.add_argument("--strict", action="store_const", const=True,
                    default=None, help="turn certificate misses into exit 3")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dirac-mfp",
        description="Lagrangian laboratory for the congested planning "
                    "problem started from a point mass")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="run the full pipeline once")
    _add_config_flags(sp)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("sweep", help="independent runs along one axis")
    _add_config_flags(sp)
    sp.add_argument("--axis", choices=("eps", "theta"), required=True)
    sp.add_argument("--values", required=True,
                    help="comma-separated axis values")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("rates", help="refit scaling laws of a finished run")
    sp.add_argument("rundir")
    sp.add_argument("--window", type=float, nargs=2, metavar=("LO", "HI"))
    sp.add_argument("--write", action="store_true",
                    help="rewrite rates.json with the refit")
    sp.add_argument("--strict", action="store_true")
    sp.set_defaults(func=cmd_rates)

    sp = sub.add_parser("validate", help="terminal-density compatibility")
    sp.add_argument("path", help="x,density CSV")
    sp.add_argument("--theta", type=float, required=True)
    sp.add_argument("--ratio-bound", type=float, default=1e3,
                    dest="ratio_bound")
    sp.add_argument("--strict", action="store_true")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("export", help="plot-ready CSVs from a run directory")
    sp.add_argument("rundir")
    sp.set_defaults(func=cmd_export)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, InvalidParameterError,
            UnsupportedParameterError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    except (NewtonDivergenceError, DegenerateStateError,
            CrossingCharacteristicsError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_SOLVER
    except CompatibilityError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CERTIFICATE


if __name__ == "__main__":
    sys.exit(main())
