"""Command-line driver: end-to-end runs, sweeps, and plot-ready exports.

A run directory is self-describing: ``config.json`` echoes the fully
resolved configuration, ``manifest.json`` records solver diagnostics and
certificate outcomes, and every float is written with 17 significant
digits so a rerun with the same configuration produces bit-identical
files.

Each failure is an `errors.DiracMfpError` carrying its exit code.
"""

from __future__ import annotations

import argparse
import collections
import ctypes
import dataclasses
import functools
import json
import os
import sys
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (EXIT_CERTIFICATE, EXIT_OK, EXIT_SOLVER, DiracMfpError,
                     FormatError, InvalidParameterError, check_int,
                     check_number, check_type)
from .metrics import LAWS
from .solver import SolverConfig
from .target import RATIO_BOUND

TARGET_KINDS = ("power_bump", "self_similar", "file")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TargetConfig:
    """Terminal density: the ``target`` section of ``config.json``."""

    kind: str = "power_bump"
    a: float = -1.0
    b: float = 1.0
    path: str | None = None

    def __post_init__(self):
        if self.kind not in TARGET_KINDS:
            raise InvalidParameterError(
                f"target kind must be one of {TARGET_KINDS}, "
                f"got {self.kind!r}")
        check_number("target.a", self.a)
        check_number("target.b", self.b)
        check_type("target.path", self.path, (str, type(None)),
                   "a string or null")
        if self.kind == "file" and not self.path:
            raise InvalidParameterError(
                "target kind 'file' needs a path")
        if self.kind == "power_bump" and not self.b > self.a:
            raise InvalidParameterError(
                f"power_bump needs a < b, got [{self.a}, {self.b}]")


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run description (file defaults + flag overrides),
    laid out as ``config.json``."""

    theta: float = 1.0
    eps: float = 1e-3
    T: float = 1.0
    nt: int = 128
    ny: int = 128
    target: TargetConfig = field(default_factory=TargetConfig)
    solver: SolverConfig = field(default_factory=SolverConfig)
    fit_window: tuple[float, float] | None = None
    outdir: str = "run"
    strict: bool = False

    def __post_init__(self):
        for name in ("theta", "eps", "T"):
            check_number(name, getattr(self, name), positive=True)
        for name in ("nt", "ny"):
            check_int(name, getattr(self, name), 16)
        check_type("target", self.target, TargetConfig, "a target section")
        check_type("solver", self.solver, SolverConfig, "a solver section")
        win = self.fit_window
        if win is not None:
            if not (isinstance(win, (list, tuple)) and len(win) == 2):
                raise FormatError(
                    f"fit_window must be [lo, hi], got {win!r}")
            for v in win:
                check_number("fit_window", v)
            if not 0.0 < win[0] < win[1]:
                raise InvalidParameterError(f"fit window must satisfy "
                                            f"0 < lo < hi, got {list(win)}")
            object.__setattr__(self, "fit_window", tuple(map(float, win)))
        check_type("outdir", self.outdir, str, "a string")
        check_type("strict", self.strict, bool, "true or false")


# keys of older config files that no setting reads any more
_RETIRED_KEYS = ("seed", "solver.linear_solver", "solver.gamma_y_floor")


def nested_to_config(doc: dict, where: str = "config") -> RunConfig:
    """Build a RunConfig from the nested document of ``config.json``.

    Each JSON object becomes the config type of its section; a key that
    the type does not declare is rejected, except the retired keys, which
    are skipped so that older run directories still load.  Any error
    raised while building is re-raised with ``where: `` in front, so that
    its message names the document's source.
    """
    def build(cls, node, prefix: str):
        if not isinstance(node, dict):
            raise FormatError(f"{prefix.rstrip('.') or 'top level'} "
                              f"must be a JSON object")
        types = typing.get_type_hints(cls)
        kw = {}
        for key, value in node.items():
            path = prefix + key
            if path in _RETIRED_KEYS:
                continue
            if key not in types:
                raise FormatError(f"unknown key {path!r}")
            section = types[key]
            kw[key] = (build(section, value, path + ".")
                       if dataclasses.is_dataclass(section) else value)
        return cls(**kw)

    try:
        return build(RunConfig, doc, "")
    except (FormatError, InvalidParameterError) as exc:
        raise type(exc)(f"{where}: {exc}") from exc


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
    """Apply the flags of `CONFIG_FLAGS` that were given (not None) on top
    of ``cfg``, all at once, and validate the result."""
    doc = dataclasses.asdict(cfg)
    for fl in CONFIG_FLAGS:
        value = getattr(args, fl.path, None)
        if value is not None:
            section, _, key = fl.path.rpartition(".")
            (doc[section] if section else doc)[key] = value
    return nested_to_config(doc)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    return _merge_flags(cfg, args)


# ---------------------------------------------------------------------------
# artifact I/O
# ---------------------------------------------------------------------------

# The files of a run directory, by their key in the manifest's "artifacts"
# map and in its order; "snapshots" is the pattern of the slice files.
RUN_FILES = {
    "flow": "flow.csv", "boundary": "boundary.csv", "series": "series.csv",
    "rates": "rates.json", "config": "config.json",
    "snapshots": "snapshots/slice_{i:04d}.csv",
}

_N_SNAPSHOTS = 8        # persisted slices, fewer on grids with fewer rows


def _write_json(doc, path) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, allow_nan=False)
        fh.write("\n")


def _write_csv(path, header, columns) -> None:
    """Every CSV artifact: the names ``header``, then ``columns`` (arrays or
    blocks of them) side by side, floats to 17 significant digits, written
    one row at a time."""
    data = np.column_stack(columns)
    line = ",".join(["%.17g"] * data.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % tuple(row.tolist()) for row in data)


def save_flow_csv(f, path) -> None:
    """Flow map as one row per time node; header carries the label grid."""
    g = f.grid
    _write_csv(path, ["t", *(f"{v:.17g}" for v in g.y)], [g.t, f.gamma])


def _csv_rows(fh) -> np.ndarray | None:
    """The rows of ``fh`` after its header line, which the caller has read,
    as a 2d array; ``None`` when there are none, where numpy would warn."""
    start = fh.tell()
    if not fh.readline().strip():
        return None
    fh.seek(start)
    return np.loadtxt(fh, delimiter=",", ndmin=2)


def load_flow_csv(path):
    """``(t, y, gamma)`` of a file written by `save_flow_csv`;
    `FormatError` naming ``path`` when the file does not parse or holds a
    non-finite number."""
    with open(path) as fh:
        head = fh.readline().rstrip("\n").split(",")
        if head[0] != "t" or len(head) < 3:
            raise FormatError(f"{path}: expected a 't,<labels...>' header")
        try:
            y = np.array([float(v) for v in head[1:]])
            data = _csv_rows(fh)
        except ValueError as exc:
            raise FormatError(f"{path}: {exc}") from exc
    if data is None:
        raise FormatError(f"{path}: no rows after the header")
    if data.shape[1] != len(head):
        raise FormatError(f"{path}: header has {len(head)} columns, "
                          f"the rows {data.shape[1]}")
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(data))):
        raise FormatError(f"{path}: holds a non-finite number")
    return data[:, 0], y, data[:, 1:]


def _load_series(path, f) -> dict[str, np.ndarray] | None:
    """Read back a run's ``series.csv``, if it is the
    `rescale.build_series` of ``f``.

    The file is accepted only when its header is `rescale.SERIES_COLUMNS`,
    it has one row per series row of ``f`` and its ``tau`` column equals
    the log-times of those rows bit for bit; ``%.17g`` round-trips
    exactly, so an accepted series is the one that was saved.  Returns
    ``None`` otherwise (also for a missing or unreadable file, and for a
    grid with too few series rows), and the caller rebuilds the series.
    """
    from .rescale import SERIES_COLUMNS, series_rows
    try:
        _, tau = series_rows(f.grid)    # InvalidParameterError is a ValueError
        with open(path) as fh:
            if fh.readline().rstrip("\n") != ",".join(SERIES_COLUMNS):
                return None
            data = _csv_rows(fh)
    except (OSError, ValueError):
        return None
    if (data is None or data.shape != (tau.size, len(SERIES_COLUMNS))
            or data[:, 0].tobytes() != tau.tobytes()):
        return None
    return {k: data[:, j].copy() for j, k in enumerate(SERIES_COLUMNS)}


class _MissingArtifact(DiracMfpError):
    """A run directory lacks an artifact that `_load_run` reads (exit 2)."""


def _load_run(rundir: Path):
    """Rebuild the flow field of a finished run from its artifacts.

    ``flow.csv`` must lie on the grid that ``config.json`` describes
    (`FormatError` otherwise): its times and labels must match those of
    `solver.make_grid` to 1e-12 of T and of r_alpha.  They are used as
    read, so a file written under another numpy still loads.
    """
    from .profile import make_profile
    from .solver import FlowField, SpaceTimeGrid, make_grid

    config, flow = rundir / RUN_FILES["config"], rundir / RUN_FILES["flow"]
    for path in (config, flow):
        if not path.is_file():
            raise _MissingArtifact(f"missing run artifact: {path}")
    cfg = load_config(config)
    t, y, gamma = load_flow_csv(flow)
    p = make_profile(cfg.theta)
    expected = make_grid(p, cfg.eps, cfg.T, cfg.nt, cfg.ny)
    if not ((t.size, y.size) == (expected.t.size, expected.y.size)
            and np.max(np.abs(t - expected.t)) <= 1e-12 * cfg.T
            and np.max(np.abs(y - expected.y)) <= 1e-12 * p.r_alpha):
        raise FormatError(f"{flow}: its {t.size} times and {y.size} labels "
                          f"are not the grid of {config}")
    grid = SpaceTimeGrid(eps=cfg.eps, T=cfg.T, t=t, y=y)
    return cfg, FlowField(grid=grid, profile=p, gamma=gamma)


def _snapshot_rows(nt: int) -> np.ndarray:
    """Row indices of the persisted slices: geometric in t, t=0 excluded."""
    return np.unique(np.linspace(1, nt, _N_SNAPSHOTS).round().astype(int))


def _check_outdir(outdir: str) -> None:
    """`InvalidParameterError` when ``outdir`` is, or lies under, a file:
    checked before any solve or write."""
    for path in (Path(outdir), *Path(outdir).parents):
        if path.exists() and not path.is_dir():
            raise InvalidParameterError(
                f"outdir {outdir}: {path} is not a directory")


def _build_target(cfg: RunConfig, p):
    from . import target as target_mod
    tgt = cfg.target
    if tgt.kind == "power_bump":
        return target_mod.power_bump(tgt.a, tgt.b, cfg.theta)
    if tgt.kind == "self_similar":
        return target_mod.self_similar_terminal(p, cfg.T, cfg.eps)
    return target_mod.load_csv(tgt.path, cfg.theta, strict=cfg.strict)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _run_pipeline(cfg: RunConfig):
    """solve -> fields -> rescale -> metrics; returns (field, rate report,
    failed certificates, rate verdict: the laws out of band or the note
    that none was fitted, else None).  The boundary curvature and the
    rescaled series are built once, for the files and the verdicts."""
    from . import fields as fields_mod
    from . import metrics as metrics_mod
    from . import rescale as rescale_mod
    from .profile import make_profile
    from .solver import make_grid, solve

    _check_outdir(cfg.outdir)
    p = make_profile(cfg.theta)
    grid = make_grid(p, cfg.eps, cfg.T, cfg.nt, cfg.ny)
    rescale_mod.series_rows(grid)       # fail before the solve and any write
    f = solve(p, _build_target(cfg, p), grid, cfg.solver)

    out = Path(cfg.outdir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "snapshots").mkdir(exist_ok=True)
    rows = _snapshot_rows(grid.nt)
    snapshots = [RUN_FILES["snapshots"].format(i=i) for i in rows]

    _write_json(dataclasses.asdict(cfg), out / RUN_FILES["config"])
    save_flow_csv(f, out / RUN_FILES["flow"])
    s = fields_mod.snapshot(f, rows)
    for k, name in enumerate(snapshots):
        _write_csv(out / name, ("t", "x", "m", "u", "ux"),
                   [np.full_like(s.x_nodes[k], s.t[k]), s.x_nodes[k], s.m[k],
                    s.u[k], s.u_x[k]])
    ddg = fields_mod.boundary_curvature(f)
    _write_csv(out / RUN_FILES["boundary"],
               ("t", "gammaL", "gammaR", "dgL", "dgR", "ddgL", "ddgR"),
               [grid.t, f.gamma[:, [0, -1]], f.gamma_t[:, [0, -1]], ddg])
    series = rescale_mod.build_series(f)
    _write_csv(out / RUN_FILES["series"], rescale_mod.SERIES_COLUMNS,
               [series[k] for k in rescale_mod.SERIES_COLUMNS])
    report = metrics_mod.rate_report(f, window=cfg.fit_window, series=series)
    _write_json(report, out / RUN_FILES["rates"])

    interior = slice(1, grid.nt)
    curv_ok = bool(np.all(ddg[interior, 0] > 0.0)
                   and np.all(ddg[interior, 1] < 0.0))
    failed, unfitted = metrics_mod.rate_verdict(report)
    certificates = {
        "boundary_curvature_signs": curv_ok,
        "rates_all_pass": not failed and unfitted is None,
        "laws_out_of_band": failed,
    }
    manifest = {
        "schema_version": 1,
        "config": dataclasses.asdict(cfg),
        "solver": {"iterations": f.info.iterations,
                   "grad_norm": f.info.grad_norm,
                   "energy": f.info.energy,
                   "levels": [list(level) for level in f.info.levels]},
        "certificates": certificates,
        "artifacts": {**RUN_FILES, "snapshots": snapshots},
    }
    _write_json(manifest, out / "manifest.json")
    bad = [k for k in ("boundary_curvature_signs", "rates_all_pass")
           if not certificates[k]]
    return f, report, bad, f"laws: {', '.join(failed)}" if failed else unfitted


def cmd_solve(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    f, _, bad, detail = _run_pipeline(cfg)
    levels = ", ".join(f"{nt}x{ny}: {k}/{n}" for nt, ny, k, n in f.info.levels)
    print(f"wrote {cfg.outdir} ({f.info.iterations} Newton steps, "
          f"{f.info.levels[-1][3]} CG iterations"
          + (f" ({levels})" if len(f.info.levels) > 1 else "")
          + f", scaled gradient {f.info.grad_norm:.3g})")
    if bad:
        print(f"certificates out of band: {', '.join(bad)}"
              + (f" ({detail})" if detail else ""))
    return EXIT_CERTIFICATE if bad and cfg.strict else EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _sweep_one(cfg: RunConfig):
    try:
        f, report, _, _ = _run_pipeline(cfg)
        return f, report, None
    except DiracMfpError as exc:
        return None, None, f"{type(exc).__name__}: {exc}"


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    given = [v.strip() for v in args.values.split(",") if v.strip()]
    try:
        values = [float(v) for v in given]
    except ValueError:
        raise FormatError(
            f"sweep values must be numbers, got {args.values!r}") from None
    if not values:
        raise FormatError("sweep needs a nonempty comma-separated --values list")
    axis = args.axis
    names = [f"{axis}={v:g}" for v in values]
    shared = [f"{v} -> {n}" for v, n in zip(given, names) if names.count(n) > 1]
    if shared:
        raise InvalidParameterError(
            f"sweep values would share a run directory: {', '.join(shared)}")

    # everything that can reject the sweep runs before the first write
    out = Path(cfg.outdir)
    doc = dataclasses.asdict(cfg)
    subcfgs = [nested_to_config({**doc, "outdir": str(out / n), axis: v})
               for v, n in zip(values, names)]
    _check_outdir(cfg.outdir)
    out.mkdir(parents=True, exist_ok=True)

    results = [_sweep_one(sub) for sub in subcfgs]

    summary = out / "sweep.csv"
    with open(summary, "w") as fh:
        fh.write(f"{axis},status," + ",".join(LAWS) + "\n")
        for v, (_, report, err) in zip(values, results):
            law_fit = dict.fromkeys(LAWS, float("nan"))
            if err is not None:
                print(f"{axis}={v:g}: {err}", file=sys.stderr)
            else:
                law_fit.update((r["law"], r["fitted_exponent"])
                               for r in report["laws"]
                               if r["fitted_exponent"] is not None)
            vals = ",".join(f"{law_fit[law]:.17g}" for law in LAWS)
            fh.write(f"{v:.17g},{'ok' if err is None else 'failed'},{vals}\n")

    if axis == "eps":
        _write_cauchy_table(cfg, values, results, out)

    n_failed = sum(err is not None for _, _, err in results)
    print(f"wrote {summary} ({len(values)} runs, {n_failed} failed)")
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
    rows = []
    for k in range(len(values) - 1):
        fa, fb = results[k][0], results[k + 1][0]
        if fa is None or fb is None:
            continue
        for t_star in probes:
            d1 = wasserstein_maps(p, _gamma_at_time(fa, t_star),
                                  _gamma_at_time(fb, t_star),
                                  order=1, y=fa.grid.y)
            rows.append((t_star, values[k], values[k + 1], d1))
    _write_csv(out / "cauchy_d1.csv", ("t", "eps_a", "eps_b", "d1"),
               [np.reshape(rows, (-1, 4))])


# ---------------------------------------------------------------------------
# rates / validate / export
# ---------------------------------------------------------------------------

def cmd_rates(args: argparse.Namespace) -> int:
    from .metrics import rate_report, rate_verdict

    rundir = Path(args.rundir)
    cfg, f = _load_run(rundir)
    # a refit is strict only when asked, whatever the run was
    cfg = _merge_flags(dataclasses.replace(cfg, strict=False), args)
    rates = rundir / RUN_FILES["rates"]
    if args.write and rates.is_dir():
        raise InvalidParameterError(f"cannot write {rates}: it is a directory")
    series = _load_series(rundir / RUN_FILES["series"], f)
    report = rate_report(f, window=cfg.fit_window, series=series)

    print(f"theta={report['theta']:g} alpha={report['alpha']:.6f} "
          f"kappa={report['kappa']:.6f} window=[{report['window'][0]:g}, "
          f"{report['window'][1]:g}]")
    for flag in report["flags"]:
        print(f"  note: {flag}")
    for r in report["laws"]:
        if r["fitted_exponent"] is None:
            print(f"  {r['law']:16s} theoretical {r['theoretical_exponent']:+.4f}"
                  f"   (window too short to fit)")
            continue
        verdict = "pass" if r["pass"] else "FAIL"
        print(f"  {r['law']:16s} theoretical {r['theoretical_exponent']:+.4f} "
              f"fitted {r['fitted_exponent']:+.6f} r2 {r['r2']:.5f} {verdict}")
    failed, unfitted = rate_verdict(report)
    if unfitted:
        print(f"  {unfitted}")
    if args.write:
        _write_json(report, rates)
        print(f"wrote {rates}")
    return EXIT_CERTIFICATE if cfg.strict and (failed or unfitted) else EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    from .target import load_csv, validate_compatibility

    check_number("--theta", args.theta, positive=True)
    check_number("--ratio-bound", args.ratio_bound, positive=True)
    m = load_csv(args.path, theta=args.theta)
    report = validate_compatibility(m, ratio_bound=args.ratio_bound)
    print(f"c_lower={report.c_lower:.17g}")
    print(f"c_upper={report.c_upper:.17g}")
    print(f"envelope ratio {report.ratio:.6g} against bound {report.bound:g}: "
          f"{'pass' if report.passed else 'FAIL'}")
    return EXIT_CERTIFICATE if args.strict and not report.passed else EXIT_OK


def cmd_export(args: argparse.Namespace) -> int:
    from . import fields as fields_mod
    from . import rescale as rescale_mod
    from .metrics import default_fit_window, fit_rate

    rundir = Path(args.rundir)
    cfg, f = _load_run(rundir)
    p, g = f.profile, f.grid
    out = rundir / "export"
    _check_outdir(str(out))
    out.mkdir(exist_ok=True)

    # rescaled density overlays with the stationary reference column
    state = rescale_mod.rescale_snapshot(
        fields_mod.snapshot(f, _snapshot_rows(g.nt)), p)
    eta = state.eta_nodes
    _write_csv(out / "mu_overlay.csv", ("tau", "eta", "mu", "phi"),
               [np.broadcast_to(state.tau[:, None], eta.shape).ravel(),
                eta.ravel(), state.mu.ravel(), p.phi(eta).ravel()])

    # Lyapunov series with both dH/dtau columns and the fitted envelope;
    # the run's series.csv when it is the series of this flow
    series = _load_series(rundir / RUN_FILES["series"], f)
    if series is None:
        series = rescale_mod.build_series(f)
    tau, H = series["tau"], series["H"]
    lo, hi = cfg.fit_window or default_fit_window(g)
    env = np.full_like(tau, np.nan)
    keep = (H > 0.0) & (tau >= np.log(lo)) & (tau <= np.log(hi))
    if np.count_nonzero(keep) >= 4:
        fit = fit_rate(tau[keep], H[keep], kind="exp")
        env = np.exp(fit.log_prefactor + fit.exponent * tau)
    _write_csv(out / "lyapunov.csv",
               ("tau", "H", "dH_fd", "dH_identity", "envelope"),
               [tau, H, series["dH_fd"], series["dH_identity"], env])

    # log-log support radius with its fitted power law
    pos = g.t > 0.0
    t_pos = g.t[pos]
    radius = 0.5 * (f.gamma[pos, -1] - f.gamma[pos, 0])
    in_win = (t_pos >= lo) & (t_pos <= hi)
    fitted = np.full_like(t_pos, np.nan)
    if np.count_nonzero(in_win) >= 4:
        fit = fit_rate(t_pos[in_win], radius[in_win], kind="power")
        fitted = np.exp(fit.log_prefactor) * t_pos ** fit.exponent
    _write_csv(out / "support_radius.csv", ("t", "radius", "fitted"),
               [t_pos, radius, fitted])

    # free-boundary fan: straight characteristics leaving the boundary
    fan = []
    for side_code, col in ((0.0, 0), (1.0, -1)):
        gam, dgam = f.gamma[:, col], f.gamma_t[:, col]
        for i in np.unique(np.linspace(1, g.nt - 1, 24).round().astype(int)):
            s = g.t[i]
            ahead = g.t >= s
            x = gam[i] + (g.t[ahead] - s) * dgam[i]
            fan.append(np.column_stack([
                np.full(x.size, side_code), np.full(x.size, s),
                g.t[ahead], x]))
    _write_csv(out / "boundary_fan.csv", ("side", "s", "t", "x"),
               [np.vstack(fan)])

    print(f"wrote {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

_Flag = collections.namedtuple(
    "_Flag", "flag path type metavar help choices", defaults=(None, None))

# Every flag that sets a run setting, in the order `--help` lists them: the
# flag, its key in config.json ("section.key" inside a section), the value
# type (bool: a switch; tuple: a pair of floats), metavar and help text.
CONFIG_FLAGS = (
    _Flag("--theta", "theta", float, "THETA"),
    _Flag("--eps", "eps", float, "EPS"),
    _Flag("--T", "T", float, "T"),
    _Flag("--nt", "nt", int, "NT"),
    _Flag("--ny", "ny", int, "NY"),
    _Flag("--target", "target.kind", str, None, choices=TARGET_KINDS),
    _Flag("--a", "target.a", float, "A", "left support endpoint"),
    _Flag("--b", "target.b", float, "B", "right support endpoint"),
    _Flag("--target-path", "target.path", str, "TARGET_PATH",
          "CSV for target kind 'file'"),
    _Flag("--outdir", "outdir", str, "OUTDIR"),
    _Flag("--window", "fit_window", tuple, ("LO", "HI"), "fit window in t"),
    _Flag("--max-iter", "solver.newton_max_iter", int, "MAX_ITER"),
    _Flag("--tol", "solver.residual_tol", float, "TOL",
          "scaled gradient tolerance"),
    _Flag("--strict", "strict", bool, None,
          "turn certificate misses into exit 3"),
)


def _add_flag(sp: argparse.ArgumentParser, fl: _Flag, help) -> None:
    kw = ({"action": "store_const", "const": True} if fl.type is bool else
          {"type": float, "nargs": 2} if fl.type is tuple else
          {"type": fl.type, "choices": fl.choices})
    sp.add_argument(fl.flag, dest=fl.path, metavar=fl.metavar, help=help, **kw)


def _add_config_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="JSON config file; flags override it")
    for fl in CONFIG_FLAGS:
        _add_flag(sp, fl, fl.help)


class _Parser(argparse.ArgumentParser):
    """A usage error is a `FormatError` (exit 1, one stderr line), not
    argparse's usage text and exit 2; the subcommand parsers share the
    class."""

    def error(self, message):
        raise FormatError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The program's parser, built once per process.  It holds no command
    function: `main` looks ``cmd_<command>`` up in this module when the
    command runs, so a function replaced here after the first call is the
    one that runs.  ``--help`` reads the terminal width when it prints."""
    ap = _Parser(
        prog="dirac-mfp",
        description="Lagrangian laboratory for the congested planning "
                    "problem started from a point mass")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="run the full pipeline once")
    _add_config_flags(sp)

    sp = sub.add_parser("sweep", help="independent runs along one axis")
    _add_config_flags(sp)
    sp.add_argument("--axis", choices=("eps", "theta"), required=True)
    sp.add_argument("--values", required=True,
                    help="comma-separated axis values")

    sp = sub.add_parser("rates", help="refit scaling laws of a finished run")
    sp.add_argument("rundir")
    flags = {fl.path: fl for fl in CONFIG_FLAGS}
    _add_flag(sp, flags["fit_window"], None)
    sp.add_argument("--write", action="store_true",
                    help="rewrite rates.json with the refit")
    _add_flag(sp, flags["strict"], None)

    sp = sub.add_parser("validate", help="terminal-density compatibility")
    sp.add_argument("path", help="x,density CSV")
    sp.add_argument("--theta", type=float, required=True)
    sp.add_argument("--ratio-bound", type=float, default=RATIO_BOUND,
                    dest="ratio_bound")
    sp.add_argument("--strict", action="store_true")

    sp = sub.add_parser("export", help="plot-ready CSVs from a run directory")
    sp.add_argument("rundir")

    return ap


_BLAS_SET_THREADS = ("scipy_openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads64_", "openblas_set_num_threads")


@functools.cache
def _one_blas_thread() -> None:
    """Set every loaded OpenBLAS to one thread, once per process: a run
    makes many small BLAS and LAPACK calls (CG's dot products, line and
    band solves), between which a second thread only spin-waits.  On 2
    cores two threads took 2.2 to 5 times the CPU time and 1.1 to 2.6
    times the wall time of one on the benchmark's three workloads.
    Without OpenBLAS this does nothing."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {ln.split()[-1] for ln in fh}
    except OSError:
        return
    for path in sorted(paths):
        name = os.path.basename(path).lower()
        if path.startswith("/") and name.startswith("lib") and "blas" in name:
            lib = ctypes.CDLL(path)
            sym = next((s for s in _BLAS_SET_THREADS if hasattr(lib, s)), None)
            if sym is not None:
                fn = getattr(lib, sym)
                fn.argtypes, fn.restype = [ctypes.c_int], None
                fn(1)


def main(argv=None) -> int:
    _one_blas_thread()
    try:
        args = build_parser().parse_args(argv)
        return globals()[f"cmd_{args.command}"](args)
    except DiracMfpError as exc:
        print(exc, file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
