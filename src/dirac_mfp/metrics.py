"""Wasserstein distances on quantile tables and scaling-rate fits.

One-dimensional optimal transport reduces to quantile calculus: with
Q_u, Q_v the quantile functions, d_p(u,v)^p = int_0^1 |Q_u - Q_v|^p dq.
Tables are treated as piecewise-linear quantile functions and the cell
integrals are evaluated exactly for p in {1, 2} (sign-split linear /
quadratic pieces), so the only approximation is in the tables
themselves.  For measures given as pushforwards of the congestion
profile by monotone maps the same distance is int |g - h|^p phi dy,
evaluated with the exact dual-cell masses; the two routes agree to
quadrature accuracy and are cross-checked in the tests.

Rate fitting is ordinary least squares in log coordinates, either
against t (power laws t^s) or against tau = log t (exponential laws
e^{s tau}); `rate_report` runs every scaling law the solver is expected
to reproduce and tabulates fitted against theoretical exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .profile import Profile

__all__ = [
    "QuantileTable",
    "RateFit",
    "wasserstein",
    "wasserstein_maps",
    "fit_rate",
    "rate_report",
    "rate_verdict",
]


@dataclass(frozen=True)
class QuantileTable:
    """Sampled quantile function of a probability measure.

    ``q`` must increase strictly from 0 to 1; ``x`` (the quantile
    values) must be nondecreasing.  Piecewise-linear interpolation
    between samples defines the measure used by `wasserstein`.
    """

    q: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        x = np.asarray(self.x, dtype=float)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "x", x)
        if q.ndim != 1 or q.shape != x.shape or q.size < 2:
            raise InvalidParameterError("quantile table needs matching 1d "
                                        f"arrays, got {q.shape} / {x.shape}")
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(x))):
            raise InvalidParameterError("quantile table has non-finite entries")
        if abs(q[0]) > 1e-12 or abs(q[-1] - 1.0) > 1e-12:
            raise InvalidParameterError(
                "unnormalized input: quantile grid must span [0, 1], got "
                f"[{q[0]}, {q[-1]}]")
        if np.any(np.diff(q) <= 0.0):
            raise InvalidParameterError("quantile grid must increase strictly")
        if np.any(np.diff(x) < 0.0):
            raise InvalidParameterError("quantile values must be nondecreasing")


def _cell_abs_linear(d0: np.ndarray, d1: np.ndarray, dq: np.ndarray) -> np.ndarray:
    """Exact ``int |l(q)| dq`` for the linear l through (0,d0),(dq,d1)."""
    same = d0 * d1 >= 0.0
    out = np.empty_like(dq)
    out[same] = 0.5 * dq[same] * (np.abs(d0[same]) + np.abs(d1[same]))
    mixed = ~same
    # split at the interior root; the two triangles have areas
    # d0^2 and d1^2 over twice the total slope
    out[mixed] = 0.5 * dq[mixed] * (d0[mixed] ** 2 + d1[mixed] ** 2) \
        / np.abs(d0[mixed] - d1[mixed])
    return out


def wasserstein(pu: QuantileTable, pv: QuantileTable, order: int = 1) -> float:
    """d_p between two tabulated measures, exact for the interpolants."""
    if order not in (1, 2):
        raise InvalidParameterError(f"order must be 1 or 2, got {order}")
    qs = np.union1d(pu.q, pv.q)
    du = np.interp(qs, pu.q, pu.x) - np.interp(qs, pv.q, pv.x)
    dq = np.diff(qs)
    d0, d1 = du[:-1], du[1:]
    if order == 1:
        return float(np.sum(_cell_abs_linear(d0, d1, dq)))
    val = np.sum(dq * (d0 * d0 + d0 * d1 + d1 * d1) / 3.0)
    return float(np.sqrt(val))


def wasserstein_maps(p: Profile, g: np.ndarray, h: np.ndarray,
                     order: int = 1, y: np.ndarray | None = None) -> float:
    """d_p between pushforwards of phi by monotone maps on one y grid."""
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    if g.shape != h.shape:
        raise InvalidParameterError("maps must share the sample grid")
    if np.any(np.diff(g) < 0.0) or np.any(np.diff(h) < 0.0):
        raise InvalidParameterError("pushforward maps must be nondecreasing")
    if y is None:
        y = np.linspace(-p.r_alpha, p.r_alpha, g.size)
    wq = p.node_masses(y)
    gap = np.abs(g - h)
    if order == 1:
        return float(np.sum(wq * gap))
    if order == 2:
        return float(np.sqrt(np.sum(wq * gap * gap)))
    raise InvalidParameterError(f"order must be 1 or 2, got {order}")


@dataclass(frozen=True)
class RateFit:
    exponent: float
    log_prefactor: float
    r_squared: float
    window: tuple
    n_points: int


def fit_rate(abscissa: np.ndarray, values: np.ndarray,
             kind: str = "power") -> RateFit:
    """OLS fit of ``log(values)`` against the abscissa, over the points
    where both are finite; callers select their window beforehand.

    ``kind="power"`` regresses on log(abscissa) (laws t^s);
    ``kind="exp"`` regresses on the abscissa itself (laws e^{s tau}).
    """
    if kind not in ("power", "exp"):
        raise InvalidParameterError(f"unknown fit kind {kind!r}")
    a = np.asarray(abscissa, dtype=float)
    v = np.asarray(values, dtype=float)
    if a.shape != v.shape or a.ndim != 1:
        raise InvalidParameterError("fit needs matching 1d series")
    keep = np.isfinite(a) & np.isfinite(v)
    if np.any(v[keep] <= 0.0):
        raise InvalidParameterError("fit window contains nonpositive values")
    a, v = a[keep], v[keep]
    if a.size < 4:
        raise InvalidParameterError(f"fit window too short: {a.size} points")
    if kind == "power" and np.any(a <= 0.0):
        raise InvalidParameterError("power-law fit needs positive abscissa")
    xs = np.log(a) if kind == "power" else a
    ys = np.log(v)
    slope, intercept = np.polyfit(xs, ys, 1)
    res = ys - (slope * xs + intercept)
    tot = ys - ys.mean()
    ss_tot = float(np.dot(tot, tot))
    ss_res = float(np.dot(res, res))
    # a constant series has ss_tot at roundoff level, not exactly zero
    if ss_tot <= 1e-28 * (float(np.dot(ys, ys)) + 1.0):
        r2 = 1.0
    else:
        r2 = max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return RateFit(exponent=float(slope), log_prefactor=float(intercept),
                   r_squared=r2, window=(float(a.min()), float(a.max())),
                   n_points=int(a.size))


# ---------------------------------------------------------------------------
# scaling-law report
# ---------------------------------------------------------------------------

_REL_TOL = 0.10  # pass band around the theoretical exponent


def _law_row(law: str, theo: float, fit: RateFit | None) -> dict:
    if fit is None:
        return {"law": law, "theoretical_exponent": theo,
                "fitted_exponent": None, "r2": None, "window": None,
                "pass": False}
    ok = abs(fit.exponent - theo) <= _REL_TOL * abs(theo)
    return {"law": law, "theoretical_exponent": theo,
            "fitted_exponent": fit.exponent, "r2": fit.r_squared,
            "window": list(fit.window), "pass": bool(ok)}


def default_fit_window(g) -> tuple[float, float]:
    """The fit window in t of a run that sets none: [t_resolved, T/4]."""
    return g.t_resolved, g.T / 4.0


def rate_report(f, *, window: tuple | None = None,
                series: dict | None = None) -> dict:
    """Fit every applicable scaling law of a solved flow.

    Power laws (all theta): support radius ~ t^alpha, sup m ~ t^-alpha,
    int m^{theta+1} ~ t^{-alpha theta}, osc u ~ t^{2 alpha - 1} (skipped
    at theta = 2 where the exponent vanishes), sup|u_x| ~ t^{alpha-1}.
    Exponential laws in tau (theta > 2 only): H ~ e^{2 kappa tau},
    d2(mu, phi) ~ e^{kappa tau}, |duality pairing| ~ e^{2 kappa tau},
    each fitted over the rows where the series is sign-definite.
    ``series`` may be passed when the caller already holds the
    `rescale.build_series` of ``f`` (as `cli` reads it back from a run's
    ``series.csv``).  The window defaults to `default_fit_window`.  The per-row laws
    are reductions along the label axis of the (rows x labels) arrays of
    the fit window.
    """
    from . import fields as fields_mod
    from . import rescale as rescale_mod

    p, g = f.profile, f.grid
    if window is None:
        window = default_fit_window(g)
    lo, hi = float(window[0]), float(window[1])
    critical = abs(p.kappa) < 1e-12

    wq = p.node_masses(g.y)

    rows = np.nonzero((g.t >= lo) & (g.t <= hi))[0]
    t = g.t[rows]
    radius = 0.5 * (f.gamma[rows, -1] - f.gamma[rows, 0])
    m_sup = f.density[rows]
    m_inf = m_sup.max(axis=1)
    # int m^{theta+1} dx pulled back to mass coordinates
    m_power = np.sum(wq * m_sup ** p.theta, axis=1)
    u = f.value[rows]
    ux_inf = np.max(np.abs(fields_mod._row_gradient(u, f.gamma[rows])),
                    axis=1)
    osc_u = u.max(axis=1) - u.min(axis=1)

    def _fit_power(vals):
        try:
            return fit_rate(t, vals, kind="power")
        except InvalidParameterError:
            return None

    laws = [
        _law_row("support_radius", p.alpha, _fit_power(radius)),
        _law_row("m_inf", -p.alpha, _fit_power(m_inf)),
        _law_row("m_power_norm", -p.alpha * p.theta, _fit_power(m_power)),
        _law_row("ux_inf", p.alpha - 1.0, _fit_power(ux_inf)),
    ]
    if not critical:
        laws.append(_law_row("osc_u", 2.0 * p.alpha - 1.0, _fit_power(osc_u)))

    flags = []
    if critical:
        flags.append("critical: kappa=0, no exponential fit")
        flags.append("osc_u skipped: exponent 2*alpha-1 vanishes")
    elif p.kappa > 0.0:
        if series is None:
            series = rescale_mod.build_series(f)
        tau = series["tau"]
        tau_win = (math.log(lo), math.log(hi))

        def _fit_exp(vals, signdef):
            keep = signdef & (tau >= tau_win[0]) & (tau <= tau_win[1])
            if keep.sum() < 4:
                return None
            return fit_rate(tau[keep], vals[keep], kind="exp")

        H = series["H"]
        d2 = series["d2"]
        du = series["duality_pairing"]
        laws.append(_law_row("lyapunov", 2.0 * p.kappa, _fit_exp(H, H > 0.0)))
        laws.append(_law_row("d2_profile", p.kappa, _fit_exp(d2, d2 > 0.0)))
        laws.append(_law_row("duality_pairing", 2.0 * p.kappa,
                             _fit_exp(np.abs(du), du < 0.0)))

    return {"theta": p.theta, "alpha": p.alpha, "kappa": p.kappa,
            "critical": critical, "flags": flags,
            "window": [lo, hi], "laws": laws}


def rate_verdict(report: dict) -> tuple[list[str], str | None]:
    """Why the rate certificate of ``report`` fails: the fitted laws out of
    their band, and a note when the window fitted no law, which certifies
    nothing.  It passes when the list is empty and the note None."""
    fitted = [r for r in report["laws"] if r["fitted_exponent"] is not None]
    lo, hi = report["window"]
    return ([r["law"] for r in fitted if not r["pass"]],
            None if fitted else f"no law fitted in window [{lo:g}, {hi:g}]")
