"""Test oracles: code that only the tests call.

- `_extend` is the per-row exterior continuation that `fields.snapshot`
  ran before it continued every row in one array pass
  (`fields._continuation`): for each time row, each side bracketed by a
  `searchsorted` over that row's own fan.  ``test_fields.py`` checks that
  the array pass gives its bytes on every row, and raises where it raises.
- `hj_residuals` evaluates the Hamilton-Jacobi equation pointwise at fixed
  x on the nodes of a `fields.snapshot`, by the chain rule along the labels
  on the support and by finite differences on the exterior pads.
  Acceptance criterion 5 and the HJ tests of ``test_fields.py`` compare its
  two arrays against fixed bounds, on solved flows and on flows moved off
  their optimum.  It reads the continuation through the private helpers of
  `dirac_mfp.fields`, the neighbor rows through `fields._continuation`.
- `QuantileTable` and `wasserstein` are the quantile-table route of the
  one-dimensional Wasserstein distance, exact for piecewise-linear quantile
  interpolants.  ``test_metrics.py`` compares `metrics.wasserstein_maps`,
  the route that runs, against it on pushforwards of phi
  (`pushforward_table`) and against hand-computed integrals.
- `prolong_by_halves` is the grid sequencing's prolongation onto the grid
  with twice the intervals, as the nested ladder computed it.
  ``test_solver.py`` checks that `solver._prolong` gives its bits wherever
  an axis doubles.

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dirac_mfp.errors import (CrossingCharacteristicsError,
                              InvalidParameterError)
from dirac_mfp.fields import (_continuation, _degenerate_region, _histories,
                              _row_gradient, _SideHistory, _unit_root,
                              snapshot)
from dirac_mfp.solver import FlowField

# -- the per-row exterior continuation ---------------------------------------

def _fan_nodes(h: _SideHistory, i: int) -> np.ndarray:
    """``(t, g, d, ub)`` of the boundary nodes whose tangents make the fan
    at row ``i``: the columns from node i to the last tangent, backward
    when row i comes after the turn, so the tangent foot at t_i decreases."""
    j = i + (i > h.k)
    step = 1 if j <= h.end else -1
    return h.fan[:, j:h.end + step:step]


def _fan_invert(tn: np.ndarray, gn: np.ndarray, dn: np.ndarray,
                un: np.ndarray, s: float,
                x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the tangent fan over the nodes of `_fan_nodes` at time s.

    Each x is bracketed between consecutive tangent feet l_n(s) and the
    tangency time is found from the interpolated (g, d) data, which keeps
    the construction second order in the grid.
    """
    if tn.size == 1:
        return (un[0] + (tn[0] - s) * 0.5 * dn[0] ** 2
                ) * np.ones_like(x), -dn[0] * np.ones_like(x)
    l = gn + (s - tn) * dn
    span = abs(l[0] - l[-1]) + np.max(np.abs(l)) + 1e-30
    if np.max(np.diff(l)) > 1e-9 * span:
        # tangents of a convex curve cannot fold; a genuine fold means the
        # characteristics cross and the continuation is invalid
        raise CrossingCharacteristicsError(
            "tangent characteristics cross; boundary curve not convex")
    lm = np.minimum.accumulate(l)
    kk = np.clip(np.searchsorted(-lm, -x, side="right") - 1, 0, l.size - 2)

    t0, dt = tn[kk], tn[kk + 1] - tn[kk]
    g0, dg = gn[kk], gn[kk + 1] - gn[kk]
    d0, dd = dn[kk], dn[kk + 1] - dn[kk]
    u0, du = un[kk], un[kk + 1] - un[kk]
    lam = _unit_root(-dt * dd, dg + (s - t0) * dd - dt * d0,
                     g0 + (s - t0) * d0 - x)
    tl = t0 + lam * dt
    dl = d0 + lam * dd
    ul = u0 + lam * du
    # transport along the segment: du/ds = -gamma_dot^2 / 2
    return ul + (tl - s) * 0.5 * dl * dl, -dl


def _extend_one_side(h: _SideHistory, i: int,
                     x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    s = h.t[i]
    te, ge, de, ue = h.fan[:, h.end]
    le = ge + (s - te) * de
    if h.k == h.t.size - 1 and le > h.g[i] + 1e-12 * (1.0 + abs(h.g[i])):
        # without a turn the last tangent must fall below a convex
        # boundary curve; landing above it means the tangent lines fold
        raise CrossingCharacteristicsError(
            "tangent characteristics cross; boundary curve not convex")
    u = np.empty_like(x)
    ux = np.empty_like(x)
    flat = _degenerate_region(h, i, x)
    # 0.0 - de: a turn's slope is +0, not -0
    u[flat] = (le - x[flat]) * de + (ue + (te - s) * 0.5 * de ** 2)
    ux[flat] = 0.0 - de
    fan = ~flat
    if np.any(fan):
        u[fan], ux[fan] = _fan_invert(*_fan_nodes(h, i), s, x[fan])
    return u, ux


def _extend(hL: _SideHistory, hR: _SideHistory, i: int,
            x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(u, u_x)`` of the continuation at exterior points ``x`` of time row
    ``i``: points left of the support on the left history, the others on
    the reflected right one."""
    left = x <= hL.g[i]
    right = -x <= hR.g[i]
    if not np.all(left | right):
        raise InvalidParameterError("extension requested inside the support")
    u = np.empty_like(x)
    ux = np.empty_like(x)
    if np.any(left):
        u[left], ux[left] = _extend_one_side(hL, i, x[left])
    if np.any(right):
        ur, uxr = _extend_one_side(hR, i, -x[right])
        u[right] = ur
        ux[right] = -uxr
    return u, ux


# -- Hamilton-Jacobi residuals ------------------------------------------------

def _off_interfaces(h: _SideHistory, rows: np.ndarray,
                    x: np.ndarray) -> np.ndarray:
    """False at the exterior nodes ``x`` (left frame, one row of nodes per
    time row ``rows``) whose space or time stencil straddles a region
    interface of the construction (see `_degenerate_region`); u is C^1
    but not C^2 there."""
    i = rows[:, None]
    before, now, after = (_degenerate_region(h, i + j, x) for j in (-1, 0, 1))
    jump = now[:, 1:] != now[:, :-1]           # between neighboring nodes
    near = np.zeros_like(now)
    near[:, 1:] |= jump
    near[:, :-1] |= jump
    return (before == now) & (now == after) & ~near


# pad cells next to the boundary where `hj_residuals` tests no exterior node
_HJ_STANDOFF = 4


def hj_residuals(f: FlowField) -> tuple[np.ndarray, np.ndarray]:
    """-u_t + u_x^2/2 - m^theta at fixed x, on the nodes of a snapshot.

    Returns ``(interior, exterior)``: the residual on the image nodes,
    shape (nt+1, ny+1), and on the exterior pads of a snapshot with its
    default padding, shape (nt+1, 2 n_pad), where m = 0.  On the image
    nodes the chain rule along the labels gives u_x = ubar_y / gamma_y and
    u_t = ubar_t - u_x gamma_t, from the `np.gradient` stencils of
    `FlowField.gamma_y` and `FlowField.gamma_t` applied to the value; as
    the value integrates m^theta + gamma_t^2/2 along each label, the
    residual there is (gamma_t + u_x)^2/2 up to the time stencil.  On the
    pads u_t is the three-point stencil of `_row_gradient` over the rows
    i-1, i, i+1, whose values the continuation gives (the tested nodes lie
    outside the neighbor rows' supports), and u_x the row gradient of the
    value, one-sided on [pads, boundary node] so that it stays on one side
    of the C^1 glue point.

    NaN marks rows before `SpaceTimeGrid.t_resolved` (the end of the
    initial layer), the end rows and the boundary columns.  On the pads it
    also marks nodes the moving boundary reaches within the time stencil
    or within `_HJ_STANDOFF` pad cells, and nodes whose stencil straddles
    a region interface of the continuation: the tangency time satisfies
    dt_hat/ds ~ 1/(s - t_hat), so second time derivatives of the exact
    continued value blow up like distance^(-1/2) at the contact line and
    pointwise finite differences are meaningless there.  The tail of that
    blow-up is what the pads keep: at eps 1e-3 the first tested column of
    the first tested rows reads up to 0.025 on 128^2, falling away from the
    boundary and in time, and with the standoff fixed in cells it does not
    converge (0.022 on 256^2, 0.018 on 512^2).
    """
    g = f.grid
    rows = np.arange(1, g.nt)[g.t[1:-1] >= g.t_resolved]
    snap = snapshot(f, rows)
    x, u, n_pad = snap.x_nodes, snap.u, snap.n_pad
    interior = np.full((g.nt + 1, g.ny + 1), np.nan)
    exterior = np.full((g.nt + 1, 2 * n_pad), np.nan)
    if rows.size == 0:
        return interior, exterior

    ubar = f.value
    u_x = np.gradient(ubar, g.dy, axis=-1, edge_order=2) / f.gamma_y
    u_t = np.gradient(ubar, g.t, axis=0, edge_order=2) - u_x * f.gamma_t
    res = -u_t + 0.5 * u_x * u_x - f.density ** f.profile.theta
    interior[rows, 1:-1] = res[rows, 1:-1]

    hL, hR = _histories(f)
    before, after = f.gamma[rows - 1], f.gamma[rows + 1]
    gap = _HJ_STANDOFF * ((f.gamma[rows, -1:] - f.gamma[rows, :1]) / g.ny)
    xl, xr = x[:, :n_pad], x[:, -n_pad:]
    ok = np.concatenate([
        (xl < before[:, :1] - gap) & (xl < after[:, :1] - gap)
        & _off_interfaces(hL, rows, xl),
        (xr > before[:, -1:] + gap) & (xr > after[:, -1:] + gap)
        & _off_interfaces(hR, rows, -xr),
    ], axis=1)
    side = n_pad + 1
    u_x = np.hstack([_row_gradient(u[:, :side], x[:, :side])[:, :-1],
                     _row_gradient(u[:, -side:], x[:, -side:])[:, 1:]])
    pads = np.r_[:n_pad, -n_pad:0]
    xp = x[:, pads]
    around = np.empty(xp.shape + (3,))
    around[..., 1] = u[:, pads]
    okl, okr = ok[:, :n_pad], ok[:, n_pad:]
    for j in (0, 2):
        # the untested nodes move to the boundary of the neighbor row, where
        # the continuation is defined; the mask below drops them
        near = rows + j - 1
        around[..., j] = np.hstack([
            _continuation(hL, near, np.where(okl, xl, f.gamma[near, :1]))[0],
            _continuation(hR, near, -np.where(okr, xr, f.gamma[near, -1:]))[0],
        ])
    t = g.t[rows[:, None, None] + np.arange(-1, 2)]
    u_t = _row_gradient(around, np.broadcast_to(t, around.shape))[..., 1]
    exterior[rows] = np.where(ok, -u_t + 0.5 * u_x * u_x, np.nan)
    return interior, exterior


# -- the quantile-table route of the Wasserstein distance ---------------------

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


def pushforward_table(p, g):
    """Quantile table of the pushforward of phi by the monotone map ``g``,
    sampled on the symmetric label grid of its length."""
    y = np.linspace(-p.r_alpha, p.r_alpha, np.asarray(g).size)
    return QuantileTable(q=p.cdf(y), x=g)


# -- prolongation onto twice the intervals -----------------------------------

def prolong_by_halves(gamma: np.ndarray) -> np.ndarray:
    """Bilinear interpolation in (log(t+eps), y), where the nodes are uniform,
    onto the grid with twice the intervals: the time midpoints first, then
    the label midpoints of every row."""
    R, C = gamma.shape
    out = np.empty((2 * R - 1, 2 * C - 1))
    out[::2, ::2] = gamma
    out[1::2, ::2] = 0.5 * (gamma[:-1] + gamma[1:])
    out[:, 1::2] = 0.5 * (out[:, :-1:2] + out[:, 2::2])
    return out
