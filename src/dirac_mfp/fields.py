"""Eulerian reconstruction from a solved Lagrangian flow.

Density, velocity and value are carried on the image nodes
``x = gamma(t_i, y_j)`` of the flow map itself, so no interpolation ever
crosses the free boundary.  The value is rebuilt in two steps: along each
label,

    ubar(t, y) = ubar(T, y) + int_t^T  m^theta + gamma_t^2 / 2  ds,

with the terminal slice obtained by integrating u_x = -gamma_t along the
terminal row and shifted so that int u(T) m_T = 0.  Outside the support
the value is continued by tangent characteristics of the boundary curve:
straight segments carrying the boundary slope; when the velocity of
gamma_L changes sign at an interior minimum, a constant state beyond the
level where its linear interpolant between the bracketing nodes vanishes,
and a linear-in-x state beyond the last tangent otherwise; mirrored on
the right.  The continued field solves -u_t + u_x^2/2 = 0 away from the
support and matches value and slope at the free boundary.

Residual diagnostic: the HJ equation pointwise at fixed x, by the chain
rule along the labels on the support and by finite differences outside.
The continuity equation needs no check: every monotone gamma with its two
end rows pinned transports phi exactly, solved or not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CompatibilityError,
    CrossingCharacteristicsError,
    InvalidParameterError,
)
from .profile import Profile
from .solver import FlowField, _own_profile
from .target import TerminalDensity

__all__ = [
    "EulerianSnapshot",
    "value_on_support",
    "boundary_curvature",
    "snapshot",
    "hj_residuals",
]

# -- derivative stencils -----------------------------------------------------
#
# The label slope gamma_y, the time derivative gamma_t and the density
# phi / gamma_y of the whole flow are `FlowField` properties.

def _row_gradient(values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """d values / dx along the last axis, each row on its own nodes ``x``
    (same shape as ``values``): the nonuniform 3-point formula of
    ``np.gradient(..., edge_order=2)``, one-sided second order at the ends."""
    h = np.diff(x, axis=-1)
    h1, h2 = h[..., :-1], h[..., 1:]
    out = np.empty(np.shape(values))
    out[..., 1:-1] = (-h2 / (h1 * (h1 + h2)) * values[..., :-2]
                      + (h2 - h1) / (h1 * h2) * values[..., 1:-1]
                      + h1 / (h2 * (h1 + h2)) * values[..., 2:])
    h1, h2 = h[..., 0], h[..., 1]
    out[..., 0] = (-(2.0 * h1 + h2) / (h1 * (h1 + h2)) * values[..., 0]
                   + (h1 + h2) / (h1 * h2) * values[..., 1]
                   - h1 / (h2 * (h1 + h2)) * values[..., 2])
    h1, h2 = h[..., -2], h[..., -1]
    out[..., -1] = (h2 / (h1 * (h1 + h2)) * values[..., -3]
                    - (h2 + h1) / (h1 * h2) * values[..., -2]
                    + (2.0 * h2 + h1) / (h2 * (h1 + h2)) * values[..., -1])
    return out


def _second_derivative(values: np.ndarray, t: np.ndarray,
                       axis: int = 0) -> np.ndarray:
    """Second derivative along ``axis`` on the nodes ``t``: that of the
    local interpolating parabola; the end nodes share the parabola of
    their neighbor."""
    v = np.moveaxis(values, axis, 0)
    shape = (-1,) + (1,) * (v.ndim - 1)
    hm = np.diff(t)[:-1].reshape(shape)
    hp = np.diff(t)[1:].reshape(shape)
    core = 2.0 * (v[2:] * hm - v[1:-1] * (hm + hp) + v[:-2] * hp)
    core /= hm * hp * (hm + hp)
    return np.moveaxis(np.concatenate([core[:1], core, core[-1:]]), 0, axis)


# -- pointwise fields on the support -----------------------------------------

def _running_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Trapezoid integral of ``y`` along axis 0 on the nodes ``x``, from
    the first node to each node: a leading zero row, then scipy's
    ``cumulative_trapezoid`` formula, so the bytes are the same."""
    d = np.diff(x).reshape((-1,) + (1,) * (np.ndim(y) - 1))
    steps = np.cumsum(d * (y[1:] + y[:-1]) / 2.0, axis=0)
    return np.concatenate([np.zeros_like(steps[:1]), steps])


def value_on_support(f: FlowField, p: Profile | None = None,
                     m: TerminalDensity | None = None) -> np.ndarray:
    """Value ubar(t_i, y_j) on every slice, shape (nt+1, ny+1).

    Integrates m^theta + gamma_t^2/2 backward in time along each label
    (trapezoid on the graded grid).  The terminal slice comes from
    u_x = -gamma_t integrated along the terminal row and is normalized so
    that the terminal value has zero mean against the target density.
    ``p``, when given, must be the flow's own profile
    (`InvalidParameterError` otherwise); ``m``, when given, is checked
    against the terminal row (`CompatibilityError`).  `FlowField.value`
    keeps the result of the flow.
    """
    p = _own_profile(f, p)
    g = f.grid
    if m is not None:
        expected = m.quantile(p.cdf(g.y))
        scale = 1.0 + float(np.max(np.abs(expected)))
        if np.max(np.abs(f.gamma[-1] - expected)) > 1e-8 * scale:
            raise CompatibilityError(
                "terminal row of the flow does not match the supplied target")
    gt = f.gamma_t
    psi = f.density ** p.theta + 0.5 * gt * gt

    uT = _running_trapezoid(-gt[-1], f.gamma[-1])
    w = p.node_masses(g.y)
    uT = uT - (w @ uT) / w.sum()

    F = _running_trapezoid(psi, g.t)
    return uT[None, :] + (F[-1][None, :] - F)


# -- free boundaries ----------------------------------------------------------

def boundary_curvature(f: FlowField) -> np.ndarray:
    """Second time derivative of the two boundary columns of ``f``, shape
    (nt+1, 2): the left boundary, then the right."""
    return _second_derivative(f.gamma[:, [0, -1]], f.grid.t)


# -- exterior continuation ----------------------------------------------------
#
# Everything below works in the left frame: boundary curve convex, exterior
# to the left.  The right side is handled by reflecting x.

@dataclass(frozen=True)
class _SideHistory:
    t: np.ndarray
    g: np.ndarray       # boundary positions, convex in t
    d: np.ndarray       # discrete boundary velocity
    ub: np.ndarray      # value along the boundary label
    k: int              # last node before the turn, when there is one
    fan: np.ndarray | None  # rows t, g, d, ub; the turn inserted at k + 1


def _side_history(t: np.ndarray, g: np.ndarray, d: np.ndarray,
                  ub: np.ndarray) -> _SideHistory:
    k = int(np.argmin(g))
    if not ((0 < k < g.size - 1) and (d[0] < 0.0 < d[-1])):
        return _SideHistory(t, g, d, ub, k, None)
    # the velocity changes sign at an interior minimum: the turn is where
    # its linear interpolant between the bracketing nodes vanishes
    k = int(np.argmax(d >= 0.0)) - 1
    lam = d[k] / (d[k] - d[k + 1])
    nodes = np.stack([t, g, d, ub])
    turn = nodes[:, k] + lam * (nodes[:, k + 1] - nodes[:, k])
    turn[2] = 0.0
    return _SideHistory(t, g, d, ub, k, np.insert(nodes, k + 1, turn, axis=1))


def _unit_root(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Root of a x^2 + b x + c in [0, 1], vectorized; assumes a sign change
    over the unit interval (guaranteed by the bracketing search)."""
    disc = np.maximum(b * b - 4.0 * a * c, 0.0)
    q = -0.5 * (b + np.copysign(np.sqrt(disc), np.where(b == 0.0, 1.0, b)))
    with np.errstate(divide="ignore", invalid="ignore"):
        r1 = np.where(a != 0.0, q / np.where(a != 0.0, a, 1.0), np.inf)
        r2 = np.where(q != 0.0, c / np.where(q != 0.0, q, 1.0), 0.0)
    tol = 1e-9
    lam = np.where((r2 >= -tol) & (r2 <= 1.0 + tol), r2, r1)
    return np.clip(lam, 0.0, 1.0)


def _fan_nodes(h: _SideHistory, i: int) -> tuple | np.ndarray:
    """``(t, g, d, ub)`` of the boundary nodes whose tangents make the fan
    at row ``i``, ordered so the tangent foot at t_i decreases.  With a
    turn, the fan runs backward from the tangency before the turning time
    and forward after it, and ends at the turn itself."""
    if h.fan is None:
        return h.t[i:], h.g[i:], h.d[i:], h.ub[i:]
    return h.fan[:, i:h.k + 2] if i <= h.k else h.fan[:, i + 1:h.k:-1]


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


def _degenerate_region(h: _SideHistory, i, x: np.ndarray) -> np.ndarray:
    """True where the continuation at row(s) ``i`` (broadcast against
    ``x``) is not a tangent fan: the constant state below the turning
    level, or the linear state beyond the last tangent.  The continued
    value is merely C^1 across the interface."""
    if h.fan is not None:
        return x <= h.fan[1, h.k + 1]
    lT = h.g[-1] + (h.t[i] - h.t[-1]) * h.d[-1]
    return x < lT


def _extend_one_side(h: _SideHistory, i: int,
                     x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    s = h.t[i]
    u = np.empty_like(x)
    ux = np.empty_like(x)
    flat = _degenerate_region(h, i, x)
    if h.fan is not None:
        # the constant state below the turning level
        u[flat], ux[flat] = h.fan[3, h.k + 1], 0.0
    else:
        lT = h.g[-1] + (s - h.t[-1]) * h.d[-1]
        if lT > h.g[i] + 1e-12 * (1.0 + abs(h.g[i])):
            # the last tangent must fall below a convex boundary curve;
            # landing above it means the tangent lines fold
            raise CrossingCharacteristicsError(
                "tangent characteristics cross; boundary curve not convex")
        # the linear state beyond the last tangent
        u_at_lT = h.ub[-1] + (h.t[-1] - s) * 0.5 * h.d[-1] ** 2
        u[flat] = (lT - x[flat]) * h.d[-1] + u_at_lT
        ux[flat] = -h.d[-1]
    fan = ~flat
    if np.any(fan):
        u[fan], ux[fan] = _fan_invert(*_fan_nodes(h, i), s, x[fan])
    return u, ux


def _histories(f: FlowField) -> tuple[_SideHistory, _SideHistory]:
    """Side histories of the two boundary labels, the right one reflected."""
    t, g, d, ubar = f.grid.t, f.gamma, f.gamma_t, f.value
    return (_side_history(t, g[:, 0], d[:, 0], ubar[:, 0]),
            _side_history(t, -g[:, -1], -d[:, -1], ubar[:, -1]))


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


# -- snapshots ----------------------------------------------------------------

@dataclass(frozen=True)
class EulerianSnapshot:
    """Time slices on image nodes plus uniform exterior padding.

    One slice, or a stack of them: every node array has shape
    ``np.shape(t) + (nodes,)``, ``n_pad`` exterior nodes on each side of
    the images of ``y_nodes``, the Lagrangian labels; the rescaled
    functionals integrate over them in mass coordinates.
    """

    t: float | np.ndarray
    x_nodes: np.ndarray
    m: np.ndarray
    u: np.ndarray
    u_x: np.ndarray
    y_nodes: np.ndarray
    n_pad: int

    @property
    def support(self) -> slice:
        return slice(self.n_pad, self.n_pad + self.y_nodes.size)


def snapshot(f: FlowField, rows, *,
             n_pad: int | None = None) -> EulerianSnapshot:
    """Assemble density, velocity and extended value at the time index
    ``rows``, an int or an array of them.

    Padding uses the mean support spacing of each row, ``n_pad`` nodes per
    side (default ny // 4, at least 2).  The value and gamma_t are those
    the flow keeps, so slicing many snapshots derives them once.
    The exterior continuation brackets each row separately, so it runs
    once per row, on side histories built once.
    """
    g = f.grid
    if n_pad is None:
        n_pad = max(2, g.ny // 4)
    shape = np.shape(rows)
    rows = np.reshape(rows, -1)
    ubar = f.value
    x_sup = f.gamma[rows]
    gL, gR = x_sup[:, :1], x_sup[:, -1:]
    h = (gR - gL) / g.ny
    x_ext = np.concatenate([gL - h * np.arange(n_pad, 0, -1),
                            gR + h * np.arange(1, n_pad + 1)], axis=1)
    u_ext = np.empty_like(x_ext)
    ux_ext = np.empty_like(x_ext)
    hL, hR = _histories(f)
    for k, i in enumerate(rows):
        u_ext[k], ux_ext[k] = _extend(hL, hR, int(i), x_ext[k])

    def glue(ext, sup):
        out = np.concatenate([ext[:, :n_pad], sup, ext[:, n_pad:]], axis=1)
        return out.reshape(shape + out.shape[-1:])

    return EulerianSnapshot(
        t=g.t[rows].reshape(shape)[()],
        x_nodes=glue(x_ext, x_sup),
        m=glue(np.zeros_like(x_ext), f.density[rows]),
        u=glue(u_ext, ubar[rows]),
        u_x=glue(ux_ext, -f.gamma_t[rows]),
        y_nodes=g.y.copy(),
        n_pad=n_pad,
    )


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
    around = np.full(xp.shape + (3,), np.nan)
    around[..., 1] = u[:, pads]
    for k, i in enumerate(rows):
        for j in (0, 2):
            around[k, ok[k], j] = _extend(hL, hR, i + j - 1, xp[k, ok[k]])[0]
    t = g.t[rows[:, None, None] + np.arange(-1, 2)]
    u_t = _row_gradient(around, np.broadcast_to(t, around.shape))[..., 1]
    exterior[rows] = np.where(ok, -u_t + 0.5 * u_x * u_x, np.nan)
    return interior, exterior
