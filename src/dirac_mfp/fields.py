"""Eulerian reconstruction from a solved Lagrangian flow.

Density, velocity and value are carried on the image nodes
``x = gamma(t_i, y_j)`` of the flow map itself, so no interpolation ever
crosses the free boundary.  The value is rebuilt in two steps: along each
label,

    ubar(t, y) = ubar(T, y) + int_t^T  m^theta + gamma_t^2 / 2  ds,

with the terminal slice obtained by integrating u_x = -gamma_t along the
terminal row and shifted so that int u(T) m_T = 0.  Outside the support
the value is continued by tangent characteristics of the boundary curve,
straight segments carrying the boundary slope, and past the foot of the
last tangent by that tangent's linear state.  The last tangent is the
terminal one, or that of the turn where the velocity of gamma_L, linearly
interpolated, vanishes at an interior minimum; its state is then constant.
Mirrored on the right.  The continued field solves -u_t + u_x^2/2 = 0 away
from the support and matches value and slope at the free boundary.
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
    k: int              # last node before the turn; node nt without one
    end: int            # column of the last tangent in ``fan``
    fan: np.ndarray     # rows t, g, d, ub; the turn inserted at k + 1


def _side_history(t: np.ndarray, g: np.ndarray, d: np.ndarray,
                  ub: np.ndarray) -> _SideHistory:
    nodes = np.stack([t, g, d, ub])
    k = int(np.argmin(g))
    if not ((0 < k < g.size - 1) and (d[0] < 0.0 < d[-1])):
        return _SideHistory(t, g, g.size - 1, g.size - 1, nodes)
    # the velocity changes sign at an interior minimum: the turn is where
    # its linear interpolant between the bracketing nodes vanishes
    k = int(np.argmax(d >= 0.0)) - 1
    lam = d[k] / (d[k] - d[k + 1])
    turn = nodes[:, k] + lam * (nodes[:, k + 1] - nodes[:, k])
    turn[2] = 0.0
    return _SideHistory(t, g, k, k + 1, np.insert(nodes, k + 1, turn, axis=1))


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


def _degenerate_region(h: _SideHistory, i, x: np.ndarray) -> np.ndarray:
    """True where the continuation at row(s) ``i`` (broadcast against
    ``x``) lies past the foot of the last tangent, in the linear state of
    that tangent (a constant at a turn) rather than in the fan.  The
    continued value is merely C^1 across the interface."""
    te, ge, de = h.fan[:3, h.end]
    return x < ge + (h.t[i] - te) * de


def _fans(h: _SideHistory, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(t, g, d, ub)`` of the boundary nodes whose tangents make the fan
    at each time row of ``rows``, shape (4, rows, width), and the number of
    those nodes in each row.  Row i's fan runs from node i + (i > k) to the
    last tangent, backward when row i comes after the turn, so the tangent
    foot at t_i decreases; it is padded to the common width (two at least)
    with its last tangent."""
    j = rows + (rows > h.k)
    n = np.abs(h.end - j) + 1
    step = np.where(j <= h.end, 1, -1)[:, None]
    c = np.minimum(np.arange(np.max(n, initial=2)), n[:, None] - 1)
    return h.fan[:, j[:, None] + step * c], n


def _continuation(h: _SideHistory, rows: np.ndarray,
                  x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(u, u_x)`` of the continuation at the exterior points ``x``, one
    row of points per time row of ``rows``: shape (rows, points).

    A point past the foot of the last tangent takes that tangent's linear
    state (`_degenerate_region`).  Any other must lie outside the support
    (`InvalidParameterError`); it is bracketed between consecutive tangent
    feet of its row's fan (`_fans`), every point of every row in one
    bisection, and its tangency time is found from the interpolated (g, d)
    data, which keeps the construction second order in the grid.
    """
    s, g = h.t[rows][:, None], h.g[rows][:, None]
    te, ge, de, ue = h.fan[:, h.end]
    le = ge + (s - te) * de
    flat = x < le
    if np.any(~flat & (x > g)):
        raise InvalidParameterError("extension requested inside the support")
    fan, n = _fans(h, rows)
    l = fan[1] + (s - fan[0]) * fan[2]
    span = np.abs(l[:, 0] - l[:, -1]) + np.max(np.abs(l), axis=1) + 1e-30
    # tangents of a convex curve cannot fold; a genuine fold means the
    # characteristics cross and the continuation is invalid (the padding
    # adds steps of zero, so it folds nowhere)
    crossed = np.any((np.max(np.diff(l, axis=1), axis=1) > 1e-9 * span)
                     & ~np.all(flat, axis=1))
    if h.k == h.t.size - 1:
        # without a turn the last tangent must fall below a convex
        # boundary curve; landing above it means the tangent lines fold
        crossed |= np.any(le > g + 1e-12 * (1.0 + np.abs(g)))
    if crossed:
        raise CrossingCharacteristicsError(
            "tangent characteristics cross; boundary curve not convex")

    # the number of leading feet at or right of each point, by bisection
    # over the running minimum of the feet, which decreases along each row
    lm = np.minimum.accumulate(l, axis=1)
    width = lm.shape[1]
    r = np.arange(rows.size)[:, None]
    above = np.zeros(x.shape, dtype=int)
    bit = 1 << (width.bit_length() - 1)
    while bit:
        nxt = above + bit
        ok = (nxt <= width) & (lm[r, np.minimum(nxt, width) - 1] >= x)
        above = np.where(ok, nxt, above)
        bit >>= 1
    kk = np.clip(above - 1, 0, np.maximum(n - 2, 0)[:, None])

    lo = fan[:, r, kk]
    t0, g0, d0, u0 = lo
    dt, dg, dd, du = fan[:, r, kk + 1] - lo
    lam = _unit_root(-dt * dd, dg + (s - t0) * dd - dt * d0,
                     g0 + (s - t0) * d0 - x)
    tl = t0 + lam * dt
    dl = d0 + lam * dd
    ul = u0 + lam * du
    # transport along the segment: du/ds = -gamma_dot^2 / 2.  The fan of
    # one tangent (row nt without a turn) is padded to two copies of it,
    # which give lam = 0 at t_i = te: that tangent's own state.
    # 0.0 - de: a turn's slope is +0, not -0
    u = np.where(flat, (le - x) * de + (ue + (te - s) * 0.5 * de ** 2),
                 ul + (tl - s) * 0.5 * dl * dl)
    ux = np.where(flat, 0.0 - de, -dl)
    return u, ux


def _histories(f: FlowField) -> tuple[_SideHistory, _SideHistory]:
    """Side histories of the two boundary labels, the right one reflected."""
    t, g, d, ubar = f.grid.t, f.gamma, f.gamma_t, f.value
    return (_side_history(t, g[:, 0], d[:, 0], ubar[:, 0]),
            _side_history(t, -g[:, -1], -d[:, -1], ubar[:, -1]))


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
    The exterior continuation of all rows is one array pass per side, on
    side histories built once.
    """
    g = f.grid
    if n_pad is None:
        n_pad = max(2, g.ny // 4)
    shape = np.shape(rows)
    rows = np.reshape(rows, -1)
    x_sup = f.gamma[rows]
    gL, gR = x_sup[:, :1], x_sup[:, -1:]
    h = (gR - gL) / g.ny
    xL = gL - h * np.arange(n_pad, 0, -1)
    xR = gR + h * np.arange(1, n_pad + 1)
    hL, hR = _histories(f)
    uL, uxL = _continuation(hL, rows, xL)
    uR, uxR = _continuation(hR, rows, -xR)

    def glue(left, sup, right):
        out = np.concatenate([left, sup, right], axis=1)
        return out.reshape(shape + out.shape[-1:])

    pad = np.zeros_like(xL)
    return EulerianSnapshot(
        t=g.t[rows].reshape(shape)[()],
        x_nodes=glue(xL, x_sup, xR),
        m=glue(pad, f.density[rows], pad),
        u=glue(uL, f.value[rows], uR),
        u_x=glue(uxL, -f.gamma_t[rows], -uxR),
        y_nodes=g.y.copy(),
        n_pad=n_pad,
    )
