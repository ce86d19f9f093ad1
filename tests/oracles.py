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
- `_restrict`, `_relax`, `_smooth`, `_vcycle` and `_pcg` are the multigrid
  V-cycle and its CG as they first ran, in the single precision of the
  program's cycle: restriction by `np.add.reduceat` over the fine nodes of each
  coarse node, the time lines relaxed on strided views, the pinned rows
  padded on by `np.pad`, and a new array for each CG direction.
  ``test_solver.py`` checks that `solver._restrict`, `solver._vcycle` and
  `solver._pcg` give their bits on the ladders of square, odd, unequal and
  one-level grids.
- `_level_f64`, `_relax_f64`, `_smooth_f64` and `_vcycle_f64` are the
  V-cycle as it ran in double precision, on float64 planes and `dpttrf`
  line factors, before it ran in float32.  ``test_solver.py`` puts them in
  `solver` and checks that the solve takes the same Newton steps and CG
  iterations and reaches the same flow.

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs, dpttrf, dpttrs, spttrs

from dirac_mfp.errors import (CrossingCharacteristicsError,
                              DegenerateStateError, InvalidParameterError,
                              NewtonDivergenceError)
from dirac_mfp.fields import (_continuation, _degenerate_region, _histories,
                              _row_gradient, _SideHistory, _unit_root,
                              snapshot)
from dirac_mfp.solver import (_CG_MAX_ITER, FlowField, _apply, _axis_map,
                              _Level, _prolong)

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


# -- the V-cycle with reduceat restriction and strided time lines ------------

def _restrict(r: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The transpose of `_prolong` onto the ``shape`` nodes: along each axis,
    coarse node j sums the weights of the fine nodes that read it.  The fine
    nodes of one left node j are consecutive, and every j has some."""
    for axis in (0, 1):
        r = np.moveaxis(r, axis, 0)
        j, w = _axis_map(shape[axis] - 1, len(r) - 1, r.dtype)
        first = np.flatnonzero(np.diff(j, prepend=-1))
        out = np.zeros((shape[axis], r.shape[1]), r.dtype)
        out[:-1] = np.add.reduceat((1.0 - w)[:, None] * r, first)
        out[1:] += np.add.reduceat(w[:, None] * r, first)
        r = np.moveaxis(out, 0, axis)
    return r


def _relax(x: np.ndarray, b: np.ndarray, V: np.ndarray, factor: tuple,
           p: int) -> None:
    """Solve the lines p, p+2, ... of ``x`` (along its last axis) for ``b``,
    their neighbours held; ``V[i]`` couples line i to line i+1."""
    r = b[p::2].copy()
    n, q = len(r), 1 - p                 # q: the first line below one of p's
    r[q:] -= V[q::2][:n - q] * x[q::2][:n - q]
    above = x[p + 1::2]
    r[:len(above)] -= V[p::2][:len(above)] * above
    x[p::2] = spttrs(*factor, r.ravel())[0].reshape(r.shape)


def _smooth(lv: _Level, x: np.ndarray, b: np.ndarray, colours) -> None:
    """Zebra line Gauss-Seidel over ``colours``, indices of ``lv.factors``."""
    lines = ((x, b, lv.A[2]), (x.T, b.T, lv.A[1].T))
    for k in colours:
        _relax(*lines[k // 2], lv.factors[k], k % 2)


def _vcycle(levels: list[_Level], b: np.ndarray) -> np.ndarray:
    """One V(1,1)-cycle for ``levels[-1]`` from zero in float32, the band
    solve in float64: the preconditioner."""
    *coarse, lv = levels
    b = b.astype(np.float32)
    if not coarse:
        x = dpbtrs(lv.factors, b.astype(np.float64).ravel(), lower=1)[0]
        return x.astype(np.float32).reshape(b.shape)
    x = np.zeros_like(b)
    _smooth(lv, x, b, (0, 1, 2, 3))
    pad = ((1, 1), (0, 0))                       # the pinned rows
    R, C = coarse[-1].A.shape[1:]
    r = _restrict(np.pad(b - _apply(lv.A, x), pad), (R + 2, C))[1:-1]
    e = _prolong(np.pad(_vcycle(coarse, r), pad), (len(x) + 2, x.shape[1]))
    x += e[1:-1]
    _smooth(lv, x, b, (3, 2, 1, 0))
    return x


def _pcg(A: np.ndarray, levels: list[_Level], b: np.ndarray, tol: float,
         where: str) -> tuple[np.ndarray, int]:
    """Solve ``A x = b`` by CG preconditioned with `_vcycle` over ``levels``,
    to a residual of ``tol`` relative to ``b``; x and the iterations."""
    x, r = np.zeros_like(b), b.copy()
    z = _vcycle(levels, r)
    d, rz = z.astype(np.float64), float(np.vdot(r, z))
    stop = tol * np.linalg.norm(b)
    for it in range(1, _CG_MAX_ITER + 1):
        q = _apply(A, d)
        dq = float(np.vdot(d, q))
        if not dq > 0.0:
            raise DegenerateStateError(f"Newton matrix not positive definite: "
                                       f"p.Ap = {dq:.3e} in CG {where}")
        a = rz / dq
        x += a * d
        r -= a * q
        if np.linalg.norm(r) <= stop:
            return x, it
        z = _vcycle(levels, r)
        rz, prev = float(np.vdot(r, z)), rz
        d = z + (rz / prev) * d
    raise NewtonDivergenceError(f"CG missed its tolerance {tol:.0e} in "
                                f"{_CG_MAX_ITER} iterations {where}")


# -- the V-cycle in double precision ------------------------------------------

def _level_f64(A: np.ndarray, coarsest: bool) -> _Level:
    """`DegenerateStateError` when a factor meets a pivot that is not
    positive: ``A`` is not positive definite."""
    if coarsest:
        R, C = A.shape[1:]
        ab = np.zeros((C + 1, R * C))                # row d: A[k + d, k]
        ab[[0, 1, C]] = A.reshape(3, -1)
        factors, info = dpbtrf(ab, lower=1, overwrite_ab=1)
        name = "dpbtrf"
    else:            # each colour's lines end to end, U along each line
        out = [dpttrf(D[p::2].ravel(), U[p::2].ravel()[:-1])
               for D, U in ((A[0], A[1]), (A[0].T, A[2].T)) for p in (0, 1)]
        factors = [(d, e) for d, e, _ in out]
        info, name = next((i for *_, i in out if i), 0), "dpttrf"
    if info != 0:
        raise DegenerateStateError(
            f"Newton matrix not positive definite: {name} info {info}")
    return _Level(A, factors)


def _relax_f64(x: np.ndarray, b: np.ndarray, V: np.ndarray, factor: tuple,
               p: int) -> None:
    """Solve the lines p, p+2, ... of ``x`` (its rows) for ``b``, their
    neighbours held; ``V[i]`` couples line i to line i+1."""
    r = b[p::2].copy()
    n, q = len(r), 1 - p                 # q: the first line below one of p's
    r[q:] -= V[q::2][:n - q] * x[q::2][:n - q]
    above = x[p + 1::2]
    r[:len(above)] -= V[p::2][:len(above)] * above
    x[p::2] = dpttrs(*factor, r.ravel(), overwrite_b=1)[0].reshape(r.shape)


def _smooth_f64(lv: _Level, x: np.ndarray, b: np.ndarray, colours) -> None:
    """Zebra line Gauss-Seidel over ``colours``, indices of ``lv.factors``:
    (0, 1, 2, 3) or (3, 2, 1, 0).  The time lines (2, 3) relax as the rows
    of one contiguous transposed copy of x, b and the label couplings."""
    for run in (colours[:2], colours[2:]):
        time = run[0] >= 2
        xs, bs, V = ((a.T.copy() for a in (x, b, lv.A[1])) if time
                     else (x, b, lv.A[2]))
        for k in run:
            _relax_f64(xs, bs, V, lv.factors[k], k % 2)
        if time:
            x[...] = xs.T


def _vcycle_f64(levels: list[_Level], b: np.ndarray) -> np.ndarray:
    """One V(1,1)-cycle for ``levels[-1]`` from zero: the preconditioner, in
    the interior rows of a buffer whose pinned first and last rows are 0."""
    *coarse, lv = levels
    x = np.zeros((len(b) + 2, b.shape[1]))[1:-1]
    if not coarse:
        x[...] = dpbtrs(lv.factors, b.ravel(), lower=1)[0].reshape(b.shape)
        return x
    _smooth_f64(lv, x, b, (0, 1, 2, 3))
    r = np.zeros_like(x.base)                    # b - A x, the pinned rows 0
    np.subtract(b, _apply(lv.A, x), out=r[1:-1])
    R, C = coarse[-1].A.shape[1:]
    r = _restrict(r, (R + 2, C))                 # frees the fine residual
    x += _prolong(_vcycle_f64(coarse, r[1:-1]).base, x.base.shape)[1:-1]
    _smooth_f64(lv, x, b, (3, 2, 1, 0))
    return x
