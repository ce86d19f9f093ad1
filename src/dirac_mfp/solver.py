"""Damped Newton solver for the Lagrangian flow of the planning problem.

Unknown is the monotone flow map ``gamma(t, y)`` on a tensor grid: time
nodes graded so that ``t + eps`` is geometric (the initial layer of the
regularized Dirac lives at scale eps), mass labels ``y`` uniform on the
profile support ``[-r_alpha, r_alpha]``.  The map is pinned to
``eps^alpha y`` at ``t = 0`` and to the terminal quantile rows at ``t = T``
and minimizes the convex transport energy

    E[gamma] = int int  gamma_t^2 phi / 2  +  phi^{theta+1} gamma_y^{-theta} / (theta+1)  dy dt,

whose Euler-Lagrange equation is the degenerate elliptic flow equation

    gamma_tt + theta phi^theta gamma_y^{-theta-2} gamma_yy
        = (phi^theta)_y gamma_y^{-theta-1}.

Discretization: gamma_t on time intervals, gamma_y on label cells
(midpoint), trapezoid-in-log-time weights for the congestion term.  The
kinetic y-weights are exact first moments of phi over dual cells; with
plain node values the two boundary columns would carry zero kinetic weight
(phi vanishes at the free boundary) and the discrete energy would be
unbounded there, while the moment-matched masses keep it coercive, make
the semi-discretization exact on y-linear flows, and reproduce the
free-boundary law gamma_tt = (phi^theta)_y gamma_y^{-theta-1} as the
natural stationarity condition of the boundary columns.

Newton is grid-sequenced (nested iteration, Brandt, Math. Comp. 31, 1977):
every axis with more than 64 intervals is halved, rounding up, down to the
coarsest grid, which starts from `initial_guess`; each finer grid starts
from the coarser flow interpolated linearly in (log(t+eps), y), with its own
pinned rows.  Coarse levels stop at a scaled gradient of 1e-4 (or a looser
``residual_tol``), and ``newton_max_iter`` caps each level.

The coarsest grid solves its Newton systems by a band Cholesky.  Every finer
grid solves them by CG to a relative residual of 1e-6, preconditioned by one
multigrid V-cycle over the grids below it in the same ladder: O(n^2) memory
and work per iteration on an n x n grid, and iterations per step that do not
grow with n (1 to 6 from 128^2 to 512^2).  While every slope stays above the
floor the matrix is positive definite by construction; a pivot that is not
positive, or a CG direction of no positive curvature, ends the solve with
`DegenerateStateError`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs, dpttrf, dpttrs

from .errors import (
    DegenerateStateError,
    InvalidParameterError,
    NewtonDivergenceError,
    check_int,
    check_number,
)
from .profile import Profile
from .target import TerminalDensity

__all__ = [
    "SpaceTimeGrid",
    "FlowField",
    "SolverConfig",
    "SolveInfo",
    "make_grid",
    "terminal_row",
    "initial_guess",
    "scaled_gradient_norm",
    "solve",
]


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Geometrically graded time nodes and uniform mass labels."""

    eps: float
    T: float
    t: np.ndarray
    y: np.ndarray

    @property
    def nt(self) -> int:
        return self.t.size - 1

    @property
    def ny(self) -> int:
        return self.y.size - 1

    @property
    def dy(self) -> float:
        return (self.y[-1] - self.y[0]) / self.ny

    @property
    def dt(self) -> np.ndarray:
        return np.diff(self.t)

    @property
    def sigma(self) -> np.ndarray:
        """Shifted times ``t + eps`` (a geometric sequence)."""
        return self.t + self.eps

    @property
    def t_resolved(self) -> float:
        """End of the initial layer, 10 eps: the rescaled series and the
        default fit window start here."""
        return 10.0 * self.eps


@dataclass(frozen=True)
class SolveInfo:
    iterations: int      # Newton steps on the requested grid
    grad_norm: float
    energy: float
    # (nt, ny, Newton steps, CG iterations) of each grid, coarsest first
    levels: tuple[tuple[int, int, int, int], ...]


# smallest label slope for which the density phi / gamma_y is defined
_SLOPE_FLOOR = 1e-12
# smallest label slope that Newton steps and `_Workspace.energy` allow
_GAMMA_Y_FLOOR = 1e-8


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class FlowField:
    """Flow map samples ``gamma[i, j] = gamma(t_i, y_j)``.

    Every diagnostic is a function of the flow alone: the derived fields
    below are computed on first use and kept, so ``gamma`` must not be
    written after that.
    """

    grid: SpaceTimeGrid
    profile: Profile
    gamma: np.ndarray
    info: SolveInfo | None = None

    @functools.cached_property
    def gamma_y(self) -> np.ndarray:
        """Label slope on every node (second order, one-sided at the ends);
        `DegenerateStateError` when one is at or below `_SLOPE_FLOOR`."""
        s = np.gradient(self.gamma, self.grid.dy, axis=-1, edge_order=2)
        if np.min(s) <= _SLOPE_FLOOR:
            raise DegenerateStateError("flow map slope collapsed; density undefined")
        return _read_only(s)

    @functools.cached_property
    def gamma_t(self) -> np.ndarray:
        """Time derivative on every node (``np.gradient`` on the graded t)."""
        return _read_only(np.gradient(self.gamma, self.grid.t, axis=0,
                                      edge_order=2))

    @functools.cached_property
    def density(self) -> np.ndarray:
        """``m = phi(y) / gamma_y`` on the image nodes, shape (nt+1, ny+1)."""
        return _read_only(self.profile.phi(self.grid.y) / self.gamma_y)

    @functools.cached_property
    def value(self) -> np.ndarray:
        """`fields.value_on_support` of this flow."""
        from . import fields
        return _read_only(fields.value_on_support(self))


@dataclass(frozen=True)
class SolverConfig:
    """Newton settings: the ``solver`` section of a run's ``config.json``."""

    newton_max_iter: int = 200
    residual_tol: float = 1e-10      # scaled energy-gradient sup norm

    def __post_init__(self):
        check_int("solver.newton_max_iter", self.newton_max_iter, 1)
        check_number("solver.residual_tol", self.residual_tol, positive=True)


def make_grid(p: Profile, eps: float, T: float, nt: int, ny: int) -> SpaceTimeGrid:
    """Grid with ``(t_i + eps)`` geometric from eps to T + eps."""
    if not (eps > 0.0 and math.isfinite(eps)):
        raise InvalidParameterError(f"eps must be positive, got {eps}")
    if not (T > 0.0 and math.isfinite(T)):
        raise InvalidParameterError(f"T must be positive, got {T}")
    if nt < 4 or ny < 4:
        raise InvalidParameterError(f"grid too small: nt={nt}, ny={ny}")
    t = np.geomspace(eps, T + eps, nt + 1) - eps
    t[0] = 0.0
    t[-1] = T
    y = np.linspace(-p.r_alpha, p.r_alpha, ny + 1)
    return SpaceTimeGrid(eps=float(eps), T=float(T), t=t, y=y)


def terminal_row(p: Profile, m: TerminalDensity, grid: SpaceTimeGrid) -> np.ndarray:
    """Terminal boundary row: label y is sent to the m_T-quantile of the
    phi-mass to the left of y.  Endpoints map to the support ends exactly."""
    row = m.quantile(p.cdf(grid.y))
    if not np.all(np.isfinite(row)) or np.any(np.diff(row) <= 0.0):
        raise InvalidParameterError(
            "terminal density produced a non-monotone terminal row")
    return row


def initial_guess(p: Profile, m: TerminalDensity, grid: SpaceTimeGrid) -> np.ndarray:
    """Interpolate between the pinned rows along the self-similar schedule
    ``(t+eps)^alpha``: exact for self-similar data, monotone always."""
    base = grid.eps**p.alpha * grid.y
    rowT = terminal_row(p, m, grid)
    blend = ((grid.sigma ** p.alpha - grid.eps**p.alpha)
             / ((grid.T + grid.eps) ** p.alpha - grid.eps**p.alpha))
    return base[None, :] + blend[:, None] * (rowT - base)[None, :]


# ---------------------------------------------------------------------------
# quadrature workspace
# ---------------------------------------------------------------------------

class _Workspace:
    """Per-(grid, profile) constants of the discrete energy.

    Kinetic masses are first-moment matched: W_j = int (y/y_j) phi dy over
    the dual cell (exact, via the phi^(theta+1) antiderivative).  With the
    midpoint congestion cells this makes the semi-discrete system exact on
    every field linear in y, free-boundary columns included; plain
    dual-cell masses leave an O(dy) consistency gap at the degenerate
    boundary and an O(dy^2) interior bias large enough to matter.  The
    congestion time weights are the trapezoid rule in log(t+eps), where
    the graded nodes are uniform; the plain-t trapezoid carries a
    (alpha(1-alpha)+2)/12 relative bias on power-law flows versus
    alpha(1-alpha)/12 for this one.
    """

    def __init__(self, p: Profile, grid: SpaceTimeGrid):
        self.grid = grid
        y, dy = grid.y, grid.dy
        half = np.concatenate([[y[0]], 0.5 * (y[:-1] + y[1:]), [y[-1]]])
        th = p.theta
        pp = np.power(np.clip(p.c * (p.r_alpha**2 - half**2), 0.0, None),
                      (th + 1.0) / th)
        with np.errstate(divide="ignore", invalid="ignore"):
            W = -th / (2.0 * p.c * (th + 1.0)) * np.diff(pp) / y
        center = np.abs(y) < 0.25 * dy               # y/y_j weight is 0/0 there
        if np.any(center):
            W[center] = p.cell_masses(half)[center]
        self.W = W
        y_mid = 0.5 * (y[:-1] + y[1:])
        self.PHI = p.phi(y_mid) ** (th + 1.0)        # congestion weights
        self.dt = grid.dt
        dtau = np.diff(np.log(grid.sigma))
        wt = np.empty(grid.nt + 1)
        wt[0] = 0.5 * dtau[0]
        wt[-1] = 0.5 * dtau[-1]
        wt[1:-1] = 0.5 * (dtau[:-1] + dtau[1:])
        self.wt = wt * grid.sigma
        self.dy = dy
        self.theta = th

    def slopes(self, gamma: np.ndarray) -> np.ndarray:
        return np.diff(gamma, axis=1) / self.dy

    def energy(self, gamma: np.ndarray) -> float:
        s = self.slopes(gamma)
        if np.min(s) < _GAMMA_Y_FLOOR:
            raise DegenerateStateError(f"flow slope {np.min(s):.3e} fell "
                                       f"below the floor {_GAMMA_Y_FLOOR:.1e}")
        dtg = np.diff(gamma, axis=0) / self.dt[:, None]
        kinetic = float(np.sum(self.dt[:, None] * (0.5 * self.W[None, :] * dtg**2)))
        congestion = float(np.sum(self.wt[:, None]
                                  * (self.PHI[None, :] * s ** (-self.theta)))
                           * self.dy / (self.theta + 1.0))
        return kinetic + congestion

    def _fluxes(self, gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Kinetic flux on each time interval, (nt, ny+1), and congestion
        flux on each label cell, (nt+1, ny), zero-padded to (nt+1, ny+2)."""
        th = self.theta
        kin = self.W[None, :] * (np.diff(gamma, axis=0) / self.dt[:, None])
        q = self.PHI[None, :] * (-th / (th + 1.0)) * self.slopes(gamma) ** (-th - 1.0)
        return kin, np.pad(q, ((0, 0), (1, 1)))

    def gradient(self, gamma: np.ndarray) -> tuple[np.ndarray, float]:
        """dE/dgamma at the interior time rows, shape (nt-1, ny+1), and its
        scaled sup norm, the relative stationarity measure: each entry
        divided by the quadrature weight plus the sum of the absolute
        terms that were summed to produce it.  The early time rows carry
        flow terms of size (t+eps)^(alpha-2); a purely weight-scaled norm
        would bottom out at machine-eps times that factor and the default
        tolerance would be unreachable for small eps."""
        kin, qp = self._fluxes(gamma)
        cong = self.wt[:, None] * (qp[:, :-1] - qp[:, 1:])
        G = (kin[:-1] - kin[1:]) + cong[1:-1]
        kin, qp = np.abs(kin), np.abs(qp)
        cong = self.wt[:, None] * (qp[:, :-1] + qp[:, 1:])
        scale = (self.wt[1:-1, None] * self.W[None, :]
                 + ((kin[:-1] + kin[1:]) + cong[1:-1]))
        return G, float(np.max(np.abs(G) / scale))

    def cell_curvature(self, gamma: np.ndarray) -> np.ndarray:
        """Hessian coefficient of each congestion cell at interior rows."""
        s = self.slopes(gamma)[1:-1]
        return (self.wt[1:-1, None] * self.PHI[None, :]
                * self.theta * s ** (-self.theta - 2.0) / self.dy)


def _own_profile(f: FlowField, p: Profile | None) -> Profile:
    """The profile of ``f``; ``p`` may name it again, but no other one."""
    if p not in (None, f.profile):
        raise InvalidParameterError(
            "profile differs from the one the flow was solved for")
    return f.profile


def scaled_gradient_norm(f: FlowField, p: Profile | None = None) -> float:
    """Sup norm of the energy gradient scaled by the quadrature weights
    (the solver's convergence functional).  ``p``, when given, must be the
    flow's own profile."""
    return _Workspace(_own_profile(f, p), f.grid).gradient(f.gamma)[1]


# ---------------------------------------------------------------------------
# Newton system: CG preconditioned by a multigrid V-cycle over the ladder
# ---------------------------------------------------------------------------
#
# The Newton matrix is a symmetric 5-point stencil on the (nt-1) x (ny+1)
# grid of interior time rows and labels, kept as three (R, C) planes: the
# diagonal, the label couplings (i, j)-(i, j+1) padded by a last column, and
# the time couplings (i, j)-(i+1, j) padded by a last row.  Each grid of the
# ladder below the requested one keeps the matrix of its last Newton step.
# The coarsest grid, at most _COARSEST intervals on either axis, solves its
# own steps by a band Cholesky (`dpbtrf`, band ny+1 in row order), whose last
# factor is the V-cycle's coarse solve.  Every finer grid solves its steps by
# CG preconditioned with one symmetric V(1,1)-cycle over the grids below it
# (Brandt, Math. Comp. 31, 1977; Trottenberg, Oosterlee & Schueller,
# *Multigrid*, 2001).  The smoother is zebra line Gauss-Seidel in both
# directions, for the anisotropy of the graded time steps: the even, then the
# odd label lines (grid rows), then the even, then the odd time lines
# (columns); the post-smoother runs them in reverse order, so the cycle is
# symmetric.  Each colour's lines are laid end to end and factored once per
# matrix (`dpttrf`): the padding of the planes is exactly the zero coupling
# between consecutive lines.  Prolongation is `_prolong`, and restriction its
# transpose `_restrict`.

_COARSEST = 64      # most intervals on either axis of the coarsest grid
_COARSE_TOL = 1e-4  # a coarse flow only starts the next level (Brandt 1977)
_CG_TOL = 1e-6      # relative residual of each Newton step's CG
_CG_MAX_ITER = 100  # the V-cycle takes CG to 1e-10 in 8-9 iterations


def _ladder(p: Profile, grid: SpaceTimeGrid) -> list[SpaceTimeGrid]:
    """``grid`` and its coarsenings, coarsest first: every axis with more than
    `_COARSEST` intervals is halved, rounding up, by `make_grid`.  On an axis
    with an even number of intervals that gives every second node."""
    ladder = [grid]
    while max(ladder[-1].nt, ladder[-1].ny) > _COARSEST:
        g = ladder[-1]
        ladder.append(make_grid(p, g.eps, g.T, *(n - n // 2 if n > _COARSEST
                                                 else n for n in (g.nt, g.ny))))
    return ladder[::-1]


def _axis_map(n_coarse: int, n_fine: int) -> tuple[np.ndarray, np.ndarray]:
    """Fine node i of an axis sits at coarse position i n_coarse / n_fine:
    its left coarse node and the weight of the right one."""
    x = np.arange(n_fine + 1) * n_coarse / n_fine
    j = np.minimum(x.astype(np.intp), n_coarse - 1)
    return j, x - j


def _prolong(a: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Linear interpolation of the node values ``a`` along each axis, time
    first, onto the grid of ``shape`` nodes (`_axis_map`): linear in
    (log(t+eps), y), where the nodes are uniform.  Where an axis doubles, its
    even nodes copy the coarse ones and its odd nodes average two."""
    j, w = _axis_map(a.shape[0] - 1, shape[0] - 1)
    a = (1.0 - w)[:, None] * a[j] + w[:, None] * a[j + 1]
    j, w = _axis_map(a.shape[1] - 1, shape[1] - 1)
    return (1.0 - w) * a[:, j] + w * a[:, j + 1]


def _restrict(r: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The transpose of `_prolong` onto the ``shape`` nodes: along each axis,
    coarse node j sums the weights of the fine nodes that read it.  The fine
    nodes of one left node j are consecutive, and every j has some."""
    for axis in (0, 1):
        r = np.moveaxis(r, axis, 0)
        j, w = _axis_map(shape[axis] - 1, len(r) - 1)
        first = np.flatnonzero(np.diff(j, prepend=-1))
        out = np.zeros((shape[axis], r.shape[1]))
        out[:-1] = np.add.reduceat((1.0 - w)[:, None] * r, first)
        out[1:] += np.add.reduceat(w[:, None] * r, first)
        r = np.moveaxis(out, 0, axis)
    return r


def _newton_matrix(ws: _Workspace, gamma: np.ndarray) -> np.ndarray:
    """Energy Hessian at the interior rows as a 5-point stencil in three
    planes, shape (3, nt-1, ny+1): the diagonal, the label couplings (last
    column 0) and the time couplings (last row 0)."""
    cc = ws.cell_curvature(gamma)                       # (nt-1, ny)
    A = np.zeros((3, len(cc), cc.shape[1] + 1))
    A[0] = np.outer(1.0 / ws.dt[:-1] + 1.0 / ws.dt[1:], ws.W)
    A[0, :, :-1] += cc
    A[0, :, 1:] += cc
    A[1, :, :-1] = -cc
    A[2, :-1] = -np.outer(1.0 / ws.dt[1:-1], ws.W)
    return A


def _apply(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The stencil matrix with planes ``A`` times ``x``, shape (R, C)."""
    y = A[0] * x
    y[:, :-1] += A[1, :, :-1] * x[:, 1:]
    y[:, 1:] += A[1, :, :-1] * x[:, :-1]
    y[:-1] += A[2, :-1] * x[1:]
    y[1:] += A[2, :-1] * x[:-1]
    return y


@dataclass(frozen=True)
class _Level:
    """The Newton matrix ``A`` of one ladder grid as the V-cycle uses it:
    ``factors`` is the coarsest grid's band factor, or on a finer grid the
    `dpttrf` factors of its even and odd label lines, then of its even and
    odd time lines."""

    A: np.ndarray
    factors: object


def _level(A: np.ndarray, coarsest: bool) -> _Level:
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


def _relax(x: np.ndarray, b: np.ndarray, V: np.ndarray, factor: tuple,
           p: int) -> None:
    """Solve the lines p, p+2, ... of ``x`` (along its last axis) for ``b``,
    their neighbours held; ``V[i]`` couples line i to line i+1."""
    r = b[p::2].copy()
    n, q = len(r), 1 - p                 # q: the first line below one of p's
    r[q:] -= V[q::2][:n - q] * x[q::2][:n - q]
    above = x[p + 1::2]
    r[:len(above)] -= V[p::2][:len(above)] * above
    x[p::2] = dpttrs(*factor, r.ravel())[0].reshape(r.shape)


def _smooth(lv: _Level, x: np.ndarray, b: np.ndarray, colours) -> None:
    """Zebra line Gauss-Seidel over ``colours``, indices of ``lv.factors``."""
    lines = ((x, b, lv.A[2]), (x.T, b.T, lv.A[1].T))
    for k in colours:
        _relax(*lines[k // 2], lv.factors[k], k % 2)


def _vcycle(levels: list[_Level], b: np.ndarray) -> np.ndarray:
    """One V(1,1)-cycle for ``levels[-1]`` from zero: the preconditioner."""
    *coarse, lv = levels
    if not coarse:
        return dpbtrs(lv.factors, b.ravel(), lower=1)[0].reshape(b.shape)
    x = np.zeros_like(b)
    _smooth(lv, x, b, (0, 1, 2, 3))
    pad = ((1, 1), (0, 0))                       # the pinned rows
    R, C = coarse[-1].A.shape[1:]
    r = _restrict(np.pad(b - _apply(lv.A, x), pad), (R + 2, C))[1:-1]
    e = _prolong(np.pad(_vcycle(coarse, r), pad), (len(x) + 2, x.shape[1]))
    x += e[1:-1]
    _smooth(lv, x, b, (3, 2, 1, 0))
    return x


def _pcg(levels: list[_Level], b: np.ndarray, tol: float,
         where: str) -> tuple[np.ndarray, int]:
    """Solve ``levels[-1].A x = b`` by CG preconditioned with `_vcycle`, to a
    residual of ``tol`` relative to ``b``; x and the iterations."""
    A = levels[-1].A
    x, r = np.zeros_like(b), b.copy()
    z = _vcycle(levels, r)
    d, rz, stop = z, float(np.vdot(r, z)), tol * np.linalg.norm(b)
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


# Rounding of an energy difference, in units in the last place of the
# energy.  Measured against an 80-bit long double evaluation of the same
# formula, the difference of two evaluations is off by at most 3.9 ulp for
# theta in {0.5, 1, 3} on grids of 128^2 to 1024^2; it does not grow with the
# grid, since numpy sums pairwise.  The bound leaves a factor of four.
_ENERGY_ROUNDING_ULPS = 16

# Armijo line search: sufficient-decrease constant and step shrink factor.
_ARMIJO_C = 1e-4
_ARMIJO_SHRINK = 0.5


def _rounding_accepts(ws: _Workspace, candidate: np.ndarray, E0: float,
                      E1: float, gn: float) -> tuple | None:
    """Near the minimum the energy drop falls below the rounding of the energy
    sum, where Armijo cannot see it; there the scaled gradient decides.  The
    candidate's `_Workspace.gradient` if it is accepted, else None."""
    if abs(E1 - E0) > _ENERGY_ROUNDING_ULPS * math.ulp(E0):
        return None
    grad = ws.gradient(candidate)
    return grad if grad[1] < gn else None


def _newton(ws: _Workspace, gamma: np.ndarray, cfg: SolverConfig,
            coarse: list[_Level]) -> tuple:
    """Damped Newton on the grid of ``ws`` from ``gamma``, over the `_Level`s
    of the coarser grids; returns the flow, its steps, its CG iterations, its
    scaled gradient norm, its energy and the `_Level` of its last step (None
    without a step).

    Each step solves the Newton system by `_pcg` to `_CG_TOL` (with no
    coarser level, by the band factor).  Steps are clipped to keep every
    label slope above `_GAMMA_Y_FLOOR` and accepted under the Armijo
    condition, so the energy decreases strictly until the scaled gradient
    norm meets ``residual_tol``.  A step whose energy change is within
    rounding of the energy is accepted when it lowers the scaled gradient
    norm.
    """
    where = f"on the {ws.grid.nt}x{ws.grid.ny} grid"
    E0 = ws.energy(gamma)
    gn, grad, level, iterations = math.inf, None, None, 0
    for it in range(1, cfg.newton_max_iter + 1):
        G, gn = ws.gradient(gamma) if grad is None else grad
        if gn <= cfg.residual_tol:
            return gamma, it - 1, iterations, gn, E0, level
        level = _level(_newton_matrix(ws, gamma), not coarse)
        if coarse:
            d, k = _pcg([*coarse, level], -G, _CG_TOL, where)
            iterations += k
        else:
            d = _vcycle([level], -G)

        # largest step keeping all interior slopes above the floor
        s = ws.slopes(gamma)[1:-1]
        ds = np.diff(d, axis=1) / ws.dy
        shrinking = ds < 0.0
        if np.any(shrinking):
            room = (s[shrinking] - _GAMMA_Y_FLOOR) / (-ds[shrinking])
            a = min(1.0, 0.995 * float(np.min(room)))
        else:
            a = 1.0
        if a <= 0.0:
            raise DegenerateStateError(
                f"no feasible step above the slope floor {where}")

        descent = float(np.sum(G * d))
        candidate = gamma.copy()
        while True:
            candidate[1:-1] = gamma[1:-1] + a * d
            E1 = ws.energy(candidate)
            armijo = E1 <= E0 + _ARMIJO_C * a * descent
            grad = None if armijo else _rounding_accepts(ws, candidate, E0, E1, gn)
            if armijo or grad is not None:       # grad: the next step's
                break
            a *= _ARMIJO_SHRINK
            if a < 1e-14:
                raise NewtonDivergenceError(
                    f"line search failed at iteration {it} {where} "
                    f"(gradient norm {gn:.3e})")
        gamma, E0 = candidate, E1

    raise NewtonDivergenceError(
        f"no convergence in {cfg.newton_max_iter} Newton iterations {where} "
        f"(scaled gradient norm {gn:.3e}, tol {cfg.residual_tol:.1e})")


def solve(p: Profile, m: TerminalDensity, grid: SpaceTimeGrid,
          cfg: SolverConfig = SolverConfig()) -> FlowField:
    """Minimize the discrete transport energy by `_newton` on each grid of
    `_ladder`, each from the flow one level coarser and over the `_Level`s of
    the grids below it; a failure on any level ends the solve."""
    levels, info, gamma = [], [], None
    coarse = replace(cfg, residual_tol=max(_COARSE_TOL, cfg.residual_tol))
    for g in _ladder(p, grid):
        ws = _Workspace(p, g)
        start = initial_guess(p, m, g)
        if gamma is not None:
            start[1:-1] = _prolong(gamma, start.shape)[1:-1]
        gamma, steps, iterations, gn, E, level = _newton(
            ws, start, cfg if g is grid else coarse, levels)
        levels.append(level or _level(_newton_matrix(ws, gamma), not levels))
        info.append((g.nt, g.ny, steps, iterations))
    return FlowField(grid=grid, profile=p, gamma=gamma,
                     info=SolveInfo(iterations=steps, grad_norm=gn, energy=E,
                                    levels=tuple(info)))
