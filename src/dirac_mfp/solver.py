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

The Newton system is solved by a banded Cholesky (time-slab ordering,
bandwidth ny+1; memory O(nt ny^2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, solve_banded, solveh_banded

from .errors import (
    DegenerateStateError,
    InvalidParameterError,
    NewtonDivergenceError,
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
    "energy",
    "residual",
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
    def wt(self) -> np.ndarray:
        """Trapezoidal time weights."""
        dt = self.dt
        w = np.empty(self.nt + 1)
        w[0] = 0.5 * dt[0]
        w[-1] = 0.5 * dt[-1]
        w[1:-1] = 0.5 * (dt[:-1] + dt[1:])
        return w


@dataclass(frozen=True)
class SolveInfo:
    iterations: int
    grad_norm: float
    energy: float
    converged: bool


@dataclass(frozen=True)
class FlowField:
    """Flow map samples ``gamma[i, j] = gamma(t_i, y_j)``."""

    grid: SpaceTimeGrid
    profile: Profile
    gamma: np.ndarray
    info: SolveInfo | None = None


@dataclass(frozen=True)
class SolverConfig:
    newton_max_iter: int = 200
    residual_tol: float = 1e-10      # scaled energy-gradient sup norm
    gamma_y_floor: float = 1e-8
    armijo_c: float = 1e-4
    armijo_shrink: float = 0.5


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
    y[0] = -p.r_alpha
    y[-1] = p.r_alpha
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
        self.p = p
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

    def energy(self, gamma: np.ndarray, floor: float) -> float:
        s = self.slopes(gamma)
        if np.min(s) < floor:
            raise DegenerateStateError(
                f"flow slope {np.min(s):.3e} fell below the floor {floor:.1e}")
        dtg = np.diff(gamma, axis=0) / self.dt[:, None]
        kinetic = float(np.sum(self.dt[:, None] * (0.5 * self.W[None, :] * dtg**2)))
        congestion = float(np.sum(self.wt[:, None]
                                  * (self.PHI[None, :] * s ** (-self.theta)))
                           * self.dy / (self.theta + 1.0))
        return kinetic + congestion

    def gradient(self, gamma: np.ndarray) -> np.ndarray:
        """dE/dgamma at the interior time rows, shape (nt-1, ny+1)."""
        th = self.theta
        dtg = np.diff(gamma, axis=0) / self.dt[:, None]
        kin_flux = self.W[None, :] * dtg
        s = self.slopes(gamma)
        q = self.PHI[None, :] * (-th / (th + 1.0)) * s ** (-th - 1.0)
        qp = np.pad(q, ((0, 0), (1, 1)))
        cong = self.wt[:, None] * (qp[:, :-1] - qp[:, 1:])
        return (kin_flux[:-1] - kin_flux[1:]) + cong[1:-1]

    def cell_curvature(self, gamma: np.ndarray) -> np.ndarray:
        """Hessian coefficient of each congestion cell at interior rows."""
        s = self.slopes(gamma)[1:-1]
        return (self.wt[1:-1, None] * self.PHI[None, :]
                * self.theta * s ** (-self.theta - 2.0) / self.dy)

    def term_scale(self, gamma: np.ndarray) -> np.ndarray:
        """Sum of absolute assembly terms entering each gradient entry."""
        th = self.theta
        dtg = np.diff(gamma, axis=0) / self.dt[:, None]
        kin_abs = self.W[None, :] * np.abs(dtg)
        qa = self.PHI[None, :] * (th / (th + 1.0)) * self.slopes(gamma) ** (-th - 1.0)
        qp = np.pad(qa, ((0, 0), (1, 1)))
        cong_abs = self.wt[:, None] * (qp[:, :-1] + qp[:, 1:])
        return (kin_abs[:-1] + kin_abs[1:]) + cong_abs[1:-1]

    def scaled_norm(self, G: np.ndarray, gamma: np.ndarray) -> float:
        """Relative stationarity measure: gradient entries divided by the
        quadrature weight plus the local magnitude of the terms that were
        summed to produce them.  The early time rows carry flow terms of
        size (t+eps)^(alpha-2); a purely weight-scaled norm would bottom
        out at machine-eps times that factor and the default tolerance
        would be unreachable for small eps."""
        scale = self.wt[1:-1, None] * self.W[None, :] + self.term_scale(gamma)
        return float(np.max(np.abs(G) / scale))


def energy(f: FlowField, p: Profile | None = None,
           floor: float = SolverConfig.gamma_y_floor) -> float:
    """Discrete transport energy of a flow field."""
    p = f.profile if p is None else p
    return _Workspace(p, f.grid).energy(f.gamma, floor)


def scaled_gradient_norm(f: FlowField, p: Profile | None = None) -> float:
    """Sup norm of the energy gradient scaled by the quadrature weights
    (the solver's convergence functional)."""
    p = f.profile if p is None else p
    ws = _Workspace(p, f.grid)
    return ws.scaled_norm(ws.gradient(f.gamma), f.gamma)


# ---------------------------------------------------------------------------
# pointwise second-order residual of the flow equation
# ---------------------------------------------------------------------------

def residual(f: FlowField, p: Profile | None = None) -> np.ndarray:
    """Finite-difference residual of the flow equation at interior time
    nodes, all labels; the two boundary columns carry the degenerate
    free-boundary law (phi^theta vanishes there exactly).

    Uses the exact coefficients phi^theta = c (R^2 - y^2) and
    (phi^theta)_y = -2 c y rather than numerical powers of phi.
    """
    p = f.profile if p is None else p
    g, gamma = f.grid, f.gamma
    th, c, R = p.theta, p.c, p.r_alpha
    dt = g.dt
    dy = g.dy
    y = g.y

    # nonuniform three-point second difference in t
    fwd = (gamma[2:] - gamma[1:-1]) / dt[1:, None]
    bwd = (gamma[1:-1] - gamma[:-2]) / dt[:-1, None]
    gamma_tt = 2.0 * (fwd - bwd) / (dt[:-1] + dt[1:])[:, None]

    inner = gamma[1:-1]
    gamma_y = np.empty_like(inner)
    gamma_y[:, 1:-1] = (inner[:, 2:] - inner[:, :-2]) / (2.0 * dy)
    gamma_y[:, 0] = (-3.0 * inner[:, 0] + 4.0 * inner[:, 1] - inner[:, 2]) / (2.0 * dy)
    gamma_y[:, -1] = (3.0 * inner[:, -1] - 4.0 * inner[:, -2] + inner[:, -3]) / (2.0 * dy)

    phith = c * (R * R - y * y)
    dphith = -2.0 * c * y

    out = np.empty_like(inner)
    gamma_yy = (inner[:, 2:] - 2.0 * inner[:, 1:-1] + inner[:, :-2]) / dy**2
    mid = gamma_y[:, 1:-1]
    out[:, 1:-1] = (gamma_tt[:, 1:-1]
                    + th * phith[None, 1:-1] * gamma_yy / mid ** (th + 2.0)
                    - dphith[None, 1:-1] / mid ** (th + 1.0))
    for j in (0, -1):
        out[:, j] = gamma_tt[:, j] - dphith[j] / gamma_y[:, j] ** (th + 1.0)
    return out


# ---------------------------------------------------------------------------
# Newton
# ---------------------------------------------------------------------------

def _solve_newton_system(ws: _Workspace, gamma: np.ndarray,
                         G: np.ndarray) -> np.ndarray:
    nt, M = ws.grid.nt, ws.grid.ny + 1
    n = (nt - 1) * M
    kin_diag = np.outer(1.0 / ws.dt[:-1] + 1.0 / ws.dt[1:], ws.W)
    cc = ws.cell_curvature(gamma)                       # (nt-1, ny)
    D = kin_diag.copy()
    D[:, :-1] += cc
    D[:, 1:] += cc
    U1 = np.zeros((nt - 1, M))                          # coupling j <-> j+1
    U1[:, :-1] = -cc
    UM = -np.outer(1.0 / ws.dt[1:-1], ws.W)             # coupling i <-> i+1

    ab = np.zeros((M + 1, n))
    ab[M] = D.ravel()
    ab[M - 1, 1:] = U1.ravel()[:-1]
    ab[0, M:] = UM.ravel()
    try:
        d = solveh_banded(ab, -G.ravel(), lower=False)
    except LinAlgError:
        full = np.zeros((2 * M + 1, n))
        full[M] = ab[M]
        full[M - 1] = ab[M - 1]
        full[M + 1, :-1] = ab[M - 1, 1:]
        full[0] = ab[0]
        full[2 * M, :-M] = ab[0, M:]
        d = solve_banded((M, M), full, -G.ravel())
    return d.reshape(nt - 1, M)


def solve(p: Profile, m: TerminalDensity, grid: SpaceTimeGrid,
          cfg: SolverConfig = SolverConfig()) -> FlowField:
    """Minimize the discrete transport energy by damped Newton.

    Steps are clipped to keep every label slope above ``gamma_y_floor``
    and accepted under the Armijo condition, so the energy decreases
    strictly until the scaled gradient norm meets ``residual_tol``.
    """
    if abs(m.mass - 1.0) > 1e-6:
        raise InvalidParameterError(
            f"terminal density mass {m.mass} is not normalized")
    if not m.b > m.a:
        raise InvalidParameterError("terminal density support is empty")

    ws = _Workspace(p, grid)
    gamma = initial_guess(p, m, grid)
    E0 = ws.energy(gamma, cfg.gamma_y_floor)

    it = 0
    gn = math.inf
    for it in range(1, cfg.newton_max_iter + 1):
        G = ws.gradient(gamma)
        gn = ws.scaled_norm(G, gamma)
        if gn <= cfg.residual_tol:
            return FlowField(grid=grid, profile=p, gamma=gamma,
                             info=SolveInfo(iterations=it - 1, grad_norm=gn,
                                            energy=E0, converged=True))
        d = _solve_newton_system(ws, gamma, G)

        # largest step keeping all interior slopes above the floor
        s = ws.slopes(gamma)[1:-1]
        ds = np.diff(d, axis=1) / ws.dy
        shrinking = ds < 0.0
        if np.any(shrinking):
            room = (s[shrinking] - cfg.gamma_y_floor) / (-ds[shrinking])
            a = min(1.0, 0.995 * float(np.min(room)))
        else:
            a = 1.0
        if a <= 0.0:
            raise DegenerateStateError("no feasible step above the slope floor")

        descent = float(np.sum(G * d))
        candidate = gamma.copy()
        while True:
            candidate[1:-1] = gamma[1:-1] + a * d
            E1 = ws.energy(candidate, cfg.gamma_y_floor)
            if E1 <= E0 + cfg.armijo_c * a * descent:
                break
            a *= cfg.armijo_shrink
            if a < 1e-14:
                raise NewtonDivergenceError(
                    f"line search failed at iteration {it} "
                    f"(gradient norm {gn:.3e})")
        gamma, E0 = candidate, E1

    raise NewtonDivergenceError(
        f"no convergence in {cfg.newton_max_iter} Newton iterations "
        f"(scaled gradient norm {gn:.3e}, tol {cfg.residual_tol:.1e})")
