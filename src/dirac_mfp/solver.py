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

The Newton system is solved by a multifrontal Cholesky over a nested
dissection of the (time, label) grid: O(n^2 log n) memory and O(n^3) flops
on an n x n grid.  Its leaves, boxes of at most 8 x 17 nodes, are numbered
first and factored on one shared band.  While every slope stays above the
floor the matrix is positive definite by construction; a pivot that is not
positive ends the solve with `DegenerateStateError`.

Newton is grid-sequenced (nested iteration, Brandt, Math. Comp. 31, 1977):
while nt and ny are even with halves of at least 64, the grid of every second
node is solved first, the coarsest from `initial_guess`, and each finer grid
starts from the coarser flow prolonged bilinearly in (log(t+eps), y), with
its own pinned rows.  Coarse levels stop at a scaled gradient of 1e-4 (or a
looser ``residual_tol``), and ``newton_max_iter`` caps each level.  Near
convergence a step may reuse the last factor (a chord step, Kelley 1995).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.blas import dgemv, dsyrk, dtpsv, dtrsm
from scipy.linalg.lapack import dpbtrf, dpbtrs, dpotrf, dtbtrs, dtrttp

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
    # (nt, ny, Newton steps, factorizations) of each grid, coarsest first
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
# Newton system: nested-dissection multifrontal Cholesky
# ---------------------------------------------------------------------------
#
# The Newton matrix is a symmetric 5-point stencil on the (nt-1) x (ny+1)
# grid of interior time rows and labels.  Its unknowns are eliminated in a
# geometric nested-dissection order (George, SIAM J. Numer. Anal. 10, 1973):
# each box is cut by one grid line across its longer side, the two halves are
# eliminated first and the line (the separator) last, down to leaf boxes with
# a short side of at most _LEAF nodes and a long side of at most 2 _LEAF + 1,
# which absorb the separator of one more cut (amalgamation, Ashcraft & Grimes,
# ACM TOMS 15, 1989).  Every other box gives one dense front: its separator
# nodes followed by its boundary, the outside neighbours of the box, which
# all lie on enclosing separators.  The fronts are factored by the
# multifrontal method (Duff & Reid, ACM TOMS 9, 1983), the children's updates
# on a stack.  Each keeps the packed lower triangle of its s x s block
# (`dtrttp`), which the substitutions read in place (`dtpsv`), and its b x s
# block X = B L^-T.  The leaves' nodes are numbered first, each leaf's along
# its short side, so its L is zero more than _LEAF rows below the diagonal.
# The leaves share one (_LEAF + 1) x nleaf band: each writes its stencil
# entries into its own columns, factors them in place (`dpbtrf`) and forms
# its update -X X^T from X^T = L^-1 B^T (`dtbtrs`, `dsyrk`); its B holds one
# stencil value per boundary node.  Leaves do not couple, so a substitution
# solves with all of them at once (`dpbtrs`) and moves their couplings by one
# `np.bincount`.  An n x n grid's factor holds O(n^2 log n) entries for O(n^3)
# flops, a band Cholesky of the whole grid O(n^3) for O(n^4).  All is scipy's
# BLAS and LAPACK, on one thread (`cli.main`): a second spin-waits between
# fronts.
#
# The stencil values are three (R, C) planes: the diagonal, the label
# couplings (i, j)-(i, j+1) padded by a last column, and the time couplings
# (i, j)-(i+1, j) padded by a last row.  A box moved by r0 rows and c0 columns
# moves every stencil source by r0 * C + c0, so boxes of one shape whose
# boundaries agree relative to their origins form one front class, with one
# symbolic analysis: 149 classes for the 1023 fronts of a 255 x 257 grid.

_LEAF = 8


@dataclass(frozen=True)
class _FrontClass:
    sep: np.ndarray      # separator nodes (a leaf's: all), relative to the origin
    bnd: np.ndarray      # boundary nodes in front order, relative to the origin
    dst: np.ndarray      # flat lower-triangle (leaf: band) positions of its entries
    src: np.ndarray      # their stencil sources, relative to the origin
    children: tuple      # (class, relative origin, positions of its boundary here)
    leaf: tuple | None   # a leaf's couplings: flat positions in its b x s B, sources


@dataclass(frozen=True)
class _Front:
    cls: _FrontClass
    lo: int              # separator: elimination positions lo .. lo+s-1
    off: int             # box origin r0 * C + c0
    bnd: np.ndarray | None   # elimination positions of its boundary; a leaf's: None


@dataclass(frozen=True)
class _Analysis:
    perm: np.ndarray     # elimination position -> grid node i * C + j
    fronts: tuple        # _Front in postorder
    nleaf: int           # the leaves' nodes take positions 0 .. nleaf-1
    cbnd: np.ndarray     # boundary position of each leaf coupling, leaf by leaf
    cnode: np.ndarray    # position of the leaf node it couples


@functools.lru_cache(maxsize=8)   # a whole ladder up to 8192^2
def _analysis(R: int, C: int) -> _Analysis:
    """Symbolic analysis of the 5-point stencil on an R x C grid, for values
    in the plane layout above.

    A front holds its separator, then its boundary ordered by position in
    the parent front, so that each child update lands lower triangle on
    lower triangle and only lower triangles are ever read; a leaf holds all
    its nodes, numbered before any other front's.  A box's shape
    and its boundary relative to its origin give its class, and the class
    gives its children's; each class is built once.  The analysis depends
    only on the grid shape, is cached and is shared between threads; nothing
    in it is written after it is built.
    """
    n = R * C
    classes: dict = {}   # (h, w, boundary coordinates) -> _FrontClass

    def front_class(h: int, w: int, brc: np.ndarray) -> _FrontClass:
        key = (h, w, brc.tobytes())
        if key in classes:
            return classes[key]
        if min(h, w) <= _LEAF and max(h, w) <= 2 * _LEAF + 1:
            sep, boxes = (0, h, 0, w), ()
        elif w >= h:
            m = w // 2
            sep, boxes = (0, h, m, m + 1), ((0, 0, h, m), (0, m + 1, h, w - m - 1))
        else:
            m = h // 2
            sep, boxes = (m, m + 1, 0, w), ((0, 0, m, w), (m + 1, 0, h - m - 1, w))
        # along the short side (a separator is one line: either order)
        r, c = ((a.T if w > h else a).ravel()
                for a in np.mgrid[sep[0]:sep[1], sep[2]:sep[3]])
        nodes = np.concatenate([np.stack([r, c], axis=1), brc])
        s, k = r.size, len(nodes)
        where = np.full((h + 2, w + 2), -1)      # (row + 1, col + 1) -> position
        where[nodes[:, 0] + 1, nodes[:, 1] + 1] = np.arange(k)
        # entries coupling a separator node to a node not eliminated before it:
        # itself, then its right, left, lower and upper neighbours
        rel = r * C + c
        v = np.concatenate([np.arange(s), where[r + 1, c + 2], where[r + 1, c],
                            where[r + 2, c + 1], where[r, c + 1]])
        live = v >= 0
        pu, pv = np.tile(np.arange(s), 5)[live], v[live]
        src = np.concatenate([rel, n + rel, n + rel - 1, 2 * n + rel,
                              2 * n + rel - C])[live]
        children = []
        for r0, c0, ch, cw in boxes:             # each child's outside neighbours
            ring = np.zeros((h + 2, w + 2), dtype=bool)
            ring[r0:r0 + ch + 2, c0 + 1:c0 + cw + 1] = True
            ring[r0 + 1:r0 + ch + 1, c0:c0 + cw + 2] = True
            ring[r0 + 1:r0 + ch + 1, c0 + 1:c0 + cw + 1] = False
            pos = np.sort(where[ring][where[ring] >= 0])
            kid = front_class(ch, cw, nodes[pos] - (r0, c0))
            children.append((kid, r0 * C + c0, pos))
        if boxes:
            dst, leaf = np.maximum(pu, pv) * k + np.minimum(pu, pv), None
        else:            # B: one coupling per boundary row, the last k - s by pv
            o, inner = np.argsort(pv)[len(pv) - (k - s):], pv < s
            leaf = (np.arange(k - s) * s + pu[o], src[o])
            dst = (np.minimum(pu, pv) * (_LEAF + 1) + np.abs(pu - pv))[inner]
            src = src[inner]
        fc = _FrontClass(sep=rel, bnd=brc[:, 0] * C + brc[:, 1], dst=dst,
                         src=src, children=tuple(children), leaf=leaf)
        for arr in (fc.sep, fc.bnd, fc.dst, fc.src, *(fc.leaf or ()),
                    *(pos for _, _, pos in children)):
            arr.flags.writeable = False
        classes[key] = fc
        return fc

    order: list = []                             # (class, box origin) in postorder

    def visit(fc: _FrontClass, off: int) -> None:
        for kid, rel, _ in fc.children:
            visit(kid, off + rel)
        order.append((fc, off))

    visit(front_class(R, C, np.empty((0, 2), dtype=np.intp)), 0)
    nleaf = sum(fc.sep.size for fc, _ in order if fc.leaf)
    perm = np.empty(n, dtype=np.intp)
    los, at = [], [nleaf, 0]     # next position of another front, of a leaf
    for fc, off in order:
        lo = at[fc.leaf is not None]
        at[fc.leaf is not None] = lo + fc.sep.size
        perm[lo:lo + fc.sep.size] = off + fc.sep
        los.append(lo)
    inv = np.empty(n, dtype=np.intp)
    inv[perm] = np.arange(n)
    leaves = [(fc, off, lo) for (fc, off), lo in zip(order, los) if fc.leaf]
    cbnd = inv[np.concatenate([off + fc.bnd for fc, off, _ in leaves])]
    cnode = np.concatenate([lo + fc.leaf[0] % fc.sep.size for fc, _, lo in leaves])
    for a in (perm, cbnd, cnode):
        a.flags.writeable = False
    fronts = tuple(_Front(cls=fc, lo=lo, off=off, bnd=None if fc.leaf else
                          _read_only(inv[off + fc.bnd]))
                   for (fc, off), lo in zip(order, los))
    return _Analysis(perm=perm, fronts=fronts, nleaf=nleaf, cbnd=cbnd,
                     cnode=cnode)


def _cholesky(an: _Analysis, vals: np.ndarray):
    """Factor of the stencil matrix with values ``vals`` (the planes of
    `_analysis`, flat), ``(an, band, v, fronts)``; `DegenerateStateError` if
    it is not positive definite: the leaves' L in `dpbtrs` storage, their
    couplings' values, and each other front in postorder with its packed L
    and its X (None at the root)."""
    band = np.zeros((an.nleaf, _LEAF + 1))       # row j: L[j + d, j], d <= _LEAF
    v = np.empty(an.cbnd.size)
    factors, c = [], 0
    updates: list = []   # of the fronts whose parent is still to come
    for fi, fr in enumerate(an.fronts):
        fc, s, b = fr.cls, fr.cls.sep.size, fr.cls.bnd.size
        if fc.leaf:
            ab = band[fr.lo:fr.lo + s]
            ab.ravel()[fc.dst] = vals[fr.off + fc.src]
            name, info = "dpbtrf", dpbtrf(ab.T, lower=1, overwrite_ab=1)[1]
        else:
            F = np.zeros((s + b, s + b))
            F.ravel()[fc.dst] = vals[fr.off + fc.src]   # a view: F.flat is slower
            first = len(updates) - len(fc.children)
            for _, _, pos in fc.children:
                # extend-add: gather whole rows, add into their columns, scatter
                rows = F[pos]
                rows[:, pos] += updates.pop(first)
                F[pos] = rows
            name, (L, info) = "dpotrf", dpotrf(F[:s, :s], lower=1)
        if info != 0:
            raise DegenerateStateError(
                f"Newton matrix not positive definite: {name} info {info} "
                f"in front {fi} of {len(an.fronts)}")
        if fc.leaf:
            if b:
                B = np.zeros((b, s))
                B.ravel()[fc.leaf[0]] = v[c:c + b] = vals[fr.off + fc.leaf[1]]
                Xt, c = dtbtrs(ab.T, B.T, uplo="L", overwrite_b=1)[0], c + b
                updates.append(dsyrk(-1.0, Xt, trans=1, lower=1))
            continue
        X = None
        if b:
            X = dtrsm(1.0, L, F[s:, :s], side=1, lower=1, trans_a=1)
            updates.append(dsyrk(-1.0, X, 1.0, F[s:, s:], lower=1))
        factors.append((fr, dtrttp(L, uplo="L")[0], X))
        del F, L, X
    return an, band.T, v, factors


def _solve(factor: tuple, rhs: np.ndarray) -> np.ndarray:
    """Solve with a `_cholesky` factor: the leaves, then forward and back
    substitution on each other front's packed L, then the leaves again.  The
    leaves take one `dpbtrs` on their band in each pass: forward,
    x_b -= v (A_LL^-1 r_L)[node], so their x_L holds r_L between the passes;
    back, x_L = A_LL^-1 (r_L - B^T x_b), each sum one `np.bincount`."""
    an, band, v, factors = factor
    x, nl = rhs[an.perm], an.nleaf
    y = dpbtrs(band, x[:nl], lower=1)[0]
    x -= np.bincount(an.cbnd, v * y[an.cnode], minlength=x.size)
    for fr, Lp, X in factors:
        lo, s = fr.lo, fr.cls.sep.size
        x[lo:lo + s] = xs = dtpsv(s, Lp, x[lo:lo + s], lower=1)
        if X is not None:
            x[fr.bnd] = dgemv(-1.0, X, xs, 1.0, x[fr.bnd])
    for fr, Lp, X in reversed(factors):
        lo, s = fr.lo, fr.cls.sep.size
        xs = x[lo:lo + s]
        if X is not None:
            xs = dgemv(-1.0, X, x[fr.bnd], 1.0, xs, trans=1)
        x[lo:lo + s] = dtpsv(s, Lp, xs, lower=1, trans=1)
    bx = np.bincount(an.cnode, v * x[an.cbnd], minlength=nl)
    x[:nl] = dpbtrs(band, x[:nl] - bx, lower=1)[0]
    out = np.empty_like(x)
    out[an.perm] = x
    return out


def _newton_matrix(ws: _Workspace, gamma: np.ndarray) -> np.ndarray:
    """Energy Hessian at the interior rows as a 5-point stencil in the planes
    of `_analysis`, shape (3, nt-1, ny+1): the diagonal, the label couplings
    (last column 0) and the time couplings (last row 0)."""
    cc = ws.cell_curvature(gamma)                       # (nt-1, ny)
    A = np.zeros((3, len(cc), cc.shape[1] + 1))
    A[0] = np.outer(1.0 / ws.dt[:-1] + 1.0 / ws.dt[1:], ws.W)
    A[0, :, :-1] += cc
    A[0, :, 1:] += cc
    A[1, :, :-1] = -cc
    A[2, :-1] = -np.outer(1.0 / ws.dt[1:-1], ws.W)
    return A


# Rounding of an energy difference, in units in the last place of the
# energy.  Measured against an 80-bit long double evaluation of the same
# formula, the difference of two evaluations is off by at most 3.9 ulp for
# theta in {0.5, 1, 3} on grids of 128^2 to 1024^2; it does not grow with the
# grid, since numpy sums pairwise.  The bound leaves a factor of four.
_ENERGY_ROUNDING_ULPS = 16

# Armijo line search: sufficient-decrease constant and step shrink factor.
_ARMIJO_C = 1e-4
_ARMIJO_SHRINK = 0.5

# Chord steps (Kelley, Iterative Methods for Linear and Nonlinear Equations,
# SIAM 1995, ch. 5): below a scaled gradient of _CHORD_SWITCH, a step that cut
# it by at least _CHORD_RATIO leaves its factor to the next.  They converge
# linearly, so one that ends above _CHORD_END * residual_tol takes one more.
_CHORD_SWITCH, _CHORD_RATIO, _CHORD_END = 1e-5, 0.01, 0.25


def _rounding_accepts(ws: _Workspace, candidate: np.ndarray, E0: float,
                      E1: float, gn: float) -> tuple | None:
    """Near the minimum the energy drop falls below the rounding of the energy
    sum, where Armijo cannot see it; there the scaled gradient decides.  The
    candidate's `_Workspace.gradient` if it is accepted, else None."""
    if abs(E1 - E0) > _ENERGY_ROUNDING_ULPS * math.ulp(E0):
        return None
    grad = ws.gradient(candidate)
    return grad if grad[1] < gn else None


def _newton(ws: _Workspace, gamma: np.ndarray,
            cfg: SolverConfig) -> tuple[np.ndarray, int, int, float, float]:
    """Damped Newton on the grid of ``ws`` from ``gamma``; returns the flow,
    its steps, its factorizations, its scaled gradient norm and its energy.

    Steps, chord steps too, are clipped to keep every label slope above
    `_GAMMA_Y_FLOOR` and accepted under the Armijo condition, so the energy
    decreases strictly until the scaled gradient norm meets ``residual_tol``.
    A step whose energy change is within rounding of the energy is accepted
    when it lowers the scaled gradient norm.
    """
    where = f"on the {ws.grid.nt}x{ws.grid.ny} grid"
    tol = cfg.residual_tol
    E0 = ws.energy(gamma)
    gn, grad, factor, chord, factorizations = math.inf, None, None, False, 0
    for it in range(1, cfg.newton_max_iter + 1):
        prev, (G, gn) = gn, ws.gradient(gamma) if grad is None else grad
        if gn <= tol and not (chord and prev > tol and gn > _CHORD_END * tol):
            return gamma, it - 1, factorizations, gn, E0
        if gn >= _CHORD_SWITCH or gn > max(tol, _CHORD_RATIO * prev):
            factor = None                        # dropped before refactoring
        chord = factor is not None
        if not chord:
            factor = _cholesky(_analysis(*G.shape),
                               _newton_matrix(ws, gamma).ravel())
            factorizations += 1
        d = _solve(factor, -G.ravel()).reshape(G.shape)

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


_COARSEST = 64      # fewest intervals on either axis of a coarsened grid
_COARSE_TOL = 1e-4  # a coarse flow only starts the next level (Brandt 1977)


def _ladder(grid: SpaceTimeGrid) -> list[SpaceTimeGrid]:
    """``grid`` and its halvings to every second node, coarsest first."""
    ladder = [grid]
    g = grid
    while g.nt % 2 == 0 and g.ny % 2 == 0 and min(g.nt, g.ny) >= 2 * _COARSEST:
        g = SpaceTimeGrid(eps=g.eps, T=g.T, t=g.t[::2], y=g.y[::2])
        ladder.append(g)
    return ladder[::-1]


def _prolong(gamma: np.ndarray) -> np.ndarray:
    """Bilinear interpolation in (log(t+eps), y), where the nodes are uniform,
    onto the grid with twice the intervals."""
    R, C = gamma.shape
    out = np.empty((2 * R - 1, 2 * C - 1))
    out[::2, ::2] = gamma
    out[1::2, ::2] = 0.5 * (gamma[:-1] + gamma[1:])
    out[:, 1::2] = 0.5 * (out[:, :-1:2] + out[:, 2::2])
    return out


def solve(p: Profile, m: TerminalDensity, grid: SpaceTimeGrid,
          cfg: SolverConfig = SolverConfig()) -> FlowField:
    """Minimize the discrete transport energy by `_newton` on each grid of
    `_ladder`, each from the flow one level coarser; a failure on any level
    ends the solve."""
    levels, gamma = [], None
    coarse = replace(cfg, residual_tol=max(_COARSE_TOL, cfg.residual_tol))
    for g in _ladder(grid):
        start = initial_guess(p, m, g)
        if gamma is not None:
            start[1:-1] = _prolong(gamma)[1:-1]
        gamma, steps, factored, gn, E = _newton(_Workspace(p, g), start,
                                                cfg if g is grid else coarse)
        levels.append((g.nt, g.ny, steps, factored))
    return FlowField(grid=grid, profile=p, gamma=gamma,
                     info=SolveInfo(iterations=steps, grad_norm=gn, energy=E,
                                    levels=tuple(levels)))
