"""Continuous-rescaling diagnostics around the self-similar profile.

Works in the frame tau = log t, eta = x / t^alpha, where the density and
value become mu = t^alpha m, v = t^(1-2 alpha) u, w = v + alpha eta^2 / 2
and the flow map becomes gamma_hat(tau, y) = t^(-alpha) gamma(t, y).
Convergence to self-similar behaviour is then convergence of mu to the
stationary profile phi, of w to a constant, and of gamma_hat to the
identity, certified here through the Lyapunov functional

    H(tau) = int ( mu |w_eta|^2 / 2 - mu^(theta+1)/(theta+1)
                   - alpha(1-alpha)/2 eta^2 mu ) deta
             - theta/(theta+1) int phi^(theta+1)
             + alpha(1-alpha)/2 r_alpha^2

together with its dissipation identity dH/dtau = -(2 alpha - 1) int
mu |w_eta|^2, the duality pairing int w (mu - phi), and residuals of the
stationary and rescaled-flow equations.

Quadrature policy: every integral against mu is pulled back to mass
coordinates (an integral against phi dy) through the pushforward
identity gamma_hat_y mu(gamma_hat) = phi, and the phi factor is
integrated exactly per dual cell.  This removes the endpoint error of
Eulerian rules at the degenerate support boundary, where mu vanishes
like a fractional power.  The phi^(theta+1) constant in H uses the same
dual-cell rule as the mu^(theta+1) term, which makes the stationary
state an exact discrete zero of H rather than a zero up to quadrature
error; since phi^theta is the exact quadratic c (r^2 - y^2), the exact
and matched constants differ only at O(dy^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStateError, InvalidParameterError
from .fields import (EulerianSnapshot, FreeBoundaries, _second_derivative,
                     free_boundaries, snapshot, value_on_support)
from .profile import Profile
from .solver import FlowField

__all__ = [
    "RescaledState",
    "SERIES_COLUMNS",
    "rescale_snapshot",
    "pushforward_deviation",
    "lyapunov",
    "dissipation",
    "duality_pairing",
    "reciprocal_integral",
    "hat_gamma_residual",
    "stationary_residual",
    "build_series",
    "save_series_csv",
]


@dataclass(frozen=True)
class RescaledState:
    """One rescaled slice.

    ``eta_nodes`` carries every snapshot node (exterior padding included,
    where mu is zero but w is still the continued value); ``gamma_hat``
    restricts to the rescaled support images and lives over ``y_nodes``,
    picked out of ``eta_nodes`` by ``support_mask``.
    """

    tau: float
    eta_nodes: np.ndarray
    mu: np.ndarray
    w: np.ndarray
    w_eta: np.ndarray
    gamma_hat: np.ndarray
    y_nodes: np.ndarray
    support_mask: np.ndarray


def rescale_snapshot(s: EulerianSnapshot, p: Profile) -> RescaledState:
    """Map one Eulerian slice into the self-similar frame.

    mu = t^alpha m(t, t^alpha eta), v = t^(1-2 alpha) u and
    w = v + alpha eta^2 / 2; w_eta by nonuniform differences on the eta
    nodes.  Only t > 0 slices admit the rescaling.
    """
    if not s.t > 0.0:
        raise InvalidParameterError(
            f"rescaling needs t > 0, got t={s.t}")
    mask = s.support_mask
    if int(np.count_nonzero(mask)) != s.y_nodes.size:
        raise InvalidParameterError(
            "snapshot support nodes do not match its source labels")
    ta = s.t ** p.alpha
    eta = s.x_nodes / ta
    mu = ta * s.m
    w = s.t ** (1.0 - 2.0 * p.alpha) * s.u + 0.5 * p.alpha * eta * eta
    w_eta = np.gradient(w, eta, edge_order=2)
    return RescaledState(
        tau=math.log(s.t),
        eta_nodes=eta,
        mu=mu,
        w=w,
        w_eta=w_eta,
        gamma_hat=eta[mask],
        y_nodes=s.y_nodes,
        support_mask=mask,
    )


def pushforward_deviation(state: RescaledState, p: Profile) -> np.ndarray:
    """Certificate for mu = gamma_hat-pushforward of phi.

    Returns the cumulative mass of mu up to gamma_hat(y_j) minus Phi(y_j),
    evaluated in mass coordinates where the integrand mu gamma_hat_y / phi
    is identically one at the nodes; the contract tolerance 1e-6 is pure
    headroom over roundoff.  The last entry doubles as the total-mass
    defect of mu.
    """
    y = state.y_nodes
    ghy = np.gradient(state.gamma_hat, y, edge_order=2)
    mu_sup = state.mu[state.support_mask]
    phi = p.phi(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(phi > 0.0, mu_sup * ghy / phi, 1.0)
    cells = p.cell_masses(y) * 0.5 * (ratio[:-1] + ratio[1:])
    cum = np.concatenate([[0.0], np.cumsum(cells)])
    return cum - p.cdf(y)


def lyapunov(state: RescaledState, p: Profile) -> float:
    """Lyapunov functional H(tau) of one rescaled slice.

    The mu^(theta+1) term needs no flow slope: in mass coordinates it is
    int mu^theta(gamma_hat(y)) phi(y) dy and mu at the image nodes is
    stored directly.  See the module docstring for why the phi-moment
    constant is evaluated with the same dual-cell rule.
    """
    wq = p.node_masses(state.y_nodes)
    mu_sup = state.mu[state.support_mask]
    weta_sup = state.w_eta[state.support_mask]
    c = 0.5 * p.alpha * (1.0 - p.alpha)
    phi_th = p.phi(state.y_nodes) ** p.theta
    kinetic = 0.5 * np.sum(wq * weta_sup * weta_sup)
    internal = np.sum(wq * mu_sup ** p.theta) / (p.theta + 1.0)
    confinement = c * np.sum(wq * state.gamma_hat * state.gamma_hat)
    const = (-p.theta / (p.theta + 1.0) * np.sum(wq * phi_th)
             + c * p.r_alpha ** 2)
    return float(kinetic - internal - confinement + const)


def dissipation(state: RescaledState, p: Profile) -> float:
    """``int mu |w_eta|^2 deta`` in mass coordinates.

    ``-(2 alpha - 1) * dissipation`` is the exact dH/dtau.
    """
    wq = p.node_masses(state.y_nodes)
    weta_sup = state.w_eta[state.support_mask]
    return float(np.sum(wq * weta_sup * weta_sup))


def _w_on(state: RescaledState, pts: np.ndarray) -> np.ndarray:
    # piecewise-linear in the resolved eta range, linear continuation with
    # the edge slopes beyond it (the exact continued value is eventually
    # linear on each side, so wide padding makes this exact)
    w = np.interp(pts, state.eta_nodes, state.w)
    lo, hi = state.eta_nodes[0], state.eta_nodes[-1]
    below = pts < lo
    above = pts > hi
    if np.any(below):
        w[below] = state.w[0] + state.w_eta[0] * (pts[below] - lo)
    if np.any(above):
        w[above] = state.w[-1] + state.w_eta[-1] * (pts[above] - hi)
    return w


def duality_pairing(state: RescaledState, p: Profile) -> float:
    """``int w (mu - phi) deta`` over the union of supports.

    Both pieces are pulled back to mass coordinates: int w mu uses w at
    the stored image nodes, int w phi samples w at the labels themselves
    (interpolated, since phi's support need not match mu's).  Inherits
    the terminal normalization of the reconstructed value.
    """
    wq = p.node_masses(state.y_nodes)
    w_mu = state.w[state.support_mask]
    w_phi = _w_on(state, state.y_nodes)
    return float(np.sum(wq * (w_mu - w_phi)))


def reciprocal_integral(state: RescaledState, p: Profile) -> float:
    """``int mu^(1-theta) deta`` over the support of mu.

    Evaluated in mass coordinates as int gamma_hat_y^theta phi^(1-theta) dy:
    the phi^(1-theta) factor (endpoint-singular for theta > 1, but
    integrable) is integrated exactly per dual cell, the slope enters by
    nodal values.
    """
    y = state.y_nodes
    if np.any(np.diff(state.gamma_hat) <= 0.0):
        raise DegenerateStateError("rescaled flow map is not increasing")
    ghy = np.gradient(state.gamma_hat, y, edge_order=2)
    if np.min(ghy) <= 0.0:
        raise DegenerateStateError("rescaled flow map is not increasing")
    wq = p.power_node_masses(1.0 - p.theta, y)
    return float(np.sum(wq * ghy ** p.theta))


def hat_gamma_residual(f: FlowField,
                       p: Profile | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Residual of the rescaled-flow equation on interior log-time rows.

        alpha(alpha-1) g + (2 alpha - 1) g_tau + g_tautau
            + theta phi^theta g_yy / g_y^(theta+2)
            = (phi^theta)_y / g_y^(theta+1)

    for g = gamma_hat.  The geometric grading of t + eps makes the tau
    rows nearly uniform away from the initial layer, so the nonuniform
    3-point stencils stay second order there.  Returns ``(tau, res)``
    with the first and last t > 0 rows dropped (their g_tautau stencil
    would be one-sided).  The identity map is an exact steady state:
    feeding gamma = t^alpha y returns roundoff.
    """
    p = f.profile if p is None else p
    g = f.grid
    if g.nt < 4:
        raise InvalidParameterError("need at least four t > 0 rows")
    t = g.t[1:]
    if not np.all(t > 0.0):
        raise InvalidParameterError("time rows after the first must be positive")
    tau = np.log(t)
    gh = f.gamma[1:] / t[:, None] ** p.alpha
    gh_tau = np.gradient(gh, tau, axis=0, edge_order=2)
    gh_tautau = _second_derivative(gh, tau)
    gh_y = np.gradient(gh, g.dy, axis=1, edge_order=2)
    if np.min(gh_y) <= 0.0:
        raise DegenerateStateError("rescaled flow map is not increasing")
    gh_yy = np.empty_like(gh)
    gh_yy[:, 1:-1] = (gh[:, 2:] - 2.0 * gh[:, 1:-1] + gh[:, :-2]) / g.dy ** 2
    gh_yy[:, 0] = gh_yy[:, 1]
    gh_yy[:, -1] = gh_yy[:, -2]
    phi_th = p.phi(g.y) ** p.theta
    dphi_th = np.gradient(phi_th, g.dy, edge_order=2)
    res = (p.alpha * (p.alpha - 1.0) * gh
           + (2.0 * p.alpha - 1.0) * gh_tau
           + gh_tautau
           + p.theta * phi_th[None, :] * gh_yy / gh_y ** (p.theta + 2.0)
           - dphi_th[None, :] / gh_y ** (p.theta + 1.0))
    return tau[1:-1], res[1:-1]


def stationary_residual(y: np.ndarray, xi: np.ndarray,
                        p: Profile) -> np.ndarray:
    """Residual of the stationary flow equation for a monotone map xi(y):

        alpha(alpha-1)/2 (xi^2)_y - (phi^theta / xi_y^theta)_y = 0.

    Discrete flux form with 3-point differences; exact polynomial
    cancellation makes the identity map vanish to roundoff.  Applied to
    gamma_hat at the earliest resolved tau this is the terminal
    certificate of convergence.
    """
    y = np.asarray(y, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if np.any(np.diff(xi) <= 0.0):
        raise DegenerateStateError("stationary map must be strictly increasing")
    xi_y = np.gradient(xi, y, edge_order=2)
    flux = p.phi(y) ** p.theta / xi_y ** p.theta
    return (0.5 * p.alpha * (p.alpha - 1.0) * np.gradient(xi * xi, y, edge_order=2)
            - np.gradient(flux, y, edge_order=2))


SERIES_COLUMNS = ("tau", "H", "dH_fd", "dH_identity", "d1", "d2", "mu_max",
                  "osc_w", "supp_left", "supp_right", "recip_integral",
                  "duality_pairing")


def build_series(f: FlowField, p: Profile | None = None,
                 t_min: float | None = None,
                 n_pad: int | None = None,
                 ubar: np.ndarray | None = None,
                 fb: FreeBoundaries | None = None) -> dict[str, np.ndarray]:
    """Rescaled diagnostics for every slice with t >= t_min.

    ``t_min`` defaults to 10 eps, below which the regularization bias
    dominates every certificate.  d1, d2 are the Wasserstein distances of
    mu(tau) to phi in mass coordinates (gamma_hat is the monotone optimal
    map).  ``dH_fd`` differences the H column in tau, ``dH_identity`` is
    the exact dissipation form; comparing the two columns tests the
    Lyapunov identity with no shared discretization.  Padding defaults to
    the full support width per side so the duality pairing never needs to
    extrapolate w in realistic runs.  ``ubar`` and ``fb`` may be passed
    to reuse the value and free boundaries already derived from ``f``.
    """
    p = f.profile if p is None else p
    g = f.grid
    if t_min is None:
        t_min = 10.0 * g.eps
    if n_pad is None:
        n_pad = g.ny
    keep = np.nonzero((g.t >= t_min) & (g.t > 0.0))[0]
    if keep.size < 4:
        raise InvalidParameterError(
            f"fewer than four slices with t >= {t_min}")
    if ubar is None:
        ubar = value_on_support(f, p)
    if fb is None:
        fb = free_boundaries(f)
    wq = p.node_masses(g.y)

    cols = {k: np.empty(keep.size) for k in SERIES_COLUMNS}
    diss = np.empty(keep.size)
    for n, i in enumerate(keep):
        st = rescale_snapshot(
            snapshot(f, int(i), p, n_pad=n_pad, ubar=ubar, fb=fb), p)
        gap = st.gamma_hat - g.y
        w_sup = st.w[st.support_mask]
        cols["tau"][n] = st.tau
        cols["H"][n] = lyapunov(st, p)
        diss[n] = dissipation(st, p)
        cols["d1"][n] = np.sum(wq * np.abs(gap))
        cols["d2"][n] = math.sqrt(np.sum(wq * gap * gap))
        cols["mu_max"][n] = st.mu.max()
        cols["osc_w"][n] = w_sup.max() - w_sup.min()
        cols["supp_left"][n] = st.gamma_hat[0]
        cols["supp_right"][n] = st.gamma_hat[-1]
        cols["recip_integral"][n] = reciprocal_integral(st, p)
        cols["duality_pairing"][n] = duality_pairing(st, p)
    cols["dH_fd"] = np.gradient(cols["H"], cols["tau"], edge_order=2)
    cols["dH_identity"] = -(2.0 * p.alpha - 1.0) * diss
    return cols


def save_series_csv(series: dict[str, np.ndarray], path) -> None:
    data = np.column_stack([series[k] for k in SERIES_COLUMNS])
    np.savetxt(path, data, fmt="%.17g", delimiter=",",
               header=",".join(SERIES_COLUMNS), comments="")
