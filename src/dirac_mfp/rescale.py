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
mu |w_eta|^2, the duality pairing int w (mu - phi), and the residual of
the rescaled-flow equation.

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
from .fields import (EulerianSnapshot, _row_gradient, _second_derivative,
                     snapshot)
from .profile import Profile
from .solver import FlowField

__all__ = [
    "RescaledState",
    "SERIES_COLUMNS",
    "rescale_snapshot",
    "lyapunov",
    "dissipation",
    "duality_pairing",
    "reciprocal_integral",
    "hat_gamma_residual",
    "series_rows",
    "build_series",
]


@dataclass(frozen=True)
class RescaledState:
    """Rescaled slices, one or a stack, laid out as the `EulerianSnapshot`
    they come from.

    ``eta_nodes`` carries every snapshot node (exterior padding included,
    where mu is zero but w is still the continued value); ``gamma_hat``
    restricts it to the rescaled support images, which live over
    ``y_nodes``.
    """

    tau: float | np.ndarray
    eta_nodes: np.ndarray
    mu: np.ndarray
    w: np.ndarray
    w_eta: np.ndarray
    y_nodes: np.ndarray
    n_pad: int

    @property
    def support(self) -> slice:
        return slice(self.n_pad, self.n_pad + self.y_nodes.size)

    @property
    def gamma_hat(self) -> np.ndarray:
        return self.eta_nodes[..., self.support]


def rescale_snapshot(s: EulerianSnapshot, p: Profile) -> RescaledState:
    """Map Eulerian slices into the self-similar frame.

    mu = t^alpha m(t, t^alpha eta), v = t^(1-2 alpha) u and
    w = v + alpha eta^2 / 2; w_eta by nonuniform differences on the eta
    nodes.  Only t > 0 slices admit the rescaling.
    """
    if not np.all(s.t > 0.0):
        raise InvalidParameterError(
            f"rescaling needs t > 0, got t={np.min(s.t)}")
    ta = np.expand_dims(s.t ** p.alpha, -1)
    tv = np.expand_dims(s.t ** (1.0 - 2.0 * p.alpha), -1)
    eta = s.x_nodes / ta
    w = tv * s.u + 0.5 * p.alpha * eta * eta
    return RescaledState(
        tau=np.log(s.t),
        eta_nodes=eta,
        mu=ta * s.m,
        w=w,
        w_eta=_row_gradient(w, eta),
        y_nodes=s.y_nodes,
        n_pad=s.n_pad,
    )


# Each functional below reduces along the nodes, the last axis: it returns
# a scalar for one slice and an array for a stack of them.

def lyapunov(state: RescaledState, p: Profile):
    """Lyapunov functional H(tau) of rescaled slices.

    The mu^(theta+1) term needs no flow slope: in mass coordinates it is
    int mu^theta(gamma_hat(y)) phi(y) dy and mu at the image nodes is
    stored directly.  See the module docstring for why the phi-moment
    constant is evaluated with the same dual-cell rule.
    """
    y = state.y_nodes
    wq = p.node_masses(y)
    gh = state.gamma_hat
    c = 0.5 * p.alpha * (1.0 - p.alpha)
    kinetic = 0.5 * dissipation(state, p)
    internal = (np.sum(wq * state.mu[..., state.support] ** p.theta, axis=-1)
                / (p.theta + 1.0))
    confinement = c * np.sum(wq * gh * gh, axis=-1)
    const = (-p.theta / (p.theta + 1.0) * np.sum(wq * p.phi(y) ** p.theta)
             + c * p.r_alpha ** 2)
    return kinetic - internal - confinement + const


def dissipation(state: RescaledState, p: Profile):
    """``int mu |w_eta|^2 deta`` in mass coordinates.

    ``-(2 alpha - 1) * dissipation`` is the exact dH/dtau.
    """
    weta = state.w_eta[..., state.support]
    return np.sum(p.node_masses(state.y_nodes) * weta * weta, axis=-1)


def _w_on(eta: np.ndarray, w: np.ndarray, pts: np.ndarray) -> np.ndarray:
    # piecewise-linear between the nodes, which must reach past pts: w
    # carries alpha eta^2/2 and is not extrapolated; the nodes differ per
    # row, so the interpolation runs row by row
    eta, w = np.atleast_2d(eta), np.atleast_2d(w)
    if np.any(eta[:, 0] > pts[0]) or np.any(eta[:, -1] < pts[-1]):
        raise InvalidParameterError(
            "w is read beyond the nodes of a slice; pad it past the labels")
    return np.array([np.interp(pts, e, v) for e, v in zip(eta, w)])


def duality_pairing(state: RescaledState, p: Profile):
    """``int w (mu - phi) deta`` over the union of supports.

    Both pieces are pulled back to mass coordinates: int w mu uses w at
    the stored image nodes, int w phi samples w at the labels themselves
    (interpolated, since phi's support need not match mu's).  The nodes
    must reach past the labels (`InvalidParameterError` otherwise).
    Inherits the terminal normalization of the reconstructed value.
    """
    y = state.y_nodes
    w_sup = state.w[..., state.support]
    w_phi = _w_on(state.eta_nodes, state.w, y).reshape(w_sup.shape)
    return np.sum(p.node_masses(y) * (w_sup - w_phi), axis=-1)


def reciprocal_integral(state: RescaledState, p: Profile):
    """``int mu^(1-theta) deta`` over the support of mu.

    Evaluated in mass coordinates as int gamma_hat_y^theta phi^(1-theta) dy:
    the phi^(1-theta) factor (endpoint-singular for theta > 1, but
    integrable) is integrated exactly per dual cell, the slope enters by
    nodal values.
    """
    y, gh = state.y_nodes, state.gamma_hat
    if np.any(np.diff(gh, axis=-1) <= 0.0):
        raise DegenerateStateError("rescaled flow map is not increasing")
    ghy = np.gradient(gh, y, axis=-1, edge_order=2)
    if np.min(ghy) <= 0.0:
        raise DegenerateStateError("rescaled flow map is not increasing")
    return np.sum(p.node_masses(y, 1.0 - p.theta) * ghy ** p.theta, axis=-1)


def hat_gamma_residual(f: FlowField) -> tuple[np.ndarray, np.ndarray]:
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
    p, g = f.profile, f.grid
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
    gh_yy = _second_derivative(gh, g.y, axis=1)
    phi_th = p.phi(g.y) ** p.theta
    dphi_th = np.gradient(phi_th, g.dy, edge_order=2)
    res = (p.alpha * (p.alpha - 1.0) * gh
           + (2.0 * p.alpha - 1.0) * gh_tau
           + gh_tautau
           + p.theta * phi_th[None, :] * gh_yy / gh_y ** (p.theta + 2.0)
           - dphi_th[None, :] / gh_y ** (p.theta + 1.0))
    return tau[1:-1], res[1:-1]


SERIES_COLUMNS = ("tau", "H", "dH_fd", "dH_identity", "d1", "d2", "mu_max",
                  "osc_w", "supp_left", "supp_right", "recip_integral",
                  "duality_pairing")


def series_rows(g) -> tuple[np.ndarray, np.ndarray]:
    """Time rows of the series of grid ``g`` (t >= `SpaceTimeGrid.t_resolved`
    and t > 0) and their log-times; `InvalidParameterError` when fewer
    than four rows qualify.  The check needs only the grid, so a run makes
    it before it solves."""
    t_min = g.t_resolved
    keep = np.nonzero((g.t >= t_min) & (g.t > 0.0))[0]
    if keep.size < 4:
        raise InvalidParameterError(
            f"fewer than four slices with t >= {t_min}")
    return keep, np.log(g.t[keep])


def build_series(f: FlowField) -> dict[str, np.ndarray]:
    """Rescaled diagnostics for every slice of `series_rows`.

    The rows start at `SpaceTimeGrid.t_resolved`, below which the
    regularization bias dominates every certificate.  d1, d2 are the
    Wasserstein distances of mu(tau) to phi in mass coordinates
    (gamma_hat is the monotone optimal map).  ``dH_fd`` differences the H
    column in tau, ``dH_identity`` is the exact dissipation form;
    comparing the two columns tests the Lyapunov identity with no shared
    discretization.  Each side is padded just past the outermost label
    (two nodes at least), so the duality pairing reads w at the labels
    between nodes; no column reads a pad beyond them.

    All slices are rescaled together as one stacked snapshot, whose
    exterior continuation is one array pass per side, and every column is
    one reduction along the nodes; only the interpolation inside the
    duality pairing runs per row.
    """
    p, g = f.profile, f.grid
    keep, tau = series_rows(g)
    ta = g.t[keep, None] ** p.alpha
    gL, gR = f.gamma[keep, :1], f.gamma[keep, -1:]
    reach = np.max(np.maximum(gL - g.y[0] * ta, g.y[-1] * ta - gR)
                   / ((gR - gL) / g.ny))    # labels y t^alpha, in pad nodes
    s = rescale_snapshot(
        snapshot(f, keep, n_pad=max(2, math.ceil(reach) + 1)), p)
    wq = p.node_masses(g.y)
    gh = s.gamma_hat
    w_sup = s.w[:, s.support]
    gap = gh - g.y
    H = lyapunov(s, p)
    return {
        "tau": tau,
        "H": H,
        "dH_fd": np.gradient(H, tau, edge_order=2),
        "dH_identity": -(2.0 * p.alpha - 1.0) * dissipation(s, p),
        "d1": np.sum(wq * np.abs(gap), axis=1),
        "d2": np.sqrt(np.sum(wq * gap * gap, axis=1)),
        "mu_max": s.mu.max(axis=1),
        "osc_w": w_sup.max(axis=1) - w_sup.min(axis=1),
        "supp_left": gh[:, 0].copy(),
        "supp_right": gh[:, -1].copy(),
        "recip_integral": reciprocal_integral(s, p),
        "duality_pairing": duality_pairing(s, p),
    }
