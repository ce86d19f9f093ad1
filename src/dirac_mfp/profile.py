"""Self-similar congestion profile and the fields it generates.

For a congestion exponent ``theta > 0`` the scaling exponent is
``alpha = 2 / (2 + theta)`` and the stationary rescaled density is the
compactly supported bump

    phi(y) = (c (R^2 - y^2))_+^{1/theta},    c = alpha (1 - alpha) / 2,

with the radius ``R = r_alpha`` fixed by unit mass.  Writing
``B(p) = int_{-1}^{1} (1 - s^2)^p ds`` (a beta function), unit mass reads
``R^{1 + 2/theta} c^{1/theta} B(1/theta) = 1``, which is solved here in
closed form and cross-checked on construction by a tanh-sinh quadrature
(Takahasi & Mori, Publ. RIMS 9, 1974) of ``phi`` itself on ``[-R, R]``.
The check samples ``phi`` at its own nodes and calls no beta function,
so it stays independent of `Profile.cell_masses`: the total mass
there is the beta-function identity that fixes the radius, and it would
read one for a wrong radius formula too.

All integrals of powers of phi reduce to regularized incomplete beta
functions: `Profile.cell_masses` gives the cell masses of phi**power
(1 for the masses of phi itself, L^p norms, reciprocal integrals),
so degenerate-endpoint quadrature error never enters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import InvalidParameterError, UnsupportedParameterError

__all__ = ["Profile", "make_profile"]

# construction-time agreement between the closed-form radius and quadrature
_RADIUS_CHECK_TOL = 1e-10
# tanh-sinh rule of that check: step h, nodes k h for |k h| <= 4
_TANH_SINH_STEP = 1.0 / 32.0
_TANH_SINH_HALF = 128


@dataclass(frozen=True)
class Profile:
    """Derived constants of the self-similar profile for one exponent.

    Attributes
    ----------
    theta : float
        Congestion exponent in the coupling ``m**theta``.
    alpha : float
        Scaling exponent ``2 / (2 + theta)``.
    r_alpha : float
        Support radius of the unit-mass profile.
    kappa : float
        Spectral rate ``1 - 2 alpha``; positive iff ``theta > 2``.
    c : float
        Parabola coefficient ``alpha (1 - alpha) / 2`` in ``phi**theta``.
    value_constant : float
        Prefactor ``alpha (1-alpha) r_alpha^2 / (2 (2 alpha - 1))`` of the
        ``t**(2 alpha - 1)`` term in the value function; ``nan`` at the
        critical exponent ``theta = 2`` where the power law degenerates.
    """

    theta: float
    alpha: float
    r_alpha: float
    kappa: float
    c: float
    value_constant: float

    # -- profile and its exact integrals ------------------------------------

    def phi(self, r):
        """Profile density, zero outside ``[-r_alpha, r_alpha]``."""
        r = np.asarray(r, dtype=float)
        rad = self.c * (self.r_alpha**2 - r * r)
        out = np.power(np.clip(rad, 0.0, None), 1.0 / self.theta)
        return out if out.ndim else float(out)

    def cdf(self, r):
        """Antiderivative of phi vanishing at ``-r_alpha`` (a regularized
        incomplete beta function in ``(r / r_alpha + 1) / 2``)."""
        r = np.asarray(r, dtype=float)
        q = 1.0 + 1.0 / self.theta
        z = np.clip(0.5 * (r / self.r_alpha + 1.0), 0.0, 1.0)
        out = special.betainc(q, q, z)
        return out if out.ndim else float(out)

    def cell_masses(self, edges: np.ndarray, power: float = 1.0) -> np.ndarray:
        """Exact ``int phi**power`` between consecutive edges.

        Requires ``power / theta > -1``; otherwise the endpoint singularity
        is not integrable.  For a negative power the endpoint cells absorb
        the (integrable) singularity exactly, so integrands of the form
        f * phi**power can be handled with plain nodal values of f.
        """
        e = power / self.theta
        if not e > -1.0:
            raise InvalidParameterError(
                f"phi**{power} is not integrable for theta={self.theta}")
        R = self.r_alpha
        z = np.clip(0.5 * (np.asarray(edges, dtype=float) / R + 1.0), 0.0, 1.0)
        total = (self.c**e * R ** (2.0 * e + 1.0) * 2.0 * 4.0**e
                 * special.beta(e + 1.0, e + 1.0))
        return total * np.diff(special.betainc(e + 1.0, e + 1.0, z))

    def node_masses(self, y: np.ndarray, power: float = 1.0) -> np.ndarray:
        """Dual-cell quadrature weights for integrals against phi**power dy.

        ``sum(node_masses(y) * f(y))`` integrates ``f phi`` exactly for
        piecewise constants on the dual mesh; second order for smooth f.
        """
        y = np.asarray(y, dtype=float)
        half = np.concatenate([[y[0]], 0.5 * (y[:-1] + y[1:]), [y[-1]]])
        return self.cell_masses(half, power)

    def second_moment(self) -> float:
        """Exact ``int y^2 phi(y) dy``."""
        e = 1.0 / self.theta
        return float(self.c**e * self.r_alpha ** (3.0 + 2.0 * e)
                     * special.beta(1.5, e + 1.0))

    # -- self-similar space-time fields -------------------------------------

    def self_similar_density(self, t: float, x):
        """``t^{-alpha} phi(t^{-alpha} x)`` for ``t > 0``."""
        _require_positive_time(t)
        s = t ** (-self.alpha)
        return s * self.phi(np.asarray(x, dtype=float) * s) if np.ndim(x) \
            else s * self.phi(x * s)

    def self_similar_value(self, t: float, x):
        """Value function ``-alpha x^2 / (2t) - C t^{2 alpha - 1}`` on the
        support of the self-similar density.

        Raises
        ------
        UnsupportedParameterError
            At ``theta = 2``, where ``2 alpha - 1 = 0`` and the power-law
            prefactor degenerates; see `critical_self_similar_value`.
        """
        if self.theta == 2.0:
            raise UnsupportedParameterError(
                "theta = 2 is critical: the t**(2 alpha - 1) prefactor "
                "degenerates (use critical_self_similar_value)")
        _require_positive_time(t)
        x = np.asarray(x, dtype=float)
        out = (-self.alpha * x * x / (2.0 * t)
               - self.value_constant * t ** (2.0 * self.alpha - 1.0))
        return out if out.ndim else float(out)

    def critical_self_similar_value(self, t: float, x):
        """Logarithmic-correction value function at ``theta = 2``:
        ``-x^2 / (4t) - (r_alpha^2 / 8) ln t``.  This closes the
        Hamilton-Jacobi equation because ``alpha (1 - alpha) / 2 = 1/8``
        exactly at ``alpha = 1/2``."""
        if self.theta != 2.0:
            raise UnsupportedParameterError(
                "the logarithmic value correction only applies at theta = 2")
        _require_positive_time(t)
        x = np.asarray(x, dtype=float)
        out = -x * x / (4.0 * t) - self.r_alpha**2 / 8.0 * math.log(t)
        return out if out.ndim else float(out)


def _require_positive_time(t: float) -> None:
    if not t > 0.0:
        raise InvalidParameterError(f"time must be positive, got {t}")


def _tanh_sinh_mass(p: Profile) -> float:
    """``int phi`` over ``[-R, R]`` by the tanh-sinh rule: the substitution
    ``y = R tanh(pi/2 sinh(s))`` makes the integrand decay double
    exponentially at both ends, so the algebraic endpoint behaviour of phi
    costs no accuracy: the trapezoid rule in ``s`` on 257 nodes is within
    2e-14 of one for theta in [0.05, 200]."""
    s = _TANH_SINH_STEP * np.arange(-_TANH_SINH_HALF, _TANH_SINH_HALF + 1)
    u = 0.5 * math.pi * np.sinh(s)
    dy_ds = p.r_alpha * 0.5 * math.pi * np.cosh(s) / np.cosh(u) ** 2
    return float(_TANH_SINH_STEP * (dy_ds @ p.phi(p.r_alpha * np.tanh(u))))


def make_profile(theta: float) -> Profile:
    """Build the profile for one congestion exponent.

    The closed-form radius is verified against a tanh-sinh quadrature of
    the profile's own ``phi`` before the object is returned.
    Raises `InvalidParameterError` when the radius overflows (theta below
    about 0.008), or when the mass is not finite or misses one by more than
    ``_RADIUS_CHECK_TOL`` (theta below about 0.0086).
    """
    theta = float(theta)
    if not math.isfinite(theta) or theta <= 0.0:
        raise InvalidParameterError(f"theta must be a positive real, got {theta}")

    alpha = 2.0 / (2.0 + theta)
    kappa = 1.0 - 2.0 * alpha
    c = 0.5 * alpha * (1.0 - alpha)
    e = 1.0 / theta
    beta_int = special.beta(0.5, e + 1.0)  # int (1 - s^2)^{1/theta} ds
    base = c**e * beta_int
    if not base > 0.0:  # c**e underflows for theta below about 0.008
        raise InvalidParameterError(
            f"theta={theta} is too small: the profile radius overflows")
    r_alpha = base ** (-theta / (theta + 2.0))

    if theta == 2.0:
        value_constant = math.nan
    else:
        value_constant = alpha * (1.0 - alpha) * r_alpha**2 / (2.0 * (2.0 * alpha - 1.0))

    profile = Profile(theta=theta, alpha=alpha, r_alpha=r_alpha, kappa=kappa,
                      c=c, value_constant=value_constant)
    # independent route; written so that a NaN mass fails too
    mass = _tanh_sinh_mass(profile)
    if not abs(mass - 1.0) <= _RADIUS_CHECK_TOL:
        raise InvalidParameterError(
            f"profile normalization failed its quadrature cross-check: "
            f"mass({r_alpha}) = {mass}")
    return profile
