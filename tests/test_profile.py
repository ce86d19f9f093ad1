"""Oracle tests for the self-similar congestion profile.

Every derived constant is cross-checked against an independent route:
the profile normalization against adaptive quadrature + bisection, the
closed-form CDF against direct quadrature, and the self-similar value
function against a finite-difference Hamilton-Jacobi residual.
"""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special
from scipy.integrate import quad
from scipy.optimize import brentq

from dirac_mfp import errors
from dirac_mfp import profile as profile_mod
from dirac_mfp.profile import Profile, make_profile
from dirac_mfp.target import self_similar_terminal

THETAS = [0.5, 1.0, 2.0, 3.0, 5.0]


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def mass_by_quadrature(theta: float, radius: float) -> float:
    """∫ φ over the support, by adaptive quadrature with the algebraic
    endpoint weight handled explicitly.  Independent of the beta-function
    route used by the implementation."""
    alpha = 2.0 / (2.0 + theta)
    c = 0.5 * alpha * (1.0 - alpha)
    e = 1.0 / theta
    # (c (R^2 - y^2))^{1/theta} = c^e (R - y)^e (R + y)^e
    val, err = quad(lambda y: c**e, -radius, radius, weight="alg", wvar=(e, e))
    assert err < 1e-11
    return val


def radius_by_bisection(theta: float) -> float:
    return brentq(lambda r: mass_by_quadrature(theta, r) - 1.0, 0.3, 4.0,
                  xtol=1e-14, rtol=8.9e-16)


def power_mass_by_quadrature(theta: float, radius: float, p: float) -> float:
    alpha = 2.0 / (2.0 + theta)
    c = 0.5 * alpha * (1.0 - alpha)
    e = p / theta
    val, err = quad(lambda y: c**e, -radius, radius, weight="alg", wvar=(e, e))
    assert err < 1e-9
    return val


# ---------------------------------------------------------------------------
# frozen constants
# ---------------------------------------------------------------------------

def test_theta_one_constants():
    p = make_profile(1.0)
    assert p.alpha == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert p.r_alpha == pytest.approx((27.0 / 4.0) ** (1.0 / 3.0), abs=1e-12)
    assert p.phi(0.0) == pytest.approx(4.0 ** (-2.0 / 3.0), abs=1e-12)
    # value constant C = alpha(1-alpha) R^2 / (2(2 alpha - 1)) = 3 * 4^{-2/3}
    assert p.value_constant == pytest.approx(3.0 * 4.0 ** (-2.0 / 3.0), abs=1e-12)
    assert p.value_constant == pytest.approx(1.190547, abs=1e-5)


def test_theta_two_constants():
    p = make_profile(2.0)
    assert p.alpha == pytest.approx(0.5, abs=1e-15)
    assert p.kappa == pytest.approx(0.0, abs=1e-15)
    assert p.r_alpha == pytest.approx(np.sqrt(4.0 * np.sqrt(2.0) / np.pi), abs=1e-12)
    assert p.r_alpha == pytest.approx(1.341878, abs=1e-5)
    assert p.phi(0.0) == pytest.approx(p.r_alpha / (2.0 * np.sqrt(2.0)), abs=1e-12)
    assert p.phi(0.0) == pytest.approx(0.474424, abs=1e-5)


def test_theta_three_exponents():
    p = make_profile(3.0)
    assert p.alpha == pytest.approx(0.4, abs=1e-15)
    assert p.kappa == pytest.approx(0.2, abs=1e-15)


@pytest.mark.parametrize("theta", THETAS)
def test_unit_mass_against_quadrature(theta):
    p = make_profile(theta)
    assert abs(mass_by_quadrature(theta, p.r_alpha) - 1.0) < 1e-10


@pytest.mark.parametrize("theta", THETAS)
def test_radius_against_bisection_oracle(theta):
    p = make_profile(theta)
    assert abs(p.r_alpha - radius_by_bisection(theta)) < 1e-10


def test_tanh_sinh_mass_is_one_to_roundoff():
    # the construction-time cross-check, far inside its 1e-10 tolerance
    for theta in np.geomspace(0.05, 200.0, 60):
        mass = profile_mod._tanh_sinh_mass(make_profile(theta))
        assert abs(mass - 1.0) <= 1e-12, theta


def test_radius_check_fails_on_a_wrong_radius(monkeypatch):
    # a beta function 0.1 % off moves the closed-form radius; the
    # quadrature of phi on the moved support then misses unit mass
    wrong = SimpleNamespace(beta=lambda a, b: 1.001 * special.beta(a, b),
                            betainc=special.betainc)
    monkeypatch.setattr(profile_mod, "special", wrong)
    with pytest.raises(errors.InvalidParameterError,
                       match="quadrature cross-check"):
        make_profile(3.0)


@pytest.mark.parametrize("theta", [0.005, 1e-300])
def test_tiny_theta_rejected_without_warnings(theta):
    # c**(1/theta) underflows and the radius would overflow to inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(errors.InvalidParameterError, match="too small"):
            make_profile(theta)


# ---------------------------------------------------------------------------
# profile shape
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("theta", THETAS)
def test_polynomial_identity(theta):
    # phi^theta must reproduce the exact parabola c (R^2 - y^2)
    p = make_profile(theta)
    r = np.linspace(-p.r_alpha, p.r_alpha, 1000)
    lhs = p.phi(r) ** theta
    rhs = 0.5 * p.alpha * (1.0 - p.alpha) * (p.r_alpha**2 - r**2)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_phi_vanishes_outside_support():
    p = make_profile(1.5)
    assert p.phi(p.r_alpha) == 0.0
    assert p.phi(-p.r_alpha) == 0.0
    assert np.all(p.phi(np.array([-5.0, 1.01 * p.r_alpha, 17.0])) == 0.0)


@pytest.mark.parametrize("theta", THETAS)
def test_cdf_against_quadrature(theta):
    p = make_profile(theta)
    for r in np.linspace(-0.95 * p.r_alpha, 0.95 * p.r_alpha, 9):
        ref, err = quad(p.phi, -p.r_alpha, r, epsabs=1e-13, limit=300)
        assert abs(p.cdf(r) - ref) < 5e-11
    assert p.cdf(-p.r_alpha) == 0.0
    assert p.cdf(p.r_alpha) == pytest.approx(1.0, abs=1e-14)
    assert p.cdf(0.0) == pytest.approx(0.5, abs=1e-14)


@pytest.mark.parametrize("theta", THETAS)
def test_quantile_round_trip(theta):
    # the profile's cdf against the quantile of the unit self-similar
    # target, the inverse that the terminal row of a self-similar run uses
    p = make_profile(theta)
    m = self_similar_terminal(p, 1.0, 0.0)
    r = np.linspace(-0.999, 0.999, 401) * p.r_alpha
    assert np.max(np.abs(m.quantile(p.cdf(r)) - r)) < 1e-9
    u = np.linspace(1e-6, 1.0 - 1e-6, 401)
    assert np.max(np.abs(p.cdf(m.quantile(u)) - u)) < 1e-12
    assert m.quantile(0.0) == -p.r_alpha
    assert m.quantile(1.0) == p.r_alpha


@pytest.mark.parametrize("theta", THETAS)
def test_power_mass_against_quadrature(theta):
    p = make_profile(theta)
    support = [-p.r_alpha, p.r_alpha]
    for pw in [1.0, theta, theta + 1.0]:
        ref = power_mass_by_quadrature(theta, p.r_alpha, pw)
        assert p.cell_masses(support, pw)[0] == pytest.approx(ref, rel=1e-9)
    if theta > 1.0:  # reciprocal power, integrable iff (1-theta)/theta > -1
        ref = power_mass_by_quadrature(theta, p.r_alpha, 1.0 - theta)
        assert (p.cell_masses(support, 1.0 - theta)[0]
                == pytest.approx(ref, rel=1e-8))


def test_power_mass_partial_interval():
    p = make_profile(2.0)
    lo, hi = -0.3, 0.9
    ref, err = quad(lambda y: p.phi(y) ** 3.0, lo, hi, epsabs=1e-13)
    assert p.cell_masses([lo, hi], 3.0)[0] == pytest.approx(ref, abs=1e-11)
    # cell masses telescope to the cdf
    edges = np.linspace(-p.r_alpha, p.r_alpha, 65)
    cells = p.cell_masses(edges)
    assert np.sum(cells) == pytest.approx(1.0, abs=1e-13)
    assert np.cumsum(cells) == pytest.approx(p.cdf(edges[1:]), abs=1e-13)


@pytest.mark.parametrize("theta", THETAS)
def test_second_moment_against_quadrature(theta):
    p = make_profile(theta)
    ref, err = quad(lambda y: y * y * p.phi(y), -p.r_alpha, p.r_alpha,
                    epsabs=1e-13, limit=300)
    assert p.second_moment() == pytest.approx(ref, rel=1e-9)


# ---------------------------------------------------------------------------
# self-similar fields
# ---------------------------------------------------------------------------

def test_self_similar_density_frozen_value():
    p = make_profile(2.0)
    val = p.self_similar_density(0.25, 0.0)
    assert val == pytest.approx(2.0 * p.phi(0.0), abs=1e-14)
    assert val == pytest.approx(0.948848, abs=1e-5)


@pytest.mark.parametrize("theta", THETAS)
def test_self_similar_density_mass(theta):
    p = make_profile(theta)
    for t in [0.01, 0.3, 2.0]:
        ref, err = quad(lambda x: p.self_similar_density(t, x),
                        -p.r_alpha * t**p.alpha, p.r_alpha * t**p.alpha,
                        epsabs=1e-12, limit=300)
        assert ref == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("theta", [0.5, 1.0, 3.0, 5.0])
def test_self_similar_value_hj_residual_analytic(theta):
    # -u_t + u_x^2/2 = m^theta with analytic derivatives of the closed form
    p = make_profile(theta)
    a, C, R = p.alpha, p.value_constant, p.r_alpha
    for t in [0.2, 0.7, 1.3]:
        x = np.linspace(-0.95, 0.95, 41) * R * t**a
        u_t = a * x**2 / (2.0 * t**2) - C * (2.0 * a - 1.0) * t**(2.0 * a - 2.0)
        u_x = -a * x / t
        m_pow = p.self_similar_density(t, x) ** theta
        resid = -u_t + 0.5 * u_x**2 - m_pow
        assert np.max(np.abs(resid)) < 1e-10


@pytest.mark.parametrize("theta", [1.0, 3.0])
def test_self_similar_value_hj_residual_fd(theta):
    # independent route: centered finite differences of u itself
    p = make_profile(theta)
    h = 1e-5
    for t in [0.3, 0.9]:
        for x in np.linspace(-0.7, 0.7, 11) * p.r_alpha * t**p.alpha:
            u_t = (p.self_similar_value(t + h, x) - p.self_similar_value(t - h, x)) / (2 * h)
            u_x = (p.self_similar_value(t, x + h) - p.self_similar_value(t, x - h)) / (2 * h)
            resid = -u_t + 0.5 * u_x**2 - p.self_similar_density(t, x) ** theta
            assert abs(resid) < 5e-5


def test_critical_value_hj_residual():
    # theta = 2 carries a logarithmic correction instead of the power-law
    # prefactor; verify it closes the Hamilton-Jacobi equation both with
    # analytic derivatives and with a finite-difference probe.
    p = make_profile(2.0)
    R = p.r_alpha
    for t in [0.2, 0.7, 1.3]:
        x = np.linspace(-0.95, 0.95, 41) * R * np.sqrt(t)
        u_t = x**2 / (4.0 * t**2) - R**2 / (8.0 * t)
        u_x = -x / (2.0 * t)
        resid = -u_t + 0.5 * u_x**2 - p.self_similar_density(t, x) ** 2
        assert np.max(np.abs(resid)) < 1e-12

    h = 1e-5
    for x in np.linspace(-0.7, 0.7, 11) * R * np.sqrt(0.5):
        u_t = (p.critical_self_similar_value(0.5 + h, x)
               - p.critical_self_similar_value(0.5 - h, x)) / (2 * h)
        u_x = (p.critical_self_similar_value(0.5, x + h)
               - p.critical_self_similar_value(0.5, x - h)) / (2 * h)
        resid = -u_t + 0.5 * u_x**2 - p.self_similar_density(0.5, x) ** 2
        assert abs(resid) < 5e-5


def test_value_function_scaling_consistency():
    # u(t, x) = t^{2 alpha - 1} u(1, x / t^alpha) for the closed form
    p = make_profile(3.0)
    t = 0.37
    x = 0.2
    lhs = p.self_similar_value(t, x)
    rhs = t ** (2 * p.alpha - 1) * p.self_similar_value(1.0, x / t**p.alpha)
    assert lhs == pytest.approx(rhs, rel=1e-12)


# ---------------------------------------------------------------------------
# error contracts
# ---------------------------------------------------------------------------

def test_invalid_theta_rejected():
    for bad in [0.0, -1.0, np.nan, np.inf]:
        with pytest.raises(errors.InvalidParameterError):
            make_profile(bad)


def test_theta_two_value_is_gated():
    p = make_profile(2.0)
    with pytest.raises(errors.UnsupportedParameterError):
        p.self_similar_value(0.5, 0.0)
    q = make_profile(1.0)
    with pytest.raises(errors.UnsupportedParameterError):
        q.critical_self_similar_value(0.5, 0.0)


def test_nonpositive_time_rejected():
    p = make_profile(1.0)
    with pytest.raises(errors.InvalidParameterError):
        p.self_similar_density(0.0, 0.1)
    with pytest.raises(errors.InvalidParameterError):
        p.self_similar_value(-0.5, 0.1)


def test_power_mass_not_integrable():
    p = make_profile(3.0)
    with pytest.raises(errors.InvalidParameterError):
        # exponent -1 in the radicand, diverges
        p.cell_masses([-p.r_alpha, p.r_alpha], -3.0)


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(theta=st.floats(0.3, 6.0))
def test_profile_properties(theta):
    p = make_profile(theta)
    assert 0.0 < p.alpha < 1.0
    assert p.alpha == pytest.approx(2.0 / (2.0 + theta), abs=1e-15)
    assert p.kappa == pytest.approx(1.0 - 2.0 * p.alpha, abs=1e-15)
    # closed-form radius against the quadrature/bisection oracle
    assert abs(p.r_alpha - radius_by_bisection(theta)) < 1e-10
    # polynomial identity at random-free fixed probes
    r = np.linspace(-p.r_alpha, p.r_alpha, 257)
    lhs = p.phi(r) ** theta
    rhs = 0.5 * p.alpha * (1.0 - p.alpha) * (p.r_alpha**2 - r**2)
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    # round trip through the quantile of the unit self-similar target
    u = np.linspace(0.001, 0.999, 101)
    m = self_similar_terminal(p, 1.0, 0.0)
    assert np.max(np.abs(p.cdf(m.quantile(u)) - u)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(theta=st.floats(0.3, 6.0), t=st.floats(0.05, 3.0))
def test_density_scaling_property(theta, t):
    p = make_profile(theta)
    x = np.linspace(-0.9, 0.9, 33) * p.r_alpha * t**p.alpha
    lhs = p.self_similar_density(t, x)
    rhs = t ** (-p.alpha) * p.phi(x * t ** (-p.alpha))
    assert np.max(np.abs(lhs - rhs)) == 0.0


# ---------------------------------------------------------------------------
# dual-cell power quadrature
# ---------------------------------------------------------------------------

def test_power_cell_masses_total():
    # cells over the full support must sum to the closed-form moment
    for theta in (1.0, 2.0, 3.0):
        p = make_profile(theta)
        edges = np.linspace(-p.r_alpha, p.r_alpha, 37)
        for pw in (theta + 1.0, 1.0 - theta, 1.0, 0.0):
            cells = p.cell_masses(edges, pw)
            whole = p.cell_masses([-p.r_alpha, p.r_alpha], pw)[0]
            assert cells.sum() == pytest.approx(whole, rel=1e-13)
            assert np.all(cells >= 0.0)


def test_power_cell_masses_interior_cell():
    p = make_profile(3.0)
    lo, hi = -0.4, 0.25
    e = -2.0 / 3.0  # exponent of phi^{1-theta} in the radicand
    ref, err = quad(lambda y: (p.c * (p.r_alpha**2 - y**2)) ** e, lo, hi)
    assert err < 1e-10
    got = p.cell_masses(np.array([lo, hi]), -2.0)[0]
    assert got == pytest.approx(ref, rel=1e-11)


def test_power_cell_masses_singular_endpoint_cell():
    # leftmost cell carries an integrable algebraic singularity
    p = make_profile(3.0)
    m = -p.r_alpha + 0.17
    e = -2.0 / 3.0
    ref, err = quad(lambda y: p.c**e * (p.r_alpha - y) ** e,
                    -p.r_alpha, m, weight="alg", wvar=(e, 0.0))
    assert err < 1e-9
    got = p.cell_masses(np.array([-p.r_alpha, m]), -2.0)[0]
    assert got == pytest.approx(ref, rel=1e-10)


def test_power_node_masses_reduce_to_plain_masses():
    # node_masses at its default power 1; against the cdf route the
    # two differ only by the rounding of the closed-form total (4 ulp)
    for theta in (0.25, 1.0, 3.0, 10.0):
        p = make_profile(theta)
        y = np.linspace(-p.r_alpha, p.r_alpha, 65)
        half = np.concatenate([[y[0]], 0.5 * (y[:-1] + y[1:]), [y[-1]]])
        np.testing.assert_allclose(p.node_masses(y), np.diff(p.cdf(half)),
                                   rtol=1e-14, atol=0.0)


def test_power_cell_masses_not_integrable():
    p = make_profile(2.0)
    with pytest.raises(errors.InvalidParameterError):
        p.cell_masses(np.array([-1.0, 1.0]), -2.0)  # e = -1 diverges
