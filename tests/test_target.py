"""Terminal density construction, quantiles, CSV input, compatibility."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from dirac_mfp import errors
from dirac_mfp.profile import make_profile
from dirac_mfp.target import (
    TerminalDensity,
    load_csv,
    power_bump,
    self_similar_terminal,
    validate_compatibility,
)

from conftest import write_table, write_two_bump_csv


def sampled(m, theta, n=2048):
    """Table of the bump ``m`` at ``n`` nodes, its endpoints included."""
    x = np.linspace(m.a, m.b, n)
    return TerminalDensity.from_table(x, m.pdf(x), theta=theta)


def test_power_bump_frozen_values():
    m = power_bump(-1.0, 1.0, 2.0)
    assert m.pdf(0.0) == pytest.approx(2.0 / np.pi, rel=1e-12)
    m2 = power_bump(0.0, 2.0, 1.0)
    assert m2.pdf(1.0) == pytest.approx(0.75, rel=1e-12)
    # normalization constant of the theta=1 bump on [0,2] is 4/3
    assert m2.pdf(0.5) == pytest.approx((0.5 * 1.5) / (4.0 / 3.0), rel=1e-12)


def test_power_bump_mass_and_support():
    m = power_bump(-0.7, 1.9, 3.0)
    ref, _ = quad(m.pdf, m.a, m.b, epsabs=1e-12, limit=300)
    assert ref == pytest.approx(1.0, abs=1e-9)
    assert m.quantile(0.0) == m.a
    assert m.quantile(1.0) == m.b
    assert m.pdf(m.a) == 0.0 and m.pdf(m.b) == 0.0


def test_power_bump_cdf_against_quadrature():
    m = power_bump(-1.0, 1.0, 2.0)
    for x in [-0.9, -0.3, 0.0, 0.55, 0.99]:
        ref, _ = quad(m.pdf, -1.0, x, epsabs=1e-12, limit=200)
        assert m.cdf(x) == pytest.approx(ref, abs=1e-10)


def test_power_bump_round_trip():
    m = power_bump(0.25, 3.5, 1.5)
    x = np.linspace(0.26, 3.49, 301)
    assert np.max(np.abs(m.quantile(m.cdf(x)) - x)) < 1e-8
    u = np.linspace(1e-6, 1 - 1e-6, 301)
    assert np.max(np.abs(m.cdf(m.quantile(u)) - u)) < 1e-10


def test_self_similar_terminal_matches_profile():
    p = make_profile(1.0)
    T, eps = 1.0, 1e-3
    m = self_similar_terminal(p, T, eps)
    s = (T + eps) ** p.alpha
    assert m.a == pytest.approx(-p.r_alpha * s, rel=1e-14)
    assert m.b == pytest.approx(p.r_alpha * s, rel=1e-14)
    x = np.linspace(m.a, m.b, 101)
    ref = (T + eps) ** (-p.alpha) * p.phi(x / s)
    assert np.max(np.abs(m.pdf(x) - ref)) < 1e-12
    # the terminal row of the self-similar run is the dilation s y
    y = np.linspace(-p.r_alpha, p.r_alpha, 101)
    assert np.max(np.abs(m.quantile(p.cdf(y)) - s * y)) < 1e-11


@pytest.mark.parametrize("u", [np.nan, [0.5, np.nan], -1e-12, 1.0 + 1e-12])
def test_quantile_rejects_arguments_outside_unit_interval(u):
    x = np.linspace(-1.0, 1.0, 64)
    for m in (power_bump(-1.0, 1.0, 1.0),
              TerminalDensity.from_table(x, 1.0 - x * x, theta=1.0)):
        with pytest.raises(errors.InvalidParameterError, match=r"\[0, 1\]"):
            m.quantile(u)


# ---------------------------------------------------------------------------
# compatibility certificate
# ---------------------------------------------------------------------------

def test_compatibility_matched_bump_passes():
    rep = validate_compatibility(sampled(power_bump(-1.0, 1.0, 2.0), 2.0))
    assert rep.passed
    assert rep.c_lower > 0
    # exact ratio of the matched bump is (1+|x|)^{1/2}/Z, spread sqrt(2)
    assert rep.c_upper / rep.c_lower == pytest.approx(np.sqrt(2.0), rel=1e-2)


def test_compatibility_flat_edges_fail():
    # a density bounded away from zero at the support edge violates the
    # required dist^{1/theta} decay: the ratio diverges like 1/dist^{1/theta}
    x = np.linspace(0.0, 1.0, 4096)
    pdf = np.ones_like(x)
    m = TerminalDensity.from_table(x, pdf, theta=1.0)
    rep = validate_compatibility(m)
    assert not rep.passed
    assert rep.c_upper / rep.c_lower > 1e3


def test_compatibility_strict_raises(tmp_path):
    x = np.linspace(0.0, 1.0, 4096)
    path = tmp_path / "flat.csv"
    write_table(path, x, np.ones_like(x))
    assert not validate_compatibility(load_csv(path, theta=1.0)).passed
    with pytest.raises(errors.CompatibilityError, match="envelope ratio"):
        load_csv(path, theta=1.0, strict=True)


# ---------------------------------------------------------------------------
# CSV input
# ---------------------------------------------------------------------------

def test_csv_round_trip(tmp_path):
    # normalized tables survive write -> load bit-faithfully: their
    # interpolated mass is already exactly one, so renormalization is a no-op
    x = np.linspace(-1.0, 1.0, 200)
    first = tmp_path / "t0.csv"
    write_table(first, x, np.cos(0.5 * np.pi * x) ** 2 + 0.05 * (1 - x * x))
    m = load_csv(first, theta=2.0)
    path = tmp_path / "t1.csv"
    write_table(path, m.x_nodes, m.samples)
    m2 = load_csv(path, theta=2.0)
    assert np.max(np.abs(m2.x_nodes - m.x_nodes)) < 1e-12
    assert np.max(np.abs(m2.samples - m.samples)) < 1e-12
    assert m2.cdf(m2.b) == pytest.approx(1.0, abs=1e-12)


def test_beta_export_reload_is_renormalized(tmp_path):
    # a beta bump sampled to CSV is reinterpreted through the table
    # quadrature; mass snaps back to one and samples shift only by the
    # interpolation-level edge deficit
    m = power_bump(-1.0, 1.0, 2.0)
    x = np.linspace(-1.0, 1.0, 2050)[1:-1]
    path = tmp_path / "bump.csv"
    write_table(path, x, m.pdf(x))
    m2 = load_csv(path, theta=2.0)
    assert m2.cdf(m2.b) == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(m2.samples - m.pdf(x))) < 2e-3


def test_loaded_table_round_trip(tmp_path):
    # table-backed quantile must invert the table cdf to high accuracy
    x = np.linspace(-1.0, 1.0, 200)
    path = tmp_path / "t.csv"
    write_table(path, x, np.cos(0.5 * np.pi * x) ** 2 + 0.05 * (1 - x * x))
    m = load_csv(path, theta=1.0)
    probes = np.linspace(-0.97, 0.97, 101)
    assert np.max(np.abs(m.quantile(m.cdf(probes)) - probes)) < 1e-8


# 8 rows, the fewest a table may have: a flat interval [1.1, 2], slopes that
# change sign at x = 1 and x = 4, a left end slope clamped to 3 m0 = 3 and a
# right end slope zeroed (its one-sided estimate is +1 against m = -1)
EDGE_CASES = (np.array([0.0, 1.0, 1.1, 2.0, 3.0, 4.0, 5.0, 6.0]),
              np.array([0.0, 1.0, 0.5, 0.5, 3.0, 7.0, 2.0, 1.0]))


@pytest.mark.parametrize("table", ["edge-cases", "two-bump"])
def test_table_cdf_is_scipys_pchip_antiderivative(tmp_path, table):
    # the package builds its PCHIP in numpy; scipy's is the reference
    from scipy.interpolate import PchipInterpolator

    if table == "edge-cases":
        x, pdf = EDGE_CASES
        m = TerminalDensity.from_table(x, pdf, theta=1.0)
        slope = PchipInterpolator(x, pdf).derivative()
        assert slope(x[0]) == 3.0 and abs(slope(x[-1])) < 1e-12
        assert slope(x[2]) == 0.0 and slope(x[3]) == 0.0
    else:
        path = tmp_path / "two_bump.csv"
        write_two_bump_csv(path, 3.0)
        x, pdf = np.loadtxt(path, delimiter=",", skiprows=1).T
        m = load_csv(path, theta=3.0)
    assert np.array_equal(
        m.samples, pdf / PchipInterpolator(x, pdf).antiderivative()(x[-1]))
    ref = PchipInterpolator(x, m.samples).antiderivative()
    assert np.array_equal(m._coef, ref.c)
    # the nodes, both ends, points between and beyond them
    v = np.concatenate([x, np.linspace(x[0] - 1.0, x[-1] + 1.0, 1001)])
    assert np.array_equal(m.cdf(v), np.clip(ref(np.clip(v, x[0], x[-1])),
                                            0.0, 1.0))
    assert m.cdf(x[0]) == 0.0 and m.cdf(x[-1]) == min(ref(x[-1]), 1.0)


def test_csv_format_errors(tmp_path):
    p = tmp_path / "bad.csv"

    p.write_text("x,density\n0,1\n1,1\n")  # too few rows
    with pytest.raises(errors.FormatError):
        load_csv(p, theta=1.0)

    rows = "\n".join(f"{v},1.0" for v in [0, 1, 2, 1.5, 4, 5, 6, 7])
    p.write_text("x,density\n" + rows + "\n")  # non-monotone x
    with pytest.raises(errors.FormatError):
        load_csv(p, theta=1.0)

    rows = "\n".join(f"{v},{d}" for v, d in
                     zip(range(9), [1, 1, 1, -0.5, 1, 1, 1, 1, 1]))
    p.write_text("x,density\n" + rows + "\n")  # negative density
    with pytest.raises(errors.FormatError):
        load_csv(p, theta=1.0)

    p.write_text("a,b\n0,1\n1,1\n2,1\n3,1\n4,1\n5,1\n6,1\n7,1\n")
    with pytest.raises(errors.FormatError):
        load_csv(p, theta=1.0)  # wrong header

    p.write_bytes(b"x,density\n\xf6\xff,1\n")
    with pytest.raises(errors.FormatError, match="not a text file"):
        load_csv(p, theta=1.0)  # not UTF-8

    with pytest.raises(errors.FormatError, match="no such target file"):
        load_csv(tmp_path, theta=1.0)  # a directory


def test_invalid_bump_parameters():
    with pytest.raises(errors.InvalidParameterError):
        power_bump(1.0, 1.0, 2.0)  # empty support
    with pytest.raises(errors.InvalidParameterError):
        power_bump(0.0, 1.0, -2.0)  # bad exponent


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(a=st.floats(-3.0, 1.0), width=st.floats(0.1, 5.0),
       theta=st.floats(0.4, 5.0))
def test_power_bump_properties(a, width, theta):
    m = power_bump(a, a + width, theta)
    u = np.linspace(0.0, 1.0, 64)
    q = m.quantile(u)
    assert q[0] == m.a and q[-1] == m.b
    assert np.all(np.diff(q) > 0)
    x = np.linspace(m.a + 0.05 * width, m.b - 0.05 * width, 65)
    assert np.max(np.abs(m.quantile(m.cdf(x)) - x)) < 1e-8
    assert validate_compatibility(sampled(m, theta, n=512)).passed
