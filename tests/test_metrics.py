"""Transport-distance and rate-fitting checks.

Distances between piecewise-linear quantile interpolants are evaluated
against hand-computed integrals, the table route is cross-checked with
the Lagrangian route on shared map grids, and `rate_report` is run on
solved flows with frozen regression values for all three congestion
regimes.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from pytest import approx

from dirac_mfp import fields as F
from dirac_mfp import metrics
from dirac_mfp.errors import InvalidParameterError
from dirac_mfp.metrics import fit_rate, rate_report, wasserstein_maps
from dirac_mfp.profile import make_profile
from dirac_mfp.rescale import build_series
from dirac_mfp.solver import make_grid, solve
from dirac_mfp.target import power_bump

from oracles import QuantileTable, pushforward_table, wasserstein

M2_THETA1 = 0.71433047338569   # int y^2 phi dy, oracle-pinned in test_profile


@pytest.fixture(scope="module")
def theta1():
    return make_profile(1.0)


@pytest.fixture(scope="module")
def theta2():
    return make_profile(2.0)


@pytest.fixture(scope="module")
def theta3():
    return make_profile(3.0)


@pytest.fixture(scope="module")
def run_scaling(theta1):
    # horizon at which power_bump(-1,1) is exactly the self-similar
    # slice, so the planning flow has no terminal-datum transient and
    # the scaling window [1e-3, 0.25] is clean
    p = theta1
    T = p.r_alpha ** (-1.0 / p.alpha)
    g = make_grid(p, eps=1e-4, T=T, nt=128, ny=128)
    return solve(p, power_bump(-1.0, 1.0, 1.0), g)


@pytest.fixture(scope="module")
def run_rates3(theta3):
    # asymmetric datum so every deviation mode is populated
    g = make_grid(theta3, eps=1e-4, T=1.0, nt=128, ny=128)
    return solve(theta3, power_bump(-0.6, 1.4, 3.0), g)


@pytest.fixture(scope="module")
def run_critical(theta2):
    p = theta2
    T = p.r_alpha ** (-1.0 / p.alpha)
    g = make_grid(p, eps=1e-3, T=T, nt=128, ny=128)
    return solve(p, power_bump(-1.0, 1.0, 2.0), g)


# ---------------------------------------------------------------------------
# quantile tables
# ---------------------------------------------------------------------------

def test_table_rejects_unnormalized():
    q = np.linspace(0.0, 0.9, 8)
    with pytest.raises(InvalidParameterError, match="unnormalized"):
        QuantileTable(q=q, x=np.linspace(0.0, 1.0, 8))


def test_table_rejects_bad_shapes():
    with pytest.raises(InvalidParameterError):
        QuantileTable(q=np.array([0.0, 1.0]), x=np.array([0.0, 1.0, 2.0]))
    with pytest.raises(InvalidParameterError):
        QuantileTable(q=np.array([0.5]), x=np.array([0.0]))


def test_table_rejects_nonmonotone():
    q = np.array([0.0, 0.5, 0.5, 1.0])
    with pytest.raises(InvalidParameterError, match="strictly"):
        QuantileTable(q=q, x=np.linspace(0.0, 1.0, 4))
    q = np.linspace(0.0, 1.0, 4)
    with pytest.raises(InvalidParameterError, match="nondecreasing"):
        QuantileTable(q=q, x=np.array([0.0, 1.0, 0.5, 2.0]))


def test_table_rejects_nonfinite():
    q = np.linspace(0.0, 1.0, 4)
    with pytest.raises(InvalidParameterError, match="finite"):
        QuantileTable(q=q, x=np.array([0.0, np.nan, 1.0, 2.0]))


# ---------------------------------------------------------------------------
# wasserstein: exact integrals of the interpolants
# ---------------------------------------------------------------------------

def test_wasserstein_zero_on_identical(theta1):
    p = theta1
    y = np.linspace(-p.r_alpha, p.r_alpha, 129)
    tab = pushforward_table(p, np.sinh(y))
    assert wasserstein(tab, tab, order=1) == 0.0
    assert wasserstein(tab, tab, order=2) == 0.0


def test_wasserstein_translation_exact(theta1):
    # shifting the quantile values by c moves the measure by c, and
    # d_1 = d_2 = |c| exactly for the interpolants
    p = theta1
    y = np.linspace(-p.r_alpha, p.r_alpha, 97)
    g = y + 0.3 * y ** 3
    for c in (0.25, -1.7):
        tu = pushforward_table(p, g)
        tv = pushforward_table(p, g + c)
        assert wasserstein(tu, tv, 1) == approx(abs(c), rel=1e-14)
        assert wasserstein(tu, tv, 2) == approx(abs(c), rel=1e-14)


def test_wasserstein_hand_values_sign_split():
    # du(q) = 2q - 1 on one cell: int |du| = 1/2, int du^2 = 1/3
    tu = QuantileTable(q=np.array([0.0, 1.0]), x=np.array([-1.0, 1.0]))
    tv = QuantileTable(q=np.array([0.0, 1.0]), x=np.array([0.0, 0.0]))
    assert wasserstein(tu, tv, 1) == approx(0.5, rel=1e-15)
    assert wasserstein(tu, tv, 2) == approx(1.0 / math.sqrt(3.0), rel=1e-15)
    # root at a node: du = (-1, 0, 1) piecewise on two half cells
    tu = QuantileTable(q=np.array([0.0, 0.5, 1.0]), x=np.array([0.0, 1.0, 2.0]))
    tv = QuantileTable(q=np.array([0.0, 0.5, 1.0]), x=np.array([1.0, 1.0, 1.0]))
    assert wasserstein(tu, tv, 1) == approx(0.5, rel=1e-15)
    assert wasserstein(tu, tv, 2) == approx(1.0 / math.sqrt(3.0), rel=1e-15)


def test_wasserstein_rejects_bad_order(theta1):
    p = theta1
    tab = pushforward_table(p, np.linspace(-1.0, 1.0, 16))
    with pytest.raises(InvalidParameterError, match="order"):
        wasserstein(tab, tab, order=3)
    with pytest.raises(InvalidParameterError, match="order"):
        wasserstein_maps(p, np.linspace(0, 1, 8), np.linspace(0, 1, 8),
                         order=0, y=np.linspace(-p.r_alpha, p.r_alpha, 8))


def test_maps_route_dilation_oracle(theta1):
    # pushforwards by y and (1+s)y differ by s*y, so d_2^2 = s^2 M2
    p = theta1
    y = np.linspace(-p.r_alpha, p.r_alpha, 4096)
    d2 = wasserstein_maps(p, y, 1.1 * y, order=2, y=y)
    assert d2 == approx(0.1 * math.sqrt(M2_THETA1), rel=1e-6)
    d1 = wasserstein_maps(p, y, 1.1 * y, order=1, y=y)
    # int |y| phi dy by high-resolution quadrature
    yy = np.linspace(-p.r_alpha, p.r_alpha, 200001)
    e_abs = np.trapezoid(np.abs(yy) * p.phi(yy), yy)
    assert d1 == approx(0.1 * e_abs, rel=1e-6)


def test_maps_route_validation(theta1):
    p = theta1
    y = np.linspace(-1.0, 1.0, 32)
    with pytest.raises(InvalidParameterError, match="share"):
        wasserstein_maps(p, y, y[:-1], y=y)
    bad = y.copy()
    bad[10] = bad[12]
    bad[11] = bad[12] + 1.0   # jump down afterwards
    bad[12] = bad[10]
    with pytest.raises(InvalidParameterError, match="nondecreasing"):
        wasserstein_maps(p, y, bad, y=y)


def test_stacked_distance_is_the_one_row_distance(theta1):
    # a stack of maps gives one distance per row, each the bits of the
    # one-row call and of the quantile formula sum wq |g - h|^p as written
    p = theta1
    y = np.linspace(-p.r_alpha, p.r_alpha, 257)
    rng = np.random.default_rng(3)
    a, c, b = (rng.uniform(lo, hi, (5, 1))
               for lo, hi in ((0.5, 2.0), (0.0, 0.5), (-1.0, 1.0)))
    g = b + a * y + c * y ** 3
    h = np.broadcast_to(y, g.shape)
    wq, gap = p.node_masses(y), np.abs(g - y)
    formula = {1: np.sum(wq * gap, axis=1),
               2: np.sqrt(np.sum(wq * gap * gap, axis=1))}
    for order in (1, 2):
        stacked = wasserstein_maps(p, g, h, order=order, y=y)
        rows = [wasserstein_maps(p, gk, y, order=order, y=y) for gk in g]
        assert isinstance(stacked, np.ndarray) and stacked.shape == (5,)
        assert all(isinstance(d, float) for d in rows)
        assert stacked.tobytes() == np.array(rows).tobytes()
        assert stacked.tobytes() == formula[order].tobytes()


def test_two_routes_agree_dilation(theta1):
    p = theta1
    y = np.linspace(-p.r_alpha, p.r_alpha, 4096)
    g, h = y, 1.1 * y
    for order, tol in ((1, 1e-12), (2, 1e-7)):
        wm = wasserstein_maps(p, g, h, order=order, y=y)
        wt = wasserstein(pushforward_table(p, g), pushforward_table(p, h),
                         order=order)
        assert abs(wm - wt) <= tol * (1.0 + wm)


@settings(max_examples=30, deadline=None)
@given(a1=st.floats(0.5, 2.0), c1=st.floats(0.0, 0.5), b1=st.floats(-1.0, 1.0),
       a2=st.floats(0.5, 2.0), c2=st.floats(0.0, 0.5), b2=st.floats(-1.0, 1.0))
def test_two_routes_agree_property(a1, c1, b1, a2, c2, b2):
    # monotone cubic pushforwards: the quantile-table distance equals
    # the Lagrangian integral up to the table discretization
    p = make_profile(1.0)
    y = np.linspace(-p.r_alpha, p.r_alpha, 4096)
    g = b1 + a1 * y + c1 * y ** 3
    h = b2 + a2 * y + c2 * y ** 3
    tu, tv = pushforward_table(p, g), pushforward_table(p, h)
    for order in (1, 2):
        wm = wasserstein_maps(p, g, h, order=order, y=y)
        wt = wasserstein(tu, tv, order=order)
        assert abs(wm - wt) <= 1e-6 * (1.0 + wm)


def test_triangle_inequality(theta1):
    p = theta1
    y = np.linspace(-p.r_alpha, p.r_alpha, 513)
    rng = np.random.default_rng(7)
    for _ in range(100):
        a, c = rng.uniform(0.5, 2.0, 3), rng.uniform(0.0, 0.5, 3)
        b = rng.uniform(-1.0, 1.0, 3)
        t0, t1, t2 = (pushforward_table(p, b[k] + a[k] * y + c[k] * y ** 3)
                      for k in range(3))
        for order in (1, 2):
            d02 = wasserstein(t0, t2, order)
            d01 = wasserstein(t0, t1, order)
            d12 = wasserstein(t1, t2, order)
            assert d02 <= d01 + d12 + 1e-12 * (1.0 + d02)


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------

def test_fit_power_exact():
    t = np.geomspace(1e-3, 1.0, 40)
    fit = fit_rate(t, 3.0 * t ** 0.4, kind="power")
    assert fit.exponent == approx(0.4, abs=1e-12)
    assert fit.log_prefactor == approx(math.log(3.0), abs=1e-12)
    assert fit.r_squared == 1.0
    assert fit.n_points == 40
    assert fit.window == approx((1e-3, 1.0), rel=1e-15)


def test_fit_exp_exact():
    tau = np.linspace(-7.0, -0.5, 41)
    fit = fit_rate(tau, 2.0 * np.exp(-0.7 * tau), kind="exp")
    assert fit.exponent == approx(-0.7, abs=1e-12)
    assert fit.log_prefactor == approx(math.log(2.0), abs=1e-12)
    assert fit.r_squared == 1.0


def test_fit_drops_nonfinite_points():
    t = np.geomspace(1e-3, 1.0, 30)
    v = 5.0 * t ** -0.25
    v[5] = np.nan        # dropped by the finite mask
    fit = fit_rate(t, v, kind="power")
    assert fit.exponent == approx(-0.25, abs=1e-12)
    assert fit.n_points == 29


def test_fit_noise_robust():
    rng = np.random.default_rng(1234)
    t = np.geomspace(1e-3, 1.0, 60)
    v = 3.0 * t ** 0.4 * np.exp(rng.normal(0.0, 0.01, t.size))
    fit = fit_rate(t, v, kind="power")
    assert fit.exponent == approx(0.4, abs=0.02)
    assert fit.r_squared > 0.99


def test_fit_constant_series_r2_clamp():
    t = np.geomspace(0.1, 1.0, 10)
    fit = fit_rate(t, np.full(10, 2.5), kind="power")
    assert fit.exponent == approx(0.0, abs=1e-14)
    assert fit.r_squared == 1.0


@pytest.mark.filterwarnings("error")
def test_fit_rejections():
    # each input is rejected before numpy could warn about it
    t = np.geomspace(1e-2, 1.0, 10)
    with pytest.raises(InvalidParameterError, match="nonpositive"):
        fit_rate(t, -np.ones(10))
    with pytest.raises(InvalidParameterError, match="too short"):
        fit_rate(t[:3], t[:3])
    with pytest.raises(InvalidParameterError, match="kind"):
        fit_rate(t, t, kind="loglog")
    with pytest.raises(InvalidParameterError, match="matching"):
        fit_rate(t, t[:-1])
    with pytest.raises(InvalidParameterError, match="positive abscissa"):
        fit_rate(np.arange(5.0), np.ones(5), kind="power")


# ---------------------------------------------------------------------------
# rate report on solved flows (frozen regression values)
# ---------------------------------------------------------------------------

def _rows(report):
    return {r["law"]: r for r in report["laws"]}


def test_report_scaling_laws_theta1(run_scaling, theta1):
    rep = rate_report(run_scaling, window=(1e-3, 0.25))
    rows = _rows(rep)
    assert rep["critical"] is False
    assert rep["flags"] == []
    assert set(rows) == {"support_radius", "m_inf", "m_power_norm",
                         "ux_inf", "osc_u"}
    expected = {"support_radius": 0.658743, "m_inf": -0.658743,
                "m_power_norm": -0.658743, "ux_inf": -0.327097,
                "osc_u": 0.331647}
    for law, val in expected.items():
        assert rows[law]["fitted_exponent"] == approx(val, abs=0.01)
        assert rows[law]["pass"] is True
        assert rows[law]["r2"] > 0.999


def test_report_default_window(run_scaling, theta1):
    rep = rate_report(run_scaling)
    g = run_scaling.grid
    assert rep["window"] == approx([10.0 * g.eps, g.T / 4.0], rel=1e-15)


def test_report_supercritical_theta3(run_rates3, theta3):
    # the exponential rows are dominated by the slowest deviation mode
    # (rate 1 - alpha = 0.6 for d2, twice that for H), which decays
    # faster than the one-sided bound exponents kappa / 2 kappa; the
    # report flags them as out of band, and these frozen values guard
    # that verdict
    rep = rate_report(run_rates3)
    rows = _rows(rep)
    assert rep["kappa"] == approx(0.2, abs=1e-12)
    assert set(rows) == {"support_radius", "m_inf", "m_power_norm",
                         "ux_inf", "osc_u", "lyapunov", "d2_profile",
                         "duality_pairing"}
    assert rows["support_radius"]["fitted_exponent"] == approx(0.393006, abs=0.01)
    assert rows["support_radius"]["pass"] is True
    assert rows["m_inf"]["pass"] is True
    assert rows["m_power_norm"]["fitted_exponent"] == approx(-1.179019, abs=0.03)
    assert rows["m_power_norm"]["pass"] is True
    assert rows["ux_inf"]["fitted_exponent"] == approx(-0.548683, abs=0.02)
    assert rows["ux_inf"]["pass"] is True
    assert rows["lyapunov"]["fitted_exponent"] == approx(1.267898, abs=0.05)
    assert rows["lyapunov"]["pass"] is False
    assert rows["d2_profile"]["fitted_exponent"] == approx(0.480371, abs=0.03)
    assert rows["d2_profile"]["pass"] is False
    assert rows["duality_pairing"]["fitted_exponent"] == approx(1.323819, abs=0.07)
    assert rows["duality_pairing"]["pass"] is False
    assert rows["osc_u"]["pass"] is False


def test_report_with_passed_products(run_rates3):
    # theta > 2 so the series branch runs; handing in the series must not
    # change a single entry
    f = run_rates3
    assert rate_report(f, series=build_series(f)) == rate_report(f)


def test_report_critical_theta2(run_critical, theta2):
    rep = rate_report(run_critical)
    rows = _rows(rep)
    assert rep["critical"] is True
    assert rep["kappa"] == 0.0
    assert "critical: kappa=0, no exponential fit" in rep["flags"]
    assert any("osc_u skipped" in s for s in rep["flags"])
    assert set(rows) == {"support_radius", "m_inf", "m_power_norm", "ux_inf"}
    for law, val in (("support_radius", 0.484900), ("m_inf", -0.484900),
                     ("m_power_norm", -0.969800), ("ux_inf", -0.484874)):
        assert rows[law]["fitted_exponent"] == approx(val, abs=0.01)
        assert rows[law]["pass"] is True


@pytest.mark.parametrize("run", ["run_scaling", "run_critical",
                                 "run_rates3"])
def test_report_rows_follow_the_law_order(run, request):
    # at theta 1, 2 and 3 the rows of a report are a subsequence of
    # `metrics.LAWS`, the column order of a sweep's summary
    laws = [r["law"] for r in rate_report(request.getfixturevalue(run))["laws"]]
    assert laws == [law for law in metrics.LAWS if law in laws]


def test_report_empty_window_rows_are_null(run_scaling, theta1):
    # a window holding fewer than four time nodes cannot be fitted;
    # the rows stay in the report with null entries and pass=False;
    # tests/test_cli.py checks that rates.json writes them as null
    rep = rate_report(run_scaling, window=(0.2, 0.201))
    for r in rep["laws"]:
        assert r["fitted_exponent"] is None
        assert r["log_prefactor"] is None
        assert r["pass"] is False


def test_report_exp_law_with_too_few_finite_values_is_null(theta3):
    # 11 of the 14 window rows of H are inf: H > 0 keeps all 14, the fit
    # has three finite points, and the row is null as a power law's would be
    p = theta3
    f = solve(p, power_bump(-1.0, 1.0, 3.0),
              make_grid(p, eps=1e-3, T=1.0, nt=32, ny=32))
    series = build_series(f)
    lo, hi = f.grid.t_resolved, f.grid.T / 4.0
    window = np.nonzero((series["tau"] >= math.log(lo))
                        & (series["tau"] <= math.log(hi)))[0]
    assert window.size == 14
    H = series["H"].copy()
    H[window[3:]] = np.inf
    clean = rate_report(f, series=series)["laws"]
    laws = rate_report(f, series={**series, "H": H})["laws"]
    assert [r["law"] for r in laws] == [r["law"] for r in clean]
    for r, ref in zip(laws, clean):
        if r["law"] == "lyapunov":
            assert ref["fitted_exponent"] is not None
            assert r["fitted_exponent"] is None and r["pass"] is False
        else:
            assert r == ref


@pytest.mark.parametrize("theta", [1.0, 3.0])
@pytest.mark.parametrize("window", [(0.0, 0.25), (-0.1, 0.25), (0.3, 0.2)])
def test_rate_report_rejects_a_window_outside_0_lo_hi(theta, window):
    # (0, 0.25) raised a bare math domain error at theta = 3, and at
    # theta = 1 fitted no power law, since the t = 0 row fails every one;
    # the message is the one `cli.RunConfig` gives for its fit_window
    p = make_profile(theta)
    f = solve(p, power_bump(-1.0, 1.0, theta),
              make_grid(p, eps=1e-3, T=1.0, nt=32, ny=32))
    with pytest.raises(InvalidParameterError) as exc:
        rate_report(f, window=window)
    assert str(exc.value) == (f"fit window must satisfy 0 < lo < hi, "
                              f"got {list(window)}")


# ---------------------------------------------------------------------------
# bulk per-row laws against the per-row loop
# ---------------------------------------------------------------------------

def per_row_laws(f, p, ubar, lo, hi):
    """sup m, int m^(theta+1), sup |u_x| and osc u, one time row at a time."""
    g = f.grid
    rows = [i for i in range(g.nt + 1) if lo <= g.t[i] <= hi]
    wq = p.node_masses(g.y)
    out = {k: np.empty(len(rows))
           for k in ("m_inf", "m_power_norm", "ux_inf", "osc_u")}
    for k, i in enumerate(rows):
        m_sup = p.phi(g.y) / np.gradient(f.gamma[i], g.y, edge_order=2)
        out["m_inf"][k] = m_sup.max()
        out["m_power_norm"][k] = np.sum(wq * m_sup ** p.theta)
        out["ux_inf"][k] = np.max(np.abs(
            np.gradient(ubar[i], f.gamma[i], edge_order=2)))
        out["osc_u"][k] = ubar[i].max() - ubar[i].min()
    return g.t[rows], out


def test_rate_report_matches_per_row_loop(solved64, monkeypatch):
    p, f = solved64
    g = f.grid
    ubar = F.value_on_support(f)
    fitted = []                        # (abscissa, values) of each power fit

    def recording_fit(abscissa, values, kind="power"):
        if kind == "power":
            fitted.append((abscissa, values))
        return fit_rate(abscissa, values, kind=kind)

    monkeypatch.setattr(metrics, "fit_rate", recording_fit)
    rep = rate_report(f)
    t, ref = per_row_laws(f, p, ubar, 10.0 * g.eps, g.T / 4.0)
    laws = {r["law"]: r for r in rep["laws"]}
    # power fits run in the order support_radius, m_inf, m_power_norm,
    # ux_inf, osc_u
    for (abscissa, vals), law in zip(fitted[1:], ref):
        assert np.array_equal(abscissa, t)
        assert np.max(np.abs(vals - ref[law])) \
            <= 1e-13 * np.max(np.abs(ref[law])), law
        fit = fit_rate(t, ref[law], kind="power")
        theo = laws[law]["theoretical_exponent"]
        assert laws[law]["pass"] == (abs(fit.exponent - theo)
                                     <= 0.10 * abs(theo)), law
    assert len(fitted) == 5
