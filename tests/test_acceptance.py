"""Acceptance gate: one test per criterion, at the stated tolerances.

Every test prints as its own pass/fail line; the configurations are the
frozen ones from the module suites.  The three exponent-equality checks
of criterion 3 are implemented verbatim and are expected to fail: the
measured decay of the transport gap and of the Lyapunov functional is
governed by the slowest stable deviation mode of the linearized
rescaled flow (rates 1 - alpha = 0.6 and 2(1 - alpha) = 1.2 at
theta = 3, shifted to ~0.48 and ~1.27 by the eps time-shift mode).
That is strictly faster than the one-sided comparison exponents
kappa = 0.2 and 2 kappa = 0.4 those sub-checks pin, so no honest run
can fit them.  The underlying inequality certificates (H bounded below
by the eps floor and nondecreasing, duality pairing nonpositive on the
resolved window) do hold and are asserted here and in test_rescale.
"""

import time

import numpy as np
import pytest

from dirac_mfp import fields as F
from dirac_mfp import rescale as RS
from dirac_mfp.errors import UnsupportedParameterError
from dirac_mfp.metrics import rate_report, wasserstein_maps
from dirac_mfp.profile import make_profile
from dirac_mfp.solver import FlowField, make_grid, solve
from dirac_mfp.target import power_bump, self_similar_terminal

from oracles import hj_residuals


@pytest.fixture(scope="module")
def p1():
    return make_profile(1.0)


@pytest.fixture(scope="module")
def p2():
    return make_profile(2.0)


@pytest.fixture(scope="module")
def p3():
    return make_profile(3.0)


@pytest.fixture(scope="module")
def oracle64(p1):
    g = make_grid(p1, eps=1e-3, T=1.0, nt=64, ny=64)
    m = self_similar_terminal(p1, 1.0, 1e-3)
    start = time.perf_counter()
    f = solve(p1, m, g)
    return f, time.perf_counter() - start


@pytest.fixture(scope="module")
def oracle128(p1):
    g = make_grid(p1, eps=1e-3, T=1.0, nt=128, ny=128)
    return solve(p1, self_similar_terminal(p1, 1.0, 1e-3), g)


@pytest.fixture(scope="module")
def run_scaling(p1):
    # bump(-1, 1) is the self-similar slice at T = R^(-1/alpha), so the
    # scaling window holds no terminal-datum transient
    T = p1.r_alpha ** (-1.0 / p1.alpha)
    g = make_grid(p1, eps=1e-4, T=T, nt=128, ny=128)
    return solve(p1, power_bump(-1.0, 1.0, 1.0), g)


@pytest.fixture(scope="module")
def run_super(p3):
    g = make_grid(p3, eps=1e-4, T=1.0, nt=128, ny=128)
    return solve(p3, power_bump(-0.6, 1.4, 3.0), g)


@pytest.fixture(scope="module")
def run_conserve(p1):
    g = make_grid(p1, eps=1e-2, T=1.0, nt=128, ny=128)
    return solve(p1, power_bump(-1.0, 1.0, 1.0), g)


@pytest.fixture(scope="module")
def run_ident3(p3):
    g = make_grid(p3, eps=1e-2, T=1.0, nt=128, ny=128)
    return solve(p3, power_bump(-0.6, 1.4, 3.0), g)


@pytest.fixture(scope="module")
def eps_family(p1, run_conserve):
    flows = {1e-2: run_conserve}
    for eps in (1e-3, 1e-4):
        g = make_grid(p1, eps=eps, T=1.0, nt=128, ny=128)
        flows[eps] = solve(p1, power_bump(-1.0, 1.0, 1.0), g)
    return flows


@pytest.fixture(scope="module")
def oracle2_64(p2):
    g = make_grid(p2, eps=1e-3, T=1.0, nt=64, ny=64)
    return solve(p2, self_similar_terminal(p2, 1.0, 1e-3), g)


def _sup_gamma_error(f) -> float:
    g = f.grid
    ref = (g.t[:, None] + g.eps) ** f.profile.alpha * g.y[None, :]
    return float(np.max(np.abs(f.gamma - ref)))


def _gamma_at(f, t_star: float) -> np.ndarray:
    t = f.grid.t
    i = int(np.clip(np.searchsorted(t, t_star), 1, t.size - 1))
    lam = (t_star - t[i - 1]) / (t[i] - t[i - 1])
    return (1.0 - lam) * f.gamma[i - 1] + lam * f.gamma[i]


def test_criterion_1_analytic_oracle(oracle64, oracle128):
    f64, seconds = oracle64
    bound = 1e-4 * (1.0 + 1e-3) ** f64.profile.alpha
    e64 = _sup_gamma_error(f64)
    e128 = _sup_gamma_error(oracle128)
    assert e64 <= bound, f"sup flow error {e64:.3e} exceeds {bound:.3e}"
    assert 3.0 * e128 <= e64, \
        f"refinement gain {e64 / e128:.2f}x below 3x (e64={e64:.3e}, e128={e128:.3e})"
    assert seconds <= 30.0, f"64x64 solve took {seconds:.1f}s"


def test_criterion_2_exponent_reproduction(run_scaling, p1):
    rep = rate_report(run_scaling, window=(1e-3, 0.25))
    rows = {r["law"]: r["fitted_exponent"] for r in rep["laws"]}
    a = p1.alpha
    assert abs(rows["support_radius"] - a) <= 0.10 * a, \
        f"support-radius exponent {rows['support_radius']:.4f} outside {a:.4f} +/- 10%"
    assert abs(rows["m_inf"] + a) <= 0.10 * a, \
        f"sup-density exponent {rows['m_inf']:.4f} outside {-a:.4f} +/- 10%"
    osc = 2.0 * a - 1.0
    assert abs(rows["osc_u"] - osc) <= 0.15 * osc, \
        f"osc-u exponent {rows['osc_u']:.4f} outside {osc:.4f} +/- 15%"


def test_criterion_3_supercritical_rates(run_super, p3):
    rep = rate_report(run_super)
    rows = {r["law"]: r["fitted_exponent"] for r in rep["laws"]}
    s = RS.build_series(run_super)

    # duality pairing nonpositive once the eps time-shift envelope is
    # below the fitting tolerance (the resolved window)
    t = np.exp(s["tau"])
    q = run_super.grid.eps / t
    b = p3.alpha * q / (1.0 + q)
    lam = (1.0 + q) ** p3.alpha
    env = 0.5 * b * (lam * lam - 1.0) * p3.second_moment()
    resolved = env <= 1e-5
    du = s["duality_pairing"]
    failures = []
    if not (resolved.sum() > 40 and np.all(du[resolved] <= 1e-8)):
        failures.append(
            f"duality pairing not nonpositive on the resolved window "
            f"(max {np.max(du[resolved]):.3e} over {resolved.sum()} rows)")

    kappa = p3.kappa
    checks = [
        ("d2", rows["d2_profile"], kappa, 0.10),
        ("H", rows["lyapunov"], 2.0 * kappa, 0.15),
        ("|duality|", rows["duality_pairing"], 2.0 * kappa, 0.20),
    ]
    for name, fitted, theo, band in checks:
        if abs(fitted - theo) > band * theo:
            failures.append(
                f"{name} exponent fitted {fitted:.4f} outside "
                f"{theo:.2f} +/- {band:.0%} (decay runs at the slowest "
                f"deviation-mode rate, not the one-sided bound rate)")
    assert not failures, "; ".join(failures)


def test_criterion_4_lyapunov_identity(run_conserve, run_ident3, p1, p3):
    for f, p in ((run_conserve, p1), (run_ident3, p3)):
        s = RS.build_series(f)
        rel = np.abs(s["dH_fd"][1:-1] - s["dH_identity"][1:-1]) \
            / np.abs(s["dH_identity"][1:-1])
        frac = float(np.mean(rel <= 0.05))
        assert frac >= 0.90, \
            f"theta={p.theta:g}: dH identity holds at {frac:.0%} of interior nodes"


def test_criterion_5_conservation_and_residuals(run_conserve, p1):
    interior, exterior = hj_residuals(run_conserve)
    hj_in = float(np.nanmax(np.abs(interior)))
    assert hj_in <= 5e-3, f"interior HJ residual {hj_in:.2e}"
    hj_ex = float(np.nanmax(np.abs(exterior)))
    assert hj_ex <= 5e-3, f"exterior HJ residual {hj_ex:.2e}"


def test_criterion_6_eps_self_convergence(eps_family, p1):
    ladder = [1e-2, 1e-3, 1e-4]
    y = eps_family[1e-2].grid.y
    for t_star in (0.05, 0.1, 0.5):
        gaps = []
        for ea, eb in zip(ladder, ladder[1:]):
            gaps.append(wasserstein_maps(
                p1, _gamma_at(eps_family[ea], t_star),
                _gamma_at(eps_family[eb], t_star), order=1, y=y))
        assert gaps[0] > gaps[1] > 0.0, \
            f"d1 ladder not decreasing at t={t_star}: {gaps}"


def test_criterion_7_structural_signs(run_super, p3):
    ddg = F.boundary_curvature(run_super)
    inner = slice(1, run_super.grid.nt)
    assert np.all(ddg[inner, 0] > 0.0), "left boundary not convex"
    assert np.all(ddg[inner, 1] < 0.0), "right boundary not concave"

    # identity map is an exact steady state of the rescaled flow equation
    g = run_super.grid
    ident = FlowField(grid=g, profile=p3,
                      gamma=g.t[:, None] ** p3.alpha * g.y[None, :])
    _, res = RS.hat_gamma_residual(ident)
    assert float(np.max(np.abs(res))) <= 1e-12

    s = RS.build_series(run_super)
    ratio = float(s["recip_integral"].max() / s["recip_integral"].min())
    assert ratio <= 2.0, f"reciprocal integral varies {ratio:.3f}x"


def test_criterion_8_criticality_flagging(oracle2_64, p2):
    # run completes and matches the analytic density flow
    bound = 1e-4 * (1.0 + 1e-3) ** p2.alpha
    e64 = _sup_gamma_error(oracle2_64)
    assert e64 <= bound, f"theta=2 flow error {e64:.3e} exceeds {bound:.3e}"

    rep = rate_report(oracle2_64)
    assert rep["critical"] is True
    assert rep["kappa"] == 0.0
    laws = {r["law"] for r in rep["laws"]}
    assert laws.isdisjoint({"lyapunov", "d2_profile", "duality_pairing"})
    assert any("critical" in s for s in rep["flags"])

    # the value-function oracle is deliberately unavailable at theta = 2
    with pytest.raises(UnsupportedParameterError):
        p2.self_similar_value(0.5, 0.0)
