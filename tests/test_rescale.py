"""Rescaled-frame diagnostics: mu/w reconstruction, Lyapunov functional,
duality pairing, reciprocal integral, map residuals and series assembly.

Manufactured oracle: the eps-shifted self-similar field.  In the frame
anchored at t it appears as the dilated profile mu = phi_lam with
lam = (1+eps/t)^alpha and the linear velocity w_eta = b eta, b = alpha
eps/(t+eps), so every certificate below has a closed form.  The frozen
constants were cross-checked against 2d adaptive quadrature before
being inlined here; discrete tolerances carry a factor 2-3 margin over
measured values at the stated resolutions.
"""

from dataclasses import replace

import numpy as np
import pytest

from dirac_mfp import errors
from dirac_mfp import fields as F
from dirac_mfp import rescale as RS
from dirac_mfp.profile import make_profile
from dirac_mfp.solver import FlowField, make_grid, solve
from dirac_mfp.target import power_bump


def analytic_flow(p, grid):
    gamma = (grid.t[:, None] + grid.eps) ** p.alpha * grid.y[None, :]
    return FlowField(grid=grid, profile=p, gamma=gamma)


def closed_form_H(p, t, eps):
    # Lyapunov value of the eps-shifted field in the t-anchored frame
    q = eps / t
    lam = (1.0 + q) ** p.alpha
    b = p.alpha * q / (1.0 + q)
    m2 = p.second_moment()
    iphi = p.cell_masses([-p.r_alpha, p.r_alpha], p.theta + 1.0)[0]
    return (0.5 * b * b * lam * lam * m2
            - lam ** (-p.theta) * iphi / (p.theta + 1.0)
            - p.c * lam * lam * m2
            - p.theta * iphi / (p.theta + 1.0)
            + p.c * p.r_alpha ** 2)


def shifted_state(p, ny, t, eps, n_pad=8):
    """Manufactured RescaledState for the eps-shifted field (no solver)."""
    q = eps / t
    lam = (1.0 + q) ** p.alpha
    b = p.alpha * q / (1.0 + q)
    y = np.linspace(-p.r_alpha, p.r_alpha, ny + 1)
    sup = lam * y
    h = sup[1] - sup[0]
    left = sup[0] - h * np.arange(n_pad, 0, -1)
    right = sup[-1] + h * np.arange(1, n_pad + 1)
    eta = np.concatenate([left, sup, right])
    mu = np.zeros_like(eta)
    mu[n_pad:n_pad + ny + 1] = p.phi(y) / lam
    w = 0.5 * b * eta ** 2
    w_eta = b * eta
    return RS.RescaledState(tau=np.log(t), eta_nodes=eta, mu=mu, w=w,
                            w_eta=w_eta, y_nodes=y, n_pad=n_pad)


def identity_state(p, ny):
    return shifted_state(p, ny, t=1.0, eps=0.0)


@pytest.fixture(scope="module")
def theta1():
    return make_profile(1.0)


@pytest.fixture(scope="module")
def theta3():
    return make_profile(3.0)


@pytest.fixture(scope="module")
def analytic128(theta1):
    g = make_grid(theta1, eps=1e-3, T=1.0, nt=128, ny=128)
    return analytic_flow(theta1, g)


@pytest.fixture(scope="module")
def solved128(theta1):
    # conservation-run configuration; also the theta<2 certificate run
    g = make_grid(theta1, eps=1e-2, T=1.0, nt=128, ny=128)
    return solve(theta1, power_bump(-1.0, 1.0, 1.0), g)


@pytest.fixture(scope="module")
def run_rates(theta3):
    # supercritical diagnostics run: asymmetric datum so the slowest
    # deviation mode (rate 1-alpha) carries a clean signal
    g = make_grid(theta3, eps=1e-4, T=1.0, nt=128, ny=128)
    return solve(theta3, power_bump(-0.6, 1.4, 3.0), g)


@pytest.fixture(scope="module")
def run_identity(theta3):
    # dH/dtau identity run: larger eps keeps the diagnostic window away
    # from the region where both sides of the identity are tiny
    g = make_grid(theta3, eps=1e-2, T=1.0, nt=128, ny=128)
    return solve(theta3, power_bump(-0.6, 1.4, 3.0), g)


# ---------------------------------------------------------------------------
# rescale_snapshot
# ---------------------------------------------------------------------------

def test_rescale_snapshot_rejects_t_zero(theta1, analytic128):
    s = F.snapshot(analytic128, 0)
    assert s.t == 0.0
    with pytest.raises(errors.InvalidParameterError):
        RS.rescale_snapshot(s, theta1)
    # a stack is rejected when any of its slices is at t = 0
    stack = F.snapshot(analytic128, [40, 0, 80])
    assert stack.t[1] == 0.0
    with pytest.raises(errors.InvalidParameterError):
        RS.rescale_snapshot(stack, theta1)


def test_mu_matches_dilated_profile(theta1, analytic128):
    # eps-shifted field: mu(eta) = phi(eta/lam)/lam with lam=(1+eps/t)^alpha
    f = analytic128
    g = f.grid
    for i in (40, 80, g.nt):
        st = RS.rescale_snapshot(F.snapshot(f, i), theta1)
        lam = (1.0 + g.eps / g.t[i]) ** theta1.alpha
        ref = theta1.phi(st.eta_nodes / lam) / lam
        assert np.max(np.abs(st.mu - ref)) < 1e-12
        assert st.tau == pytest.approx(np.log(g.t[i]), abs=1e-15)


def test_w_eta_interior_accuracy(theta1, analytic128):
    # w is C^1 across the free boundary, so the difference stencil loses
    # an order at the two support endpoints; interior nodes are clean
    f = analytic128
    g = f.grid
    worst = 0.0
    for i in range(g.nt + 1):
        t = g.t[i]
        if t < 0.25:
            continue
        st = RS.rescale_snapshot(F.snapshot(f, i), theta1)
        b = theta1.alpha * g.eps / (t + g.eps)
        err = np.abs(st.w_eta[st.support] - b * st.gamma_hat)
        worst = max(worst, err[2:-2].max())
    assert worst < 4e-3


# ---------------------------------------------------------------------------
# lyapunov / dissipation
# ---------------------------------------------------------------------------

def test_lyapunov_zero_at_fixed_point():
    # matched phi-moment quadrature: the discrete stationary state is an
    # exact zero, not merely an O(h^2) one
    for theta in (1.0, 2.0, 3.0):
        p = make_profile(theta)
        st = identity_state(p, 64)
        assert abs(RS.lyapunov(st, p)) < 1e-13


def test_closed_form_H_frozen_values(theta1, theta3):
    # guards the helper itself (values from independent 2d quadrature)
    assert closed_form_H(theta1, 0.01, 1e-3) == pytest.approx(
        5.06989321043e-4, rel=1e-9)
    assert closed_form_H(theta1, 0.05, 1e-3) == pytest.approx(
        2.09795297004e-5, rel=1e-9)
    assert closed_form_H(theta1, 1.0, 1e-2) == pytest.approx(
        5.26796573153e-6, rel=1e-9)
    assert closed_form_H(theta3, 0.01, 1e-3) == pytest.approx(
        -5.05408708805e-5, rel=1e-9)


def test_lyapunov_matches_closed_form():
    for theta, tol64 in ((1.0, 1e-5), (3.0, 4e-6)):
        p = make_profile(theta)
        for t, eps in ((0.01, 1e-3), (0.05, 1e-3)):
            ref = closed_form_H(p, t, eps)
            e64 = abs(RS.lyapunov(shifted_state(p, 64, t, eps), p) - ref)
            e128 = abs(RS.lyapunov(shifted_state(p, 128, t, eps), p) - ref)
            assert e64 < tol64
            assert e64 / max(e128, 1e-16) > 3.0  # second-order trend


def test_lyapunov_on_analytic_flow(theta1):
    # end-to-end: snapshot -> rescale -> H against the closed form
    for ny, tol in ((64, 1e-4), (128, 2e-5)):
        g = make_grid(theta1, eps=1e-3, T=1.0, nt=ny, ny=ny)
        f = analytic_flow(theta1, g)
        worst = 0.0
        for i in range(g.nt + 1):
            t = g.t[i]
            if t < 0.1:
                continue
            st = RS.rescale_snapshot(F.snapshot(f, i), theta1)
            worst = max(worst, abs(RS.lyapunov(st, theta1)
                                   - closed_form_H(theta1, t, g.eps)))
        assert worst < tol


def test_dissipation_closed_form(theta1, theta3):
    # integral of mu |w_eta|^2 for the shifted field: b^2 lam^2 M2
    for p in (theta1, theta3):
        m2 = p.second_moment()
        for t, eps in ((0.01, 1e-3), (1.0, 1e-2)):
            q = eps / t
            lam = (1.0 + q) ** p.alpha
            b = p.alpha * q / (1.0 + q)
            st = shifted_state(p, 128, t, eps)
            # relative error equals the second-moment quadrature defect,
            # about 1e-4 at this resolution
            assert RS.dissipation(st, p) == pytest.approx(
                b * b * lam * lam * m2, rel=5e-4, abs=1e-14)


# ---------------------------------------------------------------------------
# duality pairing
# ---------------------------------------------------------------------------

def test_duality_zero_at_fixed_point(theta1, theta3):
    for p in (theta1, theta3):
        assert RS.duality_pairing(identity_state(p, 64), p) == 0.0


def test_duality_dilated_state_quadrature_bound(theta1):
    # w quadratic, gamma_hat = lam y: exact pairing is 0.35(lam^2-1)M2;
    # piecewise-linear interpolation of w contributes at most wpp h^2/8
    p = theta1
    m2 = p.second_moment()
    # lam < 1 puts the labels outside the support; the 8 pads at lam = 0.92
    # reach 1.15 r_alpha, past every label, so w is interpolated either way
    for lam in (1.08, 0.92):
        y = np.linspace(-p.r_alpha, p.r_alpha, 65)
        sup = lam * y
        h = sup[1] - sup[0]
        pad = 8
        eta = np.concatenate([sup[0] - h * np.arange(pad, 0, -1), sup,
                              sup[-1] + h * np.arange(1, pad + 1)])
        mu = np.zeros_like(eta)
        mu[pad:pad + 65] = p.phi(y) / lam
        w = 0.2 + 0.35 * eta ** 2
        st = RS.RescaledState(tau=0.0, eta_nodes=eta, mu=mu, w=w,
                              w_eta=0.7 * eta, y_nodes=y, n_pad=pad)
        assert np.array_equal(st.gamma_hat, sup)
        exact = 0.35 * (lam * lam - 1.0) * m2
        got = RS.duality_pairing(st, p)
        assert abs(got - exact) <= 1.5 * 0.7 * h * h / 8.0


# ---------------------------------------------------------------------------
# reciprocal integral
# ---------------------------------------------------------------------------

def test_reciprocal_identity_state(theta3):
    p = theta3
    ref = p.cell_masses([-p.r_alpha, p.r_alpha], 1.0 - p.theta)[0]
    got = RS.reciprocal_integral(identity_state(p, 96), p)
    assert got == pytest.approx(ref, rel=1e-12)


def test_reciprocal_dilated_state(theta3):
    # gamma_hat = lam y has constant slope: integral scales by lam^theta
    p = theta3
    lam = 1.17
    st = shifted_state(p, 96, t=1.0, eps=lam ** (1.0 / p.alpha) - 1.0)
    ref = lam ** p.theta * p.cell_masses([-p.r_alpha, p.r_alpha],
                                         1.0 - p.theta)[0]
    assert RS.reciprocal_integral(st, p) == pytest.approx(ref, rel=1e-12)


def test_reciprocal_rejects_nonmonotone(theta3):
    p = theta3
    st = identity_state(p, 48)
    bad = st.eta_nodes.copy()
    j = st.n_pad + 10           # the support nodes 10 and 11
    bad[j], bad[j + 1] = bad[j + 1], bad[j]
    with pytest.raises(errors.DegenerateStateError):
        RS.reciprocal_integral(replace(st, eta_nodes=bad), p)


# ---------------------------------------------------------------------------
# residuals of the map equations
# ---------------------------------------------------------------------------

def test_hat_gamma_residual_identity_map(theta1, theta3):
    # gamma = t^alpha y is a steady state of the rescaled map equation
    for p in (theta1, theta3):
        g = make_grid(p, eps=1e-3, T=1.0, nt=48, ny=48)
        f = FlowField(grid=g, profile=p,
                      gamma=g.t[:, None] ** p.alpha * g.y[None, :])
        tau, res = RS.hat_gamma_residual(f)
        assert np.max(np.abs(res)) < 1e-12


def test_hat_gamma_residual_truncation_decay(theta1):
    # the eps-shifted field satisfies the equation exactly, so the
    # discrete residual is pure truncation; restrict to t >= 10 eps
    # (below that the residual measures the eps artifact, not the grid)
    sups = {}
    for ny in (64, 128):
        g = make_grid(theta1, eps=1e-3, T=1.0, nt=ny, ny=ny)
        f = analytic_flow(theta1, g)
        tau, res = RS.hat_gamma_residual(f)
        keep = np.exp(tau) >= 10.0 * g.eps
        sups[ny] = np.max(np.abs(res[keep]))
    assert sups[64] < 1.2e-4
    assert sups[64] / sups[128] > 3.0


# ---------------------------------------------------------------------------
# series assembly
# ---------------------------------------------------------------------------

def test_series_certificates_subcritical(theta1, solved128):
    # theta < 2: H decreasing, eventually negative; deviation grows in tau
    s = RS.build_series(solved128)
    H = s["H"]
    assert np.all(np.diff(H) < 0.0)
    assert H[0] < 6e-3
    assert H[-1] < -1e-2
    rel = np.abs(s["dH_fd"][1:-1] - s["dH_identity"][1:-1]) \
        / np.abs(s["dH_identity"][1:-1])
    assert np.mean(rel <= 0.05) >= 0.95
    assert s["recip_integral"].max() / s["recip_integral"].min() <= 2.0
    assert np.all(s["duality_pairing"] <= 1e-8)
    d2 = s["d2"]
    assert np.mean(np.diff(d2) > 0) >= 0.95
    assert np.all(s["supp_left"] < 0) and np.all(s["supp_right"] > 0)


def test_series_certificates_supercritical(theta3, run_rates):
    # theta > 2: H nonnegative up to the eps-dilation floor, nondecreasing
    # up to quadrature noise; duality nonpositive once the floor decays
    p = theta3
    s = RS.build_series(run_rates)
    t = np.exp(s["tau"])
    q = run_rates.grid.eps / t
    lam = (1.0 + q) ** p.alpha
    floor = np.abs([closed_form_H(p, ti, run_rates.grid.eps) for ti in t])
    H = s["H"]
    assert np.all(H + 1.5 * floor + 1e-5 >= 0.0)
    assert np.min(np.diff(H)) > -5e-6
    # duality: the shifted field contributes +b(lam^2-1)M2/2 > 0, which
    # masks the sign only while that envelope exceeds quadrature noise
    b = p.alpha * q / (1.0 + q)
    env = 0.5 * b * (lam * lam - 1.0) * p.second_moment()
    du = s["duality_pairing"]
    assert np.all(du - 1.5 * env - 1e-5 <= 0.0)
    resolved = env <= 1e-5
    assert resolved.sum() > 40
    assert np.all(du[resolved] < 0.0)
    assert s["recip_integral"].max() / s["recip_integral"].min() <= 2.0


def test_series_deviation_mode_rates(theta3, run_rates):
    # where the eps floor is negligible the transport gap grows at the
    # slowest deviation-mode rate 1-alpha (asymmetric datum), and H at
    # twice that; regression guard on the measured windows
    p = theta3
    s = RS.build_series(run_rates)
    tau = s["tau"]
    t = np.exp(tau)
    win = (t >= 0.02) & (t <= 0.25)
    slope_d2 = np.polyfit(tau[win], np.log(s["d2"][win]), 1)[0]
    assert slope_d2 == pytest.approx(1.0 - p.alpha, rel=0.08)
    slope_H = np.polyfit(tau[win], np.log(s["H"][win]), 1)[0]
    assert slope_H == pytest.approx(2.0 * (1.0 - p.alpha), rel=0.08)


def test_series_dh_identity_supercritical(theta3, run_identity):
    s = RS.build_series(run_identity)
    assert np.all(s["H"] > 0.0)
    assert np.min(np.diff(s["H"])) > -5e-5
    rel = np.abs(s["dH_fd"][1:-1] - s["dH_identity"][1:-1]) \
        / np.abs(s["dH_identity"][1:-1])
    assert np.mean(rel <= 0.05) >= 0.95
    assert np.median(rel) < 5e-3


def test_series_needs_rows(theta1):
    # t_resolved = 10 eps = 0.99 leaves only the terminal row
    f = analytic_flow(theta1, make_grid(theta1, eps=0.099, T=1.0, nt=16, ny=16))
    with pytest.raises(errors.InvalidParameterError, match="fewer than four"):
        RS.build_series(f)


# ---------------------------------------------------------------------------
# bulk series against a per-row reference
# ---------------------------------------------------------------------------

def per_row_series(f, p):
    """The series slice by slice: snapshot -> rescale_snapshot -> the
    per-slice functionals, on build_series' rows, padded with 8 ny nodes
    per side: past every label of these flows, as build_series pads."""
    g = f.grid
    keep = np.nonzero((g.t >= 10.0 * g.eps) & (g.t > 0.0))[0]
    wq = p.node_masses(g.y)
    cols = {k: np.empty(keep.size) for k in RS.SERIES_COLUMNS}
    diss = np.empty(keep.size)
    for n, i in enumerate(keep):
        st = RS.rescale_snapshot(
            F.snapshot(f, int(i), n_pad=8 * g.ny), p)
        gap = st.gamma_hat - g.y
        w_sup = st.w[st.support]
        cols["tau"][n] = st.tau
        cols["H"][n] = RS.lyapunov(st, p)
        diss[n] = RS.dissipation(st, p)
        cols["d1"][n] = np.sum(wq * np.abs(gap))
        cols["d2"][n] = np.sqrt(np.sum(wq * gap * gap))
        cols["mu_max"][n] = st.mu.max()
        cols["osc_w"][n] = w_sup.max() - w_sup.min()
        cols["supp_left"][n] = st.gamma_hat[0]
        cols["supp_right"][n] = st.gamma_hat[-1]
        cols["recip_integral"][n] = RS.reciprocal_integral(st, p)
        cols["duality_pairing"][n] = RS.duality_pairing(st, p)
    cols["dH_fd"] = np.gradient(cols["H"], cols["tau"], edge_order=2)
    cols["dH_identity"] = -(2.0 * p.alpha - 1.0) * diss
    return cols


def test_series_matches_per_row_reference(solved64):
    p, f = solved64
    got = RS.build_series(f)
    ref = per_row_series(f, p)
    for k in RS.SERIES_COLUMNS:
        assert got[k].shape == ref[k].shape
        scale = np.max(np.abs(ref[k]))
        assert np.max(np.abs(got[k] - ref[k])) <= 1e-13 * scale, k


# (a, b, theta, n): at eps 1e-3 some labels of each of these flows lie past
# ny pad nodes, where w would have to be extrapolated (linearly, it was up
# to 14 % off in the duality pairing at theta = 0.25)
FAR_LABELS = [(-0.3, 0.3, 0.25, 128), (-0.3, 0.3, 1.0, 64),
              (-0.3, 0.3, 3.0, 128), (-1.0, 1.0, 0.25, 128)]


@pytest.mark.parametrize("a, b, theta, n", FAR_LABELS)
def test_duality_pairing_pads_past_the_labels(a, b, theta, n):
    p = make_profile(theta)
    f = solve(p, power_bump(a, b, theta),
              make_grid(p, eps=1e-3, T=1.0, nt=n, ny=n))
    keep, _ = RS.series_rows(f.grid)

    def pairing(n_pad):
        return RS.duality_pairing(
            RS.rescale_snapshot(F.snapshot(f, keep, n_pad=n_pad), p), p)

    with pytest.raises(errors.InvalidParameterError, match="past the labels"):
        pairing(n)
    wide = pairing(8 * n)
    assert RS.build_series(f)["duality_pairing"].tobytes() == wide.tobytes()
