"""Field reconstruction tests: density, velocity, value, extension,
boundary curvature and the Hamilton-Jacobi residuals.

Analytic oracles come from the self-similar solution: on the exact flow
map gamma = (t+eps)^alpha y the density is exact by construction and the
value/velocity errors are pure quadrature, so their tolerances are
frozen from the time-step analysis (relative truncation ~ dtau^2) with a
factor-two margin.  Residual diagnostics run on solved 128x128 fields.
"""

import numpy as np
import pytest

from dirac_mfp import errors
from dirac_mfp import fields as F
from dirac_mfp.profile import make_profile
from dirac_mfp.solver import (
    FlowField,
    initial_guess,
    make_grid,
    scaled_gradient_norm,
    solve,
)
from dirac_mfp.target import load_csv, power_bump, self_similar_terminal

from conftest import write_two_bump_csv


def analytic_flow(p, grid):
    gamma = (grid.t[:, None] + grid.eps) ** p.alpha * grid.y[None, :]
    return FlowField(grid=grid, profile=p, gamma=gamma)


@pytest.fixture(scope="module")
def theta1():
    return make_profile(1.0)


@pytest.fixture(scope="module")
def selfsim64(theta1):
    g = make_grid(theta1, eps=1e-3, T=1.0, nt=64, ny=64)
    return analytic_flow(theta1, g)


@pytest.fixture(scope="module")
def solved128(theta1):
    # run configuration of acceptance criterion 5: theta=1,
    # 128x128, eps large enough that dtau^2 sigma^(2a-2) stays below the
    # residual tolerances on the whole diagnostic window
    g = make_grid(theta1, eps=1e-2, T=1.0, nt=128, ny=128)
    m = power_bump(-1.0, 1.0, 1.0)
    return solve(theta1, m, g), m


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------

def test_density_exact_on_self_similar_flow(theta1, selfsim64):
    p, f = theta1, selfsim64
    g = f.grid
    for i in (0, 17, 40, g.nt):
        x, m = f.gamma[i], f.density[i]
        sig = g.t[i] + g.eps
        ref = sig ** (-p.alpha) * p.phi(sig ** (-p.alpha) * x)
        # the flow is linear in y, so centered slopes are exact
        assert np.max(np.abs(m - ref)) < 1e-12
        assert m[0] == 0.0 and m[-1] == 0.0
        assert np.all(m[1:-1] > 0)


def test_density_sup_envelope(solved128):
    f, _ = solved128
    p, g = f.profile, f.grid
    sup = f.density.max(axis=1)
    env = sup * (g.t + g.eps) ** p.alpha
    # profile controls the early slices, the target the late ones; the
    # envelope must not exceed either regime in between
    assert env.max() < 1.5 * max(env[0], env[-1])


def test_density_degenerate_slope_raises(theta1):
    g = make_grid(theta1, eps=1e-3, T=1.0, nt=8, ny=8)
    f = analytic_flow(theta1, g)
    gamma = f.gamma.copy()
    gamma[3] = gamma[3, ::-1]           # folded slice
    bad = FlowField(grid=g, profile=theta1, gamma=gamma)
    with pytest.raises(errors.DegenerateStateError):
        bad.density


# ---------------------------------------------------------------------------
# velocity
# ---------------------------------------------------------------------------

def test_velocity_oracle_on_self_similar_flow(theta1, selfsim64):
    p, f = theta1, selfsim64
    g = f.grid
    sig = g.sigma
    err = []
    for i in range(g.nt + 1):
        if g.t[i] < 0.1:
            continue
        ux = -f.gamma_t[i]
        err.append(np.max(np.abs(ux + p.alpha * f.gamma[i] / sig[i])))
    assert max(err) < 5e-3


def test_velocity_odd_symmetry(theta1, selfsim64):
    ux = -selfsim64.gamma_t[20]
    assert abs(ux[selfsim64.grid.ny // 2]) < 1e-14
    assert np.max(np.abs(ux + ux[::-1])) < 1e-13


def test_velocity_envelope_on_solved_run(solved128):
    f, _ = solved128
    p, g = f.profile, f.grid
    env = np.max(np.abs(f.gamma_t), axis=1) * (g.t + g.eps) ** (1 - p.alpha)
    assert max(env) < 1.5 * p.alpha * p.r_alpha
    # a snapshot's u_x on the support is minus the full-array gamma_t, bitwise
    full = -np.gradient(f.gamma, g.t, axis=0, edge_order=2)
    for i in (0, 1, g.nt // 2, g.nt - 1, g.nt):
        snap = F.snapshot(f, i)
        assert snap.u_x[snap.support].tobytes() == full[i].tobytes()


# ---------------------------------------------------------------------------
# value on the support
# ---------------------------------------------------------------------------

def test_value_center_oracle(theta1, selfsim64):
    p, f = theta1, selfsim64
    g = f.grid
    ub = F.value_on_support(f, p)
    j0 = g.ny // 2
    sig = g.sigma
    k = 2 * p.alpha - 1
    exact = -p.value_constant * (sig ** k - sig[-1] ** k)
    err64 = np.max(np.abs((ub[:, j0] - ub[-1, j0]) - exact))
    assert err64 < 2.5e-3

    g2 = make_grid(p, eps=1e-3, T=1.0, nt=128, ny=128)
    f2 = analytic_flow(p, g2)
    ub2 = F.value_on_support(f2, p)
    sig2 = g2.sigma
    exact2 = -p.value_constant * (sig2 ** k - sig2[-1] ** k)
    err128 = np.max(np.abs((ub2[:, g2.ny // 2] - ub2[-1, g2.ny // 2]) - exact2))
    assert err64 / err128 > 3.0      # trapezoid-in-time is second order


def test_value_oscillation_oracle(theta1, selfsim64):
    p, f = theta1, selfsim64
    g = f.grid
    ub = F.value_on_support(f, p)
    osc = ub.max(axis=1) - ub.min(axis=1)
    sig = g.sigma
    exact = p.alpha * (p.r_alpha * sig ** p.alpha) ** 2 / (2.0 * sig)
    assert np.max(np.abs(osc - exact)) < 1e-2 * exact.max()


def test_value_terminal_normalization(theta1, selfsim64):
    p, f = theta1, selfsim64
    ub = F.value_on_support(f, p)
    w = p.node_masses(f.grid.y)
    assert abs(w @ ub[-1]) < 1e-10


def test_value_target_mismatch_raises(theta1, selfsim64):
    other = power_bump(-2.0, 2.0, 1.0)
    with pytest.raises(errors.CompatibilityError):
        F.value_on_support(selfsim64, theta1, other)


def test_another_profile_is_rejected(theta1, selfsim64):
    f, other = selfsim64, make_profile(3.0)
    with pytest.raises(errors.InvalidParameterError):
        F.value_on_support(f, other)
    with pytest.raises(errors.InvalidParameterError):
        scaled_gradient_norm(f, other)
    # the flow's own profile, or an equal one, is accepted by position
    assert np.array_equal(F.value_on_support(f, make_profile(1.0)), f.value)
    # the other optional parameters are keyword-only
    with pytest.raises(TypeError):
        F.snapshot(f, 3, theta1)


def test_flow_keeps_its_derived_fields(selfsim64):
    f = selfsim64
    for name in ("gamma_y", "gamma_t", "density", "value"):
        assert getattr(f, name) is getattr(f, name)
    for name in ("gamma_y", "gamma_t", "density", "value"):
        assert not getattr(f, name).flags.writeable


# ---------------------------------------------------------------------------
# free boundaries
# ---------------------------------------------------------------------------

def test_free_boundaries_self_similar(theta1, selfsim64):
    p, f = theta1, selfsim64
    g = f.grid
    dgR = f.gamma_t[:, -1]
    ddg = F.boundary_curvature(f)
    sig = g.sigma
    ref = p.alpha * p.r_alpha * sig ** (p.alpha - 1.0)
    win = g.t >= 0.05
    assert np.max(np.abs(dgR - ref)[win] / ref[win]) < 5e-3
    assert np.all(ddg[1:-1, 1] < 0) and np.all(ddg[1:-1, 0] > 0)
    # the envelopes |gamma_dot| sigma^(1-alpha) and gamma_ddot sigma^(2-alpha)
    vR = np.abs(dgR) * sig ** (1.0 - p.alpha)
    assert np.max(np.abs(vR - p.alpha * p.r_alpha)) < 5e-2 * p.alpha * p.r_alpha
    cR = ddg[:, 1] * sig ** (2.0 - p.alpha)
    exact_c = p.alpha * (1.0 - p.alpha) * p.r_alpha
    assert np.max(np.abs(cR + exact_c))[()] < 0.25 * exact_c


def test_free_boundaries_terminal_values(solved128):
    f, m = solved128
    assert f.gamma[-1, 0] == m.a and f.gamma[-1, -1] == m.b


def test_free_boundary_signs_on_solved_run(solved128):
    f, _ = solved128
    ddg = F.boundary_curvature(f)
    assert np.all(ddg[1:-1, 0] > 0)
    assert np.all(ddg[1:-1, 1] < 0)


@pytest.mark.parametrize("theta", [0.5, 3.0])
def test_boundary_velocities_are_copies_of_gamma_t(theta):
    p = make_profile(theta)
    g = make_grid(p, eps=1e-3, T=1.0, nt=48, ny=48)
    f = solve(p, power_bump(-1.0, 2.0, theta), g)
    for col in (0, -1):
        # the same numbers as differentiating the boundary column alone
        assert np.array_equal(f.gamma_t[:, col],
                              np.gradient(f.gamma[:, col], g.t, edge_order=2))


# ---------------------------------------------------------------------------
# exterior continuation
# ---------------------------------------------------------------------------

def _quadratic_histories(tmin=0.0, tmax=1.0, n=81):
    # manufactured convex boundary with an interior turning point
    t = np.linspace(tmin, tmax, n)
    g = 0.3 * (t - 0.4) ** 2 - 0.5
    d = 0.6 * (t - 0.4)
    ub = 0.1 + 0.05 * t                  # any smooth boundary value works
    return t, g, d, ub


def test_extension_constant_below_turning_level():
    t, g, d, ub = _quadratic_histories()
    h = F._side_history(t, g, d, ub)
    assert h.fan is not None
    # the velocity is linear in t, so its interpolant vanishes at t = 0.4
    tk, gk, dk, uk = h.fan[:, h.k + 1]
    assert abs(tk - 0.4) < 1e-12 and dk == 0.0
    for i in (10, 40, 70):
        x = np.array([gk - 0.3, gk - 1e-9])
        u, ux = F._extend_one_side(h, i, x)
        assert np.all(u == uk)
        assert np.all(ux == 0.0)


def test_extension_matches_boundary_data():
    t, g, d, ub = _quadratic_histories()
    # the turning boundary, and a convex one without a turn, whose fan at
    # the last row has a single tangent
    for g, d in ((g, d), (g + 0.3 * t - 0.03, d + 0.3)):
        h = F._side_history(t, g, d, ub)
        for i in (5, 40, 75, t.size - 1):
            u, ux = F._extend_one_side(h, i, np.array([g[i]]))
            assert abs(u[0] - ub[i]) < 1e-12
            assert abs(ux[0] + d[i]) < 1e-12


def test_extension_case_b_linear_region(theta1, selfsim64):
    p, f = theta1, selfsim64
    g = f.grid
    ub = F.value_on_support(f, p)
    dgL = f.gamma_t[-1, 0]
    i = 30
    s = g.t[i]
    lT = f.gamma[-1, 0] + (s - g.t[-1]) * dgL
    x = lT - np.array([2.0, 1.5, 1.0, 0.5])
    u, ux = F._extend(*F._histories(f), i, x)
    assert np.max(np.abs(ux - (-dgL))) < 1e-12
    # exactly linear: second differences vanish
    assert np.max(np.abs(np.diff(u, 2))) < 1e-10
    expected = (lT - x) * dgL + ub[-1, 0] \
        + (g.t[-1] - s) * 0.5 * dgL ** 2
    assert np.max(np.abs(u - expected)) < 1e-10


def test_extension_rejects_interior_points(selfsim64):
    f = selfsim64
    with pytest.raises(errors.InvalidParameterError):
        F._extend(*F._histories(f), 30, np.array([0.0]))


def test_extension_crossing_characteristics_detected():
    t = np.linspace(0.0, 1.0, 81)
    g = -0.3 * (t - 0.4) ** 2 - 0.5      # concave: tangents fold
    d = -0.6 * (t - 0.4)
    h = F._side_history(t, g, d, 0.0 * t)
    with pytest.raises(errors.CrossingCharacteristicsError):
        F._extend_one_side(h, 10, np.array([g[10] - 1e-3]))


def test_exterior_slope_bounded_by_boundary_history(solved64):
    # every row, the last one included, on flows with real label dependence
    p, f = solved64
    bound = np.max(np.abs(f.gamma_t[:, [0, -1]]))
    for i in range(1, f.grid.nt + 1):
        snap = F.snapshot(f, i)
        out = np.r_[:snap.n_pad, -snap.n_pad:0]
        assert np.max(np.abs(snap.u_x[out])) <= bound + 1e-12


# ---------------------------------------------------------------------------
# snapshots and flat files
# ---------------------------------------------------------------------------

def test_snapshot_structure(solved128):
    f, m = solved128
    snap = F.snapshot(f, 64)
    assert np.all(np.diff(snap.x_nodes) > 0)
    inside = snap.support
    assert np.array_equal(snap.x_nodes[inside], f.gamma[64])
    assert snap.x_nodes.size == snap.y_nodes.size + 2 * snap.n_pad
    pads = np.r_[:snap.n_pad, -snap.n_pad:0]
    assert np.all(snap.m[pads] == 0.0)
    assert np.all(snap.m[inside][1:-1] > 0)
    # C0 gluing of the value across the boundary nodes
    jl = inside.start
    ext_u, _ = F._extend(*F._histories(f), 64, snap.x_nodes[jl:jl + 1])
    assert abs(ext_u[0] - snap.u[jl]) < 1e-12


def test_stacked_snapshot_is_the_per_row_snapshots(solved64):
    # rows stacked in one call give every row's snapshot bit for bit
    p, f = solved64
    rows = [1, 5, 40, f.grid.nt]
    stack = F.snapshot(f, rows)
    assert stack.t.shape == (len(rows),)
    assert stack.x_nodes.shape == (len(rows), f.grid.ny + 1 + 2 * stack.n_pad)
    for k, i in enumerate(rows):
        one = F.snapshot(f, i)
        assert np.ndim(one.t) == 0 and one.t == stack.t[k]
        assert one.n_pad == stack.n_pad
        assert one.y_nodes.tobytes() == stack.y_nodes.tobytes()
        for name in ("x_nodes", "m", "u", "u_x"):
            assert (getattr(one, name).tobytes()
                    == getattr(stack, name)[k].tobytes()), (i, name)


# ---------------------------------------------------------------------------
# Hamilton-Jacobi residuals
# ---------------------------------------------------------------------------

def test_hj_interior_residual(solved128):
    f, _ = solved128
    interior, _ = F.hj_residuals(f)
    assert np.nanmax(np.abs(interior)) < 5e-3


def bent(f):
    """``f`` moved off its optimum by a smooth perturbation that keeps both
    pinned rows."""
    g = f.grid
    s = (g.t / g.T)[:, None]
    gm = f.gamma
    bend = gm ** 3 - gm * np.mean(gm ** 2, axis=1, keepdims=True)
    return FlowField(grid=g, profile=f.profile,
                     gamma=gm + 0.05 * s * (1 - s) * bend)


def test_hj_interior_residual_fails_wrong_flows_of_criterion_5(solved128):
    # criterion 5's run, bent and replaced by its Newton start: each
    # is over the bound that the solved run passes
    f, m = solved128
    start = FlowField(grid=f.grid, profile=f.profile,
                      gamma=initial_guess(f.profile, m, f.grid))
    for name, wrong in (("bent", bent(f)), ("initial guess", start)):
        interior, _ = F.hj_residuals(wrong)
        assert np.nanmax(np.abs(interior)) > 5e-3, name


def test_hj_interior_second_order(theta1):
    sups = {}
    for n in (64, 128):
        g = make_grid(theta1, eps=1e-2, T=1.0, nt=n, ny=n)
        m = self_similar_terminal(theta1, 1.0, 1e-2)
        f = solve(theta1, m, g)
        interior, _ = F.hj_residuals(f)
        rows = g.t >= 0.25
        sups[n] = np.nanmax(np.abs(interior[rows]))
    assert sups[64] / sups[128] > 2.5


def test_hj_exterior_residual(solved128):
    f, _ = solved128
    _, exterior = F.hj_residuals(f)
    assert np.nanmax(np.abs(exterior)) < 5e-3


@pytest.fixture(scope="module", params=[0.5, 1.0],
                ids=lambda theta: f"theta={theta:g}")
def turning128(request):
    # the left boundary turns at both theta, the right one at theta = 0.5
    p = make_profile(request.param)
    g = make_grid(p, eps=1e-2, T=1.0, nt=128, ny=128)
    return solve(p, power_bump(-0.7, 1.2, request.param), g)


def test_hj_exterior_residual_on_turning_boundaries(turning128):
    _, exterior = F.hj_residuals(turning128)
    assert np.nanmax(np.abs(exterior)) <= 5e-3


def test_turning_continuation_covers_the_pads(turning128):
    # every pad node of a tested row lies in the constant state or between
    # the first and last tangent feet of the fan, so no tangency time is
    # clipped to its bracket
    f = turning128
    g = f.grid
    rows = np.arange(1, g.nt)[g.t[1:-1] >= g.t_resolved]
    snap = F.snapshot(f, rows)
    n = snap.n_pad
    pads = (snap.x_nodes[:, :n], -snap.x_nodes[:, -n:])    # left frames
    turning = [(h, x) for h, x in zip(F._histories(f), pads)
               if h.fan is not None]
    assert turning
    for h, x in turning:
        in_fan = 0
        for xi, i in zip(x, rows):
            tn, gn, dn, _ = F._fan_nodes(h, int(i))
            feet = gn + (g.t[i] - tn) * dn
            fan = xi[~F._degenerate_region(h, i, xi)]
            assert np.all((fan >= feet.min()) & (fan <= feet.max())), i
            in_fan += fan.size
        assert 0 < in_fan < x.size


def test_hj_residuals_without_a_tested_row(theta1):
    # t_resolved = 10 eps lies beyond T, so no interior row is tested
    g = make_grid(theta1, eps=0.2, T=1.0, nt=16, ny=16)
    f = solve(theta1, power_bump(-1.0, 1.0, 1.0), g)
    interior, exterior = F.hj_residuals(f)
    assert interior.shape == (17, 17)
    assert exterior.shape == (17, 2 * F.snapshot(f, 0).n_pad)
    assert np.all(np.isnan(interior)) and np.all(np.isnan(exterior))


@pytest.mark.parametrize("kind", ["power_bump", "two_bump_csv"])
@pytest.mark.parametrize("theta", [0.5, 1.0, 3.0])
def test_hj_interior_residual_fails_a_perturbed_flow(tmp_path, theta, kind):
    # a smooth perturbation that keeps both pinned rows moves the flow off
    # the velocity -u_x of its own value, so the interior residual grows
    p = make_profile(theta)
    if kind == "power_bump":
        m = power_bump(-0.7, 1.2, theta)
    else:
        write_two_bump_csv(tmp_path / "two_bump.csv", theta)
        m = load_csv(tmp_path / "two_bump.csv", theta)
    g = make_grid(p, eps=1e-3, T=1.0, nt=128, ny=128)
    f = solve(p, m, g)
    solved = np.nanmax(np.abs(F.hj_residuals(f)[0]))
    perturbed = np.nanmax(np.abs(F.hj_residuals(bent(f))[0]))
    assert perturbed >= 2.0 * solved, (solved, perturbed)


def test_second_derivative_exact_on_quadratics():
    # nonuniform nodes along each axis; the end nodes share the parabola
    # of their neighbor, which is exact on a quadratic too
    rng = np.random.default_rng(5)
    t = np.cumsum(rng.uniform(0.05, 1.0, size=12))
    y = np.cumsum(rng.uniform(0.05, 1.0, size=9))
    along_t = 3.0 * t[:, None] ** 2 - t[:, None] + y[None, :]
    along_y = -2.0 * y[None, :] ** 2 + 5.0 * y[None, :] + t[:, None]
    np.testing.assert_allclose(F._second_derivative(along_t, t), 6.0,
                               rtol=1e-10)
    np.testing.assert_allclose(F._second_derivative(along_y, y, axis=1),
                               -4.0, rtol=1e-10)


def test_row_gradient_matches_numpy_per_row():
    # each row on its own nonuniform nodes, as the rescaled eta rows are
    rng = np.random.default_rng(3)
    x = np.cumsum(rng.uniform(0.05, 1.0, size=(5, 40)), axis=1)
    v = np.sin(x) + x ** 2
    got = F._row_gradient(v, x)
    for k in range(x.shape[0]):
        ref = np.gradient(v[k], x[k], edge_order=2)
        assert np.max(np.abs(got[k] - ref)) <= 1e-14 * np.max(np.abs(ref))
    np.testing.assert_array_equal(F._row_gradient(v[2], x[2]), got[2])


def test_running_trapezoid_is_scipys_bit_for_bit():
    # the reference the value on the support was computed with before
    from scipy.integrate import cumulative_trapezoid
    rng = np.random.default_rng(7)
    t = np.cumsum(rng.uniform(0.05, 1.0, size=33))
    for y in (rng.standard_normal(33), rng.standard_normal((33, 17))):
        got = F._running_trapezoid(y, t)
        ref = cumulative_trapezoid(y, t, axis=0, initial=0.0)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
