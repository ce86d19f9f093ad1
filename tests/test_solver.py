"""Solver tests: grid contracts, discrete energy, Newton solve.

The principal oracle is the closed-form flow gamma(t, y) = (t+eps)^alpha y,
which is the exact solution when the terminal density is the self-similar
slice.  Everything else is checked through refinement rates and invariants.
"""

import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import solveh_banded
from scipy.linalg.lapack import dpttrf

import oracles
from dirac_mfp import errors, solver
from dirac_mfp.profile import make_profile
from dirac_mfp.solver import (
    _CG_TOL,
    FlowField,
    SolverConfig,
    _ladder,
    _level,
    _newton,
    _newton_matrix,
    _pcg,
    _prolong,
    _restrict,
    _Workspace,
    initial_guess,
    make_grid,
    scaled_gradient_norm,
    solve,
    terminal_row,
)
from dirac_mfp.target import (TerminalDensity, _Bump, power_bump,
                              self_similar_terminal)


def analytic_flow(p, grid):
    gamma = (grid.t[:, None] + grid.eps) ** p.alpha * grid.y[None, :]
    return FlowField(grid=grid, profile=p, gamma=gamma)


def two_bump(theta):
    """Bimodal table target: its flow is genuinely non-affine in the label."""
    x = np.linspace(-1.0, 1.0, 200)
    edge = np.clip((x + 1.0) * (1.0 - x), 0.0, None) ** (1.0 / theta)
    bumps = (np.exp(-0.5 * ((x + 0.4) / 0.25) ** 2)
             + 0.8 * np.exp(-0.5 * ((x - 0.45) / 0.25) ** 2) + 0.3)
    return TerminalDensity.from_table(x, edge * bumps, theta=theta)


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

def test_grid_geometric_grading():
    p = make_profile(1.0)
    g = make_grid(p, eps=1e-3, T=1.0, nt=64, ny=32)
    assert g.t[0] == 0.0
    assert g.t[-1] == 1.0
    ratios = (g.t[1:] + g.eps) / (g.t[:-1] + g.eps)
    assert np.max(np.abs(ratios / ratios[0] - 1.0)) < 1e-12
    assert g.y[0] == -p.r_alpha and g.y[-1] == p.r_alpha
    assert np.max(np.abs(np.diff(g.y) - g.dy)) < 1e-13
    # symmetric y grid
    assert np.max(np.abs(g.y + g.y[::-1])) < 1e-13


def test_grid_validation():
    p = make_profile(1.0)
    with pytest.raises(errors.InvalidParameterError):
        make_grid(p, eps=0.0, T=1.0, nt=16, ny=16)
    with pytest.raises(errors.InvalidParameterError):
        make_grid(p, eps=1e-3, T=-1.0, nt=16, ny=16)
    with pytest.raises(errors.InvalidParameterError):
        make_grid(p, eps=1e-3, T=1.0, nt=2, ny=16)


# ---------------------------------------------------------------------------
# boundary rows
# ---------------------------------------------------------------------------

def test_terminal_row_endpoints_and_oracle():
    p = make_profile(1.0)
    g = make_grid(p, eps=1e-3, T=1.0, nt=16, ny=48)
    m = self_similar_terminal(p, 1.0, 1e-3)
    row = terminal_row(p, m, g)
    assert row[0] == m.a and row[-1] == m.b
    ref = (1.0 + 1e-3) ** p.alpha * g.y
    assert np.max(np.abs(row - ref)) < 1e-8
    mb = power_bump(-1.0, 2.0, 1.0)
    row2 = terminal_row(p, mb, g)
    assert row2[0] == -1.0 and row2[-1] == 2.0
    assert np.all(np.diff(row2) > 0)


def test_initial_row_is_scaled_identity():
    p = make_profile(1.0)
    g = make_grid(p, eps=1e-2, T=1.0, nt=12, ny=24)
    m = self_similar_terminal(p, 1.0, 1e-2)
    f = solve(p, m, g)
    assert np.all(f.gamma[0] == (1e-2) ** p.alpha * g.y)


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("theta", [1.0, 3.0])
def test_energy_matches_closed_form(theta):
    # E = int_0^T  alpha^2 (s+eps)^{2a-2}/2 * M2 + (s+eps)^{-a theta} * P/(th+1)
    p = make_profile(theta)
    eps, T = 1e-2, 1.0
    m2 = p.second_moment()
    pth = p.cell_masses([-p.r_alpha, p.r_alpha], theta + 1.0)[0]
    a = p.alpha

    def integrand(s):
        return (0.5 * a**2 * (s + eps) ** (2 * a - 2) * m2
                + (s + eps) ** (-a * theta) * pth / (theta + 1.0))

    ref, _ = quad(integrand, 0.0, T, epsabs=1e-13, limit=400)
    errs = []
    for n in (32, 64, 128):
        g = make_grid(p, eps=eps, T=T, nt=n, ny=n)
        e = _Workspace(p, g).energy(analytic_flow(p, g).gamma)
        errs.append(abs(e - ref))
    assert errs[0] / errs[1] > 3.0          # second-order quadrature
    assert errs[1] / errs[2] > 3.0
    assert errs[-1] < 2e-3 * abs(ref)


def test_energy_rejects_degenerate_slopes():
    p = make_profile(1.0)
    g = make_grid(p, eps=1e-2, T=1.0, nt=8, ny=8)
    f = analytic_flow(p, g)
    bad = f.gamma.copy()
    bad[3, 4] = bad[3, 5] + 1.0  # crossing trajectories
    with pytest.raises(errors.DegenerateStateError):
        _Workspace(p, g).energy(bad)


# ---------------------------------------------------------------------------
# solve: analytic oracle
# ---------------------------------------------------------------------------

def test_solve_self_similar_converges_to_analytic():
    p = make_profile(1.0)
    eps, T = 1e-3, 1.0
    errs = {}
    for n in (32, 64):
        g = make_grid(p, eps=eps, T=T, nt=n, ny=n)
        m = self_similar_terminal(p, T, eps)
        f = solve(p, m, g)
        exact = (g.t[:, None] + eps) ** p.alpha * g.y[None, :]
        errs[n] = np.max(np.abs(f.gamma - exact))
        assert np.all(np.diff(f.gamma, axis=1) > 0)
    assert errs[64] < errs[32] / 3.0


def test_solved_gradient_is_stationary():
    p = make_profile(1.0)
    g = make_grid(p, eps=1e-2, T=1.0, nt=24, ny=24)
    f = solve(p, self_similar_terminal(p, 1.0, 1e-2), g)
    assert scaled_gradient_norm(f) <= SolverConfig().residual_tol
    # the norm the Newton loop stopped on, recomputed from the flow alone
    assert scaled_gradient_norm(f) == f.info.grad_norm


def test_energy_not_above_initial_guess():
    p = make_profile(1.0)
    g = make_grid(p, eps=1e-3, T=1.0, nt=32, ny=32)
    m = power_bump(-1.0, 1.0, 1.0)
    f = solve(p, m, g)
    blend = ((g.t[:, None] + g.eps) ** p.alpha - g.eps**p.alpha) \
        / ((g.T + g.eps) ** p.alpha - g.eps**p.alpha)
    init = (g.eps**p.alpha * g.y[None, :]
            + blend * (terminal_row(p, m, g)[None, :] - g.eps**p.alpha * g.y[None, :]))
    ws = _Workspace(p, g)
    assert f.info.energy == ws.energy(f.gamma)
    assert f.info.energy <= ws.energy(init) + 1e-12


def test_mass_conservation_pushforward():
    p = make_profile(1.0)
    g = make_grid(p, eps=1e-3, T=1.0, nt=32, ny=48)
    f = solve(p, power_bump(-1.0, 1.0, 1.0), g)
    masses = p.cell_masses(g.y)
    partial = np.concatenate([[0.0], np.cumsum(masses)])
    ref = p.cdf(g.y)
    assert np.max(np.abs(partial - ref)) < 1e-6
    assert abs(partial[-1] - 1.0) < 1e-6
    assert np.all(np.isfinite(f.gamma))


def test_slope_envelope_band():
    # gamma_y / (t+eps)^alpha stays in a fixed band across refinements
    p = make_profile(1.0)
    m = power_bump(-1.0, 1.0, 1.0)
    bands = []
    for n in (24, 48):
        g = make_grid(p, eps=1e-3, T=1.0, nt=n, ny=n)
        f = solve(p, m, g)
        slopes = np.diff(f.gamma, axis=1) / g.dy
        ratio = slopes / (g.t[:, None] + g.eps) ** p.alpha
        bands.append((ratio.min(), ratio.max()))
    lo0, hi0 = bands[0]
    lo1, hi1 = bands[1]
    assert lo0 > 0
    assert lo1 > lo0 / 1.5 and hi1 < hi0 * 1.5


def test_theta_three_solve_and_support_growth():
    p = make_profile(3.0)
    g = make_grid(p, eps=1e-3, T=1.0, nt=48, ny=48)
    f = solve(p, power_bump(-1.0, 1.0, 3.0), g)
    radius = np.max(np.abs(f.gamma), axis=1)
    envelope = radius / (g.t + g.eps) ** p.alpha
    assert envelope.max() / envelope.min() < 3.0


# ---------------------------------------------------------------------------
# Newton system: preconditioned CG against the band solvers
# ---------------------------------------------------------------------------

def coarse_levels(p, m, grid):
    """The `_Level`s of the grids below ``grid`` in its ladder, each with its
    grid's Newton matrix at `initial_guess`."""
    levels = []
    for g in _ladder(p, grid)[:-1]:
        A = _newton_matrix(_Workspace(p, g), initial_guess(p, m, g))
        levels.append(_level(A, not levels))
    return levels


def newton_system(theta, nt, ny):
    """The two-bump table's Newton matrix and gradient at its initial guess
    on an nt x ny grid, and the `_Level`s of the grids below it."""
    p, m = make_profile(theta), two_bump(theta)
    g = make_grid(p, eps=1e-3, T=1.0, nt=nt, ny=ny)
    ws = _Workspace(p, g)
    gamma = initial_guess(p, m, g)
    return (_newton_matrix(ws, gamma), ws.gradient(gamma)[0],
            coarse_levels(p, m, g))


def upper_band(A):
    """Upper band storage (bandwidth ny+1) of the 5-point stencil."""
    M = A.shape[2]
    ab = np.zeros((M + 1, A[0].size))
    ab[M] = A[0].ravel()
    ab[M - 1, 1:] = A[1].ravel()[:-1]
    ab[0, M:] = A[2, :-1].ravel()
    return ab


@pytest.mark.parametrize("theta", [0.5, 3.0])
@pytest.mark.parametrize("nt,ny", [(4, 4), (5, 9), (16, 16), (33, 20), (64, 64),
                                   (100, 37), (37, 100), (128, 128),
                                   (4, 40), (40, 4), (9, 18), (6, 300)])
def test_multifrontal_matches_banded_cholesky(theta, nt, ny):
    # the Newton solve, CG preconditioned by the V-cycle over the grids below
    # (on a grid of one level, the band factor), at a tight tolerance, against
    # a banded Cholesky of the same matrix; one set of levels, two right-hand
    # sides: a solve does not change the levels
    A, G, coarse = newton_system(theta, nt, ny)
    levels = [*coarse, _level(A, not coarse)]
    ab = upper_band(A)
    rng = np.random.default_rng(nt * ny)
    for rhs in (-G, rng.standard_normal(G.shape)):
        d, _ = _pcg(levels, rhs, 1e-14, "")
        ref = solveh_banded(ab, rhs.ravel()).reshape(rhs.shape)
        assert np.max(np.abs(d - ref)) <= 1e-10 * np.max(np.abs(ref))


@pytest.mark.parametrize("nt,ny", [(16, 16), (100, 37), (37, 100), (128, 128)])
def test_lines_laid_end_to_end_factor_as_each_line_alone(nt, ny):
    # the padding of the stencil planes is the zero coupling between
    # consecutive lines, so each colour's one `dpttrf` gives every line its
    # own factor, bit for bit
    A, _, _ = newton_system(3.0, nt, ny)
    factors = _level(A, False).factors
    for D, U, colours in ((A[0], A[1], factors[:2]),
                          (A[0].T, A[2].T, factors[2:])):
        L = D.shape[1]
        for p, (d, e) in enumerate(colours):
            for k, i in enumerate(range(p, len(D), 2)):
                dl, el, info = dpttrf(D[i], U[i, :-1])
                assert info == 0
                assert np.array_equal(d[k * L:(k + 1) * L], dl)
                assert np.array_equal(e[k * L:(k + 1) * L - 1], el)
                assert e[(k + 1) * L - 1:(k + 1) * L].tolist() in ([], [0.0])


def test_indefinite_system_raises_degenerate_state():
    A, G, coarse = newton_system(1.0, 128, 128)
    bad = A.copy()
    bad[0, 60, 64] = -bad[0, 60, 64]      # e_k^T A e_k < 0: indefinite
    with pytest.raises(errors.DegenerateStateError, match="dpttrf info"):
        _level(bad, False)
    # every line positive definite, the matrix not: CG breaks down
    bad = np.zeros_like(A)
    bad[0], bad[1, :, :-1], bad[2, :-1] = 1.0, -0.45, -0.45
    with pytest.raises(errors.DegenerateStateError, match="in CG on the grid"):
        _pcg([*coarse, _level(bad, False)], -G, _CG_TOL, "on the grid")


def test_indefinite_leaf_raises_degenerate_state():
    # the coarsest level, where the V-cycle's recursion ends, factors its
    # band; a 16^2 grid is its own coarsest level
    A, _, coarse = newton_system(1.0, 16, 16)
    assert not coarse
    A[0, 7, 3] = -A[0, 7, 3]
    with pytest.raises(errors.DegenerateStateError, match="dpbtrf info"):
        _level(A, True)


def test_concurrent_solves_match_serial_ones():
    p = make_profile(3.0)
    g = make_grid(p, eps=1e-3, T=1.0, nt=32, ny=32)
    g128 = make_grid(p, eps=1e-3, T=1.0, nt=128, ny=128)   # a 64^2, 128^2 ladder
    cases = [(two_bump(3.0), g), (power_bump(-1.0, 1.0, 3.0), g),
             (two_bump(3.0), g128)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(solve, p, m, grid) for m, grid in cases * 2]
            parallel = [fut.result(timeout=120) for fut in futures]
    finally:
        sys.setswitchinterval(switch)
    serial = [solve(p, m, grid) for m, grid in cases]
    for f, ref in zip(parallel, serial * 2):
        assert np.array_equal(f.gamma, ref.gamma)


def level_arrays(lv):
    """The arrays a `_Level` keeps: its planes and its factors."""
    if isinstance(lv.factors, np.ndarray):
        return [lv.A, lv.factors]
    return [lv.A, *(a for colour in lv.factors for a in colour)]


def test_factor_needs_under_a_quarter_of_the_band_at_512():
    # the levels of a 512^2 ladder (64^2 to 512^2) hold each grid's stencil
    # planes and line factors, and the 64^2 band factor: 2.69 M entries,
    # 10.3 per node of the 512^2 grid and a fiftieth of the band that a band
    # Cholesky of that grid fills
    A, _, coarse = newton_system(3.0, 512, 512)
    R, M = A.shape[1:]
    entries = sum(a.size for lv in [*coarse, _level(A, False)]
                  for a in level_arrays(lv))
    assert entries <= 11 * R * M


def test_newton_system_at_256_stays_under_its_memory_bound():
    # one 256^2 Newton system over its 64^2 and 128^2 levels: the line
    # factors, a CG solve to `_CG_TOL` and its V-cycles peak at 9.0 MiB
    p = make_profile(3.0)
    m = power_bump(-0.7, 1.2, 3.0)
    g = make_grid(p, eps=1e-3, T=1.0, nt=256, ny=256)
    ws = _Workspace(p, g)
    gamma = initial_guess(p, m, g)
    A = _newton_matrix(ws, gamma)
    G = ws.gradient(gamma)[0]
    coarse = coarse_levels(p, m, g)
    try:
        tracemalloc.start()
        _pcg([*coarse, _level(A, False)], -G, _CG_TOL, "")
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 12 * 2**20
    finally:
        tracemalloc.stop()


@pytest.fixture
def rounding_acceptances(monkeypatch):
    """Counts the line-search steps that `_newton` accepts by rounding."""
    accepted = []
    original = solver._rounding_accepts

    def counting(*args):
        grad = original(*args)
        accepted.append(grad is not None)
        return grad
    monkeypatch.setattr(solver, "_rounding_accepts", counting)
    return accepted


def cold_newton(p, m, g, cfg=SolverConfig()):
    """`_newton` on ``g`` from `initial_guess`, the start every grid had
    before grid sequencing, over `coarse_levels`: its flow, steps, CG
    iterations, scaled gradient norm and energy."""
    return _newton(_Workspace(p, g), initial_guess(p, m, g), cfg,
                   coarse_levels(p, m, g))[:5]


def test_newton_converges_when_energy_drop_is_below_rounding(rounding_acceptances):
    # the last step changes the energy by less than its rounding, below what
    # Armijo can resolve; it is accepted because it lowers the scaled
    # gradient.  Without the rounding acceptance this input sits between
    # 1.0e-10 and 2.3e-10 from the sixth step to the eleventh
    p = make_profile(10.0)
    g = make_grid(p, eps=1e-3, T=1.0, nt=128, ny=128)
    m = power_bump(-1.0756632197251745, 0.5282601052866311, 10.0)
    _, steps, _, gn, _ = cold_newton(p, m, g)
    assert sum(rounding_acceptances) >= 1
    assert steps <= 5
    assert gn <= SolverConfig().residual_tol


def test_rounding_acceptance_keeps_the_gradient(monkeypatch,
                                               rounding_acceptances):
    # a step accepted by rounding has had its gradient evaluated, and the next
    # step starts from it: no flow's gradient is evaluated twice
    flows = []
    gradient = _Workspace.gradient

    def counting(self, gamma):
        flows.append(hash(gamma.tobytes()))
        return gradient(self, gamma)
    monkeypatch.setattr(_Workspace, "gradient", counting)
    p = make_profile(10.0)
    g = make_grid(p, eps=1e-3, T=1.0, nt=128, ny=128)
    m = power_bump(-1.0756632197251745, 0.5282601052866311, 10.0)
    gamma, steps, _, gn, _ = cold_newton(p, m, g)
    assert sum(rounding_acceptances) >= 1
    assert len(set(flows)) == len(flows)
    assert hash(gamma.tobytes()) in flows
    assert gradient(_Workspace(p, g), gamma)[1] == gn


def test_newton_converges_on_two_bump_table_near_rounding(rounding_acceptances):
    # without the rounding acceptance the scaled gradient of this sharp
    # two-bump table sits between 1.1e-10 and 2.7e-10 from the seventh step
    # to the twelfth, past the cap of 10
    p = make_profile(3.0)
    g = make_grid(p, eps=1e-3, T=1.0, nt=256, ny=256)
    a, b = -0.9903279202142976, 1.0101467526847843
    x = np.linspace(a, b, 400)
    s = 0.3000712009348623
    bumps = (np.exp(-0.5 * ((x + 0.37436009869933595) / s) ** 2)
             + 1.1867407399302934 * np.exp(-0.5 * ((x - 0.3424353215844751) / s) ** 2)
             + 0.3)
    edge = np.clip((x - a) * (b - x), 0.0, None) ** (1.0 / 3.0)
    m = TerminalDensity.from_table(x, edge * bumps, theta=3.0)
    _, steps, _, gn, _ = cold_newton(p, m, g, SolverConfig(newton_max_iter=10))
    assert sum(rounding_acceptances) >= 1
    assert steps <= 7
    assert gn <= SolverConfig().residual_tol


@pytest.mark.parametrize("power", [1.0, 2.0])
@pytest.mark.parametrize("theta", [1.0, 3.0, 10.0])
def test_chord_steps_converge_on_singular_edges(theta, power):
    # edge exponents at and above 1/theta, where the fine level takes the
    # most steps: each step's CG stays within the bound of
    # `test_cg_iterations_per_newton_step_do_not_grow_with_the_grid`
    p = make_profile(theta)
    g = make_grid(p, eps=1e-3, T=1.0, nt=128, ny=128)
    f = solve(p, _Bump(-0.7, 1.2, power), g)
    _, _, steps, iterations = f.info.levels[-1]
    assert 1 <= steps <= iterations <= CG_PER_STEP * steps
    assert f.info.grad_norm <= SolverConfig().residual_tol


@pytest.fixture
def cg_counts(monkeypatch):
    """The iterations of each `_pcg` call."""
    counts = []
    pcg = solver._pcg

    def counting(*args):
        x, k = pcg(*args)
        counts.append(k)
        return x, k
    monkeypatch.setattr(solver, "_pcg", counting)
    return counts


# CG iterations of one Newton step: 1 to 6 measured on both targets at 128^2,
# 256^2 and 512^2, and on the singular edges
CG_PER_STEP = 8


@pytest.mark.parametrize("n", [128, 256, 512])
def test_cg_iterations_per_newton_step_do_not_grow_with_the_grid(cg_counts, n):
    p = make_profile(3.0)
    g = make_grid(p, eps=1e-3, T=1.0, nt=n, ny=n)
    for m in (two_bump(3.0), power_bump(-0.7, 1.2, 3.0)):
        f = solve(p, m, g)
        assert f.info.grad_norm <= SolverConfig().residual_tol
    assert 1 <= max(cg_counts) <= CG_PER_STEP


# ---------------------------------------------------------------------------
# grid sequencing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["power_bump", "two_bump"])
@pytest.mark.parametrize("theta", [0.25, 1.0, 3.0, 10.0])
def test_sequenced_solve_matches_cold_newton(theta, kind):
    p = make_profile(theta)
    g = make_grid(p, eps=1e-3, T=1.0, nt=128, ny=128)
    m = power_bump(-0.7, 1.2, theta) if kind == "power_bump" else two_bump(theta)
    f = solve(p, m, g)
    cold, *_ = cold_newton(p, m, g)
    assert np.max(np.abs(f.gamma - cold)) <= 1e-10
    assert [lv[:2] for lv in f.info.levels] == [(64, 64), (128, 128)]
    assert f.info.levels[-1][2] == f.info.iterations <= 4
    assert f.info.grad_norm <= SolverConfig().residual_tol


@pytest.mark.parametrize("nt,ny", [(64, 64)])
def test_grid_that_does_not_halve_is_solved_cold(nt, ny):
    # no axis above 64 intervals: the grid is its own coarsest level
    p = make_profile(3.0)
    g = make_grid(p, eps=1e-3, T=1.0, nt=nt, ny=ny)
    m = two_bump(3.0)
    f = solve(p, m, g)
    cold, steps, iterations, gn, E = cold_newton(p, m, g)
    assert np.array_equal(f.gamma, cold)
    assert f.info.levels == ((nt, ny, steps, 0),) and iterations == 0
    assert (f.info.iterations, f.info.grad_norm, f.info.energy) == (steps, gn, E)


@pytest.mark.parametrize("nt,ny", [(100, 128), (128, 96)])
def test_grid_that_does_not_halve_matches_cold_newton(nt, ny):
    # 100 and 96 halve to 50 and 48, below 64: a ladder all the same
    p = make_profile(3.0)
    g = make_grid(p, eps=1e-3, T=1.0, nt=nt, ny=ny)
    m = two_bump(3.0)
    f = solve(p, m, g)
    assert [lv[:2] for lv in f.info.levels] == [(nt // 2, ny // 2), (nt, ny)]
    cold, *_ = cold_newton(p, m, g)
    assert np.max(np.abs(f.gamma - cold)) <= 1e-10
    assert f.info.grad_norm <= SolverConfig().residual_tol


@pytest.mark.parametrize("nt,ny,shapes", [
    (100, 128, [(50, 64), (100, 128)]),
    (192, 128, [(48, 64), (96, 64), (192, 128)]),
    (256, 128, [(64, 64), (128, 64), (256, 128)]),
    (64, 64, [(64, 64)]),
    (100, 75, [(50, 38), (100, 75)]),
])
def test_ladder_halves_each_axis_above_64_rounding_up(nt, ny, shapes):
    p = make_profile(3.0)
    ladder = _ladder(p, make_grid(p, eps=1e-3, T=1.0, nt=nt, ny=ny))
    assert [(g.nt, g.ny) for g in ladder] == shapes


@pytest.mark.parametrize("theta", [0.5, 1.0, 3.0, 10.0])
def test_halved_axis_keeps_every_second_node(theta):
    # `make_grid` with half the intervals gives the fine grid's even nodes,
    # bit for bit, so on even axes the ladder nests
    p = make_profile(theta)
    for eps in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        for n in (96, 128, 192, 200, 256, 512, 1024):
            fine = make_grid(p, eps=eps, T=1.0, nt=n, ny=n)
            coarse = _ladder(p, fine)[-2]
            assert (coarse.nt, coarse.ny) == (n // 2, n // 2)
            assert np.array_equal(coarse.t, fine.t[::2])
            assert np.array_equal(coarse.y, fine.y[::2])


def test_sequencing_with_unequal_axes():
    p = make_profile(1.0)
    g = make_grid(p, eps=1e-3, T=1.0, nt=256, ny=128)
    m = two_bump(1.0)
    f = solve(p, m, g)
    assert [lv[:2] for lv in f.info.levels] == [(64, 64), (128, 64), (256, 128)]
    # the coarse levels' nodes are the fine grid's, bit for bit
    coarse, mid, _ = _ladder(p, g)
    assert np.array_equal(mid.t, g.t[::2]) and np.array_equal(mid.y, g.y[::2])
    assert np.array_equal(coarse.t, g.t[::4])
    assert np.array_equal(coarse.y, g.y[::2])
    cold, *_ = cold_newton(p, m, g)
    assert np.max(np.abs(f.gamma - cold)) <= 1e-10
    assert f.gamma[0].tolist() == initial_guess(p, m, g)[0].tolist()
    assert f.gamma[-1].tolist() == terminal_row(p, m, g).tolist()


def test_coarse_levels_stop_at_the_coarse_tolerance(monkeypatch):
    p = make_profile(3.0)
    g = make_grid(p, eps=1e-3, T=1.0, nt=256, ny=256)
    m = two_bump(3.0)
    tols = []
    newton = solver._newton

    def recording_newton(ws, gamma, cfg, coarse):
        tols.append((ws.grid.nt, cfg.residual_tol))
        return newton(ws, gamma, cfg, coarse)

    monkeypatch.setattr(solver, "_newton", recording_newton)
    f = solve(p, m, g)
    assert tols == [(64, solver._COARSE_TOL), (128, solver._COARSE_TOL),
                    (256, SolverConfig().residual_tol)]
    monkeypatch.setattr(solver, "_COARSE_TOL", 0.0)    # every level polished
    polished = solve(p, m, g)
    assert np.max(np.abs(f.gamma - polished.gamma)) <= 1e-11
    # a residual_tol looser than the coarse tolerance holds on every level
    tols.clear()
    solve(p, m, make_grid(p, eps=1e-3, T=1.0, nt=128, ny=128),
          SolverConfig(residual_tol=1e-3))
    assert tols == [(64, 1e-3), (128, 1e-3)]


def test_prolongation_is_bilinear_in_log_time_and_label():
    # a field bilinear in (log(t+eps), y) is reproduced to rounding, on
    # nested grids and on grids that are not
    def field(g):
        tau, y = np.log(g.sigma)[:, None], g.y[None, :]
        return 0.3 + 2.0 * tau - 0.5 * y + 0.7 * tau * y

    p = make_profile(1.0)
    coarse = make_grid(p, eps=1e-3, T=1.0, nt=8, ny=4)
    for nt, ny in ((16, 8), (15, 9)):
        fine = make_grid(p, eps=1e-3, T=1.0, nt=nt, ny=ny)
        fine_values = _prolong(field(coarse), (nt + 1, ny + 1))
        assert np.max(np.abs(fine_values - field(fine))) <= 1e-12


def test_transfer_is_the_halving_prolongation_on_even_axes():
    rng = np.random.default_rng(7)
    for shape in ((5, 5), (33, 65), (65, 33), (129, 129)):
        a = rng.standard_normal(shape)
        fine = (2 * shape[0] - 1, 2 * shape[1] - 1)
        assert np.array_equal(_prolong(a, fine), oracles.prolong_by_halves(a))
        # an axis kept as it is is copied
        assert np.array_equal(_prolong(a, (fine[0], shape[1])),
                              oracles.prolong_by_halves(a)[:, ::2])
    # on a solved coarse flow too, where the grid sequencing uses it
    p = make_profile(3.0)
    g = make_grid(p, eps=1e-3, T=1.0, nt=64, ny=64)
    gamma = solve(p, two_bump(3.0), g).gamma
    assert np.array_equal(_prolong(gamma, (129, 129)),
                          oracles.prolong_by_halves(gamma))


@pytest.mark.parametrize("coarse,fine", [((129, 52), (256, 102)),
                                         ((52, 129), (102, 256)),
                                         ((65, 65), (129, 129)),
                                         ((51, 39), (101, 76)),
                                         ((33, 20), (33, 39))])
def test_restriction_is_the_transpose_of_prolongation(coarse, fine):
    rng = np.random.default_rng(sum(fine))
    x, r = rng.standard_normal(coarse), rng.standard_normal(fine)
    Px = _prolong(x, fine)
    lhs, rhs = np.vdot(Px, r), np.vdot(x, _restrict(r, coarse))
    assert abs(lhs - rhs) <= 1e-13 * np.vdot(np.abs(Px), np.abs(r))


def test_coarse_level_failure_names_its_grid():
    p = make_profile(3.0)
    g = make_grid(p, eps=1e-3, T=1.0, nt=128, ny=128)
    with pytest.raises(errors.NewtonDivergenceError, match="on the 64x64 grid"):
        solve(p, two_bump(3.0), g, SolverConfig(newton_max_iter=2))


def test_cg_that_misses_its_tolerance_names_its_grid(monkeypatch):
    p = make_profile(3.0)
    g = make_grid(p, eps=1e-3, T=1.0, nt=128, ny=128)
    monkeypatch.setattr(solver, "_CG_MAX_ITER", 1)
    with pytest.raises(errors.NewtonDivergenceError,
                       match="CG missed its tolerance .* on the 128x128 grid"):
        solve(p, two_bump(3.0), g)


# ---------------------------------------------------------------------------
# error contracts and alternatives
# ---------------------------------------------------------------------------

def test_newton_cap_raises():
    p = make_profile(1.0)
    g = make_grid(p, eps=1e-3, T=1.0, nt=24, ny=24)
    cfg = SolverConfig(newton_max_iter=1)
    with pytest.raises(errors.NewtonDivergenceError):
        solve(p, power_bump(-2.0, 2.0, 1.0), g, cfg)
