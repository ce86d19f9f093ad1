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
from scipy.linalg.lapack import dpotrf

from dirac_mfp import errors, solver
from dirac_mfp.profile import make_profile
from dirac_mfp.solver import (
    FlowField,
    SolverConfig,
    _analysis,
    _cholesky,
    _LEAF,
    _newton,
    _newton_matrix,
    _solve,
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
# Newton system: multifrontal Cholesky against the band solvers
# ---------------------------------------------------------------------------

def newton_system(theta, nt, ny):
    p = make_profile(theta)
    g = make_grid(p, eps=1e-3, T=1.0, nt=nt, ny=ny)
    ws = _Workspace(p, g)
    gamma = initial_guess(p, two_bump(theta), g)
    A = _newton_matrix(ws, gamma)
    return (A[0], A[1, :, :-1], A[2, :-1]), ws.gradient(gamma)[0]


def stencil_values(D, UY, UT):
    """The planes of `_analysis`, flat: the diagonal, the label couplings
    padded by a last column and the time couplings padded by a last row."""
    A = np.zeros((3, *D.shape))
    A[0], A[1, :, :-1], A[2, :-1] = D, UY, UT
    return A.ravel()


def upper_band(D, UY, UT):
    """Upper band storage (bandwidth ny+1) of the 5-point stencil."""
    M = D.shape[1]
    ab = np.zeros((M + 1, D.size))
    ab[M] = D.ravel()
    u1 = np.zeros_like(D)
    u1[:, :-1] = UY
    ab[M - 1, 1:] = u1.ravel()[:-1]
    ab[0, M:] = UT.ravel()
    return ab


@pytest.mark.parametrize("theta", [0.5, 3.0])
@pytest.mark.parametrize("nt,ny", [(4, 4), (5, 9), (16, 16), (33, 20), (64, 64),
                                   (100, 37), (37, 100), (128, 128),
                                   (4, 40), (40, 4), (9, 18), (6, 300)])
def test_multifrontal_matches_banded_cholesky(theta, nt, ny):
    # one factor, two right-hand sides: the factor is not changed by a solve
    (D, UY, UT), G = newton_system(theta, nt, ny)
    an, vals = _analysis(*D.shape), stencil_values(D, UY, UT)
    factor = _cholesky(an, vals)
    ab = upper_band(D, UY, UT)
    rng = np.random.default_rng(nt * ny)
    for rhs in (-G.ravel(), rng.standard_normal(G.size)):
        d = _solve(factor, rhs)
        ref = solveh_banded(ab, rhs)
        assert np.max(np.abs(d - ref)) <= 1e-12 * np.max(np.abs(ref))


def dense_block(D, UY, UT, nodes):
    """The stencil matrix on the grid nodes ``nodes`` (flat i * C + j), dense."""
    i, j = np.divmod(nodes, D.shape[1])
    A = np.diag(D[i, j])
    for a, b in zip(*np.nonzero(np.abs(i[:, None] - i) + np.abs(j[:, None] - j) == 1)):
        A[a, b] = (UY[i[a], min(j[a], j[b])] if i[a] == i[b]
                   else UT[min(i[a], i[b]), j[a]])
    return A


@pytest.mark.parametrize("nt,ny", [(16, 16), (100, 37), (37, 100), (128, 128)])
def test_leaf_factor_is_zero_below_its_band(nt, ny):
    # an h x w leaf box, its nodes along its short side, couples no two nodes
    # more than min(h, w) apart, so the Cholesky factor of its block is
    # exactly zero more than min(h, w) rows below the diagonal, and the band
    # `_cholesky` keeps is that of L (dpbtrf rounds otherwise than dpotrf)
    (D, UY, UT), _ = newton_system(3.0, nt, ny)
    an = _analysis(*D.shape)
    _, band, _, _ = _cholesky(an, stencil_values(D, UY, UT))
    assert band.shape == (_LEAF + 1, an.nleaf)
    seen = set()
    for fr in an.fronts:
        fc = fr.cls
        if fc.leaf is None or id(fc) in seen:
            continue
        seen.add(id(fc))
        s = fc.sep.size
        h, w = np.max(np.divmod(fc.sep, D.shape[1]), axis=1) + 1
        m = min(h, w)
        assert m <= _LEAF and max(h, w) <= 2 * _LEAF + 1
        L, info = dpotrf(dense_block(D, UY, UT, an.perm[fr.lo:fr.lo + s]), lower=1)
        assert info == 0
        assert np.all(np.tril(L, -m - 1) == 0.0)
        ab = band[:, fr.lo:fr.lo + s]
        for d in range(_LEAF + 1):
            assert (np.max(np.abs(ab[d, :s - d] - np.diagonal(L, -d)))
                    <= 1e-13 * np.max(np.abs(L)))
            assert np.all(ab[d, s - d:] == 0.0)  # no coupling between leaves
    assert seen


def test_indefinite_system_raises_degenerate_state():
    (D, UY, UT), G = newton_system(1.0, 16, 16)
    D = D.copy()
    D[7, 8] = -D[7, 8]                    # e_k^T A e_k < 0: indefinite
    with pytest.raises(errors.DegenerateStateError, match="dpotrf info"):
        _cholesky(_analysis(*D.shape), stencil_values(D, UY, UT))


def test_indefinite_leaf_raises_degenerate_state():
    # column 8 of the 15 x 17 grid is its one separator; column 3 is a leaf's
    (D, UY, UT), G = newton_system(1.0, 16, 16)
    D = D.copy()
    D[7, 3] = -D[7, 3]
    with pytest.raises(errors.DegenerateStateError, match="dpbtrf info"):
        _cholesky(_analysis(*D.shape), stencil_values(D, UY, UT))


def test_concurrent_solves_share_the_analysis():
    p = make_profile(3.0)
    g = make_grid(p, eps=1e-3, T=1.0, nt=32, ny=32)
    g128 = make_grid(p, eps=1e-3, T=1.0, nt=128, ny=128)   # a 64^2, 128^2 ladder
    cases = [(two_bump(3.0), g), (power_bump(-1.0, 1.0, 3.0), g),
             (two_bump(3.0), g128)]
    _analysis.cache_clear()               # all threads meet an empty cache
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


def test_factor_needs_under_a_quarter_of_the_band_at_512():
    # symbolic analysis only: no numeric factor is formed.  The factor keeps
    # the leaves' L in one (_LEAF + 1) x nleaf band, and of every other front
    # the packed lower triangle of its s x s diagonal block, s (s + 1) / 2
    # entries, and its b x s boundary block: 9.8 M entries, against 10.2 M
    # with a band per leaf of at most 8 x 8 nodes and 13.6 M with packed leaf
    # blocks.  The analysis holds one set of index arrays per front class
    # (197 classes for 4095 fronts); with the arrays of every front it held
    # 26.2 MiB.  Threads share the cached analysis, so none of its arrays may
    # be written.
    R, M = 511, 513                       # nt = ny = 512
    try:
        an = _analysis(R, M)
    finally:
        _analysis.cache_clear()
    entries = (_LEAF + 1) * an.nleaf + sum(
        s * (s + 1) // 2 + s * f.bnd.size
        for f in an.fronts if not f.cls.leaf for s in [f.cls.sep.size])
    assert entries <= (M + 1) * R * M / 4
    classes = {id(f.cls): f.cls for f in an.fronts}.values()
    assert len(classes) <= 300
    index = [an.perm, an.cbnd, an.cnode,
             *(f.bnd for f in an.fronts if not f.cls.leaf),
             *(a for c in classes
               for a in (c.sep, c.bnd, c.dst, c.src, *(c.leaf or ()),
                         *(pos for _, _, pos in c.children)))]
    assert not any(a.flags.writeable for a in index)
    assert all(f.bnd is None for f in an.fronts if f.cls.leaf)
    assert sum(a.nbytes for a in index) < 8 * 2**20


def test_newton_solve_at_256_stores_packed_diagonal_blocks():
    # one 256^2 Newton system, its analysis built beforehand: with each
    # front's diagonal block kept whole, the factor and solve peak at
    # 50.2 MiB; packed, at 40.0 MiB; with no boundary block kept for the
    # leaf fronts and the stencil planes passed without a copy, at 27.8 MiB;
    # a factor and then a substitution on its packed blocks, at 26.9 MiB;
    # with only the band of each leaf's L kept, at 20.7 MiB.  With leaves
    # that absorb their last separator, on one band, they peak at 19.4 MiB
    p = make_profile(3.0)
    g = make_grid(p, eps=1e-3, T=1.0, nt=256, ny=256)
    ws = _Workspace(p, g)
    gamma = initial_guess(p, power_bump(-0.7, 1.2, 3.0), g)
    A = _newton_matrix(ws, gamma)
    G = ws.gradient(gamma)[0]
    an = _analysis(*G.shape)
    try:
        tracemalloc.start()
        _solve(_cholesky(an, A.ravel()), -G.ravel())
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 20 * 2**20
    finally:
        tracemalloc.stop()
        _analysis.cache_clear()


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
    """`_newton` on ``g`` alone, from `initial_guess`: the start every grid
    had before grid sequencing."""
    return _newton(_Workspace(p, g), initial_guess(p, m, g), cfg)


def test_newton_converges_when_energy_drop_is_below_rounding(rounding_acceptances):
    # a late chord step changes the energy by less than its rounding, below
    # what Armijo can resolve; it is accepted because it lowers the scaled
    # gradient.  Without the rounding acceptance this input stalls at 5.4e-10
    # for all 200 steps
    p = make_profile(3.0)
    g = make_grid(p, eps=1e-3, T=1.0, nt=128, ny=128)
    m = power_bump(-0.9911619890570785, 0.9254716943843342, 3.0)
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
    p = make_profile(3.0)
    g = make_grid(p, eps=1e-3, T=1.0, nt=128, ny=128)
    m = power_bump(-0.9911619890570785, 0.9254716943843342, 3.0)
    gamma, steps, _, gn, _ = cold_newton(p, m, g)
    assert sum(rounding_acceptances) >= 1
    assert len(set(flows)) == len(flows)
    assert hash(gamma.tobytes()) in flows
    assert gradient(_Workspace(p, g), gamma)[1] == gn


def test_newton_converges_on_two_bump_table_near_rounding(rounding_acceptances):
    # without the rounding acceptance the scaled gradient of this sharp
    # two-bump table sits at 3.8e-10 from the sixth step on
    p = make_profile(3.0)
    g = make_grid(p, eps=1e-3, T=1.0, nt=256, ny=256)
    a, b = -1.0006253310061373, 1.0139330509821234
    x = np.linspace(a, b, 400)
    s = 0.3021837572982391
    bumps = (np.exp(-0.5 * ((x + 0.35513798774040606) / s) ** 2)
             + 1.1903270351594082 * np.exp(-0.5 * ((x - 0.40467911716250904) / s) ** 2)
             + 0.3)
    edge = np.clip((x - a) * (b - x), 0.0, None) ** (1.0 / 3.0)
    m = TerminalDensity.from_table(x, edge * bumps, theta=3.0)
    _, steps, _, gn, _ = cold_newton(p, m, g, SolverConfig(newton_max_iter=10))
    assert sum(rounding_acceptances) >= 1
    assert steps <= 7
    assert gn <= SolverConfig().residual_tol


@pytest.mark.parametrize("kind", ["power_bump", "two_bump"])
@pytest.mark.parametrize("theta", [1.0, 3.0])
def test_chord_steps_save_fine_factorizations(monkeypatch, theta, kind):
    p = make_profile(theta)
    g = make_grid(p, eps=1e-3, T=1.0, nt=128, ny=128)
    m = power_bump(-0.7, 1.2, theta) if kind == "power_bump" else two_bump(theta)
    f = solve(p, m, g)
    _, _, steps, factored = f.info.levels[-1]
    assert factored < steps
    assert f.info.grad_norm <= SolverConfig().residual_tol
    monkeypatch.setattr(solver, "_CHORD_SWITCH", 0.0)      # plain Newton
    plain = solve(p, m, g)
    assert all(k == nf for _, _, k, nf in plain.info.levels)
    assert np.max(np.abs(f.gamma - plain.gamma)) <= 2e-11


@pytest.mark.parametrize("power", [1.0, 2.0])
@pytest.mark.parametrize("theta", [1.0, 3.0, 10.0])
def test_chord_steps_converge_on_singular_edges(theta, power):
    # edge exponents at and above 1/theta, where the fine level takes the
    # most steps
    p = make_profile(theta)
    g = make_grid(p, eps=1e-3, T=1.0, nt=128, ny=128)
    f = solve(p, _Bump(-0.7, 1.2, power), g)
    _, _, steps, factored = f.info.levels[-1]
    assert 1 <= factored <= steps
    assert f.info.grad_norm <= SolverConfig().residual_tol


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


@pytest.mark.parametrize("nt,ny", [(100, 128), (64, 64), (128, 96)])
def test_grid_that_does_not_halve_is_solved_cold(nt, ny):
    # nt = 100 and ny = 96 halve below 64; 64 does not halve at all
    p = make_profile(3.0)
    g = make_grid(p, eps=1e-3, T=1.0, nt=nt, ny=ny)
    m = two_bump(3.0)
    f = solve(p, m, g)
    cold, steps, factored, gn, E = cold_newton(p, m, g)
    assert np.array_equal(f.gamma, cold)
    assert f.info.levels == ((nt, ny, steps, factored),)
    assert (f.info.iterations, f.info.grad_norm, f.info.energy) == (steps, gn, E)


def test_sequencing_with_unequal_axes():
    p = make_profile(1.0)
    g = make_grid(p, eps=1e-3, T=1.0, nt=256, ny=128)
    m = two_bump(1.0)
    f = solve(p, m, g)
    assert [lv[:2] for lv in f.info.levels] == [(128, 64), (256, 128)]
    # the coarse level's nodes are the fine grid's, bit for bit
    coarse = solver._ladder(g)[0]
    assert np.array_equal(coarse.t, g.t[::2]) and np.array_equal(coarse.y, g.y[::2])
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

    def recording_newton(ws, gamma, cfg):
        tols.append((ws.grid.nt, cfg.residual_tol))
        return newton(ws, gamma, cfg)

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
    p = make_profile(1.0)
    fine = make_grid(p, eps=1e-3, T=1.0, nt=16, ny=8)
    coarse = solver.SpaceTimeGrid(fine.eps, fine.T, fine.t[::2], fine.y[::2])
    # a field bilinear in (log(t+eps), y) is reproduced to rounding
    def field(g):
        tau = np.log(g.sigma)[:, None]
        return 0.3 + 2.0 * tau - 0.5 * g.y[None, :] + 0.7 * tau * g.y[None, :]
    fine_values = solver._prolong(field(coarse))
    assert fine_values.shape == (17, 9)
    assert np.max(np.abs(fine_values - field(fine))) <= 1e-12


def test_coarse_level_failure_names_its_grid():
    p = make_profile(3.0)
    g = make_grid(p, eps=1e-3, T=1.0, nt=128, ny=128)
    with pytest.raises(errors.NewtonDivergenceError, match="on the 64x64 grid"):
        solve(p, two_bump(3.0), g, SolverConfig(newton_max_iter=2))


def test_repeated_solve_reuses_the_analysis_of_every_level():
    p = make_profile(1.0)
    g = make_grid(p, eps=1e-3, T=1.0, nt=256, ny=256)
    m = power_bump(-1.0, 1.0, 1.0)
    _analysis.cache_clear()
    try:
        f = solve(p, m, g)
        assert len(f.info.levels) == 3
        misses = _analysis.cache_info().misses
        assert misses == 3
        solve(p, m, g)
        assert _analysis.cache_info().misses == misses
    finally:
        _analysis.cache_clear()


# ---------------------------------------------------------------------------
# error contracts and alternatives
# ---------------------------------------------------------------------------

def test_newton_cap_raises():
    p = make_profile(1.0)
    g = make_grid(p, eps=1e-3, T=1.0, nt=24, ny=24)
    cfg = SolverConfig(newton_max_iter=1)
    with pytest.raises(errors.NewtonDivergenceError):
        solve(p, power_bump(-2.0, 2.0, 1.0), g, cfg)
