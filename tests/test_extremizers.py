import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal
from scipy.linalg.lapack import dpttrf

from fisherqp import (
    ConstraintSpec,
    DegenerateGround,
    EdgeLocalized,
    Grid,
    InfeasibleTarget,
    NonDecaying,
    PhysicalConstants,
    epi_solve,
    gibbs_density,
    maxent_solve,
    mean_quantum_potential,
    quantum_potential,
    riccati_check,
    stationarity_residual,
)
from fisherqp import extremizers
from fisherqp.extremizers import (
    DEGENERACY_TOL,
    _count_below,
    _extremize,
    _ground_state,
    _Workspace,
)
from fisherqp.functionals import weighted_max_dev
from fisherqp.grid import ScalarField, quadrature_values

C = PhysicalConstants()


def x_squared(grid):
    return grid.from_function(lambda x: x * x)


# ---------------------------------------------------------------------------
# MaxEnt
# ---------------------------------------------------------------------------


def test_maxent_standard_normal(grid):
    density, alpha, z = maxent_solve(x_squared(grid), 1.0)
    assert alpha == pytest.approx(0.5, abs=1e-6)
    assert z == pytest.approx(np.sqrt(2 * np.pi), abs=1e-6)
    closed = np.exp(-grid.x**2 / 2) / np.sqrt(2 * np.pi)
    assert np.max(np.abs(density.values - closed)) <= 1e-8
    attained = quadrature_values(density.values * grid.x**2, grid.dx)
    assert attained == pytest.approx(1.0, abs=1e-8)


def test_maxent_infeasible_target(grid):
    with pytest.raises(InfeasibleTarget):
        maxent_solve(x_squared(grid), 100.0)  # max(A) = 64
    with pytest.raises(InfeasibleTarget):
        maxent_solve(x_squared(grid), -1.0)


def test_maxent_flat_limit(grid):
    # target equal to the uniform mean of A drives alpha to 0
    a = x_squared(grid)
    uniform_mean = quadrature_values(a.values, grid.dx) / (grid.xmax - grid.xmin)
    with pytest.raises(NonDecaying):
        maxent_solve(a, uniform_mean)


def test_maxent_composes_with_gibbs(grid):
    a = x_squared(grid)
    density, alpha, _ = maxent_solve(a, 1.0)
    direct, _ = gibbs_density(a, alpha)
    assert np.array_equal(density.values, direct.values)


def test_maxent_negative_multiplier_branch(grid):
    # A = -x^2 with target -1 needs alpha = -1/2: exp(-alpha A) still decays
    a = grid.from_function(lambda x: -x * x)
    density, alpha, _ = maxent_solve(a, -1.0)
    assert alpha < 0
    attained = quadrature_values(density.values * a.values, grid.dx)
    assert attained == pytest.approx(-1.0, abs=1e-8)


# ---------------------------------------------------------------------------
# Fisher extremization
# ---------------------------------------------------------------------------


def ho_result(grid, lam=-4.0):
    spec = ConstraintSpec(A_fields=[x_squared(grid)], multipliers=[lam])
    return epi_solve(spec, grid)


def test_epi_harmonic_closed_form(grid):
    res = ho_result(grid)
    assert res.alpha_norm == pytest.approx(4.0, abs=1e-3)
    assert res.fisher_I == pytest.approx(2.0, abs=1e-3)
    closed = np.exp(-grid.x**2 / 0.5 / 2) / np.sqrt(2 * np.pi * 0.5)
    assert np.max(np.abs(res.p_I.values - closed)) <= 1e-4
    assert quadrature_values(res.p_I.values, grid.dx) == pytest.approx(1.0, abs=1e-9)
    assert np.all(res.psi.values >= -1e-12)


def test_epi_contraction_identity(grid):
    # FI = alpha_norm + lambda <A>, from contracting stationarity with p;
    # central-difference FI matches it to discretization error
    res = ho_result(grid)
    mean_a = quadrature_values(res.p_I.values * grid.x**2, grid.dx)
    assert res.fisher_I == pytest.approx(res.alpha_norm - 4.0 * mean_a, rel=1e-4)


def test_epi_stationarity_residual(grid):
    assert stationarity_residual(ho_result(grid)) <= 1e-4


def test_epi_riccati_harmonic(grid):
    assert riccati_check(ho_result(grid)) <= 1e-3


def test_epi_residuals_read_the_same_at_every_length_scale():
    # one x^2 problem at three length scales: lambda L^4 is fixed, so the
    # grids of n = 1025 on [-L, L] sample the same ground state, and each
    # residual, relative to its own G term, reads the same on all three
    readings = []
    for half, lam in ((4.0, -16.0), (8.0, -1.0), (16.0, -1.0 / 16.0)):
        g = Grid(-half, half, 1025)
        res = epi_solve(ConstraintSpec(A_fields=[x_squared(g)], multipliers=[lam]), g)
        readings.append((stationarity_residual(res), riccati_check(res)))
    (stationarity, riccati), *rest = readings
    for s, r in rest:
        assert s == pytest.approx(stationarity, rel=1e-10)
        assert r == pytest.approx(riccati, rel=1e-7)
    assert stationarity == pytest.approx(9.1542e-5, rel=1e-4)


def test_epi_box_closed_form():
    g = Grid(0.0, 1.0, 8193)
    res = epi_solve(ConstraintSpec(A_fields=[], multipliers=[]), g)
    assert res.eigenvalue == pytest.approx(np.pi**2 / 2, rel=1e-6)
    assert res.alpha_norm == pytest.approx(4 * np.pi**2, rel=1e-6)
    closed = np.sqrt(2.0) * np.sin(np.pi * g.x)
    assert np.max(np.abs(res.psi.values - closed)) <= 1e-5


def test_riccati_zero_on_flat_interior():
    # exactly constant psi on a plateau with G = 0: every term vanishes
    # identically (the difference-form stencils return exact zeros)
    g = Grid(-8.0, 8.0, 2049)
    plateau = np.where(np.abs(g.x) <= 4.0, 1.0,
                       np.exp(-((np.abs(g.x) - 4.0) ** 2) / 0.5))
    from fisherqp.grid import derivative_values

    flat = np.abs(g.x) < 4.0 - 5 * g.dx
    v = derivative_values(np.log(plateau), g.dx)
    residual = derivative_values(v, g.dx) + v**2  # G = 0 here
    assert np.max(np.abs(residual[flat])) == 0.0


def test_epi_inverted_potential_edge_localized(grid):
    spec = ConstraintSpec(A_fields=[x_squared(grid)], multipliers=[+4.0])
    with pytest.raises(EdgeLocalized):
        epi_solve(spec, grid)


def test_epi_degenerate_double_well(grid):
    a = grid.from_function(lambda x: (x * x - 4.0) ** 2)
    spec = ConstraintSpec(A_fields=[a], multipliers=[-50.0])
    with pytest.raises(DegenerateGround):
        epi_solve(spec, grid)


def reference_ground(a, lam, grid):
    """Two lowest eigenvalues and the ground state of the EPI operator from
    LAPACK bisection and inverse iteration (``dstebz``/``dstein``), with
    psi sign-fixed and normalized as ``epi_solve`` does."""
    kin = 1.0 / (2.0 * grid.dx * grid.dx)
    diag = 2.0 * kin - (lam * a.values)[1:-1] / 8.0
    off = np.full(grid.n - 3, -kin)
    vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, 1))
    psi = np.zeros(grid.n)
    psi[1:-1] = vecs[:, 0]
    psi *= np.sign(psi[np.argmax(np.abs(psi))])
    return vals, psi / np.sqrt(quadrature_values(psi**2, grid.dx))


@pytest.mark.parametrize("lam", [-1.0, -8.0, -64.0])
def test_epi_matches_reference_fine_grid(lam):
    g = Grid(-12.0, 12.0, 65537)
    a = x_squared(g)
    res = epi_solve(ConstraintSpec(A_fields=[a], multipliers=[lam]), g)
    vals, psi = reference_ground(a, lam, g)
    assert res.eigenvalue == pytest.approx(vals[0], rel=1e-8)
    assert np.max(np.abs(res.psi.values - psi)) <= 1e-9


@pytest.mark.parametrize("tau", [1e-2, 1e-4, 1e-6])
@pytest.mark.parametrize("lam", [-8.0, -16.0, -30.0])
def test_epi_tilted_double_well_ground_state(lam, tau):
    # the tilt splits the two wells' levels by far less than the excitation
    # inside a well; a solver that settles on the first excited state (the
    # other well) reports e1 and a psi that differs at O(1)
    g = Grid(-8.0, 8.0, 4097)
    a = g.from_function(lambda x: (x * x - 4.0) ** 2 + tau * x)
    res = epi_solve(ConstraintSpec(A_fields=[a], multipliers=[lam]), g)
    vals, psi = reference_ground(a, lam, g)
    assert res.eigenvalue == pytest.approx(vals[0], rel=1e-10)
    assert np.all(res.psi.values >= 0.0)
    assert np.max(np.abs(res.psi.values - psi)) <= 1e-3 * np.max(psi)


def test_epi_degeneracy_boundary(grid):
    # symmetric double well: the tunnelling gap is 1.2e-9 relative at
    # lambda = -20 (resolved) and 7.2e-11 at lambda = -25 (below DEGENERACY_TOL)
    a = grid.from_function(lambda x: (x * x - 4.0) ** 2)
    res = epi_solve(ConstraintSpec(A_fields=[a], multipliers=[-20.0]), grid)
    vals, psi = reference_ground(a, -20.0, grid)
    assert (vals[1] - vals[0]) / vals[1] == pytest.approx(1.2e-9, rel=0.1)
    assert res.eigenvalue == pytest.approx(vals[0], rel=1e-10)
    with pytest.raises(DegenerateGround):
        epi_solve(ConstraintSpec(A_fields=[a], multipliers=[-25.0]), grid)


def test_epi_far_start_matches_reference():
    # started from the lambda = -64 ground state, far narrower than the target
    g = Grid(-12.0, 12.0, 65537)
    a = x_squared(g)
    ws = _Workspace(g.n)
    _extremize(ConstraintSpec(A_fields=[a], multipliers=[-64.0]), g, ws)
    eigenvalue, _ = _extremize(ConstraintSpec(A_fields=[a], multipliers=[-1.0]), g, ws)
    vals, psi = reference_ground(a, -1.0, g)
    assert eigenvalue == pytest.approx(vals[0], rel=1e-8)
    assert np.max(np.abs(ws.psi - psi)) <= 1e-9


@pytest.mark.parametrize("constraint, lam, error", [
    (x_squared, 1.0, EdgeLocalized),
    (lambda g: g.from_function(lambda x: (x * x - 4.0) ** 2), -25.0, DegenerateGround),
], ids=["edge-localized", "degenerate"])
def test_failed_solve_in_mid_stream_passes_the_previous_start_on(grid, constraint, lam,
                                                                 error):
    # the solve after a failed one starts from the last ground state that
    # passed its checks, not from the failed candidate: it matches, to the
    # bit, the same two successes run without the failure between them
    a = x_squared(grid)
    first = ConstraintSpec(A_fields=[a], multipliers=[-4.0])
    second = ConstraintSpec(A_fields=[a], multipliers=[-2.0])
    failing = ConstraintSpec(A_fields=[constraint(grid)], multipliers=[lam])
    ws, plain = _Workspace(grid.n), _Workspace(grid.n)
    _extremize(first, grid, ws)
    with pytest.raises(error):
        _extremize(failing, grid, ws)
    _extremize(first, grid, plain)
    assert _extremize(second, grid, ws) == _extremize(second, grid, plain)
    assert np.array_equal(ws.psi, plain.psi)


def reference_count(diag, off, s):
    """min(2, eigenvalues at or below s) from the full spectrum."""
    return min(2, int(np.sum(eigvalsh_tridiagonal(diag, full_off(diag, off)) <= s)))


def full_off(diag, off):
    """The off-diagonal array of the tridiagonal (diag, off), off one number."""
    return np.full(len(diag) - 1, off)


def random_tridiagonals(count=200):
    """(diag, off) of ``count`` seeded random symmetric tridiagonals, 4 to 64
    rows, the diagonal and the one off-diagonal value standard normal."""
    rng = np.random.default_rng(20081)
    for _ in range(count):
        n = int(rng.integers(4, 65))
        yield rng.normal(size=n), float(rng.normal())


def workspace_for(diag):
    """A workspace whose operator has the diagonal ``diag``."""
    ws = _Workspace(len(diag) + 2)
    ws.diag[1:-1] = diag
    return ws


def test_count_below_matches_reference_count():
    for diag, off in random_tridiagonals():
        slot = workspace_for(diag).factors
        ev = eigvalsh_tridiagonal(diag, full_off(diag, off))
        nudge = 1e-8 * np.max(np.abs(ev))
        shifts = [ev[0] - 1.0, 0.5 * (ev[0] + ev[1]), 0.5 * (ev[1] + ev[2]),
                  ev[0] + nudge, ev[1] + nudge, ev[2] + nudge]
        for s in shifts:
            assert _count_below(diag, off, s, *slot) == reference_count(diag, off, s)


def counted_pttrf(ws, fail=lambda d1: False):
    """Wrap ``ws.pttrf`` and ``ws.pttrs``; returns (factored, solved_after):
    the (info, d_1 = a_1 - sigma) of each ``?pttrf`` and the info of the last
    ``?pttrf`` before each ``?pttrs``.  A ``?pttrf`` whose d_1 makes
    ``fail(d_1)`` true leaves NaN in the slot and reports a failure, as a
    failed factorization leaves the slot unusable."""
    factored, solved_after = [], []
    pttrf, pttrs = ws.pttrf, ws.pttrs

    def factor():
        d1 = float(ws.factors[0][0])
        info = pttrf()
        if fail(d1):
            ws.factors[0].fill(np.nan)
            info = 1
        factored.append((info, d1))
        return info

    ws.pttrf = factor
    ws.pttrs = lambda: solved_after.append(factored[-1][0]) or pttrs()
    return factored, solved_after


def test_ground_state_matches_reference_spectrum():
    # rho, certified by the one count at rho + width, is the reference e0
    # to within rounding, and the count is the reference count there.  A
    # trial shift that fails to factor leaves the one slot unusable; every
    # ?pttrs still solves with the factors of a shift that factored.  77 of
    # the 200 matrices fail a trial
    trial_failed = 0
    for diag, off in random_tridiagonals():
        ev = eigvalsh_tridiagonal(diag, full_off(diag, off))
        radius = np.full_like(diag, 2.0 * abs(off))
        radius[0] = radius[-1] = abs(off)
        floor = np.finfo(float).eps * max(abs(np.min(diag - radius)),
                                          abs(np.max(diag + radius)))
        ws = workspace_for(diag)
        factored, solved_after = counted_pttrf(ws)
        e0, count = _ground_state(ws, off)
        assert abs(e0 - ev[0]) <= len(diag) * floor
        width = max(DEGENERACY_TOL * abs(e0), 4.0 * floor)
        assert count == reference_count(diag, off, e0 + width)
        assert set(solved_after) == {0}
        trial_failed += any(info for info, _ in factored)
    assert trial_failed >= 50


def test_a_round_whose_every_trial_fails_refactors_the_last_good_shift():
    # every trial of the first round fails; the round factors the first
    # shift again before the next ?pttrs, and the iteration goes on from it
    diag, off = next(random_tridiagonals(1))
    ws = workspace_for(diag)
    shifts = []  # d_1 of each ?pttrf

    def fail_first_round(d1):
        shifts.append(d1)
        return len(shifts) > 1 and shifts.count(shifts[0]) == 1

    factored, solved_after = counted_pttrf(ws, fail_first_round)
    e0, count = _ground_state(ws, off)
    assert factored[1][0] != 0 and shifts.count(shifts[0]) == 2
    assert set(solved_after) == {0}
    assert e0 == pytest.approx(eigvalsh_tridiagonal(diag, full_off(diag, off))[0], rel=1e-12)
    assert count == 1


def test_ground_state_count_of_zero_is_refused(monkeypatch):
    # no eigenvalue at or below rho + width contradicts the residual bound
    monkeypatch.setattr(extremizers, "_count_below", lambda diag, off, s, d, e: 0)
    diag, off = next(random_tridiagonals(1))
    with pytest.raises(np.linalg.LinAlgError, match="is not the ground eigenvalue"):
        _ground_state(workspace_for(diag), off)


@pytest.mark.parametrize("diag,off,info,zero,count", [
    ([2.0, 2.0, 2.0, 2.0, 2.0, -5.0], 0.1, 6, False, 1),   # only the last fails
    ([2.0, 2.0, 2.0, 2.0, -5.0, 3.0], 0.1, 5, False, 1),   # one-point tail
    ([2.0, 2.0, 2.0, 2.0, -5.0, -5.0], 0.1, 5, False, 2),
    ([1.0, 1.0, 1.0, 1.0], 1.0, 2, True, 1),
    ([1.0, 1.0, 1.0, -5.0], 1.0, 2, True, 2),
], ids=["last-pivot", "tail-1-pos", "tail-1-neg", "zero-pivot", "zero-then-neg"])
def test_count_below_edge_pivots(diag, off, info, zero, count):
    # at s = 0: where ?pttrf stops, whether that pivot is exactly zero, the count
    diag = np.array(diag)
    d, _, first_fail = dpttrf(diag, full_off(diag, off))
    assert first_fail == info
    assert (d[info - 1] == 0.0) == zero
    assert reference_count(diag, off, 0.0) == count
    assert _count_below(diag, off, 0.0, *workspace_for(diag).factors) == count


def test_workspace_solve_allocates_no_array_of_n():
    # a solve in a workspace an earlier solve has used allocates nothing of
    # length n: its traced peak rises less than one array of n
    g = Grid(-12.0, 12.0, 16385)
    a = x_squared(g)
    ws = _Workspace(g.n)
    tracemalloc.start()
    try:
        _extremize(ConstraintSpec(A_fields=[a], multipliers=[-1.0]), g, ws)
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        _extremize(ConstraintSpec(A_fields=[a], multipliers=[-2.0]), g, ws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - held < 8 * g.n


def test_epi_solve_releases_its_workspace_before_copying_results_out():
    # a lone solve's traced rise is its workspace, 7 arrays of n and a
    # mask (see test_sweep_memory_holds_one_solve_at_a_time); the copies
    # into EPIResult (p_I, its mask, psi, U) come after the workspace's
    # factor slot and iterate are gone, so they add nothing to the peak
    g = Grid(-12.0, 12.0, 16385)
    spec = ConstraintSpec(A_fields=[x_squared(g)], multipliers=[-1.0])
    epi_solve(spec, g)  # loads the solver before anything is traced
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        result = epi_solve(spec, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.eigenvalue > 0.0
    assert peak - held <= 8 * 8 * g.n


def test_epi_refuses_single_interior_point():
    g = Grid(-1.0, 1.0, 3)
    with pytest.raises(ValueError, match="interior"):
        epi_solve(ConstraintSpec(A_fields=[x_squared(g)], multipliers=[-4.0]), g)


def test_epi_eigenvalue_second_order_convergence():
    def err(n):
        g = Grid(-8.0, 8.0, n)
        return abs(ho_result(g).eigenvalue - 0.5)

    assert err(1025) / err(2049) >= 3.5


def test_epi_multi_constraint_sum(grid):
    # two constraints summing to the harmonic case reproduce it
    a1 = grid.from_function(lambda x: x * x)
    a2 = grid.from_function(lambda x: 0.5 * x * x)
    spec = ConstraintSpec(A_fields=[a1, a2], multipliers=[-2.0, -4.0])
    res = epi_solve(spec, grid)
    assert res.alpha_norm == pytest.approx(4.0, abs=1e-3)


def test_constraint_spec_validation(grid):
    with pytest.raises(TypeError):
        ConstraintSpec(A_fields=[x_squared(grid)])
    with pytest.raises(ValueError):
        ConstraintSpec(A_fields=[x_squared(grid)], multipliers=[1.0, 2.0])


def epi_qp_deviation(spec, grid):
    """The epi solution and the weighted deviation of its quantum potential
    from (hbar^2/8m)(sum lambda A + alpha_norm), the affine image the
    eigen-equation pins, with sum lambda A = 8 U read off the solver."""
    res = epi_solve(spec, grid)
    d = res.p_I
    coeff = C.hbar**2 / (8.0 * C.mass)
    rhs = coeff * (8.0 * res.effective_potential.values + res.alpha_norm)
    q = quantum_potential(d, C).values
    return res, weighted_max_dev(q, np.where(d.support_mask, rhs, 0.0), d)


def test_epi_quantum_potential_affine_in_constraint():
    g = Grid(-8.0, 8.0, 8193)
    spec = ConstraintSpec(A_fields=[x_squared(g)], multipliers=[-4.0])
    res, maxdev = epi_qp_deviation(spec, g)
    q_scale = 0.5 * (1.0 + g.xmax**2)  # max |Q| order for the HO density
    assert maxdev <= 1e-4 * q_scale
    # integrated against p_I: integral(p_I Q) through the constraint average
    mean = mean_quantum_potential(res.p_I, C)
    u = res.effective_potential.values
    through_a = C.hbar**2 / (8.0 * C.mass) * (8.0 * quadrature_values(res.p_I.values * u, g.dx)
                                             + res.alpha_norm)
    assert mean == pytest.approx(through_a, rel=1e-6)
    assert mean == pytest.approx(res.fisher_I / 8.0, rel=1e-6)


def test_epi_qp_check_shift_gauge(grid):
    # A -> A + c moves the gauge constant (hbar^2/8m) alpha_norm, not the deviation
    q_scale = 0.5 * (1.0 + grid.xmax**2)
    gauge = []
    for a in (grid.x**2, grid.x**2 + 3.0):
        spec = ConstraintSpec(A_fields=[ScalarField(grid, a)], multipliers=[-4.0])
        res, maxdev = epi_qp_deviation(spec, grid)
        assert maxdev <= 1e-4 * q_scale
        gauge.append(C.hbar**2 / (8.0 * C.mass) * res.alpha_norm)
    # gauge term absorbs (hbar^2/8m) * (-lambda * c) = 1.5
    assert gauge[1] - gauge[0] == pytest.approx(1.5, abs=1e-3)


def constrained_objective(p_values, spec, grid):
    """Solver-consistent discrete objective FI[p] - sum_i lambda_i <A_i>.

    Fisher information is evaluated in the forward-difference amplitude
    form 4 * sum dx ((psi_{j+1}-psi_j)/dx)^2, the quadratic form whose
    stationary point is exactly the discrete ground state; moments use
    flat sums.
    """
    dx = grid.dx
    psi = np.sqrt(np.clip(p_values, 0.0, None))
    fi = 4.0 * float(np.sum((np.diff(psi) / dx) ** 2)) * dx
    moments = sum(
        lam * float(np.sum(a.values * p_values)) * dx
        for lam, a in zip(spec.multipliers, spec.A_fields)
    )
    return fi - moments


def test_epi_extremality_probe(grid):
    res = ho_result(grid)
    spec = ConstraintSpec(A_fields=[x_squared(grid)], multipliers=[-4.0])
    p = res.p_I.values
    j0 = constrained_objective(p, spec, grid)
    rng = np.random.default_rng(11)
    eps = 1e-4
    x = grid.x
    for _ in range(20):
        # smooth multiplicative direction: keeps p + eps*dp positive and decayed
        ks = rng.integers(1, 6, size=3)
        phases = rng.uniform(0, 2 * np.pi, size=3)
        b = sum(np.cos(k * np.pi * x / 8.0 + ph) for k, ph in zip(ks, phases))
        dp = p * b
        dp -= p * (np.sum(dp) / np.sum(p))   # flat-sum mass preservation
        dp /= np.max(np.abs(dp))
        up = constrained_objective(p + eps * dp, spec, grid)
        down = constrained_objective(p - eps * dp, spec, grid)
        slope = (up - down) / (2 * eps)
        assert abs(slope) <= 1e-6 * max(1.0, abs(j0))
        # second-order change only
        assert abs(up - j0) <= 100.0 * eps**2 * max(1.0, abs(j0)) + 1e-12
