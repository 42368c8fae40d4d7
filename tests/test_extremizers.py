import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from fisherqp import (
    ConstraintSpec,
    DegenerateGround,
    EdgeLocalized,
    Grid,
    InfeasibleTarget,
    NonDecaying,
    PhysicalConstants,
    epi_quantum_potential_check,
    epi_solve,
    fisher_information,
    gibbs_density,
    maxent_solve,
    mean_quantum_potential,
    quadrature,
    riccati_check,
    stationarity_residual,
)
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
    uniform_mean = quadrature(a) / (grid.xmax - grid.xmin)
    with pytest.raises(NonDecaying):
        maxent_solve(a, uniform_mean)
    density, alpha, _ = maxent_solve(a, uniform_mean, truncation_check=False)
    assert abs(alpha) <= 1e-9
    assert np.max(density.values) - np.min(density.values) <= 1e-9


def test_maxent_composes_with_gibbs(grid):
    a = x_squared(grid)
    density, alpha, _ = maxent_solve(a, 1.0)
    direct, _ = gibbs_density(a, alpha)
    assert np.array_equal(density.values, direct.values)


def test_maxent_negative_multiplier_branch(grid):
    # target above the uniform mean needs alpha < 0; use a bounded A
    a = grid.from_function(lambda x: np.tanh(x))
    density, alpha, _ = maxent_solve(a, 0.5, truncation_check=False)
    assert alpha < 0
    attained = quadrature_values(density.values * a.values, grid.dx)
    assert attained == pytest.approx(0.5, abs=1e-8)


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
    assert res.p_I.mass_check() == pytest.approx(1.0, abs=1e-9)
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


def test_epi_box_closed_form():
    g = Grid(0.0, 1.0, 8193)
    res = epi_solve(ConstraintSpec(A_fields=[], multipliers=[]), g)
    assert res.eigenvalue == pytest.approx(np.pi**2 / 2, rel=1e-6)
    assert res.alpha_norm == pytest.approx(4 * np.pi**2, rel=1e-6)
    closed = np.sqrt(2.0) * np.sin(np.pi * g.x)
    assert np.max(np.abs(res.psi.values - closed)) <= 1e-5
    # the log-derivative identity holds away from the hard walls
    buffer = int(round(0.1 / g.dx))
    assert riccati_check(res, exclude_boundary=buffer) <= 1e-3


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


def test_epi_quantum_potential_affine_in_constraint():
    g = Grid(-8.0, 8.0, 8193)
    res = ho_result(g)
    chk = epi_quantum_potential_check(res, C)
    q_scale = 0.5 * (1.0 + g.xmax**2)  # max |Q| order for the HO density
    assert chk.maxdev <= 1e-4 * q_scale
    assert chk.mean_lhs == pytest.approx(chk.mean_rhs, rel=1e-6)
    assert chk.mean_lhs == pytest.approx(res.fisher_I / 8.0, rel=1e-6)
    assert chk.nominal_slope_ratio == pytest.approx(0.5)


def test_epi_qp_check_shift_gauge(grid):
    # A -> A + c moves the gauge constant, not the deviation
    res = ho_result(grid)
    shifted = ScalarField(grid, grid.x**2 + 3.0)
    res2 = epi_solve(ConstraintSpec(A_fields=[shifted], multipliers=[-4.0]), grid)
    chk = epi_quantum_potential_check(res, C)
    chk2 = epi_quantum_potential_check(res2, C)
    q_scale = 0.5 * (1.0 + grid.xmax**2)
    assert chk.maxdev <= 1e-4 * q_scale
    assert chk2.maxdev <= 1e-4 * q_scale
    # gauge term absorbs (hbar^2/8m) * (-lambda * c) = 1.5
    assert chk2.gauge_constant - chk.gauge_constant == pytest.approx(1.5, abs=1e-3)


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
