import tracemalloc

import numpy as np
import pytest

from fisherqp import (
    ConstraintSpec,
    Grid,
    NonMonotoneMeanA,
    ScalarField,
    TooFewPoints,
    epi_solve,
    sweep,
    verify_euler,
    verify_legendre,
)
from fisherqp.grid import quadrature_values
from fisherqp.legendre import SweepTable, ThermoRecord

BASE_LAMBDAS = [-1.0, -2.0, -4.0, -8.0]


def geometric_lambdas(points: int):
    """lambda from -1 to -8 with geometric spacing, base points included."""
    return list(-np.exp(np.linspace(0.0, np.log(8.0), points)))


@pytest.fixture(scope="module")
def base_table():
    g = Grid(-8.0, 8.0, 4097)
    return sweep(g.from_function(lambda x: x * x), BASE_LAMBDAS, g)


@pytest.fixture(scope="module")
def refined_table():
    g = Grid(-8.0, 8.0, 4097)
    return sweep(g.from_function(lambda x: x * x), geometric_lambdas(7), g)


@pytest.fixture(scope="module")
def doubly_refined_table():
    g = Grid(-8.0, 8.0, 4097)
    return sweep(g.from_function(lambda x: x * x), geometric_lambdas(13), g)


def test_sweep_closed_forms(base_table):
    assert len(base_table.records) == 4
    assert not base_table.failures
    for rec in base_table.records:
        root = np.sqrt(-rec.lam)
        assert rec.I == pytest.approx(root, abs=1e-3)
        assert rec.meanA == pytest.approx(1.0 / root, abs=1e-3)
        assert rec.Lambda_pot == pytest.approx(2.0 * root, abs=2e-3)
        assert rec.alpha_norm == pytest.approx(2.0 * root, abs=1e-3)


def test_sweep_sorted_and_deterministic(base_table):
    lams = base_table.column("lam")
    assert np.all(np.diff(lams) > 0)
    g = Grid(-8.0, 8.0, 4097)
    again = sweep(g.from_function(lambda x: x * x), BASE_LAMBDAS, g)
    for a, b in zip(base_table.records, again.records):
        assert (a.lam, a.I, a.meanA, a.Lambda_pot) == (b.lam, b.I, b.meanA, b.Lambda_pot)


def test_sweep_memory_holds_one_solve_at_a_time():
    # a sweep's one workspace holds 7 arrays of n and a mask (the
    # operator's diagonal, one factor slot of two arrays, the iterate, the
    # T v product that then holds p, the scratch products, psi and the
    # mask); a solve that allocated beside it, or a previous multiplier's
    # result (p_I, its mask, U) kept alive, would exceed 8
    g = Grid(-12.0, 12.0, 65537)
    a = g.from_function(lambda x: x * x)
    lambdas = [-1.0, -2.0, -4.0, -8.0, -16.0, -32.0]
    sweep(a, lambdas[:2], g)  # loads the solver before anything is traced
    tracemalloc.start()
    try:
        table = sweep(a, lambdas, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table.records) == 6
    assert peak <= 8 * 8 * g.n


def test_one_multiplier_sweep_is_a_cold_epi_solve():
    # a sweep and a lone epi_solve share one solve: both start from all ones
    g = Grid(-8.0, 8.0, 2049)
    a = g.from_function(lambda x: x * x)
    (rec,) = sweep(a, [-3.0], g).records
    cold = epi_solve(ConstraintSpec(A_fields=[a], multipliers=[-3.0]), g)
    assert rec.I == cold.fisher_I
    assert rec.alpha_norm == cold.alpha_norm
    assert rec.meanA == quadrature_values(cold.p_I.values * a.values, g.dx)


def test_failed_multiplier_passes_the_previous_start_on():
    # lambda = -2 on -x^2 is unbound; the solve after it starts from all
    # ones, as if it were the sweep's first, not from the failed ground state
    g = Grid(-8.0, 8.0, 2049)
    a = g.from_function(lambda x: -x * x)
    table = sweep(a, [-2.0, 1.0, 2.0, 4.0], g)
    assert table.failures == [(-2.0, "EdgeLocalized")]
    assert table.records == sweep(a, [1.0, 2.0, 4.0], g).records


def test_warm_sweep_matches_cold_solves():
    # each lambda starts from its neighbour's psi; a cold solve starts from ones
    g = Grid(-12.0, 12.0, 16385)
    a = g.from_function(lambda x: x * x)
    table = sweep(a, list(-np.geomspace(1.0, 64.0, 13)), g)
    assert len(table.records) == 13
    for rec in table.records:
        cold = epi_solve(ConstraintSpec(A_fields=[a], multipliers=[rec.lam]), g)
        mean_a = quadrature_values(cold.p_I.values * a.values, g.dx)
        assert rec.I == pytest.approx(cold.fisher_I, rel=5e-10, abs=0.0)
        assert rec.meanA == pytest.approx(mean_a, rel=5e-10, abs=0.0)
        assert rec.alpha_norm == pytest.approx(cold.alpha_norm, rel=5e-10, abs=0.0)


def test_legendre_potential_definition(base_table):
    for rec in base_table.records:
        assert rec.Lambda_pot == rec.I - rec.lam * rec.meanA  # exact by construction


def test_sweep_records_failures():
    g = Grid(-8.0, 8.0, 2049)
    table = sweep(g.from_function(lambda x: x * x), [-4.0, -1.0, 4.0], g)
    assert [r.lam for r in table.records] == [-4.0, -1.0]
    assert table.failures == [(4.0, "EdgeLocalized")]


def test_fisher_euler(base_table, refined_table):
    assert verify_euler(base_table) <= 1e-2
    assert verify_euler(refined_table) <= 1e-2


def test_euler_too_few_points():
    rec = ThermoRecord(lam=-1.0, I=1.0, meanA=1.0, Lambda_pot=2.0, alpha_norm=2.0)
    with pytest.raises(TooFewPoints):
        verify_euler(SweepTable(records=[rec], failures=[]))


def test_legendre_relations(doubly_refined_table):
    rep = verify_legendre(doubly_refined_table)
    assert rep.dLambda_dlam_vs_negmeanA <= 2e-2
    assert rep.dI_dmeanA_vs_lambda <= 2e-2
    assert rep.reciprocity_d2I <= 2e-2
    assert rep.reciprocity_d2Lambda <= 2e-2


def test_legendre_residuals_shrink_under_refinement(refined_table, doubly_refined_table):
    coarse = verify_legendre(refined_table)
    fine = verify_legendre(doubly_refined_table)
    # differencing-limited residuals drop at second order (>= 3x per halving)
    assert coarse.dLambda_dlam_vs_negmeanA / fine.dLambda_dlam_vs_negmeanA >= 3.0
    assert coarse.reciprocity_d2I / fine.reciprocity_d2I >= 3.0
    assert coarse.reciprocity_d2Lambda / fine.reciprocity_d2Lambda >= 3.0
    # dI/d<A> sits at the eigensolver floor, far below tolerance
    assert fine.dI_dmeanA_vs_lambda <= 1e-4


def test_legendre_inversion_matches_closed_form(refined_table):
    # dI/d<A> = lambda: at <A> = 0.5 the multiplier is -4
    rec = min(refined_table.records, key=lambda r: abs(r.meanA - 0.5))
    assert rec.lam == pytest.approx(-4.0, rel=0.02)
    assert rec.meanA == pytest.approx(0.5, abs=1e-3)


def test_legendre_too_few_for_reciprocity(base_table):
    with pytest.raises(TooFewPoints):
        verify_legendre(base_table)


def test_non_monotone_mean_raises():
    g = Grid(-8.0, 8.0, 2049)
    flat = ScalarField(g, np.full(g.n, 2.0))
    table = sweep(flat, [-1.0, -2.0, -4.0, -8.0, -16.0], g)
    assert len(table.records) == 5
    with pytest.raises(NonMonotoneMeanA):
        verify_legendre(table)
