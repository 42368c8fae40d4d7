import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fisherqp import (
    Density,
    Grid,
    PhysicalConstants,
    QPForm,
    ScalarField,
    density_from_samples,
    differential_entropy,
    fisher_information,
    mean_quantum_potential,
    momentum_fluctuation,
    osmotic_fields,
    quantum_potential,
)
from fisherqp.functionals import masked_quadrature, weighted_max_dev
from fisherqp.grid import derivative_values
from fisherqp.suites import identities_suite

from conftest import checks_by_name, gaussian_density, mixture_density


def fisher_oracle(sigma: float) -> float:
    """High-resolution quadrature of the closed-form integrand (P')^2/P
    for a centered normal, independent of the package's stencils."""
    g = Grid(-10.0 * sigma, 10.0 * sigma, 65537)
    x = g.x
    p = np.exp(-(x**2) / (2 * sigma**2)) / np.sqrt(2 * np.pi * sigma**2)
    dp = -(x / sigma**2) * p
    return float(np.trapezoid(dp**2 / p, dx=g.dx))


# frozen from fisher_oracle; analytic value is 1/sigma^2
FISHER_N01 = 1.0
FISHER_N02 = 0.25


def test_fisher_oracle_agrees_with_closed_form():
    assert fisher_oracle(1.0) == pytest.approx(FISHER_N01, abs=1e-12)
    assert fisher_oracle(2.0) == pytest.approx(FISHER_N02, abs=1e-12)


def test_fisher_information_standard_normal(standard_normal):
    assert fisher_information(standard_normal) == pytest.approx(FISHER_N01, abs=1e-6)


def test_fisher_information_wide_normal():
    g = Grid(-16.0, 16.0, 8193)
    d = gaussian_density(g, sigma=2.0)
    assert fisher_information(d) == pytest.approx(FISHER_N02, abs=1e-6)


def test_fisher_translation_invariance(grid):
    a = fisher_information(gaussian_density(grid, 0.9, 0.0))
    b = fisher_information(gaussian_density(grid, 0.9, 0.5))
    assert a == pytest.approx(b, abs=1e-8)


@pytest.mark.parametrize("sigma", [0.5, 2.0])
def test_fisher_scaling(sigma):
    g = Grid(-16.0, 16.0, 16385)
    base = fisher_information(gaussian_density(g, 1.0))
    scaled = fisher_information(gaussian_density(g, sigma))
    assert scaled == pytest.approx(base / sigma**2, rel=1e-5)


def test_entropy_standard_normal(standard_normal):
    want = 0.5 * np.log(2 * np.pi * np.e)
    assert differential_entropy(standard_normal) == pytest.approx(want, abs=1e-6)


def test_entropy_uniform_is_zero():
    g = Grid(0.0, 1.0, 1001)
    d = density_from_samples(ScalarField(g, np.ones(g.n)), truncation_check=False)
    assert differential_entropy(d) == pytest.approx(0.0, abs=1e-12)


def test_entropy_shift_under_scaling():
    g = Grid(-16.0, 16.0, 16385)
    h1 = differential_entropy(gaussian_density(g, 1.0))
    h2 = differential_entropy(gaussian_density(g, 2.0))
    assert h2 - h1 == pytest.approx(np.log(2.0), abs=1e-6)


def test_quantum_potential_gaussian_values(standard_normal, natural, grid):
    q = quantum_potential(standard_normal, natural)
    i0 = grid.n // 2
    i2 = int(round((2.0 - grid.xmin) / grid.dx))
    assert q.values[i0] == pytest.approx(0.25, abs=1e-6)
    assert q.values[i2] == pytest.approx(-0.25, abs=1e-6)
    # closed form 1/4 - x^2/8 across the bulk
    bulk = np.abs(grid.x) < 4
    assert np.max(np.abs(q.values - (0.25 - grid.x**2 / 8))[bulk]) <= 1e-5


def test_quantum_potential_four_forms_single_gaussian(standard_normal, natural):
    ref = quantum_potential(standard_normal, natural, QPForm.SQRT).values
    scale = np.max(np.abs(ref))
    for form in (QPForm.GRAD, QPForm.FLUCT):
        q = quantum_potential(standard_normal, natural, form).values
        assert weighted_max_dev(q, ref, standard_normal) <= 1e-6 * scale


def test_weighted_max_dev_is_the_masked_weighted_sup(grid):
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = mixture_density(grid, rng)
        a, b = rng.standard_normal((2, grid.n))
        p = d.values
        ref = np.max(np.where(d.support_mask, p / np.max(p) * np.abs(a - b), 0.0))
        assert weighted_max_dev(a, b, d) == float(ref)
    assert weighted_max_dev(a, b, Density(d.field, np.zeros(grid.n, dtype=bool))) == 0.0


def test_quantum_potential_four_forms_random_mixtures(natural):
    g = Grid(-8.0, 8.0, 8193)
    rng = np.random.default_rng(42)
    for _ in range(50):
        d = mixture_density(g, rng)
        ref = quantum_potential(d, natural, QPForm.SQRT).values
        scale = np.max(np.abs(ref))
        for form in (QPForm.GRAD, QPForm.FLUCT):
            q = quantum_potential(d, natural, form).values
            assert weighted_max_dev(q, ref, d) <= 1e-5 * scale


# two- and three-Gaussian mixtures on [-8, 8], decayed at the walls
MIXTURES = dict(
    n=st.sampled_from([257, 513, 1025, 2049]),
    components=st.lists(st.tuples(st.floats(0.1, 1.0), st.floats(-1.0, 1.0),
                                  st.floats(0.5, 0.9)), min_size=2, max_size=3),
)


def hypothesis_mixture(n, components):
    g = Grid(-8.0, 8.0, n)
    raw = sum(w * np.exp(-((g.x - c) ** 2) / (2.0 * s**2)) for w, c, s in components)
    return density_from_samples(ScalarField(g, raw))


@settings(max_examples=40, deadline=None)
@given(**MIXTURES)
def test_fisher_information_is_nonnegative_on_mixtures(n, components):
    assert fisher_information(hypothesis_mixture(n, components)) >= 0.0


def test_quantum_potential_hbar_mass_scaling(standard_normal):
    c = PhysicalConstants(hbar=2.0)
    q = quantum_potential(standard_normal, c)
    i0 = standard_normal.grid.n // 2
    assert q.values[i0] == pytest.approx(1.0, abs=1e-5)  # hbar^2 scaling


def test_mean_quantum_potential_values(standard_normal, natural):
    assert mean_quantum_potential(standard_normal, natural) == pytest.approx(
        0.125, abs=1e-6
    )
    g = Grid(-16.0, 16.0, 8193)
    wide = gaussian_density(g, 2.0)
    assert mean_quantum_potential(wide, natural) == pytest.approx(0.03125, abs=1e-6)
    assert mean_quantum_potential(
        standard_normal, PhysicalConstants(hbar=2.0)
    ) == pytest.approx(0.5, abs=1e-5)


def test_mean_qp_equals_fisher_for_mixtures(natural):
    g = Grid(-8.0, 8.0, 8193)
    rng = np.random.default_rng(3)
    for _ in range(10):
        d = mixture_density(g, rng)
        lhs = mean_quantum_potential(d, natural)
        rhs = fisher_information(d) / 8.0
        assert lhs == pytest.approx(rhs, rel=1e-6)


def test_suites_read_mean_quantum_potential(grid, natural):
    # integral(P Q) has one statement: the suite's reading is the
    # function's value to the last bit
    for density in (gaussian_density(grid), mixture_density(grid, np.random.default_rng(5), 3)):
        checks = checks_by_name(identities_suite(density, natural, None))
        assert checks["mean-QP-equals-FI"].lhs == mean_quantum_potential(density, natural)


def test_fluctuation_report_standard_normal(standard_normal, natural, grid):
    delta_p = momentum_fluctuation(standard_normal, natural)
    mask = standard_normal.support_mask
    bulk = mask & (np.abs(grid.x) < 4)
    # stencil error of P'/P grows like x^3; 1e-4 bounds it on |x| < 4
    assert np.max(np.abs(delta_p - grid.x / 2)[bulk]) <= 1e-4
    checks = checks_by_name(identities_suite(standard_normal, natural, None))
    assert abs(checks["fluctuation-mean-zero"].lhs) <= 1e-8
    second = masked_quadrature(standard_normal.values * delta_p**2, mask, grid.dx)
    assert second == pytest.approx(0.25, rel=1e-6)
    # mean kinetic excess <delta_p^2>/2m
    assert second / (2.0 * natural.mass) == pytest.approx(0.125, rel=1e-6)


def test_fluctuation_mean_exactly_zero_by_symmetry(standard_normal, natural):
    checks = checks_by_name(identities_suite(standard_normal, natural, None))
    # odd integrand on a symmetric grid
    assert abs(checks["fluctuation-mean-zero"].lhs) <= 1e-12


def test_fluctuation_kinetic_excess_wide():
    g = Grid(-16.0, 16.0, 8193)
    c = PhysicalConstants()
    d = gaussian_density(g, 2.0)
    second = masked_quadrature(d.values * momentum_fluctuation(d, c)**2, d.support_mask, g.dx)
    assert second / (2.0 * c.mass) == pytest.approx(0.03125, rel=1e-5)


def test_osmotic_fields_standard_normal(standard_normal, natural, grid):
    u, u_bar, k_u = osmotic_fields(standard_normal, natural)
    bulk = standard_normal.support_mask & (np.abs(grid.x) < 4)
    assert np.max(np.abs(u.values - grid.x / 2)[bulk]) <= 1e-4
    assert np.allclose(u_bar.values, -u.values)
    assert np.max(np.abs(k_u.values - grid.x / 2)[bulk]) <= 1e-4
    # u = (hbar/m) k_u
    assert np.allclose(u.values, k_u.values * natural.hbar / natural.mass)


def test_osmotic_fields_uniform_interior():
    g = Grid(0.0, 1.0, 257)
    d = density_from_samples(ScalarField(g, np.ones(g.n)), truncation_check=False)
    u, u_bar, k_u = osmotic_fields(d, PhysicalConstants())
    assert np.max(np.abs(u.values)) == 0.0
    assert np.max(np.abs(k_u.values)) == 0.0


def orthogonality_defect(density, s, constants):
    """integral(P * S' * delta_p) of the density P and the phase S: zero
    when S' is constant on the support."""
    delta_p = momentum_fluctuation(density, constants)
    grad_s = derivative_values(s, density.grid.dx)
    p = density.values * grad_s * delta_p
    return masked_quadrature(p, density.support_mask, density.grid.dx)


def test_orthogonality_defect(standard_normal, natural, grid):
    assert abs(orthogonality_defect(standard_normal, 1.7 * grid.x, natural)) <= 1e-8
    assert orthogonality_defect(standard_normal, np.zeros(grid.n), natural) == 0.0
    # integral(x * P') by parts = -1, so the defect is +hbar/2
    assert orthogonality_defect(standard_normal, grid.x**2 / 2, natural) == pytest.approx(
        0.5, abs=1e-8)
