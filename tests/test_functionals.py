import numpy as np
import pytest

from fisherqp import (
    Grid,
    MadelungState,
    PhysicalConstants,
    QPForm,
    density_from_samples,
    differential_entropy,
    fisher_information,
    fluctuation_report,
    gibbs_density,
    mean_quantum_potential,
    osmotic_fields,
    quantum_potential,
)
from fisherqp.functionals import masked_quadrature, weighted_max_dev, weighted_sup
from fisherqp.grid import ScalarField

from conftest import gaussian_density, mixture_density


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
    d = density_from_samples(g.field(np.ones(g.n)), truncation_check=False)
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
    for form in (QPForm.GRAD, QPForm.FLUCT, QPForm.OSMOTIC):
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
    assert weighted_sup(a - b, p, float(np.max(p)), np.zeros(grid.n, dtype=bool)) == 0.0


def test_quantum_potential_four_forms_random_mixtures(natural):
    g = Grid(-8.0, 8.0, 8193)
    rng = np.random.default_rng(42)
    for _ in range(50):
        d = mixture_density(g, rng)
        ref = quantum_potential(d, natural, QPForm.SQRT).values
        scale = np.max(np.abs(ref))
        for form in (QPForm.GRAD, QPForm.FLUCT, QPForm.OSMOTIC):
            q = quantum_potential(d, natural, form).values
            assert weighted_max_dev(q, ref, d) <= 1e-5 * scale


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


def test_fluctuation_report_standard_normal(standard_normal, natural, grid):
    rep = fluctuation_report(standard_normal, natural)
    mask = standard_normal.support_mask
    bulk = mask & (np.abs(grid.x) < 4)
    # stencil error of P'/P grows like x^3; 1e-4 bounds it on |x| < 4
    assert np.max(np.abs(rep.delta_p.values - grid.x / 2)[bulk]) <= 1e-4
    assert abs(rep.mean) <= 1e-8
    assert rep.second_moment == pytest.approx(0.25, rel=1e-6)
    assert rep.delta_ekin_mean == pytest.approx(0.125, rel=1e-6)


def test_fluctuation_mean_exactly_zero_by_symmetry(standard_normal, natural):
    rep = fluctuation_report(standard_normal, natural)
    assert abs(rep.mean) <= 1e-12  # odd integrand on a symmetric grid


def test_fluctuation_kinetic_excess_wide():
    g = Grid(-16.0, 16.0, 8193)
    rep = fluctuation_report(gaussian_density(g, 2.0), PhysicalConstants())
    assert rep.delta_ekin_mean == pytest.approx(0.03125, rel=1e-5)


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
    d = density_from_samples(g.field(np.ones(g.n)), truncation_check=False)
    u, u_bar, k_u = osmotic_fields(d, PhysicalConstants())
    assert np.max(np.abs(u.values)) == 0.0
    assert np.max(np.abs(k_u.values)) == 0.0


def orthogonality_defect(state):
    """integral(P * S' * delta_p): zero when S' is constant on the support."""
    rep = fluctuation_report(state.density, state.constants)
    p = state.density.values * state.momentum_field() * rep.delta_p.values
    return masked_quadrature(p, state.density.support_mask, state.grid.dx)


def test_orthogonality_defect(standard_normal, natural, grid):
    plane = MadelungState(
        standard_normal, ScalarField(grid, 1.7 * grid.x), natural
    )
    assert abs(orthogonality_defect(plane)) <= 1e-8
    zero = MadelungState(standard_normal, grid.zeros(), natural)
    assert orthogonality_defect(zero) == 0.0
    quad = MadelungState(standard_normal, ScalarField(grid, grid.x**2 / 2), natural)
    # integral(x * P') by parts = -1, so the defect is +hbar/2
    assert orthogonality_defect(quad) == pytest.approx(0.5, abs=1e-8)
