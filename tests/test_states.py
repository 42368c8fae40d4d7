import re

import numpy as np
import pytest

from fisherqp import (
    Grid,
    NegativeDensity,
    PhysicalConstants,
    TruncationError,
    ZeroMass,
    density_from_heat,
    density_from_samples,
    gibbs_density,
)
from fisherqp.grid import ScalarField, derivative_values, quadrature_values
from fisherqp.states import normalize_samples

from conftest import gaussian_density, madelung_psi


def test_constants_derived_quantities():
    c = PhysicalConstants(hbar=2.0, mass=4.0, omega=0.5, boltzmann_k=1.0,
                          temperature=1.0)
    assert c.beta == pytest.approx(1.0)
    assert c.alpha_th == pytest.approx(1.0)
    assert c.diffusivity == pytest.approx(0.25)
    assert c.is_thermal_equilibrium  # hbar*omega = 1 = k*T


def test_constants_thermal_equality_flag():
    assert not PhysicalConstants(omega=2.0).is_thermal_equilibrium
    assert PhysicalConstants(omega=2.0, temperature=2.0).is_thermal_equilibrium


@pytest.mark.parametrize("field", ["hbar", "mass", "omega", "boltzmann_k", "temperature"])
def test_constants_reject_nonpositive(field):
    with pytest.raises(ValueError):
        PhysicalConstants(**{field: 0.0})


@pytest.mark.parametrize("constants, product", [
    ({"hbar": 1e300}, "hbar^2"),
    ({"hbar": 1e-300}, "hbar^2"),
    ({"hbar": 1e100, "mass": 1e-250}, "hbar^2/m"),
    ({"hbar": 3.0, "mass": 1.7e308}, "hbar/m"),
    ({"omega": 1e-300}, "omega^2"),
    ({"temperature": 1e300}, "(k*T)^2"),
    ({"boltzmann_k": 1e-200}, "(k*T)^2"),
])
def test_constants_reject_products_that_overflow_or_vanish(constants, product):
    with pytest.raises(ValueError, match=f"^{re.escape(product)} = "):
        PhysicalConstants(**constants)


def test_constants_reject_nan():
    with pytest.raises(ValueError, match="hbar must be positive"):
        PhysicalConstants(hbar=float("nan"))


def test_density_normalization_and_mask(grid):
    d = gaussian_density(grid)
    assert quadrature_values(d.values, grid.dx) == pytest.approx(1.0, abs=1e-12)
    closed = np.exp(-grid.x**2 / 2) / np.sqrt(2 * np.pi)
    assert np.max(np.abs(d.values - closed)) <= 1e-9
    assert d.support_mask[grid.n // 2]
    assert not d.support_mask[0] and not d.support_mask[-1]


def test_density_clamps_tiny_negatives(grid):
    raw = np.exp(-grid.x**2 / 2)
    raw[5] = -5e-15
    d = density_from_samples(ScalarField(grid, raw))
    assert d.values[5] == 0.0


def test_density_rejects_real_negatives(grid):
    raw = np.exp(-grid.x**2 / 2)
    raw[5] = -1e-10
    with pytest.raises(NegativeDensity):
        density_from_samples(ScalarField(grid, raw))


def test_density_zero_mass(grid):
    with pytest.raises(ZeroMass):
        density_from_samples(grid.zeros())


def test_normalize_samples_is_the_core_of_density_from_samples(grid):
    raw = np.exp(-grid.x**2 / 2)
    raw[5] = -5e-15
    out = np.empty(grid.n)
    peak = normalize_samples(raw, grid.dx, out)
    d = density_from_samples(ScalarField(grid, raw))
    assert np.array_equal(out, d.values)
    assert peak == float(np.max(d.values))
    assert np.array_equal(d.support_mask, d.values > 1e-12 * peak)
    assert raw[5] == -5e-15  # the samples are left as they were


def test_normalize_samples_check_order(grid):
    out = np.empty(grid.n)
    # non-finite before negative, negative before zero mass
    raw = np.zeros(grid.n)
    raw[5] = -1e-10
    raw[9] = np.inf
    with pytest.raises(ValueError, match="field values must be finite"):
        normalize_samples(raw, grid.dx, out)
    raw[9] = 0.0
    with pytest.raises(NegativeDensity, match="min sample -1e-10"):
        normalize_samples(raw, grid.dx, out)
    raw[5] = -5e-15
    with pytest.raises(ZeroMass):
        normalize_samples(raw, grid.dx, out)


def test_density_truncation_check():
    g = Grid(0.0, 1.0, 101)
    flat = ScalarField(g, np.ones(g.n))
    with pytest.raises(TruncationError):
        density_from_samples(flat)
    d = density_from_samples(flat, truncation_check=False)
    assert np.allclose(d.values, 1.0)


def test_grad_p_integrates_to_zero(grid):
    # the premise behind <delta_p> = 0
    for sigma, center in [(1.0, 0.0), (0.8, 1.3), (0.9, -0.5)]:
        d = gaussian_density(grid, sigma, center)
        dp = derivative_values(d.values, grid.dx)
        assert abs(np.trapezoid(dp, dx=grid.dx)) <= 1e-8


def test_gibbs_density_standard_normal(grid):
    E = grid.from_function(lambda x: x * x / 2)
    d, z = gibbs_density(E, 1.0)
    assert z == pytest.approx(np.sqrt(2 * np.pi), abs=1e-6)
    closed = np.exp(-grid.x**2 / 2) / np.sqrt(2 * np.pi)
    assert np.max(np.abs(d.values - closed)) <= 1e-9


def test_gibbs_constant_energy_truncation(grid):
    E = ScalarField(grid, np.full(grid.n, 2.5))
    with pytest.raises(TruncationError):
        gibbs_density(E, 1.0)
    d, z = gibbs_density(E, 1.0, truncation_check=False)
    assert np.allclose(d.values, d.values[0])


def test_gibbs_rejects_negative_gamma(grid):
    with pytest.raises(ValueError):
        gibbs_density(grid.from_function(lambda x: x * x), -1.0)


def test_density_from_heat_matches_gibbs(grid):
    # same exponent up to a constant gives the same density
    E = grid.from_function(lambda x: x * x / 2)
    q = grid.from_function(lambda x: x * x + 7.0)
    d_gibbs, _ = gibbs_density(E, 1.0)
    d_heat, chat = density_from_heat(q, 0.5)
    assert np.max(np.abs(d_gibbs.values - d_heat.values)) <= 1e-14
    # c_hat absorbs the +7 shift relative to 1/sqrt(2 pi)
    assert chat == pytest.approx(np.exp(3.5) / np.sqrt(2 * np.pi), rel=1e-9)


def madelung_split(re, im, constants):
    """The density P = |psi|^2 and phase S = hbar arg psi, unwrapped along
    x, of psi = re + i im: the split a reader of a trajectory dump makes
    of one row of ``psi.npy``."""
    psi = re.values + 1j * im.values
    density = density_from_samples(ScalarField(re.grid, np.abs(psi) ** 2))
    return density, constants.hbar * np.unwrap(np.angle(psi))


def test_madelung_construction(grid, natural):
    re = ScalarField(grid, np.exp(-grid.x**2 / 4) * np.cos(grid.x))
    im = ScalarField(grid, np.exp(-grid.x**2 / 4) * np.sin(grid.x))
    density, s = madelung_split(re, im, natural)
    closed = np.exp(-grid.x**2 / 2) / np.sqrt(2 * np.pi)
    assert np.max(np.abs(density.values - closed)) <= 1e-9
    mask = density.support_mask
    # S = hbar * x + const on the support
    drift = s[mask] - grid.x[mask]
    assert drift.max() - drift.min() <= 1e-9


def test_madelung_real_positive_has_zero_phase(grid, natural):
    re = ScalarField(grid, np.exp(-grid.x**2 / 4))
    _, s = madelung_split(re, grid.zeros(), natural)
    assert np.all(s == 0.0)


def test_madelung_roundtrip(grid, natural):
    re = ScalarField(grid, np.exp(-grid.x**2 / 4) * np.cos(2 * grid.x))
    im = ScalarField(grid, np.exp(-grid.x**2 / 4) * np.sin(2 * grid.x))
    density, s = madelung_split(re, im, natural)
    psi_in = re.values + 1j * im.values
    psi_in = psi_in / np.sqrt(quadrature_values(np.abs(psi_in) ** 2, grid.dx))
    mask = density.support_mask
    assert np.max(np.abs(madelung_psi(density, s, natural.hbar) - psi_in)[mask]) <= 1e-9
