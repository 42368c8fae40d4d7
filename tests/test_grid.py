import numpy as np
import pytest
from scipy.special import erf

from fisherqp import Grid, quadrature
from fisherqp.grid import (
    ScalarField,
    crank_nicolson_step,
    derivative_values,
    second_derivative_values,
)


def test_grid_basics():
    g = Grid(0.0, 1.0, 101)
    assert g.dx == pytest.approx(0.01)
    assert len(g.x) == 101
    assert np.all(np.diff(g.x) > 0)


@pytest.mark.parametrize("bad", [(0.0, 1.0, 2), (1.0, 1.0, 10), (2.0, 1.0, 10)])
def test_grid_rejects_bad_parameters(bad):
    with pytest.raises(ValueError):
        Grid(*bad)


def test_field_length_and_finiteness():
    g = Grid(0.0, 1.0, 11)
    with pytest.raises(ValueError):
        ScalarField(g, np.zeros(10))
    with pytest.raises(ValueError):
        ScalarField(g, np.full(11, np.nan))


def test_field_values_immutable():
    g = Grid(0.0, 1.0, 11)
    f = g.from_function(lambda x: x)
    with pytest.raises(ValueError):
        f.values[0] = 3.0


def test_trapezoid_exact_on_affine():
    g = Grid(0.0, 1.0, 101)
    assert quadrature(g.from_function(lambda x: x)) == pytest.approx(0.5, abs=0)


def test_trapezoid_normal_pdf():
    g = Grid(-8.0, 8.0, 4097)
    f = g.from_function(lambda x: np.exp(-x*x/2) / np.sqrt(2*np.pi))
    exact = erf(8.0 / np.sqrt(2.0))  # mass actually inside [-8, 8]
    assert quadrature(f) == pytest.approx(exact, abs=1e-9)


def test_trapezoid_zero_field():
    g = Grid(-1.0, 1.0, 33)
    assert quadrature(g.zeros()) == 0.0


def test_quadrature_linearity():
    g = Grid(-3.0, 5.0, 257)
    rng = np.random.default_rng(7)
    f = g.field(rng.normal(size=g.n))
    h = g.field(rng.normal(size=g.n))
    a, b = 2.25, -0.75
    combo = g.field(a * f.values + b * h.values)
    assert quadrature(combo) == pytest.approx(
        a * quadrature(f) + b * quadrature(h), rel=1e-14
    )


def test_derivative_exact_on_quadratic():
    g = Grid(-2.0, 2.0, 41)
    d = derivative_values(g.x * g.x, g.dx)
    # second-order stencils (including the one-sided ends) are exact here
    assert np.allclose(d, 2 * g.x, atol=1e-12)


def test_derivative_sin_accuracy():
    g = Grid(-np.pi, np.pi, 2049)
    d = derivative_values(np.sin(g.x), g.dx)
    assert np.max(np.abs(d - np.cos(g.x))) <= 5e-6


def test_derivative_of_constant_is_zero():
    g = Grid(0.0, 4.0, 65)
    d = derivative_values(np.full(g.n, 3.7), g.dx)
    assert np.all(d == 0.0)


def test_second_derivative_exact_on_cubic():
    g = Grid(-1.0, 2.0, 61)
    d2 = second_derivative_values(g.x**3, g.dx)
    assert np.allclose(d2, 6 * g.x, atol=1e-10)


def test_derivative_refinement_ratio():
    def err(n):
        g = Grid(-np.pi, np.pi, n)
        d = derivative_values(np.sin(g.x), g.dx)
        return np.max(np.abs(d - np.cos(g.x)))

    assert err(513) / err(1025) >= 3.5


def test_integration_by_parts_with_decayed_boundaries():
    g = Grid(-8.0, 8.0, 2049)
    f = g.from_function(lambda x: np.exp(-x * x / 2))
    h = g.from_function(lambda x: x * np.exp(-x * x / 3))
    lhs = quadrature(g.field(f.values * derivative_values(h.values, g.dx)))
    rhs = quadrature(g.field(derivative_values(f.values, g.dx) * h.values))
    bound = 1e-6 * np.max(np.abs(f.values)) * np.max(np.abs(h.values))
    assert abs(lhs + rhs) <= bound


def test_crank_nicolson_step_refuses_indefinite_real_matrix():
    # symmetric with eigenvalues -1.22, 1 and 1.22
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        crank_nicolson_step(np.array([1.0, -1.0, 1.0]), 0.5)
