import numpy as np
import pytest

from fisherqp import Grid, PhysicalConstants, density_from_samples


@pytest.fixture
def natural():
    return PhysicalConstants()


@pytest.fixture
def grid():
    return Grid(-8.0, 8.0, 4097)


def gaussian_density(grid, sigma=1.0, center=0.0, truncation_check=True):
    raw = grid.from_function(
        lambda x: np.exp(-((x - center) ** 2) / (2.0 * sigma**2))
    )
    return density_from_samples(raw, truncation_check)


def mixture_density(grid, rng, n_components=None):
    """Random Gaussian mixture that decays below the support floor at the
    walls of [-8, 8] and keeps the inter-component dips well above it."""
    k = n_components or rng.integers(1, 4)
    x = grid.x
    raw = np.zeros(grid.n)
    for _ in range(k):
        w = rng.uniform(0.2, 1.0)
        c = rng.uniform(-1.0, 1.0)
        s = rng.uniform(0.7, 0.9)
        raw += w * np.exp(-((x - c) ** 2) / (2.0 * s**2))
    return density_from_samples(grid.field(raw))


@pytest.fixture
def standard_normal(grid):
    return gaussian_density(grid)


def cn_backward_error(ab, x_next, b):
    """Normwise backward error of x_next as a solution of A x = b,

        eta = |A x_next - b|_inf / (|A|_inf |x_next|_inf + |b|_inf),

    with A tridiagonal in ``solve_banded``'s (1, 1) storage ``ab``."""
    residual = ab[1] * x_next - b
    residual[:-1] += ab[0, 1:] * x_next[1:]
    residual[1:] += ab[2, :-1] * x_next[:-1]
    row_sums = np.abs(ab[1])
    row_sums[:-1] += np.abs(ab[0, 1:])
    row_sums[1:] += np.abs(ab[2, :-1])
    norm = np.max(row_sums) * np.max(np.abs(x_next)) + np.max(np.abs(b))
    return float(np.max(np.abs(residual)) / norm)
