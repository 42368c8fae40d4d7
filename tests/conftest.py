import re

import numpy as np
import pytest

from fisherqp import Grid, PhysicalConstants, ScalarField, density_from_samples
from fisherqp.grid import _odd_even_levels, crank_nicolson_flow
from fisherqp.reports import IdentityCheck


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


def madelung_psi(density, phase=0.0, hbar=1.0):
    """psi = sqrt(P) exp(i S / hbar) of a density and a phase S (an array
    on the density's grid, or a constant): the start ``evolve`` takes."""
    return np.sqrt(density.values) * np.exp(1j * np.asarray(phase) / hbar)


def every_step(run):
    """(window, copies of psi at every step) of ``run(each)``, an
    ``evolve`` call that passes each step to ``each``."""
    psis = []
    window = run(lambda k, psi: psis.append(psi.copy()))
    return window, psis


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
    return density_from_samples(ScalarField(grid, raw))


def checks_by_name(items):
    """The checks a suite yields, by name; its artifacts are skipped."""
    return {c.name: c for c in items if isinstance(c, IdentityCheck)}


def note_value(check, label):
    """The number a check's note gives right after ``label``, e.g. the
    measured ratio that ``mean-QP-equals-FI`` reports against the
    opposite-sign convention."""
    return float(re.search(re.escape(label) + r" ([-+.\w]+)", check.note)[1])


@pytest.fixture
def standard_normal(grid):
    return gaussian_density(grid)


def diffusion_flow(values, dx, D, steps, dt):
    """Copies of every step 0..steps of the Crank-Nicolson flow of
    dU/dt = D d2U/dx2 from ``values`` with the end values held: the grid's
    ``crank_nicolson_flow`` on A = tridiag(-c, 1+2c, -c), c = D dt / (2 dx^2)."""
    c = 0.5 * (D * dt / (dx * dx))
    diag = np.full(len(values) - 2, 1.0 + 2.0 * c)
    return [u.copy() for u in crank_nicolson_flow(values, diag, -c, steps)]


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


def reduction_depth(diag, off):
    """Odd-even reduction levels ``crank_nicolson_flow`` takes ahead of
    ?gttrs for the complex A with diagonal ``diag`` and off-diagonal ``off``
    (a scalar or the off-diagonal array)."""
    off = np.broadcast_to(off, (len(diag) - 1,))
    return len(_odd_even_levels(0.5 * diag, 0.5 * off)[0])
