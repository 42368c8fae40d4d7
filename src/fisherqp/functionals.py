"""Static functionals and pointwise fields: Fisher information, entropy,
the quantum potential by three numerical routes, the
momentum-fluctuation field and osmotic fields.  The identity checks
built from them live in ``suites``.

Sign conventions
----------------
The quantum potential is defined through the amplitude,

    Q = -(hbar^2 / 2m) * (sqrt(P))'' / sqrt(P),

which is positive at the peak of a Gaussian (Q(0) = hbar^2/(8 m sigma^2)
for N(0, sigma^2)) and satisfies

    integral(P * Q) = +(hbar^2 / 8m) * FI,      FI = integral((P')^2 / P).

The gradient and fluctuation rewritings agree with this definition and
``qp-four-forms`` checks them; the osmotic rewriting is the fluctuation
one rescaled, so it is no route (``quantum_potential``).
integral(P Q) = -(hbar^2/8m) FI also circulates; ``verify-identities``
gives the measured ratio against it in the note of ``mean-QP-equals-FI``
(see ``suites``).

The fluctuation convention is the real one, delta_p = -(hbar/2) P'/P;
its mean vanishes for decayed densities and its second moment equals
(hbar^2/4) * FI by construction.

Pointwise comparisons of derivative-heavy fields use a density-weighted
sup norm (max of P/max(P) * |difference|): at the support floor the
finite-difference error of log-derivative quantities is unbounded
relative to any fixed tolerance, while every identity being checked is a
statement about P-weighted integrands.
"""

from __future__ import annotations

import enum

import numpy as np

from .grid import (
    ScalarField,
    derivative_values,
    quadrature_values,
    second_derivative_values,
)
from .states import Density, PhysicalConstants


class QPForm(enum.Enum):
    """Which algebraic route is used to evaluate the quantum potential."""

    SQRT = "sqrt"          # -(hbar^2/2m) (sqrt P)''/sqrt P
    GRAD = "grad"          # (hbar^2/4m) [ (1/2)(P'/P)^2 - P''/P ]
    FLUCT = "fluct"        # -(hbar^2/4m) [ w' + w^2/2 ],  w = P'/P


def masked_quadrature(values: np.ndarray, mask: np.ndarray, dx: float) -> float:
    v = np.where(mask, values, 0.0)
    return quadrature_values(v, dx)


def weighted_max_dev(a: np.ndarray, b: np.ndarray, density: Density) -> float:
    """Density-weighted sup norm of (a - b) over the support mask, 0 on an
    empty mask."""
    p = density.values
    diff = np.subtract(a, b, dtype=float)
    np.abs(diff, out=diff)
    diff *= p / float(np.max(p))
    return float(diff.max(where=density.support_mask, initial=0.0))


def fisher_information(density: Density) -> float:
    """FI = integral over the support of (P')^2 / P."""
    p = density.values
    return _fisher_integral(p, density.support_mask, density.grid.dx,
                            np.empty_like(p), np.empty_like(p))


def _fisher_integral(p: np.ndarray, mask: np.ndarray, dx: float,
                     dp: np.ndarray, integrand: np.ndarray) -> float:
    """``fisher_information`` of the density values ``p`` with support
    ``mask``, formed in the work arrays ``dp`` and ``integrand`` (each as
    long as ``p``, overwritten)."""
    derivative_values(p, dx, out=dp)
    dp *= dp
    integrand.fill(0.0)
    np.divide(dp, p, out=integrand, where=mask)
    return quadrature_values(integrand, dx, work=dp)


def differential_entropy(density: Density) -> float:
    """-integral(P log P)."""
    p = density.values
    mask = density.support_mask
    integrand = np.zeros_like(p)
    integrand[mask] = p[mask] * np.log(p[mask])
    return -quadrature_values(integrand, density.grid.dx)


def quantum_potential(
    density: Density, constants: PhysicalConstants, form: QPForm = QPForm.SQRT
) -> ScalarField:
    """Quantum potential of a density, zero off the support mask.

    SQRT, GRAD and FLUCT are distinct numerical routes (different stencil
    compositions) that agree pointwise in the density-weighted sup norm to
    within truncation error.  The osmotic form is FLUCT rescaled: with
    w = P'/P and the drift u = -(hbar/2m) w of ``osmotic_fields``,
    (hbar/2) u' - (m/2) u^2 = -(hbar^2/4m) [w' + w^2/2], and the stencil
    of u' is that of w' times -(hbar/2m).  So it equals FLUCT bit for bit
    at hbar = m = 1 and to within about 5e-16 max|Q| otherwise: it is no
    route of its own, and no form evaluates it.
    """
    p = density.values
    mask = density.support_mask
    dx = density.grid.dx
    hbar, m = constants.hbar, constants.mass
    out = np.zeros_like(p)

    if form is QPForm.SQRT:
        r = np.sqrt(p)
        d2r = second_derivative_values(r, dx)
        out[mask] = -(hbar**2 / (2.0 * m)) * d2r[mask] / r[mask]
    elif form is QPForm.GRAD:
        w = density.grad_log()
        d2p = second_derivative_values(p, dx)
        out[mask] = (hbar**2 / (4.0 * m)) * (0.5 * w[mask] ** 2 - d2p[mask] / p[mask])
    elif form is QPForm.FLUCT:
        w = density.grad_log()
        dw = derivative_values(w, dx)
        out[mask] = -(hbar**2 / (4.0 * m)) * (dw[mask] + 0.5 * w[mask] ** 2)
    else:  # pragma: no cover
        raise ValueError(f"unknown form {form}")
    return ScalarField(density.grid, out)


def mean_quantum_potential(density: Density, constants: PhysicalConstants) -> float:
    """integral(P * Q); equals +(hbar^2/8m)*FI for decayed densities."""
    q = quantum_potential(density, constants, QPForm.SQRT)
    return masked_quadrature(
        density.values * q.values, density.support_mask, density.grid.dx
    )


def momentum_fluctuation(density: Density, constants: PhysicalConstants) -> np.ndarray:
    """delta_p = -(hbar/2) P'/P on the support, 0 elsewhere; its P-weighted
    mean vanishes for decayed densities and its second moment equals
    (hbar^2/4)*FI."""
    return -(constants.hbar / 2.0) * density.grad_log()


def osmotic_fields(
    density: Density, constants: PhysicalConstants
) -> tuple[ScalarField, ScalarField, ScalarField]:
    """(u, u_bar, k_u): forward drift, osmotic velocity, and wavenumber field.

    u = -(hbar/2m) P'/P, u_bar = -u = D P'/P, k_u = -(1/2) P'/P, with
    u = (hbar/m) k_u.
    """
    hbar, m = constants.hbar, constants.mass
    w = density.grad_log()
    u = -(hbar / (2.0 * m)) * w
    k_u = -0.5 * w
    g = density.grid
    return ScalarField(g, u), ScalarField(g, -u), ScalarField(g, k_u)
