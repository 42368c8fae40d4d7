"""Static functionals and pointwise fields: Fisher information, entropy,
the quantum potential in four equivalent forms, momentum-fluctuation
moments and osmotic fields.

Sign conventions
----------------
The quantum potential is defined through the amplitude,

    Q = -(hbar^2 / 2m) * (sqrt(P))'' / sqrt(P),

which is positive at the peak of a Gaussian (Q(0) = hbar^2/(8 m sigma^2)
for N(0, sigma^2)) and satisfies

    integral(P * Q) = +(hbar^2 / 8m) * FI,      FI = integral((P')^2 / P).

The three rewritings (gradient, fluctuation, osmotic) are implemented so
that they agree with this definition.  These bracket forms circulate
with either overall sign; the report layer records the measured ratio
against the opposite-sign variant as a flagged discrepancy rather than
an error (see ``reports``).

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
from dataclasses import dataclass

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
    OSMOTIC = "osmotic"    # (hbar/2) u' - (m/2) u^2,  u = -(hbar/2m) P'/P


def masked_quadrature(values: np.ndarray, mask: np.ndarray, dx: float) -> float:
    v = np.where(mask, values, 0.0)
    return quadrature_values(v, dx)


def weighted_max_dev(a: np.ndarray, b: np.ndarray, density: Density) -> float:
    """Density-weighted sup norm of (a - b) over the support mask."""
    p = density.values
    return weighted_sup(np.subtract(a, b, dtype=float), p, float(np.max(p)),
                        density.support_mask)


def weighted_sup(diff: np.ndarray, p: np.ndarray, peak: float, mask: np.ndarray,
                 scratch: np.ndarray | None = None) -> float:
    """max over ``mask`` of (p/peak) |diff|, 0 on an empty mask.

    The array-level core of ``weighted_max_dev``: ``diff`` is overwritten,
    and ``scratch``, when given, receives p/peak.
    """
    np.abs(diff, out=diff)
    diff *= np.divide(p, peak, out=scratch)
    return float(diff.max(where=mask, initial=0.0))


def fisher_information(density: Density) -> float:
    """FI = integral over the support of (P')^2 / P."""
    p = density.values
    mask = density.support_mask
    dp = derivative_values(p, density.grid.dx)
    integrand = np.zeros_like(p)
    integrand[mask] = dp[mask] ** 2 / p[mask]
    return quadrature_values(integrand, density.grid.dx)


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

    All four forms agree pointwise in the density-weighted sup norm to
    within finite-difference truncation error; they are genuinely
    distinct numerical routes (different stencil compositions), which is
    what makes the four-way comparison a meaningful consistency check.
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
        dp = derivative_values(p, dx)
        d2p = second_derivative_values(p, dx)
        w = np.zeros_like(p)
        lap = np.zeros_like(p)
        w[mask] = dp[mask] / p[mask]
        lap[mask] = d2p[mask] / p[mask]
        out[mask] = (hbar**2 / (4.0 * m)) * (0.5 * w[mask] ** 2 - lap[mask])
    elif form is QPForm.FLUCT:
        w = density.grad_log()
        dw = derivative_values(w, dx)
        out[mask] = -(hbar**2 / (4.0 * m)) * (dw[mask] + 0.5 * w[mask] ** 2)
    elif form is QPForm.OSMOTIC:
        u, _, _ = osmotic_fields(density, constants)
        du = derivative_values(u.values, dx)
        out[mask] = (hbar / 2.0) * du[mask] - (m / 2.0) * u.values[mask] ** 2
    else:  # pragma: no cover
        raise ValueError(f"unknown form {form}")
    return ScalarField(density.grid, out)


def mean_quantum_potential(density: Density, constants: PhysicalConstants) -> float:
    """integral(P * Q); equals +(hbar^2/8m)*FI for decayed densities."""
    q = quantum_potential(density, constants, QPForm.SQRT)
    return masked_quadrature(
        density.values * q.values, density.support_mask, density.grid.dx
    )


@dataclass(frozen=True)
class FluctuationReport:
    """Momentum-fluctuation field and its first two P-weighted moments."""

    delta_p: ScalarField
    mean: float
    second_moment: float
    delta_ekin_mean: float


def fluctuation_report(
    density: Density, constants: PhysicalConstants
) -> FluctuationReport:
    """delta_p = -(hbar/2) P'/P with mean, second moment and mean kinetic excess.

    The second moment equals (hbar^2/4)*FI and the kinetic excess is
    second_moment / (2 mass).
    """
    hbar, m = constants.hbar, constants.mass
    w = density.grad_log()
    dp_field = -(hbar / 2.0) * w
    mask = density.support_mask
    dx = density.grid.dx
    p = density.values
    mean = masked_quadrature(p * dp_field, mask, dx)
    second = masked_quadrature(p * dp_field**2, mask, dx)
    return FluctuationReport(
        delta_p=ScalarField(density.grid, dp_field),
        mean=mean,
        second_moment=second,
        delta_ekin_mean=second / (2.0 * m),
    )


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
