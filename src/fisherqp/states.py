"""Probability densities, Madelung states, and physical constants.

Conventions fixed here and used everywhere else:

* Densities are normalized with the grid trapezoid rule and carry a
  support mask ``P > 1e-12 * max(P)``.  All quotients of the form
  grad(P)/P are evaluated on the mask only.
* The endpoint-decay (truncation) check stands in for compact support:
  endpoint values must stay below ``1e-12 * max(P)`` unless the caller
  disables the check explicitly.
* The phase S of a Madelung state is defined up to a global constant;
  split trajectory states fix it against the phase at the density peak.
* The letter alpha is overloaded in the underlying formalism.  Here it is
  always split into ``alpha_norm`` (normalization multiplier of the
  Fisher extremization), ``alpha_th`` (= 1/(hbar*omega)), and
  ``alpha_gibbs`` (Gibbs-exponent multiplier), so units cannot be mixed
  up silently.
* rho = mass * P is never stored; the mass factor is applied at use
  sites so there is exactly one source of truth for normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
import numpy as np

from .errors import NegativeDensity, TruncationError, ZeroMass
from .grid import Grid, ScalarField, derivative_values, quadrature, quadrature_values

SUPPORT_FLOOR = 1e-12       # mask threshold, relative to max(P)
NEGATIVE_NOISE = -1e-14     # tolerated negative noise in raw samples


@dataclass(frozen=True)
class PhysicalConstants:
    """hbar, mass, angular frequency, Boltzmann constant and temperature.

    Derived quantities: beta = 1/(k*T), alpha_th = 1/(hbar*omega) and the
    diffusivity D = hbar/(2*mass).  ``is_thermal_equilibrium`` tests
    hbar*omega = k*T (to 1e-12 relative), the condition under which the
    thermal and quantum unit systems coincide.
    """

    hbar: float = 1.0
    mass: float = 1.0
    omega: float = 1.0
    boltzmann_k: float = 1.0
    temperature: float = 1.0

    def __post_init__(self):
        for name in ("hbar", "mass", "omega", "boltzmann_k", "temperature"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @property
    def beta(self) -> float:
        return 1.0 / (self.boltzmann_k * self.temperature)

    @property
    def alpha_th(self) -> float:
        return 1.0 / (self.hbar * self.omega)

    @property
    def diffusivity(self) -> float:
        return self.hbar / (2.0 * self.mass)

    @property
    def is_thermal_equilibrium(self) -> bool:
        lhs = self.hbar * self.omega
        rhs = self.boltzmann_k * self.temperature
        return abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


@dataclass(frozen=True)
class Density:
    """Normalized nonnegative density with its support mask."""

    field: ScalarField
    support_mask: np.ndarray = field(repr=False)  # type: ignore[assignment]

    def __post_init__(self):
        mask = np.asarray(self.support_mask, dtype=bool).copy()
        mask.setflags(write=False)
        object.__setattr__(self, "support_mask", mask)
        if len(mask) != self.field.grid.n:
            raise ValueError("support mask length does not match grid")

    @property
    def grid(self) -> Grid:
        return self.field.grid

    @property
    def values(self) -> np.ndarray:
        return self.field.values

    @property
    def x(self) -> np.ndarray:
        return self.field.grid.x

    def grad_log(self) -> np.ndarray:
        """grad(P)/P on the support mask, 0 elsewhere."""
        p = self.values
        out = np.zeros_like(p)
        d = derivative_values(p, self.grid.dx)
        out[self.support_mask] = d[self.support_mask] / p[self.support_mask]
        return out

    def mass_check(self) -> float:
        return quadrature(self.field)


def _endpoint_decayed(values: np.ndarray) -> bool:
    peak = float(np.max(values))
    return max(values[0], values[-1]) <= SUPPORT_FLOOR * peak


def normalize_samples(values: np.ndarray, dx: float, out: np.ndarray) -> float:
    """Normalize raw density samples into ``out``; return max(P).

    The array-level core of ``density_from_samples``, which time steppers
    call on their work buffers.  Non-finite samples raise ValueError,
    samples below ``NEGATIVE_NOISE`` raise NegativeDensity (the remaining
    negative noise is clamped to 0), zero mass raises ZeroMass and a
    normalized density that overflows raises ValueError, in that order.
    """
    lo, hi = values.min(), values.max()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("field values must be finite")
    if lo < NEGATIVE_NOISE:
        raise NegativeDensity(f"min sample {lo} below noise floor")
    if lo <= 0.0:
        values = np.clip(values, 0.0, None, out=out)
    total = quadrature_values(values, dx)
    if total <= 0.0:
        raise ZeroMass(f"density integrates to {total}")
    np.divide(values, total, out=out)
    # dividing by total > 0 keeps the order, so this is max(out) exactly
    peak = float(hi / total)
    if not math.isfinite(peak):
        raise ValueError("field values must be finite")
    return peak


def _build_density(values: np.ndarray, grid: Grid, truncation_check: bool) -> Density:
    p = np.empty(grid.n)
    peak = normalize_samples(values, grid.dx, p)
    if truncation_check and not _endpoint_decayed(p):
        raise TruncationError(
            "density does not decay at the grid endpoints; enlarge the domain "
            "or disable the truncation check"
        )
    return Density(ScalarField(grid, p), p > SUPPORT_FLOOR * peak)


def density_from_samples(raw: ScalarField, truncation_check: bool = True) -> Density:
    """Normalize nonnegative samples into a Density.

    Values in [-1e-14, 0) are treated as roundoff noise and clamped to 0;
    anything more negative raises NegativeDensity.
    """
    return _build_density(raw.values, raw.grid, truncation_check)


def gibbs_density(
    E: ScalarField, gamma: float, truncation_check: bool = True
) -> tuple[Density, float]:
    """Gibbs density P = exp(-gamma*E)/Z; returns (Density, Z).

    The exponent is shifted by min(E) internally to avoid overflow; Z is
    reported in the original gauge.
    """
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    e = E.values
    shift = float(np.min(gamma * e))
    w = np.exp(-(gamma * e - shift))
    z_shifted = quadrature_values(w, E.grid.dx)
    density = _build_density(w, E.grid, truncation_check)
    z = z_shifted * np.exp(-shift)
    return density, float(z)


def density_from_heat(
    heat: ScalarField, alpha_th: float, truncation_check: bool = True
) -> tuple[Density, float]:
    """Density induced by a heat field: P = c_hat * exp(-alpha_th * Q_heat).

    Returns (Density, c_hat) with c_hat fixed by normalization.
    """
    density, z = gibbs_density(heat, alpha_th, truncation_check)
    return density, 1.0 / z


def phase_on_support(
    psi: np.ndarray, density: Density, hbar: float, peak_phase: float
) -> np.ndarray:
    """S = hbar * arg(psi), unwrapped along x over the support mask and
    extended constantly off it.

    The global constant is fixed by shifting S by the multiple of 2 pi hbar
    that brings arg(psi) at the density peak closest to ``peak_phase``
    (radians), which aligns successive states of a trajectory in time.
    """
    idx = np.flatnonzero(density.support_mask)
    theta = np.unwrap(np.angle(psi[idx]))
    peak = int(np.argmax(density.values[idx]))
    theta += 2.0 * np.pi * np.round((peak_phase - theta[peak]) / (2.0 * np.pi))
    s = np.empty(len(psi))
    s[idx] = hbar * theta
    s[: idx[0]] = s[idx[0]]
    s[idx[-1] + 1 :] = s[idx[-1]]
    return s


@dataclass(frozen=True)
class MadelungState:
    """Amplitude/phase representation psi = sqrt(P) * exp(i S / hbar)."""

    density: Density
    phase: ScalarField
    constants: PhysicalConstants

    def __post_init__(self):
        if self.phase.grid != self.density.grid:
            raise ValueError("phase and density must share a grid")

    @property
    def grid(self) -> Grid:
        return self.density.grid

    def wavefunction(self) -> np.ndarray:
        return np.sqrt(self.density.values) * np.exp(
            1j * self.phase.values / self.constants.hbar
        )

    def momentum_field(self) -> np.ndarray:
        """p = grad(S), finite on the support."""
        return derivative_values(self.phase.values, self.grid.dx)
