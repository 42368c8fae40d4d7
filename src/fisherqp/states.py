"""Probability densities and physical constants.

Conventions fixed here and used everywhere else:

* Densities are normalized with the grid trapezoid rule and carry a
  support mask ``P > 1e-12 * max(P)``.  All quotients of the form
  grad(P)/P are evaluated on the mask only.
* The endpoint-decay (truncation) check stands in for compact support:
  endpoint values must stay below ``1e-12 * max(P)`` unless the caller
  disables the check explicitly.
* The phase S of a Madelung state psi = sqrt(P) exp(i S / hbar) is
  defined up to a global constant; the Schroedinger flow carries psi
  itself, and so does the trajectory dump.  Nothing reads S off a
  wavefunction: the dynamical residuals use the phase-free forms
  S' = hbar Im(psi* psi')/|psi|^2 and the pointwise step-to-step turn of
  arg psi (``propagator``).
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

from .errors import DegenerateSupport, NegativeDensity, NonFinite, TruncationError, ZeroMass
from .grid import Grid, ScalarField, derivative_values, quadrature_values

SUPPORT_FLOOR = 1e-12       # mask threshold, relative to max(P)
NEGATIVE_NOISE = -1e-14     # tolerated negative noise in raw samples


@dataclass(frozen=True)
class PhysicalConstants:
    """hbar, mass, angular frequency, Boltzmann constant and temperature.

    Derived quantities: beta = 1/(k*T), alpha_th = 1/(hbar*omega) and the
    diffusivity D = hbar/(2*mass).  ``is_thermal_equilibrium`` tests
    hbar*omega = k*T (to 1e-12 relative), the condition under which the
    thermal and quantum unit systems coincide.

    Every product of constants the package forms (hbar^2, hbar^2/m, hbar/m,
    omega^2, m*omega^2, hbar*omega, k*T and (k*T)^2), and its reciprocal,
    must be a normal float: a product that overflows or underflows to 0
    would make the formulas raise or divide by zero.
    """

    hbar: float = 1.0
    mass: float = 1.0
    omega: float = 1.0
    boltzmann_k: float = 1.0
    temperature: float = 1.0

    def __post_init__(self):
        for name in ("hbar", "mass", "omega", "boltzmann_k", "temperature"):
            if not getattr(self, name) > 0:  # also refuses NaN
                raise ValueError(f"{name} must be positive")
        hbar, m, omega = self.hbar, self.mass, self.omega
        k_t = self.boltzmann_k * self.temperature
        products = {
            "hbar^2": hbar * hbar,
            "hbar^2/m": hbar * hbar / m,
            "hbar/m": hbar / m,
            "omega^2": omega * omega,
            "m*omega^2": m * omega * omega,
            "hbar*omega": hbar * omega,
            "k*T": k_t,
            "(k*T)^2": k_t * k_t,
        }
        tiny = np.finfo(float).tiny
        for name, value in products.items():
            if not tiny <= value <= 1.0 / tiny:
                raise ValueError(f"{name} = {value:.3g} overflows or vanishes: it must "
                                 f"lie in [{tiny:.3g}, {1.0 / tiny:.3g}]")

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

    def grad_log(self) -> np.ndarray:
        """grad(P)/P on the support mask, 0 elsewhere."""
        p = self.values
        out = np.zeros_like(p)
        d = derivative_values(p, self.grid.dx)
        out[self.support_mask] = d[self.support_mask] / p[self.support_mask]
        return out

    def support_indices(self, need: int, check: str) -> np.ndarray:
        """Indices of the support mask; DegenerateSupport, naming ``check``,
        when it holds fewer than ``need`` points."""
        idx = np.flatnonzero(self.support_mask)
        if len(idx) < need:
            raise DegenerateSupport(
                f"{check} needs a support of at least {need} points; "
                f"the density's support has {len(idx)}"
            )
        return idx


def _endpoint_decayed(values: np.ndarray) -> bool:
    peak = float(np.max(values))
    return max(values[0], values[-1]) <= SUPPORT_FLOOR * peak


def normalize_samples(values: np.ndarray, dx: float, out: np.ndarray,
                      work: np.ndarray | None = None) -> float:
    """Normalize raw density samples into ``out`` (which may be ``values``
    itself); return max(P).

    The array-level core of ``density_from_samples``, which time steppers
    call on their work buffers.  Non-finite samples raise NonFinite,
    samples below ``NEGATIVE_NOISE`` raise NegativeDensity (the remaining
    negative noise is clamped to 0), zero mass raises ZeroMass and a
    normalized density that overflows raises NonFinite, in that order.
    ``work`` is the quadrature's buffer (see ``quadrature_values``).
    """
    lo, hi = values.min(), values.max()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise NonFinite("field values must be finite")
    if lo < NEGATIVE_NOISE:
        raise NegativeDensity(f"min sample {lo} below noise floor")
    if lo <= 0.0:
        values = np.clip(values, 0.0, None, out=out)
    total = quadrature_values(values, dx, work)
    if total <= 0.0:
        raise ZeroMass(f"density integrates to {total}")
    np.divide(values, total, out=out)
    # dividing by total > 0 keeps the order, so this is max(out) exactly
    peak = float(hi / total)
    if not math.isfinite(peak):
        raise NonFinite("field values must be finite")
    return peak


def _normalize_into(values: np.ndarray, grid: Grid, truncation_check: bool,
                    out: np.ndarray, mask: np.ndarray,
                    work: np.ndarray | None = None) -> None:
    """The arrays of ``_build_density``: P normalized into ``out`` (see
    ``normalize_samples``) and its support mask into ``mask``."""
    peak = normalize_samples(values, grid.dx, out, work)
    if truncation_check and not _endpoint_decayed(out):
        raise TruncationError(
            "density does not decay at the grid endpoints; enlarge the domain "
            "or disable the truncation check"
        )
    np.greater(out, SUPPORT_FLOOR * peak, out=mask)


def _build_density(values: np.ndarray, grid: Grid, truncation_check: bool) -> Density:
    p = np.empty(grid.n)
    mask = np.empty(grid.n, dtype=bool)
    _normalize_into(values, grid, truncation_check, p, mask)
    return Density(ScalarField(grid, p), mask)


def density_from_samples(raw: ScalarField, truncation_check: bool = True) -> Density:
    """Normalize nonnegative samples into a Density.

    Values in [-1e-14, 0) are treated as roundoff noise and clamped to 0;
    anything more negative raises NegativeDensity.
    """
    return _build_density(raw.values, raw.grid, truncation_check)


def _gibbs_weight(alpha: float, values: np.ndarray, symbol: str,
                  field: str) -> tuple[np.ndarray, float]:
    """(w, shift): the Gibbs weight w = exp(-(alpha*values - shift)),
    shifted by shift = min(alpha*values) so that it peaks at 1 without
    overflow, for either sign of alpha.  NonFinite, with alpha written as
    ``symbol`` and the values as ``field``, when the shifted exponent is
    not finite on the grid."""
    with np.errstate(over="ignore", invalid="ignore"):
        exponent = alpha * values
        shift = float(np.min(exponent))
        exponent -= shift
    if not np.all(np.isfinite(exponent)):
        raise NonFinite(f"{symbol} = {alpha!r} makes the Gibbs exponent "
                        f"{symbol}*{field} - min({symbol}*{field}) non-finite on the grid")
    return np.exp(-exponent), shift


def _gibbs(E: ScalarField, alpha: float, truncation_check: bool, symbol: str,
           field: str) -> tuple[Density, float]:
    """(Density, Z) of exp(-alpha*E)/Z for either sign of alpha; Z is in
    the original gauge and overflows to inf, without a warning, where
    alpha*min(E) is below about -709.  Errors as ``_gibbs_weight``."""
    w, shift = _gibbs_weight(alpha, E.values, symbol, field)
    z_shifted = quadrature_values(w, E.grid.dx)
    density = _build_density(w, E.grid, truncation_check)
    with np.errstate(over="ignore"):
        z = z_shifted * np.exp(-shift)
    return density, float(z)


def gibbs_density(
    E: ScalarField, gamma: float, truncation_check: bool = True
) -> tuple[Density, float]:
    """Gibbs density P = exp(-gamma*E)/Z; returns (Density, Z).

    The exponent is shifted by min(E) internally to avoid overflow; Z is
    reported in the original gauge, inf when it overflows.  A gamma whose
    shifted exponent gamma*E - min(gamma*E) is not finite on the grid
    raises NonFinite, a ValueError.
    """
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    return _gibbs(E, gamma, truncation_check, "gamma", "E")


def density_from_heat(
    heat: ScalarField, alpha_th: float, truncation_check: bool = True
) -> tuple[Density, float]:
    """Density induced by a heat field: P = c_hat * exp(-alpha_th * Q_heat).

    Returns (Density, c_hat) with c_hat fixed by normalization.  An
    alpha_th = 1/(hbar*omega) whose shifted exponent alpha_th*Q_heat -
    min(alpha_th*Q_heat) is not finite on the grid raises NonFinite.
    """
    density, z = _gibbs(heat, alpha_th, truncation_check, "alpha_th", "Q_heat")
    return density, 1.0 / z
