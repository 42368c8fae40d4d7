"""Uniform 1-D grid, trapezoid quadrature, and finite-difference derivatives.

Everything else in the package is built on the three primitives here:
``quadrature`` (composite trapezoid, exact for affine integrands),
``derivative_values`` and ``second_derivative_values`` (second-order
central stencils, one-sided second-order stencils at the ends).  The
schemes are kept at second order on purpose: their error is dominated
by grid resolution, which keeps every identity check interpretable.

The time steppers share two helpers from here: ``crank_nicolson_step``
factors their constant Crank-Nicolson matrix once and returns the step,
and ``steps_to_keep`` validates which steps a streamed run stores.

Fields are immutable after construction and all operations are pure, so
values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np


def _readonly(values: np.ndarray) -> np.ndarray:
    out = np.asarray(values, dtype=float).copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Grid:
    """Uniform grid of n points on [xmin, xmax], endpoints included."""

    xmin: float
    xmax: float
    n: int

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"grid needs at least 3 points, got n={self.n}")
        if not self.xmax > self.xmin:
            raise ValueError(f"need xmax > xmin, got [{self.xmin}, {self.xmax}]")

    @property
    def dx(self) -> float:
        return (self.xmax - self.xmin) / (self.n - 1)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.xmin, self.xmax, self.n)

    def field(self, values) -> "ScalarField":
        return ScalarField(self, values)

    def from_function(self, f) -> "ScalarField":
        return ScalarField(self, f(self.x))

    def zeros(self) -> "ScalarField":
        return ScalarField(self, np.zeros(self.n))


@dataclass(frozen=True)
class ScalarField:
    """Real function sampled on a uniform grid.

    The universal carrier for densities, phases, potentials, heat fields
    and every other pointwise quantity in the package.
    """

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(self.values))
        if self.values.ndim != 1 or len(self.values) != self.grid.n:
            raise ValueError(
                f"field length {self.values.shape} does not match grid n={self.grid.n}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")

    @property
    def x(self) -> np.ndarray:
        return self.grid.x


def quadrature(f: ScalarField) -> float:
    """Composite trapezoid approximation of the integral of f over the grid."""
    return float(np.trapezoid(f.values, dx=f.grid.dx))


def quadrature_values(values: np.ndarray, dx: float) -> float:
    """Trapezoid rule on a bare array; array-level twin of ``quadrature``."""
    return float(np.trapezoid(values, dx=dx))


def derivative_values(values: np.ndarray, dx: float) -> np.ndarray:
    """Second-order first derivative: central interior, one-sided endpoints.

    Stencils are evaluated in difference form so a constant field has an
    exactly zero derivative.
    """
    v = np.asarray(values, dtype=float)
    if len(v) < 3:
        raise ValueError("derivative needs at least 3 points")
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) * (0.5 / dx)
    out[0] = (4.0 * (v[1] - v[0]) - (v[2] - v[0])) * (0.5 / dx)
    out[-1] = (4.0 * (v[-1] - v[-2]) - (v[-1] - v[-3])) * (0.5 / dx)
    return out


def second_derivative_values(values: np.ndarray, dx: float) -> np.ndarray:
    """Second-order second derivative; one-sided 4-point stencils at the ends."""
    v = np.asarray(values, dtype=float)
    if len(v) < 4:
        raise ValueError("second derivative needs at least 4 points")
    inv = 1.0 / (dx * dx)
    out = np.empty_like(v)
    out[1:-1] = ((v[2:] - v[1:-1]) - (v[1:-1] - v[:-2])) * inv
    out[0] = (-5.0 * (v[1] - v[0]) + 4.0 * (v[2] - v[0]) - (v[3] - v[0])) * inv
    out[-1] = (-5.0 * (v[-2] - v[-1]) + 4.0 * (v[-3] - v[-1]) - (v[-4] - v[-1])) * inv
    return out


def crank_nicolson_step(diag: np.ndarray, off: float | complex):
    """Factor a Crank-Nicolson matrix once; return its step ``step(u, out)``.

    ``diag`` and ``off`` give A = I + zH on the interior points: the
    diagonal, and the constant off-diagonal that also couples the first
    and last interior points to the end values, which stay fixed.  The
    step solves A u+ = (2I - A) u + f, with f = -2 off (u[0], 0, ..., 0,
    u[-1]) the folded ends, as u+ = (A/2)^-1 (u + f/2) - u: one copy, one
    back substitution and one subtraction.  Halving is exact, so the
    factors of A/2 are exact multiples of those of A.

    A real A must be symmetric positive definite: ``?pttrf`` factors it,
    raising LinAlgError when it is not, and ``?pttrs`` solves.  A complex
    A is factored with partial pivoting by ``?gttrf`` and solved by
    ``?gttrs``.  ``step`` writes the interior of ``out``, an array
    distinct from ``u`` whose end values the caller sets.
    """
    # scipy.linalg takes most of the package's import time; load it on first solve
    from scipy.linalg.lapack import get_lapack_funcs

    half_diag = 0.5 * np.asarray_chkfinite(diag)
    half_off = np.full(len(half_diag) - 1, 0.5 * off, dtype=half_diag.dtype)
    if np.iscomplexobj(half_diag):
        gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), (half_diag,))
        *factors, info = gttrf(half_off, half_diag, half_off)
        if info > 0:
            raise np.linalg.LinAlgError("singular matrix")
        back_substitute = gttrs
    else:
        pttrf, pttrs = get_lapack_funcs(("pttrf", "pttrs"), (half_diag,))
        *factors, info = pttrf(half_diag, half_off)
        if info > 0:
            raise np.linalg.LinAlgError("matrix is not positive definite")
        back_substitute = pttrs

    def step(u: np.ndarray, out: np.ndarray) -> None:
        rhs = out[1:-1]
        np.copyto(rhs, u[1:-1])
        rhs[0] -= off * u[0]
        rhs[-1] -= off * u[-1]
        x = back_substitute(*factors, rhs, overwrite_b=True)[0]
        np.subtract(x, u[1:-1], out=rhs)

    return step


def steps_to_keep(keep: Iterable[int] | None, steps: int) -> set[int]:
    """The step indices a run over ``steps`` steps stores: all of 0..steps
    when ``keep`` is None, else ``keep``, which must lie in that range."""
    if keep is None:
        return set(range(steps + 1))
    out = {int(k) for k in keep}
    bad = sorted(k for k in out if not 0 <= k <= steps)
    if bad:
        raise ValueError(f"kept steps {bad} outside 0..{steps}")
    return out
