"""Uniform 1-D grid, trapezoid quadrature, and finite-difference derivatives.

Everything else in the package is built on the three primitives here:
``quadrature_values`` (composite trapezoid, exact for affine integrands),
``derivative_values`` and ``second_derivative_values`` (second-order
central stencils, one-sided second-order stencils at the ends).  The
schemes are kept at second order on purpose: their error is dominated
by grid resolution, which keeps every identity check interpretable.

The time steppers share one helper from here: ``crank_nicolson_flow``
factors their constant Crank-Nicolson matrix once and streams the field
step by step through two work buffers.

The LAPACK routines the steppers and the EPI eigensolver call come from
``_lapack``, which loads scipy's compiled ``_flapack`` extension on the
first solve and never imports the ``scipy.linalg`` package: that
package's ``__init__`` costs ~0.3 s per process, far more than most runs
spend solving.

Fields are immutable after construction and all operations on them are
pure, so values can be shared freely across threads.  A complex flow from
``crank_nicolson_flow`` reuses its solver's work buffers and folds the
end values into the state a step reads for the span of that step: run it
in one thread at a time.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import NonFinite


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
            raise NonFinite("field values must be finite")


def quadrature_values(values: np.ndarray, dx: float) -> float:
    """Composite trapezoid approximation of the integral of ``values``
    sampled at spacing ``dx``."""
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


# Odd-even reduction of a complex Crank-Nicolson system (``_odd_even_step``)
# stops once fewer than REDUCTION_FLOOR unknowns remain.  Measured per step
# at m = 16383 (2 vCPU), every level down to a last system of 1023
# unknowns costs less than the ?gttrs work it removes; one more level costs
# about what it saves.  A level is taken only while no elimination
# multiplies by more than MAX_COUPLING, which bounds the error growth.
REDUCTION_FLOOR = 1024
MAX_COUPLING = 1.0


def crank_nicolson_flow(u0: np.ndarray, diag: np.ndarray, off: float | complex,
                        steps: int) -> Iterator[np.ndarray]:
    """Yield u at steps 0..steps of the Crank-Nicolson flow from ``u0``.

    ``diag`` and ``off`` give A = I + zH on the interior points: the
    diagonal, and the constant off-diagonal that also couples the first
    and last interior points to the end values, which stay those of
    ``u0``.  The first ``next()`` factors A/2 (``_half_solver``); each
    step then solves A u+ = (2I - A) u + f, with f = -2 off (u[0], 0, ...,
    0, u[-1]) the folded ends, as u+ = (A/2)^-1 (u + f/2) - u.  A real
    step copies u, folds the ends, solves and subtracts; a complex one
    reads u itself and writes u+ straight into the other work buffer
    (``_odd_even_step``).

    ``u0`` is copied, never written.  The flow steps between two work
    buffers: between calls to ``next()``, a yielded array stays intact
    until the step after next is computed, so callers copy what they keep.
    """
    step = _half_solver(diag, off)
    u = np.array(u0, dtype=np.result_type(u0, diag))
    # a generator keeps its locals for the whole run: drop the inputs
    del u0, diag
    nxt = u.copy()
    yield u
    for _ in range(steps):
        step(u, nxt)
        u, nxt = nxt, u
        yield u


_FLAPACK = "scipy.linalg._flapack"
_PREFIXES = {np.dtype(np.float64): "d", np.dtype(np.complex128): "z"}


def _lapack(names: tuple[str, ...], dtype) -> tuple:
    """The LAPACK routines ``names`` (e.g. ``("pttrf", "pttrs")``) for
    float64 (``d``) or complex128 (``z``) data: the very wrappers
    ``scipy.linalg.lapack.get_lapack_funcs`` returns.

    They come from scipy's compiled ``_flapack`` extension: the module
    ``sys.modules`` holds once anything loaded it, else ``_load_flapack``.
    """
    flapack = sys.modules.get(_FLAPACK) or _load_flapack()
    prefix = _PREFIXES[np.dtype(dtype)]
    return tuple(getattr(flapack, prefix + name) for name in names)


def _load_flapack():
    """Load ``scipy/linalg/_flapack<suffix>`` as ``scipy.linalg._flapack``
    without running ``scipy/linalg/__init__``, whose array-API setup pulls
    in ``numpy.f2py``, ``numpy.testing`` and more; ``import scipy`` itself
    is cheap.  The module is registered in ``sys.modules``, so a later
    ``import scipy.linalg`` reuses it.  Without the file, the public package
    import gives the same module.
    """
    import scipy

    for root in scipy.__path__:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location(_FLAPACK, path)
                module = importlib.util.module_from_spec(spec)
                sys.modules[_FLAPACK] = module
                spec.loader.exec_module(module)
                return module
    from scipy.linalg import _flapack

    return _flapack


def _half_solver(diag: np.ndarray, off: float | complex):
    """Factor A/2 of the tridiagonal A = (diag, off) once; return
    ``step(u, out)``, which writes out[1:-1] = (A/2)^-1 (u[1:-1] + f/2) -
    u[1:-1], f/2 = -off (u[0], 0, ..., 0, u[-1]).  The ends of ``out`` are
    not written, and ``u`` holds its values again once the step returns.
    Halving is exact, so the factors of A/2 are exact multiples of those
    of A.

    A real A must be symmetric positive definite: ``?pttrf`` factors it,
    raising LinAlgError when it is not, and ``?pttrs`` solves.  A complex
    A goes through odd-even reduction (``_odd_even_levels``,
    ``_odd_even_step``) ahead of ``?gttrf``/``?gttrs``, which pivot.
    """
    if not (np.all(np.isfinite(diag)) and np.isfinite(off)):
        raise NonFinite("the Crank-Nicolson matrix has a non-finite entry")
    half_diag = 0.5 * np.asarray(diag)
    half_off = np.full(len(half_diag) - 1, 0.5 * off, dtype=half_diag.dtype)
    if np.iscomplexobj(half_diag):
        levels, half_diag, half_off = _odd_even_levels(half_diag, half_off)
        gttrf, gttrs = _lapack(("gttrf", "gttrs"), half_diag.dtype)
        *factors, info = gttrf(half_off, half_diag, half_off)
        if info > 0:
            raise np.linalg.LinAlgError("singular matrix")

        def solve(rhs: np.ndarray) -> np.ndarray:
            x = gttrs(*factors, rhs, overwrite_b=True)[0]
            if x is not rhs:  # ?gttrs solves a contiguous right-hand side in place
                np.copyto(rhs, x)
            return rhs

        if levels:
            return _odd_even_step(levels, solve, off)
    else:
        pttrf, pttrs = _lapack(("pttrf", "pttrs"), half_diag.dtype)
        *factors, info = pttrf(half_diag, half_off)
        if info > 0:
            raise np.linalg.LinAlgError("matrix is not positive definite")

        def solve(rhs: np.ndarray) -> np.ndarray:
            return pttrs(*factors, rhs, overwrite_b=True)[0]

    def step(u: np.ndarray, out: np.ndarray) -> None:
        rhs = out[1:-1]
        np.copyto(rhs, u[1:-1])
        rhs[0] -= off * u[0]
        rhs[-1] -= off * u[-1]
        np.subtract(solve(rhs), u[1:-1], out=rhs)

    return step


def _odd_even_step(levels, solve, off: complex):
    """The Crank-Nicolson step (see ``_half_solver``) of a complex A/2
    reduced by the odd-even ``levels`` (``_odd_even_levels``) to a last
    system that ``solve`` solves in place.

    Each level keeps two work buffers of its reduced size, and the views
    a step reads and writes are built once.  A step reduces the
    right-hand side down the levels, runs one ``?gttrs`` on the last
    system and back-substitutes the eliminated unknowns up the levels, all
    in whole-array numpy operations; ``?gttrs`` alone chains one complex
    division per unknown, each waiting on the one before.

    The right-hand side b = u[1:-1] + f/2 is not copied out of u: the
    first level reads u[1:-1] itself, with its two ends folded in place
    for the span of the step and then restored, and its back substitution
    writes the solution into ``out``.  Every entry goes through the same
    numpy operations, in the same order, as when b is copied and folded
    first, so the result is the same to the bit.
    """
    buffers = [(np.empty_like(left), np.empty_like(left)) for _, left, _ in levels]
    systems = [below for below, _ in buffers]
    # below the first level, each level reads the system above it and its
    # own two buffers through fixed views: ``down`` holds those of the
    # forward reduction, ``up`` those of the back substitution, innermost
    # level first; each tuple lists them in the order the step uses them
    down, up = [], []
    for (pivots, left, right), (below, scratch), above in zip(levels[1:], buffers[1:],
                                                              systems):
        n = len(right)
        evens = above[::2]
        down.append((left, evens[: len(left)], below, above[1::2],
                     right, above[2::2], scratch[:n], below[:n]))
        up.append((evens, above[1::2], below, pivots, left, scratch, evens[: len(left)],
                   right, below[:n], scratch[:n], evens[1:]))
    up.reverse()
    (pivots, left, right), (below, scratch) = levels[0], buffers[0]
    kept, n = len(left), len(right)
    bottom = systems[-1]

    def step(u: np.ndarray, out: np.ndarray) -> None:
        b, x = u[1:-1], out[1:-1]
        first, last = u[1], u[-2]
        try:
            u[1] -= off * u[0]
            u[-2] -= off * u[-1]
            # b'_j = b_2j+1 - left_j b_2j - right_j b_2j+2
            np.multiply(left, b[: 2 * kept : 2], out=below)
            np.subtract(b[1::2], below, out=below)
            np.multiply(right, b[2::2], out=scratch[:n])
            np.subtract(below[:n], scratch[:n], out=below[:n])
            for lv, evens, bv, odds, rv, nexts, sv, bvn in down:
                np.multiply(lv, evens, out=bv)
                np.subtract(odds, bv, out=bv)
                np.multiply(rv, nexts, out=sv)
                np.subtract(bvn, sv, out=bvn)
            solve(bottom)
            # x_2j = b_2j / d_2j - left_j x_2j+1 - right_j-1 x_2j-1
            for evens, odds, bv, pv, lv, sv, evl, rv, bvn, svn, evr in up:
                odds[...] = bv
                evens *= pv
                np.multiply(lv, bv, out=sv)
                evl -= sv
                np.multiply(rv, bvn, out=svn)
                evr -= svn
            evens = x[::2]
            np.multiply(b[::2], pivots, out=evens)
        finally:
            u[1], u[-2] = first, last
        x[1::2] = below
        np.multiply(left, below, out=scratch)
        evens[:kept] -= scratch
        np.multiply(right, below[:n], out=scratch[:n])
        evens[1:] -= scratch[:n]
        np.subtract(x, b, out=x)

    return step


def _odd_even_levels(diag: np.ndarray, off: np.ndarray):
    """Odd-even reduction of the complex symmetric tridiagonal (diag, off).

    Each level eliminates the even-indexed unknowns of its system, which
    couple only to their odd neighbours, and leaves a complex symmetric
    tridiagonal system on the odd ones; the last kept unknown of an
    even-sized system has no right neighbour to eliminate.  Levels repeat
    while at least REDUCTION_FLOOR unknowns remain.  Returns the levels,
    each as (reciprocal pivots, left couplings, right couplings), and the
    diagonal and off-diagonal of the last system.

    The eliminations do not pivot.  For the Schroedinger matrix T =
    (I + zH)/2, with z imaginary and H real symmetric, Re(x* T x) = |x|^2/2
    for every x, whatever the potential and the sign of dt.  A Schur
    complement S keeps that bound: with T y = (0, S x), x* S x = y* T y,
    so Re(x* S x) >= |y|^2/2 >= |x|^2/2.  Every pivot thus has real part
    at least 1/2 and cannot vanish.  A pivot can still be small next to
    its couplings where a potential near -hbar^2/(m dx^2) cancels the
    kinetic diagonal, which the grid does not resolve; there the error of
    a level grows with its couplings (37 eps backward error measured at
    dt = 1, dx = 1e-3).  So a level is taken only while its couplings stay
    within MAX_COUPLING (about 1/2 for resolved potentials) and its
    reduced system is finite; otherwise the system it would reduce is the
    last one, which ``?gttrf`` factors with pivoting.
    """
    levels = []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while len(diag) >= REDUCTION_FLOOR:
            kept = len(diag) // 2
            # kept unknown j sits at 2j + 1, between eliminated 2j and 2j + 2
            pivots = 1.0 / diag[::2]
            left = off[::2] * pivots[:kept]
            right = off[1::2] * pivots[1:]
            reduced = diag[1::2] - left * off[::2]
            reduced[: len(right)] -= right * off[1::2]
            reduced_off = -right[: kept - 1] * off[2::2][: kept - 1]
            coupling = max(np.abs(left).max(), np.abs(right).max())
            if not (coupling <= MAX_COUPLING and np.isfinite(reduced).all()
                    and np.isfinite(reduced_off).all()):
                break
            levels.append((pivots, left, right))
            diag, off = reduced, reduced_off
    return levels, diag, off

