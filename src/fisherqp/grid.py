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

The steppers and the EPI eigensolver solve with four LAPACK routines
(``?pttrf``, ``?pttrs``, ``?gttrf``, ``?gttrs``), each bound once to the
arrays it works in (``_bind``) and called through ctypes.  They run on
the OpenBLAS that numpy has already loaded (``_numpy_openblas``), so a
run maps no second OpenBLAS and imports no scipy.  Only where numpy
ships no such library do they come from scipy's ``cython_lapack``
(``_scipy_lapack``), called the same way and loaded without the
``scipy.linalg`` package, whose ``__init__`` costs ~0.3 s per process.

Fields are immutable after construction and all operations on them are
pure, so values can be shared freely across threads.  A complex flow from
``crank_nicolson_flow`` reuses its solver's work buffers and folds the
end values into the state a step reads for the span of that step: run it
in one thread at a time.
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .errors import NonFinite


def _readonly(values: np.ndarray) -> np.ndarray:
    out = np.asarray(values, dtype=float).copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Grid:
    """Uniform grid of n points on [xmin, xmax], endpoints included.

    The stencils and the Crank-Nicolson matrices divide by dx^2, so dx^2
    and its reciprocal must be normal floats: a dx^2 that underflows to 0
    would divide by zero, and a subnormal one has lost precision.
    """

    xmin: float
    xmax: float
    n: int

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"grid needs at least 3 points, got n={self.n}")
        if not self.xmax > self.xmin:
            raise ValueError(f"need xmax > xmin, got [{self.xmin}, {self.xmax}]")
        dx2 = self.dx * self.dx
        tiny = np.finfo(float).tiny
        if not tiny <= dx2 <= 1.0 / tiny:
            raise ValueError(f"dx^2 = {dx2:.3g} overflows or vanishes: it must lie in "
                             f"[{tiny:.3g}, {1.0 / tiny:.3g}]")

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


def quadrature_values(values: np.ndarray, dx: float,
                      work: np.ndarray | None = None) -> float:
    """Composite trapezoid approximation of the integral of ``values``
    sampled at spacing ``dx``, equal to ``np.trapezoid(values, dx=dx)`` to
    the bit.

    It forms the sum ``np.trapezoid`` forms, dx (v[1:] + v[:-1]) / 2 added
    by ``np.add.reduce``, in one buffer: multiplying by 0.5 and dividing by
    2 round the same real number, so they give the same float.  The buffer
    is ``work[:len(values) - 1]`` when ``work`` (a float array that does
    not overlap ``values``) is given, else a new array.
    """
    v = np.asarray(values, dtype=float)
    s = np.add(v[1:], v[:-1], out=None if work is None else work[: len(v) - 1])
    s *= dx
    s *= 0.5
    return float(np.add.reduce(s))


def derivative_values(values: np.ndarray, dx: float,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Second-order first derivative: central interior, one-sided endpoints.

    Stencils are evaluated in difference form so a constant field has an
    exactly zero derivative.  The result goes into ``out`` (a float array
    of the same length that does not overlap ``values``) when given, else
    into a new array.
    """
    v = np.asarray(values, dtype=float)
    if len(v) < 3:
        raise ValueError("derivative needs at least 3 points")
    if out is None:
        out = np.empty_like(v)
    np.subtract(v[2:], v[:-2], out=out[1:-1])
    out[1:-1] *= 0.5 / dx
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
    ``u0``.  The first ``next()`` factors A/2 (``_half_solver``) and binds
    a step into each of the two work buffers; each step then solves
    A u+ = (2I - A) u + f, with f = -2 off (u[0], 0, ..., 0, u[-1]) the
    folded ends, as u+ = (A/2)^-1 (u + f/2) - u.  A real step copies u,
    folds the ends, solves and subtracts; a complex one reads u itself and
    writes u+ straight into the other work buffer (``_odd_even_step``).

    ``u0`` is copied, never written.  The flow steps between two work
    buffers: between calls to ``next()``, a yielded array stays intact
    until the step after next is computed, so callers copy what they keep.
    """
    bind = _half_solver(diag, off)
    u = np.array(u0, dtype=np.result_type(u0, diag))
    # a generator keeps its locals for the whole run: drop the inputs
    del u0, diag
    nxt = u.copy()
    into = (bind(u, nxt), bind(nxt, u))
    yield u
    for i in range(steps):
        into[i % 2]()
        u, nxt = nxt, u
        yield u


# The four LAPACK routines the package calls, each with LAPACK's own
# argument list: an ``info`` of -i names its i-th entry.  The scalars
# among them are filled in by the binding (``_SCALARS``); every other
# argument is a 1-D array of n entries, n = len(d), except those
# ``_SHORT`` of n by one or two.
_ROUTINES = {
    "dpttrf": ("n", "d", "e", "info"),
    "dpttrs": ("n", "nrhs", "d", "e", "b", "ldb", "info"),
    "zgttrf": ("n", "dl", "d", "du", "du2", "ipiv", "info"),
    "zgttrs": ("trans", "n", "nrhs", "dl", "d", "du", "du2", "ipiv", "b", "ldb", "info"),
}
_SCALARS = ("trans", "n", "nrhs", "ldb", "info")
_SHORT = {"e": 1, "dl": 1, "du": 1, "du2": 2}
_DTYPES = {"d": np.dtype(np.float64), "z": np.dtype(np.complex128)}


def _bind(routine: str, *arrays: np.ndarray) -> Callable[[], int]:
    """LAPACK's ``routine`` (a key of ``_ROUTINES``) bound to ``arrays``,
    its array arguments in LAPACK's order, for one right-hand side:
    returns ``call()``, which runs the routine on them in place and
    returns its ``info`` (0, or the k > 0 at which a factorization fails).

    Binding checks each array: it must be a writeable, C-contiguous 1-D
    array of the routine's dtype (float64 for ``d``, complex128 for ``z``,
    pivots of the library's integer) and at least as long as the routine
    reads, else ValueError, so a misuse raises instead of letting LAPACK
    read or write past an array.  It then builds the argument tuple once,
    every argument by reference as Fortran takes it, and keeps a reference
    to each array it points into.  A call whose ``info`` is negative
    (LAPACK refused an argument) raises ValueError naming the routine and
    the argument.
    """
    lapack = _lapack()
    names = [name for name in _ROUTINES[routine] if name not in _SCALARS]
    if len(arrays) != len(names):
        raise TypeError(f"{routine} takes the arrays {', '.join(names)}")
    n = len(arrays[names.index("d")])
    if n < 1:
        raise ValueError(f"{routine}: the system has no unknowns")
    for name, a in zip(names, arrays):
        dtype = np.dtype(lapack.integer) if name == "ipiv" else _DTYPES[routine[0]]
        need = max(n - _SHORT.get(name, 0), 0)
        if not (isinstance(a, np.ndarray) and a.dtype == dtype and a.ndim == 1
                and a.flags.c_contiguous and a.flags.writeable and len(a) >= need):
            raise ValueError(f"{routine}: {name} must be a writeable C-contiguous 1-D "
                             f"{dtype} array of at least {need} entries")
    info = lapack.integer()
    scalars = {"trans": ctypes.c_char(b"N"), "n": lapack.integer(n),
               "nrhs": lapack.integer(1), "ldb": lapack.integer(n), "info": info}
    given = dict(zip(names, arrays))
    args = [ctypes.byref(scalars[name]) if name in scalars
            else ctypes.c_void_p(given[name].ctypes.data) for name in _ROUTINES[routine]]
    if lapack.hidden_length and "trans" in _ROUTINES[routine]:
        args.append(ctypes.c_size_t(1))
    fn, args = lapack.routines[routine], tuple(args)

    def call() -> int:
        fn(*args)
        value = info.value
        if value < 0:
            raise ValueError(f"{routine}: LAPACK refused argument {-value} "
                             f"({_ROUTINES[routine][-value - 1]})")
        return value

    call.arrays = arrays
    return call


class _Lapack(NamedTuple):
    """A loaded LAPACK: its ``name`` as ``meta.json`` records it, its four
    ``routines`` as ctypes functions with no ``argtypes`` (argtypes would
    convert every argument again on each call: measured 0.45 -> 1.34 us a
    ``?pttrs`` call on a 2-vCPU host), the C ``integer`` type they take,
    and whether ``?gttrs`` takes gfortran's ``hidden_length`` of its
    ``trans`` string."""

    name: str
    routines: dict[str, Callable]
    integer: type
    hidden_length: bool


_LOADED: _Lapack | None = None


def _lapack() -> _Lapack:
    """The LAPACK every solve of the process runs on, loaded on first use:
    numpy's own OpenBLAS where numpy loaded one that exports the routines
    (``_numpy_openblas``), else scipy's (``_scipy_lapack``)."""
    global _LOADED
    if _LOADED is None:
        _LOADED = _numpy_openblas() or _scipy_lapack()
    return _LOADED


def _lapack_name() -> str | None:
    """The name of the LAPACK the process solved with, None before its
    first solve."""
    return None if _LOADED is None else _LOADED.name


def _numpy_openblas() -> _Lapack | None:
    """The OpenBLAS that numpy's wheel ships and numpy has loaded: a
    ``libscipy_openblas64_`` file in ``numpy.libs`` (Linux) or
    ``numpy/.dylibs`` (macOS), with 64-bit integers and its LAPACK symbols
    named ``scipy_<routine>_64_``, Fortran symbols that take hidden string
    lengths.  ``RTLD_NOLOAD`` opens only a library the process has already
    mapped, so this never maps a file numpy did not load.  None where
    there is no such library or it lacks a routine.
    """
    if not hasattr(os, "RTLD_NOLOAD"):
        return None
    root = os.path.dirname(np.__file__)
    for folder in (os.path.join(root, os.pardir, "numpy.libs"), os.path.join(root, ".dylibs")):
        try:
            files = sorted(os.listdir(folder))
        except OSError:
            continue
        for file in files:
            if not file.startswith("libscipy_openblas64_"):
                continue
            try:
                lib = ctypes.CDLL(os.path.join(folder, file),
                                  mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
                routines = {r: getattr(lib, f"scipy_{r}_64_") for r in _ROUTINES}
                config = lib.scipy_openblas_get_config64_
            except (OSError, AttributeError):
                continue
            for fn in routines.values():
                fn.restype = None
            config.restype = ctypes.c_char_p
            return _Lapack(f"{file} ({config().decode()})", routines, ctypes.c_int64, True)
    return None


_CYTHON_LAPACK = "scipy.linalg.cython_lapack"


def _scipy_lapack() -> _Lapack:
    """scipy's LAPACK, on scipy's own OpenBLAS: the C function pointers
    that ``scipy.linalg.cython_lapack`` exports to Cython, one capsule per
    routine in its ``__pyx_capi__``, which take C ints (32-bit) and no
    hidden string length.  The module is the one ``sys.modules`` holds
    once anything loaded it, else ``_load_cython_lapack``."""
    capsules = (sys.modules.get(_CYTHON_LAPACK) or _load_cython_lapack()).__pyx_capi__
    # private prototypes of the C API's capsule accessors: setting restype
    # or argtypes on ``ctypes.pythonapi``'s shared functions would change
    # them for every other caller in the process
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    routines = {r: ctypes.CFUNCTYPE(None)(pointer(capsules[r], name(capsules[r])))
                for r in _ROUTINES}
    return _Lapack(f"scipy {sys.modules['scipy'].__version__} cython_lapack", routines,
                   ctypes.c_int32, False)


def _load_cython_lapack():
    """Load ``scipy/linalg/cython_lapack<suffix>`` as ``_CYTHON_LAPACK``
    without running ``scipy/linalg/__init__``, whose array-API setup pulls
    in ``numpy.f2py``, ``numpy.testing`` and more; ``import scipy`` itself
    is cheap.  The module is registered in ``sys.modules``, so a later
    import through ``scipy.linalg`` reuses it.  Without the file, the
    public package import gives the same module.
    """
    import scipy

    for root in scipy.__path__:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "cython_lapack" + suffix)
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location(_CYTHON_LAPACK, path)
                module = importlib.util.module_from_spec(spec)
                sys.modules[_CYTHON_LAPACK] = module
                spec.loader.exec_module(module)
                return module
    from scipy.linalg import cython_lapack

    return cython_lapack


def _half_solver(diag: np.ndarray, off: float | complex):
    """Factor A/2 of the tridiagonal A = (diag, off) once; return
    ``bind(u, out)``, which returns ``step()``: it writes out[1:-1] =
    (A/2)^-1 (u[1:-1] + f/2) - u[1:-1], f/2 = -off (u[0], 0, ..., 0,
    u[-1]).  The ends of ``out`` are not written, and ``u`` holds its
    values again once the step returns.  Halving is exact, so the factors
    of A/2 are exact multiples of those of A.

    A real A must be symmetric positive definite: ``?pttrf`` factors it,
    raising LinAlgError when it is not, and ``?pttrs`` solves.  A complex
    A goes through odd-even reduction (``_odd_even_levels``,
    ``_odd_even_step``) ahead of ``?gttrf``/``?gttrs``, which pivot.  The
    factorization runs in place in arrays of its own, and ``bind`` binds
    the solve (``_bind``) to the factors and to the right-hand side it
    solves in place, so a step builds no LAPACK argument.
    """
    if not (np.all(np.isfinite(diag)) and np.isfinite(off)):
        raise NonFinite("the Crank-Nicolson matrix has a non-finite entry")
    half_diag = 0.5 * np.asarray(diag)
    half_off = np.full(len(half_diag) - 1, 0.5 * off, dtype=half_diag.dtype)
    if np.iscomplexobj(half_diag):
        levels, half_diag, half_off = _odd_even_levels(half_diag, half_off)
        m = len(half_diag)
        # (dl, d, du, du2, ipiv), factored in place
        factors = (half_off.copy(), half_diag, half_off,
                   np.empty(max(m - 2, 0), half_diag.dtype), np.empty(m, _lapack().integer))
        if _bind("zgttrf", *factors)() > 0:
            raise np.linalg.LinAlgError("singular matrix")
        solver = partial(_bind, "zgttrs", *factors)
        if levels:
            return _odd_even_step(levels, solver, off)
    else:
        if _bind("dpttrf", half_diag, half_off)() > 0:
            raise np.linalg.LinAlgError("matrix is not positive definite")
        solver = partial(_bind, "dpttrs", half_diag, half_off)

    def bind(u: np.ndarray, out: np.ndarray) -> Callable[[], None]:
        b, rhs = u[1:-1], out[1:-1]
        solve = solver(rhs)

        def step() -> None:
            np.copyto(rhs, b)
            rhs[0] -= off * u[0]
            rhs[-1] -= off * u[-1]
            solve()
            np.subtract(rhs, b, out=rhs)

        return step

    return bind


def _odd_even_step(levels, solver, off: complex):
    """``bind(u, out)`` of the Crank-Nicolson step (see ``_half_solver``)
    of a complex A/2 reduced by the odd-even ``levels``
    (``_odd_even_levels``) to a last system; ``solver(b)`` binds the
    solve of that system in place in b.

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
    solve = solver(systems[-1])

    def bind(u: np.ndarray, out: np.ndarray) -> Callable[[], None]:
        b, x = u[1:-1], out[1:-1]
        return partial(step, u, b, x)

    def step(u: np.ndarray, b: np.ndarray, x: np.ndarray) -> None:
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
            solve()
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

    return bind


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

