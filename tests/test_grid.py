import importlib.machinery
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings, strategies as st
from scipy.linalg.lapack import get_lapack_funcs
from scipy.special import erf

import fisherqp
from fisherqp import Grid
from fisherqp.grid import (
    REDUCTION_FLOOR,
    ScalarField,
    _bind,
    _lapack,
    _load_cython_lapack,
    _odd_even_levels,
    crank_nicolson_flow,
    derivative_values,
    quadrature_values,
    second_derivative_values,
)

from conftest import cn_backward_error, reduction_depth


def test_grid_basics():
    g = Grid(0.0, 1.0, 101)
    assert g.dx == pytest.approx(0.01)
    assert len(g.x) == 101
    assert np.all(np.diff(g.x) > 0)


@pytest.mark.parametrize("bad", [(0.0, 1.0, 2), (1.0, 1.0, 10), (2.0, 1.0, 10)])
def test_grid_rejects_bad_parameters(bad):
    with pytest.raises(ValueError):
        Grid(*bad)


def test_grid_refuses_dx_squared_off_the_normal_range():
    # dx^2 and 1/dx^2 must be normal floats: 2^-1022 <= dx^2 <= 2^1022
    for dx in (2.0**-511, 2.0**511):
        assert Grid(0.0, 2.0 * dx, 3).dx == dx
    for dx in (np.nextafter(2.0**-511, 0.0), np.nextafter(2.0**511, np.inf), 1e-160):
        with pytest.raises(ValueError, match=r"dx\^2 = .* overflows or vanishes"):
            Grid(0.0, 2.0 * dx, 3)


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
    assert quadrature_values(g.x, g.dx) == pytest.approx(0.5, abs=0)


def test_trapezoid_normal_pdf():
    g = Grid(-8.0, 8.0, 4097)
    f = np.exp(-g.x * g.x / 2) / np.sqrt(2 * np.pi)
    exact = erf(8.0 / np.sqrt(2.0))  # mass actually inside [-8, 8]
    assert quadrature_values(f, g.dx) == pytest.approx(exact, abs=1e-9)


def bits(x):
    return np.float64(x).view(np.uint64)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 4097),
    dx=st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 10.0), st.integers(-150, 150)),
    scale=st.integers(-300, 100),
    seed=st.integers(0, 2**32 - 1),
)
def test_quadrature_equals_numpy_trapezoid_to_the_bit(n, dx, scale, seed):
    # zeros, negatives and subnormals mixed into normal values of either sign
    rng = np.random.default_rng(seed)
    v = rng.normal(size=n) * 10.0**scale
    kind = rng.integers(0, 4, size=n)
    v[kind == 0] = 0.0
    v[kind == 1] = rng.normal(size=np.count_nonzero(kind == 1)) * 1e-310
    assert bits(quadrature_values(v, dx)) == bits(np.trapezoid(v, dx=dx))


def test_trapezoid_zero_field():
    g = Grid(-1.0, 1.0, 33)
    assert quadrature_values(g.zeros().values, g.dx) == 0.0


def test_quadrature_linearity():
    g = Grid(-3.0, 5.0, 257)
    rng = np.random.default_rng(7)
    f = rng.normal(size=g.n)
    h = rng.normal(size=g.n)
    a, b = 2.25, -0.75
    assert quadrature_values(a * f + b * h, g.dx) == pytest.approx(
        a * quadrature_values(f, g.dx) + b * quadrature_values(h, g.dx), rel=1e-14
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
    lhs = quadrature_values(f.values * derivative_values(h.values, g.dx), g.dx)
    rhs = quadrature_values(derivative_values(f.values, g.dx) * h.values, g.dx)
    bound = 1e-6 * np.max(np.abs(f.values)) * np.max(np.abs(h.values))
    assert abs(lhs + rhs) <= bound


def test_crank_nicolson_flow_refuses_indefinite_real_matrix():
    # symmetric with eigenvalues -1.22, 1 and 1.22
    flow = crank_nicolson_flow(np.zeros(5), np.array([1.0, -1.0, 1.0]), 0.5, 1)
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        next(flow)


def schroedinger_matrix(m, dt, potential):
    """A = I + i dt H / 2 on m interior points of [-8, 8] (hbar = mass = 1),
    as ``crank_nicolson_flow`` takes it: diagonal and off-diagonal."""
    x = np.linspace(-8.0, 8.0, m + 2)
    kin = 1.0 / (2.0 * (x[1] - x[0]) ** 2)
    z = 0.5j * dt
    return 1.0 + z * (2.0 * kin + potential(x[1:-1])), -z * kin


def heat_matrix(m, c=0.25):
    """A = tridiag(-c, 1 + 2c, -c) of a heat flow on m interior points."""
    return np.full(m, 1.0 + 2.0 * c), -c


FLOW_CASES = {
    "real": (heat_matrix(62), np.linspace(-1.0, 2.0, 64)),
    "complex": (
        schroedinger_matrix(REDUCTION_FLOOR + 1, 1.0 / 1024, lambda x: 0.5 * x**2),
        np.exp(1j * np.linspace(0.0, 3.0, REDUCTION_FLOOR + 3)),
    ),
}


@pytest.mark.parametrize("case", FLOW_CASES)
def test_flow_keeps_the_previous_step_intact(case):
    (diag, off), u0 = FLOW_CASES[case]
    flow = crank_nicolson_flow(u0, diag, off, 3)
    before = next(flow)
    saved = before.copy()
    for after in flow:
        assert after is not before
        assert np.array_equal(before, saved)
        before, saved = after, after.copy()


@pytest.mark.parametrize("case", FLOW_CASES)
def test_flow_fixes_end_values_and_yields_every_step(case):
    (diag, off), u0 = FLOW_CASES[case]
    count = 0
    for u in crank_nicolson_flow(u0, diag, off, 5):
        assert (u[0], u[-1]) == (u0[0], u0[-1])
        count += 1
    assert count == 6


def test_flow_reads_a_readonly_start_without_writing_it():
    diag, off = heat_matrix(62)
    start = Grid(-1.0, 2.0, 64).from_function(lambda x: np.exp(-x * x))
    saved = start.values.copy()
    steps = list(crank_nicolson_flow(start.values, diag, off, 4))
    assert all(u is not start.values for u in steps)
    assert np.array_equal(start.values, saved)


def step_backward_errors(diag, off, seeds=(0, 1, 2)):
    """Normwise backward error of one step from each of a few random
    states, end values included, against A u+ = (2I - A) u + f."""
    m = len(diag)
    ab = np.zeros((3, m), dtype=complex)
    ab[0, 1:] = ab[2, :-1] = off
    ab[1] = diag
    errors = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        u = rng.normal(size=m + 2) + 1j * rng.normal(size=m + 2)
        _, out = crank_nicolson_flow(u, diag, off, 1)
        rhs = (2.0 - diag) * u[1:-1] - off * (u[2:] + u[:-2])
        rhs[0] -= off * u[0]
        rhs[-1] -= off * u[-1]
        errors.append(cn_backward_error(ab, out[1:-1], rhs))
    return errors


def harmonic(x):
    return 0.5 * x**2


def deep_well(x):
    return -200.0 * np.exp(-(x**2))


@pytest.mark.parametrize(
    "m, dt, potential, depth",
    [
        (4095, 1.0 / 1024, harmonic, 2),        # odd at every level
        (4096, 1.0 / 1024, harmonic, 3),        # even at every level
        (6142, 1.0 / 1024, harmonic, 3),        # even, then odd
        (4095, 1.0 / 1024, deep_well, 2),
        (4096, -1.0 / 1024, harmonic, 3),       # time reversed
        (REDUCTION_FLOOR - 1, 1.0 / 1024, harmonic, 0),
    ],
    ids=["odd", "even", "mixed-parity", "deep-well", "negative-dt", "below-floor"],
)
def test_complex_step_backward_error(m, dt, potential, depth):
    diag, off = schroedinger_matrix(m, dt, potential)
    assert reduction_depth(diag, off) == depth
    if potential is deep_well:
        assert np.any(np.abs(diag) < 2.0 * abs(off))  # rows not diagonally dominant
    assert max(step_backward_errors(diag, off)) <= 4 * np.finfo(float).eps


def test_complex_step_refuses_levels_with_large_couplings():
    # a well that cancels the kinetic diagonal at the centre, which the grid
    # does not resolve: eliminating there would multiply by ~3e5, so no
    # level is taken and ?gttrf pivots
    def cancelling(x):
        return -1.0 / (x[1] - x[0]) ** 2 * np.exp(-(x**2))

    diag, off = schroedinger_matrix(16383, 1.0, cancelling)
    assert reduction_depth(diag, off) == 0
    assert max(step_backward_errors(diag, off)) <= 4 * np.finfo(float).eps


@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the test
def test_complex_step_zero_pivot():
    m = 2 * REDUCTION_FLOOR - 1
    # an odd-sized symmetric tridiagonal with zero diagonal is singular,
    # and every pivot the first level would eliminate is zero
    flow = crank_nicolson_flow(np.zeros(m + 2, dtype=complex), np.zeros(m, dtype=complex),
                               1j, 1)
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        next(flow)
    # one zero eliminated pivot in a regular matrix: no level divides by
    # it, and ?gttrf pivots past it
    diag = np.full(m, 1.0 + 5.0j)
    diag[10] = 0.0
    assert reduction_depth(diag, 1j) == 0
    assert max(step_backward_errors(diag, 1j)) <= 4 * np.finfo(float).eps


def copy_fold_solve_subtract(u, diag, off):
    """Reference for one complex Crank-Nicolson step: copy the interior of
    ``u``, fold its ends, solve A/2 by odd-even reduction and ?gttrs on a
    copy, and subtract the interior of ``u``, level by level in the same
    numpy operations as the flow's step."""
    levels, last_diag, last_off = _odd_even_levels(
        0.5 * diag, np.full(len(diag) - 1, 0.5 * off, dtype=complex))
    gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), (last_diag,))
    *factors, info = gttrf(last_off, last_diag, last_off)
    assert info == 0
    rhs = u[1:-1].copy()
    rhs[0] -= off * u[0]
    rhs[-1] -= off * u[-1]
    systems = [rhs] + [np.empty_like(left) for _, left, _ in levels]
    for (_, left, right), above, below in zip(levels, systems, systems[1:]):
        np.multiply(left, above[: 2 * len(left) : 2], out=below)
        np.subtract(above[1::2], below, out=below)
        below[: len(right)] -= right * above[2::2]
    systems[-1][:] = gttrs(*factors, systems[-1])[0]
    for (pivots, left, right), above, below in zip(
        reversed(levels), reversed(systems[:-1]), reversed(systems[1:])
    ):
        evens = above[::2]
        above[1::2] = below
        evens *= pivots
        evens[: len(left)] -= left * below
        evens[1:] -= right * below[: len(right)]
    return rhs - u[1:-1]


def cancelling_well(x):
    return -1.0 / (x[1] - x[0]) ** 2 * np.exp(-(x**2))


@pytest.mark.parametrize(
    "m, dt, potential",
    [
        (4095, 1.0 / 1024, harmonic),
        (4096, 1.0 / 1024, harmonic),
        (6142, 1.0 / 1024, harmonic),
        (4095, 1.0 / 1024, deep_well),
        (4096, -1.0 / 1024, harmonic),
        (REDUCTION_FLOOR - 1, 1.0 / 1024, harmonic),
        (16383, 1.0, cancelling_well),
    ],
    ids=["odd", "even", "mixed-parity", "deep-well", "negative-dt", "below-floor",
         "cancelling-well"],
)
def test_complex_step_matches_copy_fold_solve_subtract(m, dt, potential):
    # three steps from random states with nonzero complex ends: every step
    # equals the reference to the bit, and the state it read is left as it was
    diag, off = schroedinger_matrix(m, dt, potential)
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        u0 = rng.normal(size=m + 2) + 1j * rng.normal(size=m + 2)
        flow = crank_nicolson_flow(u0, diag, off, 3)
        before = next(flow).copy()
        for after in flow:
            assert (after[0], after[-1]) == (u0[0], u0[-1])
            assert np.array_equal(after[1:-1], copy_fold_solve_subtract(before, diag, off))
            before = after.copy()


def spd_system(m, seed):
    """A seeded random symmetric positive definite tridiagonal of m rows
    (diagonally dominant) and a right-hand side."""
    rng = np.random.default_rng(seed)
    off = rng.normal(size=m - 1)
    diag = 2.5 + rng.random(m)
    return diag, off, rng.normal(size=m)


def complex_symmetric_system(m, seed):
    """A seeded random complex symmetric tridiagonal of m rows and a
    right-hand side; its diagonal is small next to its couplings, so
    ?gttrf interchanges rows."""
    rng = np.random.default_rng(seed)
    off = rng.normal(size=m - 1) + 1j * rng.normal(size=m - 1)
    diag = 0.3 * (rng.normal(size=m) + 1j * rng.normal(size=m))
    return diag, off, rng.normal(size=m) + 1j * rng.normal(size=m)


@pytest.fixture
def lapack(request, monkeypatch):
    """The library named by the test's ``lapack`` parameter, set as the one
    every solve of the test runs on: "numpy" is numpy's own OpenBLAS
    (skipped where numpy ships none), "scipy" the routines scipy's
    ``cython_lapack`` exports."""
    grid = fisherqp.grid
    loaded = grid._numpy_openblas() if request.param == "numpy" else grid._scipy_lapack()
    if loaded is None:
        pytest.skip("numpy ships no OpenBLAS of its own here")
    monkeypatch.setattr(grid, "_LOADED", loaded)
    return loaded


def on_both_libraries(argname, values, ids=None):
    """``parametrize`` ``argname`` over ``values`` once on each library of
    the ``lapack`` fixture: numpy's OpenBLAS, which solves wherever numpy
    ships one, under the plain ``ids`` (by default the values), and
    scipy's under ``scipy-`` ones."""
    ids = ids or [str(v) for v in values]
    return pytest.mark.parametrize(
        ("lapack", argname), [("numpy", v) for v in values] + [("scipy", v) for v in values],
        ids=[*ids, *(f"scipy-{i}" for i in ids)], indirect=["lapack"])


def pivot_dtype():
    """The integer of the library the process solves with."""
    return np.dtype(_lapack().integer)


def ours(names, diag, off, rhs):
    """(info, every output array) of factoring and solving (diag, off)
    with the bound routines; no solve where the factorization fails."""
    if names == ("pttrf", "pttrs"):
        d, e, b = diag.copy(), off.copy(), rhs.copy()
        info = _bind("dpttrf", d, e)()
        return [info, d, e, *((_bind("dpttrs", d, e, b)(), b) if info == 0 else (None, None))]
    m = len(diag)
    factors = [off.copy(), diag.copy(), off.copy(), np.zeros(max(m - 2, 0), complex),
               np.zeros(m, pivot_dtype())]
    b = rhs.copy()
    info = _bind("zgttrf", *factors)()
    return [info, *factors, *((_bind("zgttrs", *factors, b)(), b) if info == 0
                              else (None, None))]


def ours_and_scipys(names, diag, off, rhs):
    """Factor and solve (diag, off) with the bound routines and with
    scipy's f2py ones; returns both lists of (info, every output array).
    scipy's ?pt wrappers refuse an empty off-diagonal, so a one-unknown
    system hands them a one-entry one, which LAPACK does not read."""
    factor, solve = get_lapack_funcs(names, (diag,))
    if names == ("pttrf", "pttrs"):
        d, e, info = factor(diag, off if len(off) else np.zeros(1))
        x, solved = solve(d, e, rhs) if info == 0 else (None, None)
        theirs = [info, d, e[: len(off)], solved, x]
    else:
        *factors, info = factor(off, diag, off)
        x, solved = solve(*factors, rhs) if info == 0 else (None, None)
        theirs = [info, *factors[:4], factors[4].astype(pivot_dtype()), solved, x]
    return ours(names, diag, off, rhs), theirs


def assert_same_bits(ours, theirs):
    for a, b in zip(ours, theirs, strict=True):
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        else:
            assert a == b


def assert_solves_densely(diag, off, rhs, x):
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    assert np.allclose(dense @ x, rhs, rtol=1e-13, atol=1e-13)


@on_both_libraries("m", [1, 2, 3, 4, 5, 4097])
def test_bound_routines_equal_scipys_to_the_bit(lapack, m):
    # seeded random systems, and each made to fail: an SPD matrix shifted
    # to be indefinite (?pttrf stops at a pivot), a complex symmetric one
    # with a zero row (?gttrf finds it singular); scipy's ?gt wrappers size
    # no system of fewer than 3 unknowns, so a dense solve checks those
    for seed in range(5):
        diag, off, rhs = spd_system(m, seed)
        assert_same_bits(*ours_and_scipys(("pttrf", "pttrs"), diag, off, rhs))
        shifted = diag.copy()
        shifted[m // 2] = -1.0
        mine, theirs = ours_and_scipys(("pttrf", "pttrs"), shifted, off, rhs)
        assert mine[0] == theirs[0] > 0
        assert_same_bits(mine, theirs)

        diag, off, rhs = complex_symmetric_system(m, seed)
        singular, cut = diag.copy(), off.copy()
        singular[m // 2] = 0.0
        cut[max(m // 2 - 1, 0) : m // 2 + 1] = 0.0
        if m < 3:
            info, *_, solved, x = ours(("gttrf", "gttrs"), diag, off, rhs)
            assert info == solved == 0
            assert_solves_densely(diag, off, rhs, x)
            assert ours(("gttrf", "gttrs"), singular, cut, rhs)[0] == m // 2 + 1
            continue
        assert_same_bits(*ours_and_scipys(("gttrf", "gttrs"), diag, off, rhs))
        mine, theirs = ours_and_scipys(("gttrf", "gttrs"), singular, cut, rhs)
        assert mine[0] == theirs[0] > 0
        assert_same_bits(mine, theirs)


@on_both_libraries("m", [1, 2])
def test_bound_gt_routines_solve_systems_of_one_and_two_unknowns(lapack, m):
    # a dense solve of the same system agrees to rounding, and a zero
    # matrix is singular at its first row
    diag, off, rhs = complex_symmetric_system(m, 7)
    factors = [off.copy(), diag.copy(), off.copy(), np.zeros(0, complex),
               np.zeros(m, pivot_dtype())]
    b = rhs.copy()
    assert _bind("zgttrf", *factors)() == 0 and _bind("zgttrs", *factors, b)() == 0
    assert_solves_densely(diag, off, rhs, b)
    assert _bind("zgttrf", np.zeros(m - 1, complex), np.zeros(m, complex),
                 np.zeros(m - 1, complex), np.zeros(0, complex),
                 np.zeros(m, pivot_dtype()))() == 1


def bad_arrays(pivot):
    """(routine, arrays, the argument binding must refuse), with pivots
    of dtype ``pivot`` where they are right; of int32 and int64, the other
    one is the wrong pivot dtype."""
    d, e = np.ones(8), np.ones(7)
    z, zo = np.ones(8, complex), np.ones(7, complex)
    pivots = np.zeros(8, pivot)
    wrong = np.int32 if pivot == np.int64 else np.int64
    return [
        ("dpttrf", (np.ones(16)[::2], e), "d"),                 # not contiguous
        ("dpttrf", (d.astype(np.float32), e), "d"),             # wrong dtype
        ("dpttrf", (d, np.ones(6)), "e"),                       # shorter than n - 1
        ("dpttrs", (d, e, np.ones(7)), "b"),                    # shorter than n
        ("dpttrs", (d, e, np.ones((8, 1))), "b"),               # not 1-D
        ("dpttrs", (d, e, np.ones(8, complex)), "b"),           # complex right-hand side
        ("zgttrf", (zo, z, zo, np.ones(5, complex), pivots), "du2"),
        ("zgttrf", (zo, z, zo, np.ones(6, complex), pivots.astype(wrong)), "ipiv"),
        ("zgttrs", (zo, d, zo, np.ones(6, complex), pivots, z), "d"),
        ("zgttrs", (zo, z, zo, np.ones(6, complex), pivots, np.ones(24, complex)[::3]), "b"),
        ("zgttrs", (zo, z, zo, np.ones(6, complex), pivots,
                    np.frombuffer(np.ones(8, complex).tobytes(), complex)), "b"),  # read-only
    ]


BAD_ROUTINES = [routine for routine, _, _ in bad_arrays(np.int64)]


@on_both_libraries("case", range(len(BAD_ROUTINES)),
                   ids=[f"{r}-{i}" for i, r in enumerate(BAD_ROUTINES)])
def test_binding_refuses_arrays_lapack_could_overrun(lapack, case):
    routine, arrays, name = bad_arrays(np.dtype(lapack.integer))[case]
    with pytest.raises(ValueError, match=f"^{routine}: {name} must be"):
        _bind(routine, *arrays)


def test_binding_refuses_an_empty_system_and_a_wrong_argument_count():
    with pytest.raises(ValueError, match="no unknowns"):
        _bind("dpttrf", np.ones(0), np.ones(0))
    with pytest.raises(TypeError, match="takes the arrays d, e, b"):
        _bind("dpttrs", np.ones(3), np.ones(2))


@pytest.mark.parametrize("lapack", ["numpy", "scipy"], indirect=True)
def test_negative_info_raises_naming_the_routine_and_argument(lapack, monkeypatch):
    # an illegal n, which the binding itself never passes, made by an
    # integer type that negates what it is given: LAPACK's xerbla only
    # prints, and the call raises from info instead
    integer = lapack.integer

    class Negated(integer):
        def __init__(self, value=0):
            integer.__init__(self, -value)

    monkeypatch.setattr(fisherqp.grid, "_LOADED", lapack._replace(integer=Negated))
    with pytest.raises(ValueError, match=r"^dpttrf: LAPACK refused argument 1 \(n\)$"):
        _bind("dpttrf", np.ones(3), np.ones(2))()
    z, zo = np.ones(3, complex), np.ones(2, complex)
    with pytest.raises(ValueError, match=r"^zgttrs: LAPACK refused argument 2 \(n\)$"):
        _bind("zgttrs", zo, z, zo, np.ones(1, complex), np.ones(3, integer), z)()


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("names", [("pttrf", "pttrs"), ("gttrf", "gttrs")])
def test_lapack_returns_scipys_routines(names, dtype):
    # the package binds ?pt routines for float64 data (symmetric positive
    # definite) and ?gt routines for complex128 data (complex symmetric):
    # on those, the bound pair computes what scipy's pair computes, to the
    # bit; the other two pairings are refused at binding
    prefix = "d" if names[0] == "pttrf" else "z"
    arrays = [np.ones(4, dtype), np.ones(3, dtype)]
    if prefix == "z":
        arrays = [arrays[1], arrays[0], arrays[1].copy(), np.ones(2, dtype),
                  np.zeros(4, pivot_dtype())]
    if np.dtype(dtype) != fisherqp.grid._DTYPES[prefix]:
        with pytest.raises(ValueError, match="must be a writeable C-contiguous"):
            _bind(prefix + names[0], *arrays)
        return
    system = spd_system if prefix == "d" else complex_symmetric_system
    assert_same_bits(*ours_and_scipys(names, *system(7, 0)))


def test_lapack_falls_back_to_the_package_when_no_extension_file_matches(monkeypatch):
    from scipy.linalg import cython_lapack  # what the package import gives

    monkeypatch.delitem(sys.modules, "scipy.linalg.cython_lapack")
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".no-such-suffix"])
    assert _load_cython_lapack() is cython_lapack
    # where numpy loaded no OpenBLAS of its own, scipy's routines solve
    monkeypatch.setattr(fisherqp.grid, "_numpy_openblas", lambda: None)
    monkeypatch.setattr(fisherqp.grid, "_LOADED", None)
    assert _lapack().name == f"scipy {scipy.__version__} cython_lapack"
    assert fisherqp.grid._lapack_name() == _lapack().name
    assert pivot_dtype() == np.int32


def test_lapack_loads_the_extension_without_the_scipy_linalg_package():
    # in a fresh process: the fallback loads scipy.linalg.cython_lapack
    # alone, and a later import of it through scipy.linalg hands out the
    # very same module
    code = """if True:
        import sys
        from fisherqp.grid import _CYTHON_LAPACK, _scipy_lapack
        print(_scipy_lapack().name.startswith("scipy "))
        print("scipy.linalg" in sys.modules, _CYTHON_LAPACK in sys.modules)
        loaded = sys.modules[_CYTHON_LAPACK]
        from scipy.linalg import cython_lapack
        print(cython_lapack is loaded)
    """
    src = str(Path(fisherqp.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.split() == ["True", "False", "True", "True"]
