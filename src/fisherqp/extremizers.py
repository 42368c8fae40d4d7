"""Variational solvers: maximum entropy under moment constraints, and
extreme-physical-information (Fisher) extremization via its reduction to
a Schroedinger-like eigenproblem.

MaxEnt: extremizing -integral(p log p) subject to normalization and
integral(A p) = target yields p = exp(-alpha_gibbs A)/Z.  The multiplier
is found by safeguarded bisection on the strictly decreasing map
alpha -> <A>_alpha.

Fisher extremization: stationarity of

    FI[p] - alpha_norm <1> - sum_i lambda_i <A_i>

reduces, for p = psi^2 and nodeless psi, to

    -(1/2) psi'' - U psi = (alpha_norm/8) psi,     U = (1/8) sum_i lambda_i A_i,

so the extremal density is the ground state of a symmetric tridiagonal
operator with Dirichlet walls and alpha_norm = 8 * (ground eigenvalue).
Contracting the stationarity condition with p gives the useful scalar
identity FI = alpha_norm + sum_i lambda_i <A_i>.

The ground state is found in O(n) by inverse iteration whose every shift
is certified to lie below the ground eigenvalue e0: an LDL^T factorization
of T - sigma I (LAPACK ``?pttrf``) succeeds exactly when sigma < e0, and
below e0 the nearest eigenvalue is e0, so the iteration cannot settle on
an excited state however small the gap.  Any start vector that overlaps
the ground state will do: T has negative off-diagonals, so its ground
state is strictly positive (Perron-Frobenius) and so overlaps every
nonnegative nonzero vector.  A sweep therefore starts each multiplier
from its neighbour's ground state, which saves iterations.
Whether the ground state is degenerate is read from the inertia of the
LDL^T recurrence of T - sI just above it (Sylvester's law: its negative
pivots count the eigenvalues below s): ``?pttrf`` stops at the first pivot
that is not positive, and a second ``?pttrf`` continues the recurrence
past it, so the count needs no work arrays beyond the shifted diagonal
every factorization takes.  The same count certifies that the converged
Rayleigh quotient is e0 itself: the residual puts an eigenvalue within the
count's window, and a count of one makes it e0 (see ``_ground_state``).
``?pttrf`` and ``?pttrs`` come from ``grid._lapack``, which loads only
scipy's compiled LAPACK extension, not the ``scipy.linalg`` package, whose
import would cost a sweep far more time than its solves.

The log-derivative substitution v = (log psi)' turns the stationarity
condition into the Riccati form v' + v^2 + G/4 = 0 with
G = alpha_norm + sum_i lambda_i A_i; ``riccati_check`` measures that
residual in the density-weighted sup norm.  The identity checks built on
these solutions live in ``suites``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGround, EdgeLocalized, InfeasibleTarget, NonDecaying
from .functionals import fisher_information, weighted_max_dev
from .grid import (
    Grid,
    ScalarField,
    _lapack,
    derivative_values,
    quadrature_values,
)
from .states import Density, TruncationError, _build_density, _gibbs, _gibbs_weight

EDGE_BUFFER = 5          # grid points counted as "at the wall"
EDGE_MASS_TOL = 1e-7     # ground-state mass allowed in the buffer
DEGENERACY_TOL = 1e-10   # relative gap below which the ground state is ambiguous
RESIDUAL_TOL = 4.0       # stop at ||T v - rho v|| <= RESIDUAL_TOL * eps * ||T||
MAX_ITERATIONS = 100     # inverse-iteration guard; 5-8 are typical


@dataclass(frozen=True)
class ConstraintSpec:
    """Constraint functions with their multipliers."""

    A_fields: list[ScalarField]
    multipliers: list[float]

    def __post_init__(self):
        if len(self.multipliers) != len(self.A_fields):
            raise ValueError("constraint arrays must have matching lengths")


@dataclass(frozen=True)
class EPIResult:
    """Solution of the Fisher extremization.

    p_I = psi^2 with psi the nonnegative normalized ground state;
    alpha_norm = 8 * eigenvalue; U is the effective potential
    (1/8) sum_i lambda_i A_i; fisher_I = FI(p_I).
    """

    p_I: Density
    psi: ScalarField
    alpha_norm: float
    eigenvalue: float
    effective_potential: ScalarField
    fisher_I: float
    multipliers: tuple[float, ...]


def maxent_solve(A: ScalarField, target: float) -> tuple[Density, float, float]:
    """Solve the single-constraint MaxEnt problem.

    Returns (density, alpha_gibbs, Z) with density = exp(-alpha_gibbs A)/Z
    and quadrature(P * A) = target; Z is inf where it overflows.  Raises
    InfeasibleTarget when the target is outside (min A, max A),
    NonDecaying when the solution fails the endpoint-decay check, and
    NonFinite when a multiplier the search tries makes alpha_gibbs*A -
    min(alpha_gibbs*A) overflow.
    """
    a = A.values
    dx = A.grid.dx
    lo_val, hi_val = float(np.min(a)), float(np.max(a))
    if not lo_val < target < hi_val:
        raise InfeasibleTarget(
            f"target {target} outside the attainable range ({lo_val}, {hi_val})"
        )

    def mean_a(alpha: float) -> float:
        w, _ = _gibbs_weight(alpha, a, "alpha_gibbs", "A")
        return quadrature_values(a * w, dx) / quadrature_values(w, dx)

    # <A>(alpha) decreases strictly in alpha; expand the bracket until the
    # target is enclosed (at most 200 doublings).
    lo, hi = -1.0, 1.0
    for _ in range(200):
        if mean_a(lo) >= target:
            break
        lo *= 2.0
    else:
        raise InfeasibleTarget("failed to bracket the target from below")
    for _ in range(200):
        if mean_a(hi) <= target:
            break
        hi *= 2.0
    else:
        raise InfeasibleTarget("failed to bracket the target from above")

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mean_a(mid) > target:
            lo = mid
        else:
            hi = mid
        # relative to the bracket, so a multiplier near 0 is still resolved;
        # a bracket closing on alpha = 0 ends through the iteration cap
        if hi - lo <= 1e-15 * max(abs(lo), abs(hi)):
            break
    alpha = 0.5 * (lo + hi)
    if abs(mean_a(alpha) - target) > 1e-8 * max(1.0, abs(target)):
        raise InfeasibleTarget(
            f"bisection stalled: <A>({alpha}) = {mean_a(alpha)} vs target {target}"
        )

    try:
        density, z = _gibbs(A, alpha, True, "alpha_gibbs", "A")
    except TruncationError as exc:
        raise NonDecaying(str(exc)) from exc
    return density, float(alpha), float(z)


def effective_potential(spec: ConstraintSpec, grid: Grid) -> ScalarField:
    """U = (1/8) sum_i lambda_i A_i on the given grid."""
    u = np.zeros(grid.n)
    for lam, a in zip(spec.multipliers, spec.A_fields):
        if a.grid != grid:
            raise ValueError("constraint field grid mismatch")
        u += lam * a.values
    return ScalarField(grid, u / 8.0)


def _count_below(diag: np.ndarray, off: np.ndarray, s: float) -> int:
    """Eigenvalues of the symmetric tridiagonal T = (diag, off) at or below
    s, counted as 0, 1 or 2 (meaning at least 2).

    The count is the number of negative pivots of the LDL^T recurrence
    d_1 = a_1, d_(i+1) = a_(i+1) - e_i^2 / d_i of T - sI.  ``?pttrf`` runs
    it and stops at the first pivot d_k <= 0 (``info`` = k); a pivot of
    magnitude below ``?stebz``'s pivmin counts as -pivmin, so a zero pivot
    is negative.  The trailing block is then seeded with -e_k^2 / d_k and
    factored by one more ``?pttrf``: it factors exactly when no second
    pivot is negative.
    """
    (pttrf,) = _lapack(("pttrf",), diag.dtype)
    d, _, k = pttrf(diag - s, off, overwrite_d=True)
    if k == 0:
        return 0
    if k == len(diag):
        return 1
    pivmin = np.finfo(float).tiny * max(1.0, float(off.max()) ** 2,
                                        float(off.min()) ** 2)
    tail = diag[k:] - s
    tail[0] -= off[k - 1] ** 2 / min(float(d[k - 1]), -pivmin)
    if len(tail) == 1:  # ?pttrf wants a nonempty off-diagonal
        return 1 if tail[0] > 0.0 else 2
    return 1 if pttrf(tail, off[k:], overwrite_d=True)[2] == 0 else 2


def _ground_state(
    diag: np.ndarray, off: np.ndarray, start: np.ndarray | None
) -> tuple[float, np.ndarray, int]:
    """Lowest eigenpair of the symmetric tridiagonal T = (diag, off) in O(n).

    Inverse iteration from ``start`` (None: all ones), which must overlap
    the ground state (any nonnegative nonzero vector does, see the module
    docstring); it is not modified.  Each shift sigma is certified below e0 by its own
    ``?pttrf`` factorization, the one ``?pttrs`` then solves with.  Sigma
    starts at the Gershgorin lower bound and moves up to rho - r (rho the
    Rayleigh quotient, r = ||T v - rho v||); a shift that fails to factor
    is halved back toward the last good one.  Iteration stops at
    r <= RESIDUAL_TOL * eps * ||T||.

    Returns (e0, v, count): v has unit 2-norm, e0 = rho and ``count`` is
    ``_count_below`` at rho + width, width = max(DEGENERACY_TOL |rho|,
    4 eps ||T||); 2 means at least two eigenvalues within that window of
    the ground eigenvalue.  That count, with one factorization per shift,
    also certifies rho: at exit r <= 4 eps ||T|| <= width, and T has an
    eigenvalue within r of rho, so at or below rho + width.  A count of 1
    makes that eigenvalue e0, so e0 >= rho - r; a count of 0 contradicts
    the residual bound and raises LinAlgError.  A count of 2 leaves rho
    uncertified, but the caller refuses it as degenerate.  Reductions
    use ``np.sum(a * b)``, not ``np.dot``: numpy sums in its own fixed
    pairwise order, while a BLAS dot product's order depends on the BLAS
    build and kernel, so the iterates would too.
    """
    pttrf, pttrs = _lapack(("pttrf", "pttrs"), diag.dtype)
    radius = np.zeros_like(diag)
    radius[:-1] += np.abs(off)
    radius[1:] += np.abs(off)
    lower = float(np.min(diag - radius))
    floor = np.finfo(float).eps * max(abs(lower), abs(float(np.max(diag + radius))))

    def factor(sigma: float):
        d, e, info = pttrf(diag - sigma, off, overwrite_d=True)
        return (d, e) if info == 0 else None

    sigma = lower - floor
    factors = factor(sigma)
    # ?pttrs overwrites v: never hand it the caller's array
    v = np.ones_like(diag) if start is None else np.array(start, dtype=float)
    tv = radius  # reused as the T v work array
    for _ in range(MAX_ITERATIONS):
        w = pttrs(*factors, v, overwrite_b=True)[0]
        v = w / np.sqrt(np.sum(w * w))
        np.multiply(diag, v, out=tv)
        tv[:-1] += off * v[1:]
        tv[1:] += off * v[:-1]
        rho = float(np.sum(v * tv))
        tv -= rho * v
        r = float(np.sqrt(np.sum(tv * tv)))
        if r <= RESIDUAL_TOL * floor:
            break
        target = rho - r
        while target - sigma > floor:
            trial = factor(target)
            if trial is not None:
                sigma, factors = target, trial
                break
            target = 0.5 * (sigma + target)
    else:
        raise np.linalg.LinAlgError(
            f"inverse iteration left residual {r:.3e} after {MAX_ITERATIONS} steps"
        )
    width = max(DEGENERACY_TOL * abs(rho), 4.0 * floor)
    count = _count_below(diag, off, rho + width)
    if count == 0:
        raise np.linalg.LinAlgError(
            f"Rayleigh quotient {rho!r} is not the ground eigenvalue"
        )
    return rho, v, count


def epi_solve(
    spec: ConstraintSpec, grid: Grid, *, start: np.ndarray | None = None
) -> EPIResult:
    """Ground state of -(1/2) d2/dx2 - U with Dirichlet walls.

    The interior of the grid carries the symmetric tridiagonal operator;
    its ground state comes from certified-shift inverse iteration (see
    the module docstring), so the grid needs at least two interior points.
    ``start`` (n - 2 interior values, nonnegative and not all zero; default
    all ones) starts the iteration, e.g. a nearby multiplier's psi[1:-1].
    The result depends on it only at the convergence tolerance.

    Raises EdgeLocalized when the ground state carries more than
    EDGE_MASS_TOL of probability within EDGE_BUFFER points of a wall
    (the continuum problem is unbound, e.g. positive multiplier on x^2)
    and DegenerateGround when a second eigenvalue lies within
    DEGENERACY_TOL relative (or a few eps * ||T|| absolute, whichever is
    larger) above the ground eigenvalue.
    """
    if grid.n < 4:
        raise ValueError(
            f"epi_solve needs at least 2 interior grid points (n >= 4), got n={grid.n}"
        )
    u = effective_potential(spec, grid)
    dx = grid.dx
    kin = 1.0 / (2.0 * dx * dx)
    diag = 2.0 * kin - u.values[1:-1]
    off = -kin * np.ones(grid.n - 3)
    e0, v, count = _ground_state(diag, off, start)

    psi = np.zeros(grid.n)
    psi[1:-1] = v
    del diag, off, v  # the solve's arrays go before psi's are formed
    if psi[np.argmax(np.abs(psi))] < 0:
        psi = -psi
    # one buffer holds psi^2, first for the norm, then (re-squared) as p
    p = np.square(psi)
    norm = np.sqrt(quadrature_values(p, dx))
    psi /= norm
    np.square(psi, out=p)

    buffer_mass = max(
        quadrature_values(p[: EDGE_BUFFER + 1], dx),
        quadrature_values(p[-(EDGE_BUFFER + 1) :], dx),
    )
    if buffer_mass > EDGE_MASS_TOL:
        raise EdgeLocalized(
            f"ground state carries {buffer_mass:.3e} probability within "
            f"{EDGE_BUFFER} points of a wall"
        )
    if count >= 2:
        raise DegenerateGround(
            f"at least {count} eigenvalues within {DEGENERACY_TOL:.0e} relative of the "
            f"ground eigenvalue {e0!r}"
        )

    density = _build_density(p, grid, truncation_check=False)
    del p  # gone before fisher_information forms its temporaries
    return EPIResult(
        p_I=density,
        psi=ScalarField(grid, psi),
        alpha_norm=8.0 * e0,
        eigenvalue=e0,
        effective_potential=u,
        fisher_I=fisher_information(density),
        multipliers=tuple(spec.multipliers),
    )


def stationarity_residual(result: EPIResult) -> float:
    """Density-weighted sup norm of the Euler-Lagrange residual

        (p'/p)^2 + (2 p'/p)' + alpha_norm + sum_i lambda_i A_i
    """
    d = result.p_I
    mask = d.support_mask
    dx = d.grid.dx
    w = d.grad_log()
    dw2 = derivative_values(2.0 * w, dx)
    g = result.alpha_norm + 8.0 * result.effective_potential.values
    r = np.where(mask, w**2 + dw2 + g, 0.0)
    return weighted_max_dev(r, np.zeros_like(r), d)


def riccati_check(result: EPIResult) -> float:
    """Density-weighted masked max of |v' + v^2 + G/4|, v = (log psi)'.

    A support of fewer than 3 points raises DegenerateSupport.
    """
    d = result.p_I
    dx = d.grid.dx
    psi = result.psi.values
    # differentiate log(psi) on the contiguous masked block only
    idx = d.support_indices(3, "riccati")
    block = slice(idx[0], idx[-1] + 1)
    log_psi = np.log(np.maximum(psi[block], 1e-300))
    v = np.zeros_like(psi)
    v[block] = derivative_values(log_psi, dx)
    dv = np.zeros_like(psi)
    dv[block] = derivative_values(v[block], dx)
    g = result.alpha_norm + 8.0 * result.effective_potential.values
    return weighted_max_dev(dv + v**2 + g / 4.0, 0.0, d)

