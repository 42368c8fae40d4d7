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
Every off-diagonal entry of T is -1/(2 dx^2), one number.  Every array
of length n a solve works in lives in one workspace (``_Workspace``),
seven arrays of n and a mask: T's diagonal, one factor slot, the iterate,
psi, p_I and two work arrays.  A sweep builds one and runs each of its
solves in it, so they allocate no array of length n, and the pages stay
mapped from one solve to the next instead of being freed and faulted back
in; ``epi_solve`` builds its own and copies its results out.  Whether the
ground state is degenerate is read from the inertia of the LDL^T
recurrence of T - sI just above it (Sylvester's law: its negative pivots
count the eigenvalues below s): ``?pttrf`` stops at the first pivot that
is not positive, and a second ``?pttrf`` continues the recurrence past
it, both in the factor slot.  The same count certifies that the converged
Rayleigh quotient is e0 itself: the residual puts an eigenvalue within the
count's window, and a count of one makes it e0 (see ``_ground_state``).
``?pttrf`` and ``?pttrs`` run on the LAPACK that ``grid._bind`` binds
them to (numpy's own OpenBLAS where numpy ships one); the workspace binds
its factor slot, and the slot's solve on the iterate, once.

The log-derivative substitution v = (log psi)' turns the stationarity
condition into the Riccati form v' + v^2 + G/4 = 0 with
G = alpha_norm + sum_i lambda_i A_i; ``riccati_check`` measures that
residual in the density-weighted sup norm, relative to that of G/4.  The
identity checks built on these solutions live in ``suites``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGround, EdgeLocalized, InfeasibleTarget, NonDecaying
from .functionals import _fisher_integral, weighted_max_dev
from .grid import (
    Grid,
    ScalarField,
    _bind,
    derivative_values,
    quadrature_values,
)
from .states import Density, TruncationError, _gibbs, _gibbs_weight, _normalize_into

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


def _effective_potential(spec: ConstraintSpec, grid: Grid, u: np.ndarray,
                         work: np.ndarray) -> np.ndarray:
    """U = (1/8) sum_i lambda_i A_i on the given grid, written into ``u``;
    ``work`` holds each term lambda_i A_i.  Both are n long."""
    u.fill(0.0)
    for lam, a in zip(spec.multipliers, spec.A_fields):
        if a.grid != grid:
            raise ValueError("constraint field grid mismatch")
        u += np.multiply(lam, a.values, out=work)
    u /= 8.0
    return u


class _Workspace:
    """Every array of length ~n that one Fisher extremization on a grid of
    n points works in (see ``_extremize``): seven arrays of n and a mask.
    A sweep hands one to each of its solves, so the pages stay mapped from
    one solve to the next instead of being freed, trimmed off the heap and
    faulted back in.

    ``diag[1:-1]`` holds the diagonal of the interior operator T,
    ``factors`` the one ``?pttrf`` slot (d, e) and ``vn`` the iterate
    ``v`` = vn[1:-1].  ``pttrf`` factors the slot in place and ``pttrs``
    solves with it in place in ``v``, both bound once (``grid._bind``).
    ``tv`` holds the products T v and T v - rho v, then the density p_I
    (``p`` names the same array); ``scratch`` holds every other product,
    and after the iteration it and ``diag`` serve as work arrays.  ``psi``
    holds the last ground state that passed its checks, and psi[1:-1]
    starts the next solve (all ones at first); ``mask`` receives p_I's
    support.
    """

    def __init__(self, n: int):
        if n < 4:
            raise ValueError(
                f"epi_solve needs at least 2 interior grid points (n >= 4), got n={n}"
            )
        m = n - 2
        self.diag = np.empty(n)
        self.factors = (np.empty(m), np.empty(m - 1))
        self.vn = np.empty(n)
        self.v = self.vn[1:-1]
        self.pttrf = _bind("dpttrf", *self.factors)
        self.pttrs = _bind("dpttrs", *self.factors, self.v)
        self.tv = self.p = np.empty(n)
        self.scratch = np.empty(n)
        self.psi = np.ones(n)
        self.psi[0] = self.psi[-1] = 0.0
        self.mask = np.empty(n, dtype=bool)


def _count_below(diag: np.ndarray, off: float, s: float,
                 d: np.ndarray, e: np.ndarray) -> int:
    """Eigenvalues of the symmetric tridiagonal T = (diag, off), ``off`` its
    one off-diagonal value, at or below s, counted as 0, 1 or 2 (2 meaning
    at least 2).

    The count is the number of negative pivots of the LDL^T recurrence
    d_1 = a_1, d_(i+1) = a_(i+1) - off^2 / d_i of T - sI.  ``?pttrf`` runs
    it and stops at the first pivot d_k <= 0 (``info`` = k); a pivot of
    magnitude below ``?stebz``'s pivmin counts as -pivmin, so a zero pivot
    is negative.  The trailing block is then seeded with -off^2 / d_k and
    factored by one more ``?pttrf``, which a one-point block also takes:
    it factors exactly when no second pivot is negative.  Both run in the
    work arrays ``d`` and ``e``, as long as ``diag`` and one shorter.
    """
    np.subtract(diag, s, out=d)
    e.fill(off)
    k = _bind("dpttrf", d, e)()
    if k == 0:
        return 0
    if k == len(diag):
        return 1
    pivmin = np.finfo(float).tiny * max(1.0, off ** 2)
    # the trailing block takes the slots past the first failed pivot
    tail = np.subtract(diag[k:], s, out=d[k:])
    tail[0] -= off ** 2 / min(float(d[k - 1]), -pivmin)
    e[k:].fill(off)
    return 1 if _bind("dpttrf", tail, e[k:])() == 0 else 2


def _ground_state(ws: _Workspace, off: float) -> tuple[float, int]:
    """Lowest eigenpair of the symmetric tridiagonal T = (ws.diag[1:-1],
    off) in O(n), computed in the workspace's arrays.

    Inverse iteration from ``ws.psi[1:-1]`` (read, not modified), which
    must overlap the ground state (any nonnegative nonzero vector does, see
    the module docstring).  Each shift sigma is certified below e0 by its
    own ``?pttrf`` factorization in the slot ``ws.factors``, which
    ``?pttrs`` then solves with.  Sigma starts at the Gershgorin lower
    bound and moves up to rho - r (rho the Rayleigh quotient,
    r = ||T v - rho v||); a shift that fails to factor is halved back toward
    the last good one, and a round whose every trial fails factors the last
    good shift again, to the same bits.

    Iteration stops at r <= RESIDUAL_TOL * eps * ||T||.  Returns
    (e0, count), e0 = rho, and leaves the eigenvector in ``ws.v`` with unit
    2-norm.  ``count`` is ``_count_below`` at rho + width, width =
    max(DEGENERACY_TOL |rho|, 4 eps ||T||); 2 means at least two
    eigenvalues within that window of the ground eigenvalue.  That count,
    with one factorization per shift, also certifies rho: at exit
    r <= 4 eps ||T|| <= width, and T has an eigenvalue within r of rho, so
    at or below rho + width.  A count of 1 makes that eigenvalue e0, so
    e0 >= rho - r; a count of 0 contradicts the residual bound and raises
    LinAlgError.  A count of 2 leaves rho uncertified, but the caller
    refuses it as degenerate.  Reductions sum a product array with
    ``np.sum``, not ``np.dot``: numpy sums in its own fixed pairwise order,
    while a BLAS dot product's order depends on the BLAS build and kernel,
    so the iterates would too.
    """
    diag, v = ws.diag[1:-1], ws.v
    tv, scratch = ws.tv[1:-1], ws.scratch[1:-1]
    radius = tv  # the Gershgorin radii, until tv holds T v
    radius.fill(2.0 * abs(off))
    radius[0] = radius[-1] = abs(off)
    lower = float(np.min(np.subtract(diag, radius, out=scratch)))
    upper = float(np.max(np.add(diag, radius, out=scratch)))
    floor = np.finfo(float).eps * max(abs(lower), abs(upper))

    def factor(sigma: float) -> bool:
        np.subtract(diag, sigma, out=ws.factors[0])
        ws.factors[1].fill(off)
        return ws.pttrf() == 0

    sigma = lower - floor
    factor(sigma)  # T - sigma I is diagonally dominant: it factors
    np.copyto(v, ws.psi[1:-1])
    for _ in range(MAX_ITERATIONS):
        ws.pttrs()
        v /= np.sqrt(np.sum(np.multiply(v, v, out=scratch)))
        np.multiply(diag, v, out=tv)
        tv[:-1] += np.multiply(off, v[1:], out=scratch[:-1])
        tv[1:] += np.multiply(off, v[:-1], out=scratch[:-1])
        rho = float(np.sum(np.multiply(v, tv, out=scratch)))
        tv -= np.multiply(rho, v, out=scratch)
        r = float(np.sqrt(np.sum(np.multiply(tv, tv, out=scratch))))
        if r <= RESIDUAL_TOL * floor:
            break
        target = rho - r
        factored = True  # the slot holds the factors of T - sigma I
        while target - sigma > floor:
            factored = factor(target)
            if factored:
                sigma = target
                break
            target = 0.5 * (sigma + target)
        if not factored:
            factor(sigma)
    else:
        raise np.linalg.LinAlgError(
            f"inverse iteration left residual {r:.3e} after {MAX_ITERATIONS} steps"
        )
    width = max(DEGENERACY_TOL * abs(rho), 4.0 * floor)
    count = _count_below(diag, off, rho + width, *ws.factors)
    if count == 0:
        raise np.linalg.LinAlgError(
            f"Rayleigh quotient {rho!r} is not the ground eigenvalue"
        )
    return rho, count


def _extremize(spec: ConstraintSpec, grid: Grid, ws: _Workspace) -> tuple[float, float]:
    """The Fisher extremization of ``epi_solve``, in the workspace ``ws``.

    Returns (e0, FI) and leaves the normalized ground state, its density
    p_I and p_I's support mask in ``ws.psi``, ``ws.p`` and ``ws.mask``.
    Raises as ``epi_solve`` does; the ground state is formed in ``ws.vn``
    and reaches ``ws.psi``, the next solve's start, only after the checks.
    """
    dx = grid.dx
    kin = 1.0 / (2.0 * dx * dx)
    u = _effective_potential(spec, grid, ws.scratch, ws.tv)
    np.subtract(2.0 * kin, u[1:-1], out=ws.diag[1:-1])
    e0, count = _ground_state(ws, -kin)

    vn, p = ws.vn, ws.p
    vn[0] = vn[-1] = 0.0
    if vn[np.argmax(np.abs(vn, out=p))] < 0:
        np.negative(vn, out=vn)
    # p holds vn^2, first for the norm, then (re-squared) as the density
    np.square(vn, out=p)
    vn /= np.sqrt(quadrature_values(p, dx, work=ws.scratch))
    np.square(vn, out=p)

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

    np.copyto(ws.psi, vn)
    _normalize_into(p, grid, False, p, ws.mask, ws.scratch)
    return e0, _fisher_integral(p, ws.mask, dx, ws.scratch, ws.diag)


def epi_solve(spec: ConstraintSpec, grid: Grid) -> EPIResult:
    """Ground state of -(1/2) d2/dx2 - U with Dirichlet walls.

    The interior of the grid carries the symmetric tridiagonal operator;
    its ground state comes from certified-shift inverse iteration (see
    the module docstring) started from all ones, so the grid needs at
    least two interior points.

    Raises EdgeLocalized when the ground state carries more than
    EDGE_MASS_TOL of probability within EDGE_BUFFER points of a wall
    (the continuum problem is unbound, e.g. positive multiplier on x^2)
    and DegenerateGround when a second eigenvalue lies within
    DEGENERACY_TOL relative (or a few eps * ||T|| absolute, whichever is
    larger) above the ground eigenvalue.
    """
    ws = _Workspace(grid.n)
    e0, fisher = _extremize(spec, grid, ws)
    # the factor slot and iterate go before the results are copied out
    p, mask, psi, u, work = ws.p, ws.mask, ws.psi, ws.scratch, ws.diag
    del ws
    return EPIResult(
        p_I=Density(ScalarField(grid, p), mask),
        psi=ScalarField(grid, psi),
        alpha_norm=8.0 * e0,
        eigenvalue=e0,
        effective_potential=ScalarField(grid, _effective_potential(spec, grid, u, work)),
        fisher_I=fisher,
        multipliers=tuple(spec.multipliers),
    )


def stationarity_residual(result: EPIResult) -> float:
    """Density-weighted sup norm of the Euler-Lagrange residual

        (p'/p)^2 + (2 p'/p)' + G,     G = alpha_norm + sum_i lambda_i A_i,

    over the density-weighted sup norm of G.  Each term is in 1/length^2,
    so the ratio reads the same for a problem at every length scale.
    """
    d = result.p_I
    mask = d.support_mask
    dx = d.grid.dx
    w = d.grad_log()
    dw2 = derivative_values(2.0 * w, dx)
    g = result.alpha_norm + 8.0 * result.effective_potential.values
    r = np.where(mask, w**2 + dw2 + g, 0.0)
    return weighted_max_dev(r, 0.0, d) / weighted_max_dev(g, 0.0, d)


def riccati_check(result: EPIResult) -> float:
    """Density-weighted masked max of |v' + v^2 + G/4|, v = (log psi)',
    over that of |G/4| (see ``stationarity_residual``).

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
    g = (result.alpha_norm + 8.0 * result.effective_potential.values) / 4.0
    return weighted_max_dev(dv + v**2 + g, 0.0, d) / weighted_max_dev(g, 0.0, d)

