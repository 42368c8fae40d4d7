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
an excited state however small the gap.  One more factorization certifies
that the converged Rayleigh quotient is e0 itself, and a Sturm count
(``?stebz`` with no bisection) of the eigenvalues just above it decides
whether the ground state is degenerate.

The log-derivative substitution v = (log psi)' turns the stationarity
condition into the Riccati form v' + v^2 + G/4 = 0 with
G = alpha_norm + sum_i lambda_i A_i; ``riccati_check`` measures that
residual in the density-weighted sup norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGround, EdgeLocalized, InfeasibleTarget, NonDecaying
from .functionals import (
    fisher_information,
    quantum_potential,
    weighted_max_dev,
)
from .grid import (
    Grid,
    ScalarField,
    derivative_values,
    quadrature_values,
)
from .states import (
    Density,
    PhysicalConstants,
    TruncationError,
    density_from_samples,
    gibbs_density,
)

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


def maxent_solve(
    A: ScalarField,
    target: float,
    truncation_check: bool = True,
) -> tuple[Density, float, float]:
    """Solve the single-constraint MaxEnt problem.

    Returns (density, alpha_gibbs, Z) with density = exp(-alpha_gibbs A)/Z
    and quadrature(P * A) = target.  Raises InfeasibleTarget when the
    target is outside (min A, max A) and NonDecaying when the solution
    fails the endpoint-decay check.
    """
    a = A.values
    dx = A.grid.dx
    lo_val, hi_val = float(np.min(a)), float(np.max(a))
    if not lo_val < target < hi_val:
        raise InfeasibleTarget(
            f"target {target} outside the attainable range ({lo_val}, {hi_val})"
        )

    def mean_a(alpha: float) -> float:
        w = np.exp(-(alpha * a - np.min(alpha * a)))
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
        if hi - lo <= 1e-15 * max(1.0, abs(lo), abs(hi)):
            break
    alpha = 0.5 * (lo + hi)
    if abs(mean_a(alpha) - target) > 1e-8 * max(1.0, abs(target)):
        raise InfeasibleTarget(
            f"bisection stalled: <A>({alpha}) = {mean_a(alpha)} vs target {target}"
        )

    try:
        if alpha >= 0:
            density, z = gibbs_density(A, alpha, truncation_check)
        else:
            # gibbs_density wants a nonnegative exponent multiplier
            flipped = ScalarField(A.grid, -A.values)
            density, z = gibbs_density(flipped, -alpha, truncation_check)
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


def _ground_state(diag: np.ndarray, off: np.ndarray) -> tuple[float, np.ndarray, int]:
    """Lowest eigenpair of the symmetric tridiagonal T = (diag, off) in O(n).

    Inverse iteration from the all-ones vector (it overlaps the positive
    ground state).  Each shift sigma is certified below e0 by its own
    ``?pttrf`` factorization, the one ``?pttrs`` then solves with.  Sigma
    starts at the Gershgorin lower bound and moves up to rho - r (rho the
    Rayleigh quotient, r = ||T v - rho v||); a shift that fails to factor
    is halved back toward the last good one.  Iteration stops at
    r <= RESIDUAL_TOL * eps * ||T||.

    Returns (e0, v, count): v has unit 2-norm and e0 = rho, certified by one
    more factorization to lie within slack = max(r, 4 eps ||T||) above the
    true ground eigenvalue.  ``count`` is the number of eigenvalues in
    (rho - slack, rho + max(DEGENERACY_TOL |rho|, 4 eps ||T||)], from one
    ``?stebz`` Sturm count whose tolerance exceeds the window, so it never
    bisects.  Reductions use ``np.sum(a * b)``, not ``np.dot``, which wakes
    BLAS threads that spin for no gain.
    """
    # scipy.linalg takes most of the package's import time; load it on first solve
    from scipy.linalg.lapack import get_lapack_funcs

    pttrf, pttrs, stebz = get_lapack_funcs(("pttrf", "pttrs", "stebz"), (diag,))
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
    v = np.ones_like(diag)
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
    slack = max(r, 4.0 * floor)
    if factor(rho - slack) is None:
        raise np.linalg.LinAlgError(
            f"Rayleigh quotient {rho!r} is not the ground eigenvalue"
        )
    width = max(DEGENERACY_TOL * abs(rho), 4.0 * floor)
    # range 1 counts the eigenvalues in (vl, vu]
    count = stebz(
        diag, off, 1, rho - slack, rho + width, 0, 0, 2.0 * (slack + width), "E"
    )[0]
    return rho, v, int(count)


def epi_solve(spec: ConstraintSpec, grid: Grid) -> EPIResult:
    """Ground state of -(1/2) d2/dx2 - U with Dirichlet walls.

    The interior of the grid carries the symmetric tridiagonal operator;
    its ground state comes from certified-shift inverse iteration (see
    the module docstring), so the grid needs at least two interior points.

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
    e0, v, count = _ground_state(diag, off)

    psi = np.zeros(grid.n)
    psi[1:-1] = v
    if psi[np.argmax(np.abs(psi))] < 0:
        psi = -psi
    norm = np.sqrt(quadrature_values(psi**2, dx))
    psi /= norm

    p = psi**2
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
            f"{count} eigenvalues within {DEGENERACY_TOL:.0e} relative of the ground "
            f"eigenvalue {e0!r}"
        )

    density = density_from_samples(ScalarField(grid, p), truncation_check=False)
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


def riccati_check(result: EPIResult, exclude_boundary: int = 0) -> float:
    """Density-weighted masked max of |v' + v^2 + G/4|, v = (log psi)'.

    ``exclude_boundary`` drops that many grid points at each end of the
    support before taking the max: for hard-wall (box-like) ground states
    v diverges at the walls and the identity only holds away from them.
    """
    d = result.p_I
    mask = d.support_mask.copy()
    dx = d.grid.dx
    psi = result.psi.values
    # differentiate log(psi) on the contiguous masked block only
    idx = np.flatnonzero(mask)
    block = slice(idx[0], idx[-1] + 1)
    log_psi = np.log(np.maximum(psi[block], 1e-300))
    v = np.zeros_like(psi)
    v[block] = derivative_values(log_psi, dx)
    dv = np.zeros_like(psi)
    dv[block] = derivative_values(v[block], dx)
    g = result.alpha_norm + 8.0 * result.effective_potential.values
    if exclude_boundary > 0:
        mask[: idx[0] + exclude_boundary] = False
        mask[idx[-1] + 1 - exclude_boundary :] = False
    r = np.where(mask, dv + v**2 + g / 4.0, 0.0)
    p = d.values
    w = p / float(np.max(p))
    return float(np.max(np.where(mask, w * np.abs(r), 0.0)))


@dataclass(frozen=True)
class QPConstraintCheck:
    """Comparison of the extremal density's quantum potential against the
    affine image of the constraint function.

    The normalized stationarity condition pins Q = (hbar^2/8m)
    (lambda A + alpha_norm); ``gauge_constant`` is that pinned additive
    term and ``nominal_slope_ratio`` the measured ratio of the true slope
    to the often-quoted (hbar^2/4m) lambda coefficient (0.5: that
    normalization overshoots by 2, a flagged discrepancy, see reports).
    """

    maxdev: float
    mean_lhs: float
    mean_rhs: float
    gauge_constant: float
    nominal_slope_ratio: float


def epi_quantum_potential_check(
    result: EPIResult, constants: PhysicalConstants
) -> QPConstraintCheck:
    """Check Q(p_I) = (hbar^2/8m)(lambda A + alpha_norm) for M = 1."""
    if len(result.multipliers) != 1:
        raise ValueError("quantum-potential check requires a single constraint")
    lam = result.multipliers[0]
    hbar, m = constants.hbar, constants.mass
    d = result.p_I
    a = 8.0 * result.effective_potential.values / lam  # recover A from U
    q = quantum_potential(d, constants).values

    coeff = hbar**2 / (8.0 * m)
    gauge = coeff * result.alpha_norm
    rhs = coeff * lam * a + gauge
    maxdev = weighted_max_dev(q, np.where(d.support_mask, rhs, 0.0), d)

    p = d.values
    dx = d.grid.dx
    mean_lhs = quadrature_values(np.where(d.support_mask, p * q, 0.0), dx)
    mean_a = quadrature_values(p * a, dx)
    mean_rhs = coeff * (lam * mean_a + result.alpha_norm)

    nominal_slope = hbar**2 / (4.0 * m) * lam
    return QPConstraintCheck(
        maxdev=maxdev,
        mean_lhs=mean_lhs,
        mean_rhs=mean_rhs,
        gauge_constant=gauge,
        nominal_slope_ratio=coeff * lam / nominal_slope,
    )
