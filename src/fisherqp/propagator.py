"""Time-dependent Schroedinger evolution and dynamical identity checks.

The stepper is a Crank-Nicolson (implicit midpoint) scheme with Dirichlet
walls:

    (1 + i dt H / 2 hbar) psi^{n+1} = (1 - i dt H / 2 hbar) psi^n,
    H = -(hbar^2/2m) D2 + V,

with D2 the 3-point second difference on interior points.  The update is
a Cayley transform of a symmetric real matrix, so it preserves the
discrete l2 norm to roundoff, is unconditionally stable, and is exactly
time-reversible (stepping with -dt undoes a step).  With A = 1 + i dt H /
2 hbar on the interior, the step is psi^{n+1} = 2 A^{-1} psi^n - psi^n:
A/2 is factored once (``grid.crank_nicolson_flow``), and every step is
one solve that reads psi^n in place and one subtraction, with no
right-hand side to build or copy.  The solve eliminates the even-indexed
points level by level in whole-array operations (odd-even reduction) and
runs ``?gttrs`` only on what remains, fewer than 1024 points for a
potential the grid resolves.  It needs no pivoting: the Hermitian part
of A is the identity for any real potential and either sign of dt, so no
elimination divides by a pivot of real part below 1/2.

``evolve`` steps a bare wavefunction, not a (P, S) pair, so it takes any
psi the grid samples, nodes included.  It stores no trajectory: it
iterates the flow, runs the wall guard at every step, on the two
first-interior points and one peak value unless the edge density comes
within half the threshold, when it reads all of |psi|^2, hands every
step to an optional reader (the trajectory dump is one: it copies every
step), and copies psi only at the three steps around its check step.
No step computes a norm: the scheme conserves it, and a reader that
wants it reads it off psi.  ``madelung_window`` forms the Madelung
fields of the check step once, straight off those three psi with no
phase extraction, and the dynamical residuals read that window.
Dirichlet walls stand in for an unbounded domain; a boundary-contact
guard raises instead of silently corrupting identity checks once the
packet reaches the walls.

Residual normalization: each residual is reported relative to the
magnitude of its leading term plus a floor of one twentieth of the
natural field scale, so stationary states (where both sides vanish and
only solver roundoff remains) report a near-zero residual instead of
amplified noise.  The Hamilton-Jacobi residual additionally carries the
density weight used for all log-derivative fields (see ``functionals``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BoundaryContact
from .functionals import (differential_entropy, masked_quadrature, quantum_potential,
                          weighted_max_dev)
from .grid import (
    Grid,
    ScalarField,
    crank_nicolson_flow,
    derivative_values,
    quadrature_values,
)
from .states import Density, PhysicalConstants, density_from_samples

BOUNDARY_THRESHOLD = 1e-10   # relative |psi|^2 at the first interior points
RESIDUAL_FLOOR = 0.05        # scale floor entering residual denominators


def evolve(
    psi0: np.ndarray,
    V: ScalarField,
    constants: PhysicalConstants,
    dt: float,
    steps: int,
    index: int,
    each: Callable[[int, np.ndarray], object] | None = None,
) -> MadelungWindow:
    """Crank-Nicolson stepping of ``psi0``, set to 0 at the walls and
    normalized on ``V.grid``, over ``steps`` steps of size dt; returns the
    Madelung window (``madelung_window``) of the interior step ``index``.

    Every step k = 0..steps is passed to ``each(k, psi)`` when given, after
    its wall guard: ``psi`` is the flow's work buffer, valid only for the
    span of the call, so a reader copies what it keeps.

    Exactly norm-preserving and exactly invertible by stepping with -dt.
    Raises BoundaryContact at the first step where the relative density
    at a first-interior point exceeds 1e-10 (the packet has reached the
    wall).  |dt| should not exceed dx for the second-order truncation
    errors in space and time to stay balanced.
    """
    grid = V.grid
    if len(psi0) != grid.n:
        raise ValueError(f"psi0 has {len(psi0)} points; the potential's grid has {grid.n}")
    if dt == 0.0:
        raise ValueError("dt must be nonzero")
    if not 1 <= index <= steps - 1:
        raise ValueError(f"index {index} must be interior (1..{steps - 1})")
    psi = np.asarray_chkfinite(psi0).astype(complex)
    psi[0] = psi[-1] = 0.0
    psi /= np.sqrt(quadrature_values(np.abs(psi) ** 2, grid.dx))

    # A = 1 + z H on the interior points, with H = tridiag(-kin, 2 kin + V,
    # -kin); the walls are 0, so the folded end values vanish.  An entry
    # that overflows is refused, as NonFinite, by the flow's first step
    kin = constants.hbar**2 / (2.0 * constants.mass * grid.dx * grid.dx)
    with np.errstate(over="ignore", invalid="ignore"):
        z = 1j * dt / (2.0 * constants.hbar)
        flow = crank_nicolson_flow(psi, 1.0 + z * (2.0 * kin + V.values[1:-1]), z * -kin,
                                   steps)
    del psi  # the flow copies it; holding it too would keep a third state buffer

    # The full wall test reads all of |psi|^2.  A step whose edge density
    # is at most half the threshold times |psi_j|^2, with j the peak the
    # last full test found, cannot trip it, since |psi_j|^2 <= max|psi|^2;
    # the half also covers the ulps by which the scalar and array abs may
    # differ.  j starts at the wall, where psi is 0, so the first step with
    # a nonzero edge runs the full test.
    limit = 0.5 * BOUNDARY_THRESHOLD
    j = 0
    window = []
    for k, psi in enumerate(flow):
        edge = max(abs(psi.item(1)), abs(psi.item(-2)))
        if not edge * edge <= limit * abs(psi.item(j)) ** 2:
            j = _wall_test(psi)
        if each is not None:
            each(k, psi)
        if index - 1 <= k <= index + 1:
            window.append(psi.copy())
    return madelung_window(window, dt, V, constants)


def _wall_test(psi: np.ndarray) -> int:
    """BoundaryContact when |psi|^2 at a first-interior point exceeds
    BOUNDARY_THRESHOLD times its peak; else the index of that peak."""
    p = np.abs(psi) ** 2
    peak = int(p.argmax())
    edge = max(p[1], p[-2])
    if edge > BOUNDARY_THRESHOLD * p[peak]:
        raise BoundaryContact(f"wave packet reached the wall (relative edge density {edge:.3e})")
    return peak


def psi_density(psi: np.ndarray, grid: Grid) -> Density:
    """The normalized |psi|^2 of a wavefunction ``psi`` sampled on ``grid``."""
    return density_from_samples(ScalarField(grid, np.abs(psi) ** 2), truncation_check=False)


@dataclass(frozen=True)
class MadelungWindow:
    """The Madelung fields of an interior step k, formed once by
    ``madelung_window``: the normalized densities ``before``, ``now`` and
    ``after`` at steps k - 1, k and k + 1, and at step k J' (``dj``), S'
    (``grad_s``, 0 off the support of ``now``) and dS/dt (``dsdt``)."""

    dt: float
    potential: ScalarField
    constants: PhysicalConstants
    before: Density
    now: Density
    after: Density
    dj: np.ndarray
    grad_s: np.ndarray
    dsdt: np.ndarray


def madelung_window(psis: Sequence[np.ndarray], dt: float, potential: ScalarField,
                    constants: PhysicalConstants) -> MadelungWindow:
    """The Madelung fields of the middle one of ``psis``, psi at three
    consecutive steps ``dt`` apart of a flow under ``potential``.

    J = (hbar/m) Im(psi* psi') is the flux of the continuity equation,
    computed from the raw wavefunction, so it carries no roundoff floor of
    a phase extraction (relevant for stationary states, where J ~ 0).
    S' = m J / |psi|^2 = hbar Im(psi* psi')/|psi|^2 on the support, 0 off
    it: the current-velocity form (Hall and Reginatto, J. Phys. A 35, 3289,
    2002).  dS/dt = hbar [arg(psi+ psi0*) + arg(psi0 psi-*)] / 2 dt is a
    pointwise centered difference of arg psi, valid while one step turns
    the phase by less than pi.  Neither needs a phase continuous along x
    or a global phase constant, so neither breaks across the near-nodes of
    interference fringes.
    """
    grid = potential.grid
    before, now, after = (psi_density(u, grid) for u in psis)
    psi_before, psi, psi_after = psis
    dx = grid.dx
    c = constants
    dpsi = derivative_values(psi.real, dx) + 1j * derivative_values(psi.imag, dx)
    current = c.hbar / c.mass * np.imag(np.conj(psi) * dpsi)
    abs2 = np.abs(psi) ** 2
    turn = np.angle(psi_after * np.conj(psi)) + np.angle(psi * np.conj(psi_before))
    return MadelungWindow(
        dt=dt, potential=potential, constants=c,
        before=before, now=now, after=after,
        dj=derivative_values(current, dx),
        grad_s=np.divide(c.mass * current, abs2, out=np.zeros_like(abs2),
                         where=now.support_mask),
        dsdt=c.hbar * turn / (2.0 * dt),
    )


def continuity_residual(w: MadelungWindow) -> float:
    """max |dP/dt + div J| over the mask, relative to max|dP/dt|.

    Time derivative by centered difference; the denominator carries the
    scale floor described in the module docstring.
    """
    dpdt = (w.after.values - w.before.values) / (2.0 * w.dt)
    mask = w.now.support_mask
    num = float(np.max(np.abs(dpdt[mask] + w.dj[mask])))
    den = float(np.max(np.abs(dpdt[mask]))) + RESIDUAL_FLOOR * float(np.max(w.now.values))
    return num / den


def hj_residual(w: MadelungWindow) -> float:
    """Density-weighted residual of dS/dt + (S')^2/2m + V + Q = 0."""
    now = w.now
    v = w.potential.values
    q = quantum_potential(now, w.constants).values
    r = w.dsdt + w.grad_s**2 / (2.0 * w.constants.mass) + v + q

    mask = now.support_mask
    scale = np.abs(v[mask] + q[mask])
    den = float(np.max(np.abs(w.dsdt[mask]))) + RESIDUAL_FLOOR * float(np.max(scale))
    return weighted_max_dev(r, 0.0, now) / den


def entropy_rate_check(w: MadelungWindow) -> tuple[float, float]:
    """(lhs, rhs) of the entropy production identity dH/dt = -(1/m)
    integral(S' P').

    lhs is the centered time difference of the differential entropy H.
    rhs is that identity integrated by parts once, -integral(dP/dt (log P
    + 1)) over the support, with dP/dt = -J' from the current at the
    middle step: J is smooth and log P only integrably singular at a
    near-node, where the integrand J P'/P of the S'P' form
    (``phase_entropy_rate``) changes faster than the grid resolves.  The
    rhs leans on the continuity equation, which ``continuity_residual``
    judges.
    """
    lhs = (differential_entropy(w.after) - differential_entropy(w.before)) / (2.0 * w.dt)
    now = w.now
    mask = now.support_mask
    log_p = np.zeros(now.grid.n)
    log_p[mask] = np.log(now.values[mask])
    return lhs, masked_quadrature(w.dj * (log_p + 1.0), mask, now.grid.dx)


def phase_entropy_rate(w: MadelungWindow) -> float:
    """-(1/m) integral(S' P') with S' = m J/|psi|^2: the entropy rate
    through the phase gradient, which divides J by P."""
    now = w.now
    dx = now.grid.dx
    dp = derivative_values(now.values, dx)
    return -masked_quadrature(w.grad_s * dp, now.support_mask, dx) / w.constants.mass


def osmotic_entropy_rate(density: Density, constants: PhysicalConstants) -> float:
    """Entropy production rate of the synthetic osmotic state.

    Builds S with S' = -(hbar/2m) P'/P by cumulative integration and
    evaluates -integral(S' P') directly, without the 1/m of
    ``phase_entropy_rate``.  Equals +(hbar/2m) * FI, hence is nonnegative:
    pure diffusion only ever produces entropy.
    """
    g = density.grid
    w = density.grad_log()
    sprime_target = -(constants.hbar / (2.0 * constants.mass)) * w
    s = np.concatenate(
        ([0.0], np.cumsum((sprime_target[1:] + sprime_target[:-1]) * 0.5 * g.dx))
    )
    grad_s = derivative_values(s, g.dx)
    dp = derivative_values(density.values, g.dx)
    return -masked_quadrature(grad_s * dp, density.support_mask, g.dx)
