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
one copy of psi, one solve and one subtraction, with no right-hand side
to build.  The solve eliminates the even-indexed points level by level
in whole-array operations (odd-even reduction) and runs ``?gttrs`` only
on what remains, fewer than 1024 points for a potential the grid
resolves.  It needs no pivoting: the Hermitian part of A is the identity
for any real potential and either sign of dt, so no elimination divides
by a pivot of real part below 1/2.

Trajectories stream: the stepper iterates the flow, copies psi only at
the requested steps, and reduces what every step must contribute (the
wall guard, the norm, the phase at the density peak) as it goes.  Only
kept steps are split into a Madelung state.  Their phase is unwrapped in
x on the support and aligned in time against the phase at the density
peak, carried across skipped steps by the per-step increment
arg(psi_k conj(psi_{k-1})); the global phase drift (and hence dS/dt) is
thereby well defined, and a kept state's S is the same whichever other
steps are kept.  Dirichlet walls stand in for an unbounded domain; a
boundary-contact guard raises instead of silently corrupting identity
checks once the packet reaches the walls.

Residual normalization: each residual is reported relative to the
magnitude of its leading term plus a floor of one twentieth of the
natural field scale, so stationary states (where both sides vanish and
only solver roundoff remains) report a near-zero residual instead of
amplified noise.  The Hamilton-Jacobi residual additionally carries the
density weight used for all log-derivative fields (see ``functionals``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import BoundaryContact
from .functionals import differential_entropy, quantum_potential
from .grid import (
    Grid,
    ScalarField,
    crank_nicolson_flow,
    derivative_values,
    quadrature_values,
    steps_to_keep,
)
from .states import (
    Density,
    MadelungState,
    PhysicalConstants,
    density_from_samples,
    phase_on_support,
)

BOUNDARY_THRESHOLD = 1e-10   # relative |psi|^2 at the first interior points
RESIDUAL_FLOOR = 0.05        # scale floor entering residual denominators


@dataclass(frozen=True)
class Propagation:
    """Raw Crank-Nicolson output of ``propagate_wavefunction``.

    ``psis`` holds psi at the ``kept`` steps only.  ``norms`` and
    ``peak_phase`` have one entry per step k = 0..steps: the quadrature of
    |psi_k|^2, and arg(psi_k) at the density peak, continued in time
    (no 2 pi jumps) from the initial phase.
    """

    kept: tuple[int, ...]
    psis: list[np.ndarray]
    norms: np.ndarray
    peak_phase: np.ndarray


@dataclass(frozen=True)
class Trajectory:
    """Uniform-in-time Crank-Nicolson trajectory under a fixed potential.

    ``times`` covers every step k = 0..steps, and ``norms`` gives the
    quadrature of the raw |psi_k|^2 at each of them.  Only the ``kept``
    steps are stored: ``psis`` holds their raw complex wavefunction and
    ``states`` their Madelung split (lossy in the sub-floor tails, where
    the phase is extended rather than read off roundoff-level
    amplitudes).  ``psi(k)`` and ``state(k)`` look a step up by index.
    """

    times: np.ndarray
    kept: tuple[int, ...]
    states: list[MadelungState]
    psis: list[np.ndarray]
    norms: np.ndarray
    potential: ScalarField
    constants: PhysicalConstants

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def grid(self) -> Grid:
        return self.potential.grid

    def __len__(self) -> int:
        return len(self.times)

    def _position(self, step: int) -> int:
        try:
            return self.kept.index(step)
        except ValueError:
            raise ValueError(f"step {step} was not kept") from None

    def psi(self, step: int) -> np.ndarray:
        return self.psis[self._position(step)]

    def state(self, step: int) -> MadelungState:
        return self.states[self._position(step)]


def _hamiltonian_diagonals(grid: Grid, V: np.ndarray, constants: PhysicalConstants):
    """Main diagonal of H on the full grid (Dirichlet walls) and its
    constant off-diagonal."""
    dx = grid.dx
    kin = constants.hbar**2 / (2.0 * constants.mass * dx * dx)
    return 2.0 * kin + V, -kin


def _apply_h(psi: np.ndarray, main: np.ndarray, off: float) -> np.ndarray:
    """H psi."""
    out = main * psi
    out[:-1] += off * psi[1:]
    out[1:] += off * psi[:-1]
    out[0] = out[-1] = 0.0  # Dirichlet: walls pinned
    return out


def _phase_along(psi: np.ndarray, i: int, j: int) -> float:
    """arg(psi[j]) - arg(psi[i]), unwrapped along the points in between."""
    if i == j:
        return 0.0
    lo, hi = min(i, j), max(i, j)
    seg = psi[lo : hi + 1]
    change = float(np.sum(np.angle(seg[1:] * np.conj(seg[:-1]))))
    return change if j >= i else -change


def propagate_wavefunction(
    psi0: np.ndarray,
    grid: Grid,
    V: ScalarField,
    constants: PhysicalConstants,
    dt: float,
    steps: int,
    keep: Iterable[int] | None = None,
    phase0: np.ndarray | None = None,
) -> Propagation:
    """Raw Crank-Nicolson stepping over ``steps`` steps.

    Keeps psi at the step indices in ``keep`` (every step when None) and
    records every step's norm and peak phase (see ``Propagation``).  The
    peak phase starts from ``phase0`` (radians, a field on the grid) at
    the initial density peak, or from arg(psi0) there when None.

    Exactly norm-preserving and exactly invertible by stepping with -dt.
    Raises BoundaryContact, checked at every step, when the relative
    density at a first-interior point exceeds 1e-10 (the packet has
    reached the wall).
    """
    if dt == 0.0:
        raise ValueError("dt must be nonzero")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    keep_set = steps_to_keep(keep, steps)
    psi = np.asarray_chkfinite(psi0).astype(complex)
    psi[0] = psi[-1] = 0.0

    main, off = _hamiltonian_diagonals(grid, V.values, constants)
    z = 1j * dt / (2.0 * constants.hbar)
    # A = 1 + z H on the interior points; the walls are 0, so the folded
    # end values vanish
    flow = crank_nicolson_flow(psi, 1.0 + z * main[1:-1], z * off, steps)
    del psi  # the flow copies it; holding it too would keep a third state buffer
    psi = next(flow)  # factors A/2

    # trapezoid rule for the norm; the walls are pinned to 0, so it is a sum
    norms = np.empty(steps + 1)
    peak_phase = np.empty(steps + 1)
    p = np.abs(psi) ** 2
    peak = int(np.argmax(p))
    norms[0] = p.sum() * grid.dx
    peak_phase[0] = np.angle(psi[peak]) if phase0 is None else phase0[peak]
    kept = [0] if 0 in keep_set else []
    psis = [psi.copy()] if kept else []
    for k, nxt in enumerate(flow, start=1):
        np.square(np.abs(nxt, out=p), out=p)
        edge = max(p[1], p[-2])
        new_peak = int(np.argmax(p))
        if edge > BOUNDARY_THRESHOLD * p[new_peak]:
            raise BoundaryContact(
                f"wave packet reached the wall (relative edge density {edge:.3e})"
            )
        norms[k] = p.sum() * grid.dx
        # move along x to the new peak on the old state, then forward in time
        peak_phase[k] = (
            peak_phase[k - 1]
            + _phase_along(psi, peak, new_peak)
            + np.angle(nxt[new_peak] * np.conj(psi[new_peak]))
        )
        psi, peak = nxt, new_peak
        if k in keep_set:
            kept.append(k)
            psis.append(psi.copy())
    return Propagation(tuple(kept), psis, norms, peak_phase)


def evolve(
    initial: MadelungState,
    V: ScalarField,
    dt: float,
    steps: int,
    keep: Iterable[int] | None = None,
) -> Trajectory:
    """Propagate a state with Crank-Nicolson for ``steps`` steps of size dt.

    Only the step indices in ``keep`` (every step when None) are stored
    and split into Madelung states; the wall guard and the norm still
    cover every step.  Each kept phase is aligned in time through the
    carried peak phase, starting from the initial state's phase, so it
    does not depend on which other steps are kept.

    Accuracy guard: |dt| should not exceed dx for the second-order
    truncation errors in space and time to stay balanced; stability is
    unconditional either way.
    """
    grid = initial.grid
    if V.grid != grid:
        raise ValueError("potential grid mismatch")
    constants = initial.constants

    psi = initial.wavefunction().astype(complex)
    psi[0] = psi[-1] = 0.0
    norm = np.sqrt(quadrature_values(np.abs(psi) ** 2, grid.dx))
    psi /= norm
    run = propagate_wavefunction(
        psi, grid, V, constants, dt, steps, keep,
        phase0=initial.phase.values / constants.hbar,
    )

    states = []
    for k, snapshot in zip(run.kept, run.psis):
        density = density_from_samples(
            ScalarField(grid, np.abs(snapshot) ** 2), truncation_check=False
        )
        s = phase_on_support(snapshot, density, constants.hbar, run.peak_phase[k])
        states.append(MadelungState(density, ScalarField(grid, s), constants))

    times = np.arange(steps + 1) * dt
    return Trajectory(
        times=times, kept=run.kept, states=states, psis=run.psis,
        norms=run.norms, potential=V, constants=constants,
    )


def norm_drift(traj: Trajectory | Propagation) -> float:
    """Largest deviation of quadrature(|psi_k|^2) from 1 over every step,
    read off the raw wavefunction (not the renormalized densities)."""
    return float(np.max(np.abs(traj.norms - 1.0)))


def energy_expectation(traj: Trajectory, index: int) -> float:
    """<H> via the same discrete Hamiltonian the stepper uses."""
    grid = traj.grid
    main, off = _hamiltonian_diagonals(grid, traj.potential.values, traj.constants)
    psi = traj.psi(index)
    hpsi = _apply_h(psi, main, off)
    return float(np.real(quadrature_values((np.conj(psi) * hpsi).real, grid.dx)))


def _window(traj: Trajectory, index: int) -> tuple[MadelungState, ...]:
    """States at index - 1, index, index + 1 (the centered-difference stencil)."""
    if not 1 <= index <= len(traj) - 2:
        raise ValueError(f"index {index} must be interior (1..{len(traj) - 2})")
    return tuple(traj.state(index + k) for k in (-1, 0, 1))


def probability_current(traj: Trajectory, index: int) -> np.ndarray:
    """J = (hbar/m) Im(psi* psi'), the flux of the continuity equation.

    Computed from the raw wavefunction: algebraically this equals
    P S'/m, but it does not inherit the roundoff floor of the phase
    extraction (relevant for stationary states, where J ~ 0).
    """
    psi = traj.psi(index)
    dx = traj.grid.dx
    dpsi = derivative_values(psi.real, dx) + 1j * derivative_values(psi.imag, dx)
    c = traj.constants
    return c.hbar / c.mass * np.imag(np.conj(psi) * dpsi)


def continuity_residual(traj: Trajectory, index: int) -> float:
    """max |dP/dt + div J| over the mask, relative to max|dP/dt|.

    Time derivative by centered difference at an interior index; the
    denominator carries the scale floor described in the module docstring.
    """
    before, now, after = _window(traj, index)
    dt = traj.dt
    dx = traj.grid.dx

    dpdt = (after.density.values - before.density.values) / (2.0 * dt)
    div = derivative_values(probability_current(traj, index), dx)
    mask = now.density.support_mask

    num = float(np.max(np.abs(dpdt[mask] + div[mask])))
    den = float(np.max(np.abs(dpdt[mask]))) + RESIDUAL_FLOOR * float(
        np.max(now.density.values)
    )
    return num / den


def hj_residual(traj: Trajectory, index: int) -> float:
    """Density-weighted residual of dS/dt + (S')^2/2m + V + Q = 0."""
    before, now, after = _window(traj, index)
    dt = traj.dt
    m = traj.constants.mass

    dsdt = (after.phase.values - before.phase.values) / (2.0 * dt)
    grad_s = now.momentum_field()
    q = quantum_potential(now.density, traj.constants).values
    r = dsdt + grad_s**2 / (2.0 * m) + traj.potential.values + q

    p = now.density.values
    mask = now.density.support_mask
    weight = p / float(np.max(p))
    num = float(np.max(weight[mask] * np.abs(r[mask])))
    scale = np.abs(traj.potential.values[mask] + q[mask])
    den = float(np.max(np.abs(dsdt[mask]))) + RESIDUAL_FLOOR * float(np.max(scale))
    return num / den


def entropy_rate_check(traj: Trajectory, index: int) -> tuple[float, float]:
    """(lhs, rhs) of the entropy production identity.

    lhs is the centered time difference of the differential entropy; rhs
    is -(1/m) integral(S' P').
    """
    before, now, after = _window(traj, index)
    dt = traj.dt
    dx = traj.grid.dx
    m = traj.constants.mass

    h_plus = differential_entropy(after.density)
    h_minus = differential_entropy(before.density)
    lhs = (h_plus - h_minus) / (2.0 * dt)

    grad_s = now.momentum_field()
    dp = derivative_values(now.density.values, dx)
    mask = now.density.support_mask
    integrand = np.where(mask, grad_s * dp, 0.0)
    rhs = -quadrature_values(integrand, dx) / m
    return lhs, rhs


def osmotic_entropy_rate(density: Density, constants: PhysicalConstants) -> float:
    """Entropy production rate of the synthetic osmotic state.

    Builds S with S' = -(hbar/2m) P'/P by cumulative integration and
    evaluates -integral(S' P') directly, without the 1/m of
    ``entropy_rate_check``.  Equals +(hbar/2m) * FI, hence is nonnegative:
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
    integrand = np.where(density.support_mask, grad_s * dp, 0.0)
    return -quadrature_values(integrand, g.dx)
