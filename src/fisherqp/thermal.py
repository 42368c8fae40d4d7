"""Subquantum heat dynamics: the heat field coupled to a density, Fick
diffusion, the classical heat equation, the thermalized quantum
potential, thermal Fisher information, and the coherence suite tying the
thermal and Gibbs pictures together.

Conventions
-----------
* The coupling between a density and its heat field is
  P = c_hat * exp(-alpha_th * Q_heat) with alpha_th = 1/(hbar*omega);
  under thermal equality hbar*omega = k*T this is the Gibbs form with
  beta = 1/kT.  ``heat_from_density`` pins the gauge Q_heat = 0 at the
  support center.
* Where an identity is exact algebra under the coupling (thermal Fisher
  route B, the kinetic-excess identity), the heat-field gradient is
  evaluated through the coupled density, grad(Q) = -(1/alpha) grad(P)/P,
  which realizes the identity discretely instead of burying it under
  stencil noise.  The raw field-gradient route is reported where the
  distinction matters.
* c_hat is a per-time normalization constant, refit at every step of a
  coupled evolution.
* Heat evolution holds the endpoint values of the initial field fixed
  (quadratic heat fields legitimately grow uniformly in the interior, so
  a change-based wall guard would misfire; the guard watches curvature
  arriving at the walls instead).
* Fick and heat flows share one stepper: Crank-Nicolson with the end
  values folded into the step, u+ = 2 A^-1 (u + f/2) - u, on a constant
  symmetric positive definite tridiagonal A whose half is factored once
  per run (``grid.crank_nicolson_step``, ``?pttrf``/``?pttrs``), stepping
  between two work buffers.  Flows stream step by step and the
  wall guards run on every step; the heat guard takes its scales from the
  full curvature of the initial field and then reads only the curvature
  at the two first interior points.
* The coherence suite steps Fick and heat in lockstep and reduces the
  coupling deviation on the raw arrays, through the array-level cores
  that ``density_from_samples`` and ``coupling_deviation`` call
  (``states.normalize_samples``, ``_coupling_deviation``): no per-step
  objects, heat fields only at the kept steps, and a result equal bit for
  bit to the same reduction over the materialized flows.
* The coherence suite reports ``reports.IdentityCheck`` records judged
  against the tolerances of the check table, ``reports.CHECKS``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import BoundaryContact, DecoupledInputs, DegenerateSupport
from .functionals import (
    fisher_information,
    fluctuation_report,
    quantum_potential,
    weighted_max_dev,
    weighted_sup,
)
from .grid import (
    Grid,
    ScalarField,
    crank_nicolson_step,
    derivative_values,
    quadrature_values,
    second_derivative_values,
    steps_to_keep,
)
from .reports import IdentityCheck, make_residual_check
from .states import (
    SUPPORT_FLOOR,
    Density,
    PhysicalConstants,
    density_from_heat,
    density_from_samples,
    gibbs_density,
    normalize_samples,
)

FICK_BOUNDARY_THRESHOLD = 1e-10  # relative density at first interior points
COUPLING_TOL = 1e-6              # allowed weighted deviation of P from c*exp(-aQ)


@dataclass(frozen=True)
class HeatField:
    """Heat field Q_heat (energy units) with its constants.

    The dimensionless variant Q_tilde = alpha_th * Q_heat is derived on
    demand rather than stored.
    """

    Q_heat: ScalarField
    constants: PhysicalConstants

    @property
    def grid(self) -> Grid:
        return self.Q_heat.grid

    def q_tilde(self) -> ScalarField:
        return ScalarField(self.grid, self.constants.alpha_th * self.Q_heat.values)


@dataclass(frozen=True)
class HeatTrajectory:
    """Heat field snapshots at uniform time steps.

    ``times`` covers every step; ``fields`` holds the ``kept`` steps only,
    and ``field(k)`` looks a step up by index.
    """

    times: np.ndarray
    kept: tuple[int, ...]
    fields: list[HeatField]
    diffusivity: float

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def __len__(self) -> int:
        return len(self.times)

    def field(self, step: int) -> HeatField:
        try:
            return self.fields[self.kept.index(step)]
        except ValueError:
            raise ValueError(f"step {step} was not kept") from None


def heat_from_density(density: Density, constants: PhysicalConstants) -> HeatField:
    """Invert the coupling: Q_heat = -(1/alpha_th) log(P/c_hat).

    The gauge is pinned by Q_heat = 0 at the support center.  Off the
    support the field continues linearly with the edge slope, so the
    induced density keeps decaying there and the reconstruction
    ``density_from_heat`` round-trips.
    """
    p = density.values
    mask = density.support_mask
    x = density.grid.x
    dx = density.grid.dx
    idx = np.flatnonzero(mask)
    center = idx[0] + (idx[-1] - idx[0]) // 2
    if not mask[center]:
        center = idx[np.argmax(p[idx])]
    q = np.empty_like(p)
    block = slice(idx[0], idx[-1] + 1)
    q[block] = -(np.log(np.maximum(p[block], 1e-300)) - math.log(p[center])) / (
        constants.alpha_th
    )
    slopes = derivative_values(q[block], dx)
    q[: idx[0]] = q[idx[0]] + slopes[0] * (x[: idx[0]] - x[idx[0]])
    q[idx[-1] + 1 :] = q[idx[-1]] + slopes[-1] * (x[idx[-1] + 1 :] - x[idx[-1]])
    return HeatField(ScalarField(density.grid, q), constants)


def delta_s_from_heat(hf: HeatField) -> ScalarField:
    """Action fluctuation delta_S = Q_heat / (2 omega)."""
    return ScalarField(hf.grid, hf.Q_heat.values / (2.0 * hf.constants.omega))


def coupled_grad_heat(density: Density, constants: PhysicalConstants) -> np.ndarray:
    """grad(Q_heat) evaluated through the coupled density:
    -(1/alpha_th) grad(P)/P on the support, 0 elsewhere."""
    return -density.grad_log() / constants.alpha_th


def coupling_deviation(
    density: Density, hf: HeatField, constants: PhysicalConstants
) -> float:
    """Weighted max deviation of P from c_hat * exp(-alpha_th Q_heat)."""
    p = density.values
    return _coupling_deviation(
        p, float(np.max(p)), density.support_mask, hf.Q_heat.values,
        constants.alpha_th, hf.grid.dx, np.empty(len(p)), np.empty(len(p)),
    )


def _coupling_deviation(
    p: np.ndarray, peak: float, mask: np.ndarray, q: np.ndarray, alpha: float,
    dx: float, w: np.ndarray, work: np.ndarray,
) -> float:
    """``coupling_deviation`` on raw arrays, with ``w`` and ``work`` as
    scratch; a non-finite q raises the ValueError a HeatField would."""
    qmin = q.min()
    if not (math.isfinite(qmin) and math.isfinite(q.max())):
        raise ValueError("field values must be finite")
    # the induced density c_hat exp(-alpha Q) ...
    np.subtract(q, qmin, out=work)
    work *= -alpha
    np.exp(work, out=w)
    w /= quadrature_values(w, dx)
    # ... against P in the weighted sup norm over P's support
    np.subtract(p, w, out=work)
    return weighted_sup(work, p, peak, mask, scratch=w) / peak


def require_coupling(
    density: Density, hf: HeatField, constants: PhysicalConstants
) -> None:
    dev = coupling_deviation(density, hf, constants)
    if dev > COUPLING_TOL:
        raise DecoupledInputs(
            f"density/heat pair violates P = c*exp(-alpha*Q) by {dev:.3e}"
        )


# ---------------------------------------------------------------------------
# diffusion steppers
# ---------------------------------------------------------------------------


def step_count(t_final: float, dt: float) -> int:
    """Number of steps of size dt that cover t_final exactly.

    Raises ValueError unless both are positive, their ratio is finite and
    t_final is an integer multiple of dt.
    """
    if not (dt > 0 and t_final > 0):
        raise ValueError("t_final and dt must be positive")
    ratio = t_final / dt
    if not math.isfinite(ratio):
        raise ValueError(f"t_final/dt = {ratio} is not a finite step count")
    steps = int(round(ratio))
    if abs(steps * dt - t_final) > 1e-9 * t_final:
        raise ValueError("t_final must be an integer multiple of dt")
    return steps


def _stepper(n: int, dx: float, D: float, dt: float):
    """One Crank-Nicolson step of dU/dt = D d2U/dx2 with the end values
    held fixed.

    Returns ``step(u, out)``, which writes the next field into ``out``, an
    array distinct from ``u`` that already holds the end values.  With
    c = D*dt/(2*dx^2) the matrix A = tridiag(-c, 1+2c, -c) is factored
    once, here (``grid.crank_nicolson_step``).
    """
    c = 0.5 * (D * dt / (dx * dx))
    return crank_nicolson_step(np.full(n - 2, 1.0 + 2.0 * c), -c)


def _fick_guard(p: np.ndarray) -> None:
    """Wall guard of a Fick flow: BoundaryContact once a first-interior
    value exceeds 1e-10 of the current peak."""
    if max(p[1], p[-2]) > FICK_BOUNDARY_THRESHOLD * float(p.max()):
        raise BoundaryContact("diffusing density reached the wall")


def _heat_guard(q0: np.ndarray, dx: float):
    """Wall guard of a heat flow started from q0 (see
    ``heat_equation_evolve``).

    The scales come from the full second derivative of q0; each step
    then reads only the curvature at the two first interior points, from
    the same 3-point stencil.
    """
    lap = second_derivative_values(q0, dx)
    edge_scale = max(abs(lap[1]), abs(lap[-2]))
    interior_scale = float(np.max(np.abs(lap)))
    # below this, curvature is indistinguishable from second-difference roundoff
    noise_floor = 1e-10 * max(1.0, float(np.max(np.abs(q0)))) / (dx * dx)
    limit = max(10.0 * edge_scale, 1e-6 * interior_scale)
    inv = 1.0 / (dx * dx)

    def guard(q: np.ndarray) -> None:
        edge = max(abs(((q[2] - q[1]) - (q[1] - q[0])) * inv),
                   abs(((q[-1] - q[-2]) - (q[-2] - q[-3])) * inv))
        if interior_scale > noise_floor and edge > limit:
            raise BoundaryContact("heat-field curvature reached the wall")

    return guard


def _diffuse(values: np.ndarray, dx: float, D: float, steps: int, dt: float,
             guard) -> Iterator[np.ndarray]:
    """Yield the diffusing field at every step 0..steps, each one checked
    by ``guard``.

    The field lives in two work buffers: a yielded array is overwritten
    when the step after next is computed, so callers copy what they keep.
    """
    step = _stepper(len(values), dx, D, dt)
    u = np.array(values, dtype=float)
    spare = u.copy()
    guard(u)
    yield u
    for _ in range(steps):
        step(u, spare)
        u, spare = spare, u
        guard(u)
        yield u


@dataclass(frozen=True)
class FickTrajectory:
    """Densities under Fick diffusion, with the raw mass drift per step."""

    times: np.ndarray
    densities: list[Density]
    diffusivity: float
    mass_drift: float


def fick_diffuse(P0: Density, D: float, t_final: float, dt: float) -> FickTrajectory:
    """Evolve a density under dP/dt = D d2P/dx2.

    Endpoint values are held at their (decayed) initial values; the run
    aborts with BoundaryContact once a first-interior value exceeds
    1e-10 of the current peak.
    """
    steps = step_count(t_final, dt)
    densities = []
    drift = 0.0
    for arr in _diffuse(P0.values, P0.grid.dx, D, steps, dt, _fick_guard):
        drift = max(drift, abs(quadrature_values(arr, P0.grid.dx) - 1.0))
        densities.append(
            density_from_samples(ScalarField(P0.grid, arr), truncation_check=False)
        )
    times = np.arange(steps + 1) * dt
    return FickTrajectory(times=times, densities=densities, diffusivity=D,
                          mass_drift=drift)


def heat_equation_evolve(hf0: HeatField, t_final: float, dt: float) -> HeatTrajectory:
    """Evolve a heat field under the classical heat equation
    d2Q/dx2 - (1/D) dQ/dt = 0 with D = hbar/2m; every step is kept.

    The wall guard fires when curvature at the first interior points
    grows well beyond its initial value (a spreading bump arriving at the
    wall); uniform interior growth of quadratic fields is legitimate and
    does not trip it.
    """
    steps = step_count(t_final, dt)
    q0, dx = hf0.Q_heat.values, hf0.grid.dx
    flow = _diffuse(q0, dx, hf0.constants.diffusivity, steps, dt, _heat_guard(q0, dx))
    fields = [HeatField(ScalarField(hf0.grid, arr), hf0.constants) for arr in flow]
    return HeatTrajectory(times=np.arange(steps + 1) * dt,
                          kept=tuple(range(steps + 1)), fields=fields,
                          diffusivity=hf0.constants.diffusivity)


# ---------------------------------------------------------------------------
# pointwise thermal identities
# ---------------------------------------------------------------------------


def vanishing_qp_residual(hf: HeatField) -> ScalarField:
    """Residual field of the vanishing-quantum-potential condition

        d2Q/dx2 + (1/(2 hbar omega)) (dQ/dx)^2.

    Zero (to stencil error) exactly on the family
    Q = 2 hbar omega log(a + b x).
    """
    c = hf.constants
    q = hf.Q_heat.values
    dx = hf.grid.dx
    lap = second_derivative_values(q, dx)
    grad = derivative_values(q, dx)
    res = lap + grad**2 / (2.0 * c.hbar * c.omega)
    return ScalarField(hf.grid, res)


def thermalized_qp(source: HeatTrajectory | HeatField, index: int = 0) -> ScalarField:
    """Quantum potential expressed through heat flow:

        Q = (hbar^2/4m) [ d2Q_tilde/dx2 - (1/D) dQ_tilde/dt ].

    For a HeatField (static input) the time term is zero.  Along a
    heat-equation trajectory the two terms cancel and the result is zero
    up to discretization error: a freely dissipating heat flow carries no
    quantum potential.
    """
    if isinstance(source, HeatField):
        hf = source
        dqt_dt = np.zeros(hf.grid.n)
    else:
        if not 1 <= index <= len(source) - 2:
            raise ValueError("index must be interior to the trajectory")
        hf = source.field(index)
        dt = source.dt
        after = source.field(index + 1).q_tilde().values
        before = source.field(index - 1).q_tilde().values
        dqt_dt = (after - before) / (2.0 * dt)
    c = hf.constants
    qt = hf.q_tilde().values
    lap = second_derivative_values(qt, hf.grid.dx)
    out = (c.hbar**2 / (4.0 * c.mass)) * (lap - dqt_dt / c.diffusivity)
    return ScalarField(hf.grid, out)


# ---------------------------------------------------------------------------
# thermal Fisher information
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThermalFisherResult:
    """Both formal routes to Fisher information from heat data.

    route_b (beta^2 integral P (grad Q)^2) reproduces the direct Fisher
    information exactly under the coupling.  route_a
    (-2 alpha integral P [lap Q - (2m/hbar) dQ/dt], here with dQ/dt = 0)
    does not: the two formal expressions disagree by more than a sign on
    static coupled pairs, so the ratio is reported and flagged instead of
    asserted.
    """

    route_b: float
    route_a: float
    fisher_direct: float
    ratio_a_over_b: float


def thermal_fisher_report(
    density: Density, hf: HeatField, constants: PhysicalConstants
) -> ThermalFisherResult:
    require_coupling(density, hf, constants)
    p = density.values
    mask = density.support_mask
    dx = density.grid.dx
    beta = constants.beta
    alpha = constants.alpha_th

    grad_q = coupled_grad_heat(density, constants)
    route_b = beta**2 * quadrature_values(
        np.where(mask, p * grad_q**2, 0.0), dx
    )

    lap_q = second_derivative_values(hf.Q_heat.values, dx)
    route_a = -2.0 * alpha * quadrature_values(np.where(mask, p * lap_q, 0.0), dx)

    fisher = fisher_information(density)
    ratio = route_a / route_b if route_b != 0.0 else math.inf
    return ThermalFisherResult(
        route_b=route_b, route_a=route_a, fisher_direct=fisher,
        ratio_a_over_b=ratio,
    )


# ---------------------------------------------------------------------------
# coupled-evolution consistency
# ---------------------------------------------------------------------------


def _coupled_run(
    density0: Density, hf0: HeatField, constants: PhysicalConstants,
    t_final: float, dt: float, keep: Iterable[int] = (),
) -> tuple[float, HeatTrajectory]:
    """Step P by Fick and Q by the heat equation in lockstep.

    Returns the worst weighted deviation of P(t) from
    c_hat(t) exp(-alpha Q(t)) over every step, and the heat trajectory at
    the ``keep`` steps plus the last one.

    Each step reduces on the raw arrays through the cores of
    ``density_from_samples`` and ``coupling_deviation``, so it raises what
    they raise and equals their reduction over the materialized flows.
    """
    steps = step_count(t_final, dt)
    keep_set = steps_to_keep(keep, steps) | {steps}
    grid = hf0.grid
    dx = grid.dx
    q0 = hf0.Q_heat.values
    fick = _diffuse(density0.values, dx, constants.diffusivity, steps, dt, _fick_guard)
    heat = _diffuse(q0, dx, hf0.constants.diffusivity, steps, dt, _heat_guard(q0, dx))
    p, w, work = np.empty(grid.n), np.empty(grid.n), np.empty(grid.n)
    support = np.empty(grid.n, dtype=bool)
    worst = 0.0
    kept, fields = [], []
    for k, (raw, q) in enumerate(zip(fick, heat)):
        peak = normalize_samples(raw, dx, p)
        np.greater(p, SUPPORT_FLOOR * peak, out=support)
        dev = _coupling_deviation(p, peak, support, q, constants.alpha_th, dx, w, work)
        worst = max(worst, dev)
        if k in keep_set:
            kept.append(k)
            fields.append(HeatField(ScalarField(grid, q), hf0.constants))
    times = np.arange(steps + 1) * dt
    return worst, HeatTrajectory(times=times, kept=tuple(kept), fields=fields,
                                 diffusivity=hf0.constants.diffusivity)


# ---------------------------------------------------------------------------
# coherence suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoherenceReport:
    """Coherence checks plus the heat flow the ratio-law check evolved, at
    the steps the caller asked to keep and the last step."""

    items: list[IdentityCheck]
    heat: HeatTrajectory

    @property
    def all_passed(self) -> bool:
        return all(item.passed for item in self.items)

    def item(self, name: str) -> IdentityCheck:
        for it in self.items:
            if it.name == name:
                return it
        raise KeyError(name)


def coherence_suite(
    hf: HeatField,
    constants: PhysicalConstants,
    evolve_horizon: float = 0.004,
    evolve_dt: float = 1e-3,
    keep: Iterable[int] = (),
) -> CoherenceReport:
    """Run the five-point coherence check between the thermal and
    probabilistic pictures.

    1. ratio law P(t)/P(0) = exp(-beta DeltaQ) against an independently
       Fick-evolved density (short horizon),
    2. DeltaQ = 2 omega Delta(deltaS),
    3. delta_p = grad(deltaS) = -(hbar/2) grad(P)/P and
       grad(P)/P = -beta grad(Q),
    4. delta_E_kin = (hbar^2/8m)(grad P/P)^2 = (1/8 m omega^2)(grad Q)^2,
    5. log P affine in -beta Q with slope 1.

    Each item is a residual check judged against its registered
    tolerance.  Check 1 steps Fick and heat in lockstep; the heat flow at
    the ``keep`` steps comes back in the report, so callers need not evolve
    it again.
    """
    if not constants.is_thermal_equilibrium:
        raise ValueError("coherence suite assumes hbar*omega = k*T")
    density, _ = density_from_heat(hf.Q_heat, constants.alpha_th,
                                   truncation_check=False)
    p = density.values
    mask = density.support_mask
    dx = density.grid.dx
    beta = constants.beta
    items: list[IdentityCheck] = []

    # 1: evolve-and-compare (Fick for P, heat equation for Q).
    dev1, heat = _coupled_run(density, hf, constants, evolve_horizon, evolve_dt, keep)
    items.append(make_residual_check("ratio-law-evolution", dev1))

    # 2: DeltaQ = 2 omega Delta(deltaS), a definition-chain identity.
    ds0 = delta_s_from_heat(hf).values
    ds1 = delta_s_from_heat(heat.fields[-1]).values
    delta_q = heat.fields[-1].Q_heat.values - hf.Q_heat.values
    dev2 = float(np.max(np.abs(delta_q - 2.0 * constants.omega * (ds1 - ds0))))
    scale2 = float(np.max(np.abs(delta_q))) + 1e-300
    items.append(make_residual_check("heat-action-link", dev2 / scale2))

    # 3: fluctuation chain through the coupling.
    rep = fluctuation_report(density, constants)
    grad_ds = derivative_values(delta_s_from_heat(hf).values, dx)
    dev3a = weighted_max_dev(grad_ds, rep.delta_p.values, density)
    grad_log = density.grad_log()
    grad_q_field = derivative_values(hf.Q_heat.values, dx)
    dev3b = weighted_max_dev(
        grad_log, np.where(mask, -beta * grad_q_field, 0.0), density
    )
    scale3 = float(np.max(np.abs(rep.delta_p.values))) + 1e-300
    items.append(make_residual_check("fluctuation-chain", max(dev3a, dev3b) / scale3))

    # 4: kinetic excess two ways (exact algebra under the coupling).
    hbar, m, omega = constants.hbar, constants.mass, constants.omega
    lhs4 = (hbar**2 / (8.0 * m)) * grad_log**2
    grad_q_coupled = coupled_grad_heat(density, constants)
    rhs4 = (1.0 / (8.0 * m * omega**2)) * grad_q_coupled**2
    scale4 = float(np.max(lhs4)) + 1e-300
    items.append(
        make_residual_check("kinetic-excess", weighted_max_dev(lhs4, rhs4, density) / scale4)
    )

    # 5: log P affine in -beta Q with unit slope.
    support = int(np.count_nonzero(mask))
    if support < 2:
        raise DegenerateSupport(
            f"gibbs-form-slope needs a support of at least 2 points to fit a "
            f"slope; the coupled density's support has {support}"
        )
    logp = np.log(p[mask])
    target = -beta * hf.Q_heat.values[mask]
    slope = float(np.polyfit(target, logp, 1)[0])
    items.append(make_residual_check("gibbs-form-slope", abs(slope - 1.0)))

    return CoherenceReport(items=items, heat=heat)


# ---------------------------------------------------------------------------
# Gibbs-side formulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GibbsFormulaCheck:
    """Quantum potential and Fisher information of a Gibbs density,
    evaluated directly and through the energy-derivative formulas."""

    qp_maxdev: float
    fisher_direct: float
    fisher_energy_route: float


def gibbs_formula_check(
    E: ScalarField, gamma: float, constants: PhysicalConstants
) -> GibbsFormulaCheck:
    """For P = exp(-gamma E)/Z check

        Q = (gamma hbar^2 / 8m) [2 E'' - gamma (E')^2]      (pointwise)
        FI = gamma^2 <(E')^2>_P                              (scalar)

    The sign of the bracket follows the amplitude definition of Q; the
    printed source form carries the opposite sign and is recorded as a
    flagged discrepancy in the report layer.
    """
    density, _ = gibbs_density(E, gamma, truncation_check=False)
    hbar, m = constants.hbar, constants.mass
    dx = E.grid.dx
    mask = density.support_mask

    q_direct = quantum_potential(density, constants).values
    e1 = derivative_values(E.values, dx)
    e2 = second_derivative_values(E.values, dx)
    q_formula = (gamma * hbar**2 / (8.0 * m)) * (2.0 * e2 - gamma * e1**2)
    scale = float(np.max(np.abs(np.where(mask, q_direct, 0.0)))) + 1e-300
    qp_maxdev = weighted_max_dev(q_direct, np.where(mask, q_formula, 0.0), density) / scale

    fisher_direct = fisher_information(density)
    fisher_route = gamma**2 * quadrature_values(
        np.where(mask, density.values * e1**2, 0.0), dx
    )
    return GibbsFormulaCheck(
        qp_maxdev=qp_maxdev,
        fisher_direct=fisher_direct,
        fisher_energy_route=fisher_route,
    )
