"""Subquantum heat dynamics: the heat field coupled to a density, the
thermalized quantum potential and ``coupled_run``, the one flow: the
density under Fick's law and its heat field under the classical heat
equation, stepped in lockstep.  The identity checks built from them, the
thermal route to Fisher information among them, live in ``suites``;
this module imports nothing from ``reports``.

Conventions
-----------
* The coupling between a density and its heat field is
  P = c_hat * exp(-alpha_th * Q_heat) with alpha_th = 1/(hbar*omega);
  under thermal equality hbar*omega = k*T this is the Gibbs form with
  beta = 1/kT.  A run starts from the heat field and derives its density
  (``states.density_from_heat``), so the pair is coupled by construction.
* A heat field is a bare ``ScalarField`` in energy units, read with the
  run's one ``PhysicalConstants``; Q_tilde = alpha_th * Q_heat is formed
  where it is used.
* Identities that are exact algebra under the coupling are stated here
  and not checked: on a coupled pair both sides are one expression
  rearranged, so no discretization could make them disagree.  They are
  log P = -beta Q_heat + log c_hat (affine in -beta Q_heat with unit
  slope), and the kinetic excess

      delta_E_kin = (hbar^2/8m) (grad P / P)^2 = (1/8 m omega^2) (grad Q_heat)^2.

  ``coupled_grad_heat`` evaluates grad Q_heat through the coupled
  density, -(1/alpha) grad(P)/P, for the thermal Fisher route B, whose
  note reports the raw field-gradient route A beside it.
* c_hat is a per-time normalization constant, refit at every step of a
  coupled evolution.
* Heat evolution holds the endpoint values of the initial field fixed
  (quadratic heat fields legitimately grow uniformly in the interior, so
  a change-based wall guard would misfire; the guard watches curvature
  arriving at the walls instead).
* Fick and heat flows share one stepper, ``_diffuse``: the
  Crank-Nicolson flow with the end values folded into the step,
  u+ = 2 A^-1 (u + f/2) - u, on a constant symmetric positive definite
  tridiagonal A whose half is factored once per run
  (``grid.crank_nicolson_flow``, ``?pttrf``/``?pttrs``), stepping between
  two work buffers.  Flows stream step by step and the wall guards run
  on every step; the heat guard takes its scales from the full curvature
  of the initial field and then reads only the curvature at the two
  first interior points.
* ``coupled_run`` steps Fick and heat in lockstep, both at the
  diffusivity D = hbar/2m of the constants, and reduces the coupling
  deviation on the raw arrays (``states.normalize_samples``, the core of
  ``density_from_samples``, and ``_coupling_deviation``): no per-step
  objects, heat fields only at the kept steps, and a result equal bit for
  bit to the same reduction over the materialized flows.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

import numpy as np

from .errors import BoundaryContact, NonFinite
from .functionals import weighted_sup
from .grid import (
    ScalarField,
    crank_nicolson_flow,
    derivative_values,
    quadrature_values,
    second_derivative_values,
    steps_to_keep,
)
from .states import SUPPORT_FLOOR, Density, PhysicalConstants, normalize_samples

FICK_BOUNDARY_THRESHOLD = 1e-10  # relative density at first interior points


def delta_s_from_heat(q: ScalarField, constants: PhysicalConstants) -> ScalarField:
    """Action fluctuation delta_S = Q_heat / (2 omega).

    The heat-action link DeltaQ_heat = 2 omega Delta(delta_S) (eq3.1) holds
    here by definition, so no independent route can check it; the
    fluctuation chain reads delta_S through its gradient."""
    return ScalarField(q.grid, q.values / (2.0 * constants.omega))


def coupled_grad_heat(density: Density, constants: PhysicalConstants) -> np.ndarray:
    """grad(Q_heat) evaluated through the coupled density:
    -(1/alpha_th) grad(P)/P on the support, 0 elsewhere."""
    return -density.grad_log() / constants.alpha_th


def _coupling_deviation(
    p: np.ndarray, peak: float, mask: np.ndarray, q: np.ndarray, alpha: float,
    dx: float, w: np.ndarray, work: np.ndarray,
) -> float:
    """Weighted max deviation of the density ``p`` (peak ``peak``, support
    ``mask``) from c_hat * exp(-alpha q), relative to the peak, on raw
    arrays with ``w`` and ``work`` as scratch; a non-finite q raises the
    NonFinite a ScalarField would."""
    qmin = q.min()
    if not (math.isfinite(qmin) and math.isfinite(q.max())):
        raise NonFinite("field values must be finite")
    # the induced density c_hat exp(-alpha Q) ...
    np.subtract(q, qmin, out=work)
    work *= -alpha
    np.exp(work, out=w)
    w /= quadrature_values(w, dx)
    # ... against P in the weighted sup norm over P's support
    np.subtract(p, w, out=work)
    return weighted_sup(work, p, peak, mask, scratch=w) / peak


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


def _fick_guard(p: np.ndarray) -> None:
    """Wall guard of a Fick flow: BoundaryContact once a first-interior
    value exceeds 1e-10 of the current peak."""
    if max(p[1], p[-2]) > FICK_BOUNDARY_THRESHOLD * float(p.max()):
        raise BoundaryContact("diffusing density reached the wall")


def _heat_guard(q0: np.ndarray, dx: float):
    """Wall guard of a heat flow started from q0: BoundaryContact once the
    curvature at the first interior points grows well beyond its initial
    value (a spreading bump arriving at the wall).  Uniform interior
    growth of quadratic fields is legitimate and does not trip it.

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
    """The Crank-Nicolson flow (``grid.crank_nicolson_flow``) of
    dU/dt = D d2U/dx2 with the end values held fixed, every step checked
    by ``guard``: A = tridiag(-c, 1+2c, -c) with c = D*dt/(2*dx^2)."""
    c = 0.5 * (D * dt / (dx * dx))
    for u in crank_nicolson_flow(values, np.full(len(values) - 2, 1.0 + 2.0 * c), -c,
                                 steps):
        guard(u)
        yield u


# ---------------------------------------------------------------------------
# pointwise thermal identities
# ---------------------------------------------------------------------------


def vanishing_qp_residual(q: ScalarField, constants: PhysicalConstants) -> ScalarField:
    """Residual field of the vanishing-quantum-potential condition

        d2Q/dx2 + (1/(2 hbar omega)) (dQ/dx)^2.

    Zero (to stencil error) exactly on the family
    Q = 2 hbar omega log(a + b x).
    """
    dx = q.grid.dx
    lap = second_derivative_values(q.values, dx)
    grad = derivative_values(q.values, dx)
    res = lap + grad**2 / (2.0 * constants.hbar * constants.omega)
    return ScalarField(q.grid, res)


def thermalized_qp(before: ScalarField, now: ScalarField, after: ScalarField,
                   dt: float, constants: PhysicalConstants) -> ScalarField:
    """Quantum potential expressed through heat flow at the step ``now``,
    with ``before`` and ``after`` the fields one step ``dt`` either side:

        Q = (hbar^2/4m) [ d2Q_tilde/dx2 - (1/D) dQ_tilde/dt ].

    Along a heat-equation flow the two terms cancel and the result is
    zero up to discretization error: a freely dissipating heat flow
    carries no quantum potential.
    """
    c = constants
    dqt_dt = (c.alpha_th * after.values - c.alpha_th * before.values) / (2.0 * dt)
    lap = second_derivative_values(c.alpha_th * now.values, now.grid.dx)
    out = (c.hbar**2 / (4.0 * c.mass)) * (lap - dqt_dt / c.diffusivity)
    return ScalarField(now.grid, out)


# ---------------------------------------------------------------------------
# coupled-evolution consistency
# ---------------------------------------------------------------------------


def coupled_run(
    density0: Density, q0: ScalarField, constants: PhysicalConstants,
    t_final: float, dt: float, keep: Iterable[int] = (),
) -> tuple[float, dict[int, ScalarField]]:
    """Step P by Fick and Q by the heat equation in lockstep, both at the
    diffusivity of ``constants``.

    Returns the worst weighted deviation of P(t) from
    c_hat(t) exp(-alpha Q(t)) over every step, and the heat field at each
    of the ``keep`` steps, by step.

    Each step reduces on the raw arrays through ``normalize_samples``, the
    core of ``density_from_samples``, and ``_coupling_deviation``, so it
    raises what they raise and equals their reduction over the
    materialized flows.
    """
    steps = step_count(t_final, dt)
    keep_set = steps_to_keep(keep, steps)
    grid = q0.grid
    dx = grid.dx
    D = constants.diffusivity
    fick = _diffuse(density0.values, dx, D, steps, dt, _fick_guard)
    flow = _diffuse(q0.values, dx, D, steps, dt, _heat_guard(q0.values, dx))
    p, w, work = np.empty(grid.n), np.empty(grid.n), np.empty(grid.n)
    support = np.empty(grid.n, dtype=bool)
    worst = 0.0
    heat = {}
    for k, (raw, q) in enumerate(zip(fick, flow)):
        peak = normalize_samples(raw, dx, p)
        np.greater(p, SUPPORT_FLOOR * peak, out=support)
        dev = _coupling_deviation(p, peak, support, q, constants.alpha_th, dx, w, work)
        worst = max(worst, dev)
        if k in keep_set:
            heat[k] = ScalarField(grid, q)
    return worst, heat
