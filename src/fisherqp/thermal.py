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
  slope), the kinetic excess

      delta_E_kin = (hbar^2/8m) (grad P / P)^2 = (1/8 m omega^2) (grad Q_heat)^2,

  and grad(P)/P = -beta grad(Q_heat), whose deviation is 2/hbar times
  that of grad(delta_S) = delta_p, the link ``fluctuation-chain`` compares.
  ``coupled_grad_heat`` evaluates grad Q_heat through the coupled
  density, -(1/alpha) grad(P)/P, for the thermal Fisher route B, whose
  note reports the raw field-gradient route A beside it.
* c_hat is a per-time normalization constant, refit at every step of a
  coupled evolution.
* Heat evolution holds the endpoint values of the initial field fixed
  (quadratic heat fields legitimately grow uniformly in the interior, so
  a change-based wall guard would misfire; the guard watches curvature
  arriving at the walls instead).
* Fick and heat flows are two Crank-Nicolson flows
  (``grid.crank_nicolson_flow``) of dU/dt = D d2U/dx2 on one constant
  symmetric positive definite tridiagonal A = tridiag(-c, 1+2c, -c),
  c = D dt/(2 dx^2), with the end values folded into the step,
  u+ = 2 A^-1 (u + f/2) - u.  Each flow factors A/2 once per run
  (``?pttrf``) and makes one ``?pttrs`` solve per step, stepping between
  two work buffers.  Flows stream step by step and ``coupled_run`` runs
  both wall guards on every step; the heat guard forms the full
  curvature of the initial field for its scales and then reads only the
  curvature at the two first interior points.  Like it, each function
  here forms the second derivatives it reads from the fields it is given.
* ``coupled_run`` steps Fick and heat in lockstep, both at the
  diffusivity D = hbar/2m of the constants, and reduces the coupling
  deviation on the raw arrays (``states.normalize_samples``, the core of
  ``density_from_samples``, and ``_coupling_deviation``): no per-step
  objects, heat fields only at the three steps around the middle one,
  which the thermalized quantum potential reads, and a result equal bit
  for bit to the same reduction over the materialized flows.
* The coupling deviation of a density P (peak P_max) from its heat
  field is max over P's support of (P/P_max) |P - e/T| / P_max, with
  e = exp(-alpha_th (Q_heat - min Q_heat)) and T its trapezoid integral.
  ``_coupling_deviation`` forms e/T and P/P_max as products with the
  scalar reciprocals 1/T and 1/P_max, so it divides no array.  Nothing in
  it overflows on any grid the flow can step: e <= 1 is 1 at the minimum
  of Q_heat, whose trapezoid weight is at least dx/2, so 1/T <= 2/dx and
  e/T <= 2/dx; a normalized density has P <= P_max <= 2/dx, so
  |P - e/T| <= 2/dx and P/P_max <= 1; and 1/P_max <= (n-1) dx.  With dx^2
  a normal float (``grid.Grid``), all of these lie far inside the float
  range.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BoundaryContact, NonFinite
from .grid import (
    ScalarField,
    crank_nicolson_flow,
    derivative_values,
    quadrature_values,
    second_derivative_values,
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
    dx: float, e: np.ndarray, work: np.ndarray,
) -> float:
    """Weighted max deviation of the density ``p`` (peak ``peak``, support
    ``mask``) from c_hat * exp(-alpha q), relative to the peak, on raw
    arrays with ``e`` and ``work`` as scratch; a non-finite q raises the
    NonFinite a ScalarField would.

    The deviation and its bounds are stated in the module docstring; it
    multiplies by the reciprocals of T and of the peak, and divides no
    array.
    """
    qmin = q.min()
    if not (math.isfinite(qmin) and math.isfinite(q.max())):
        raise NonFinite("field values must be finite")
    # the induced density c_hat exp(-alpha Q) ...
    np.subtract(q, qmin, out=work)
    work *= -alpha
    np.exp(work, out=e)
    e *= 1.0 / quadrature_values(e, dx)
    # ... against P in the weighted sup norm over P's support
    np.subtract(p, e, out=work)
    np.abs(work, out=work)
    work *= np.multiply(p, 1.0 / peak, out=e)
    return float(work.max(where=mask, initial=0.0)) / peak


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
    t_final: float, dt: float,
) -> tuple[float, tuple[ScalarField, ScalarField, ScalarField]]:
    """Step P by Fick and Q by the heat equation in lockstep, both at the
    diffusivity of ``constants``.

    Returns the worst weighted deviation of P(t) from
    c_hat(t) exp(-alpha Q(t)) over every step, and the heat fields
    (before, now, after) at the middle step (steps + 1) // 2 and the step
    on either side.

    Each step reduces on the raw arrays through ``normalize_samples``, the
    core of ``density_from_samples``, and ``_coupling_deviation``, so it
    raises what they raise and equals their reduction over the
    materialized flows.  The Fick wall guard reads the normalized step
    against the peak ``normalize_samples`` returns, so it runs after the
    normalization and ahead of the heat guard.
    """
    steps = step_count(t_final, dt)
    if steps < 2:
        raise ValueError("t_final must cover at least two steps")
    mid = (steps + 1) // 2
    grid = q0.grid
    dx = grid.dx
    # A = tridiag(-c, 1+2c, -c) of the module docstring
    c = 0.5 * (constants.diffusivity * dt / (dx * dx))
    diag = np.full(grid.n - 2, 1.0 + 2.0 * c)
    fick = crank_nicolson_flow(density0.values, diag, -c, steps)
    flow = crank_nicolson_flow(q0.values, diag, -c, steps)
    heat_guard = _heat_guard(q0.values, dx)
    p, e, work = np.empty(grid.n), np.empty(grid.n), np.empty(grid.n)
    support = np.empty(grid.n, dtype=bool)
    worst = 0.0
    window = []
    for k, raw in enumerate(fick):
        peak = normalize_samples(raw, dx, p)
        # the Fick wall guard: a first-interior value above 1e-10 of the peak
        if max(p[1], p[-2]) > FICK_BOUNDARY_THRESHOLD * peak:
            raise BoundaryContact("diffusing density reached the wall")
        q = next(flow)
        heat_guard(q)
        np.greater(p, SUPPORT_FLOOR * peak, out=support)
        dev = _coupling_deviation(p, peak, support, q, constants.alpha_th, dx, e, work)
        worst = max(worst, dev)
        if mid - 1 <= k <= mid + 1:
            window.append(ScalarField(grid, q))
    return worst, tuple(window)
