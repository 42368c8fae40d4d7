"""Check suites: the identity checks of each CLI command.

A suite takes the problem ``cli`` parsed (its validated, budget-checked
keyword arguments) and yields each ``reports.IdentityCheck`` record, in
report order, as soon as it is computed.  Between them it yields each
artifact as soon as it exists, as a pair ``(name, write)`` for
``write(out_dir / name)``, so a suite that raises later still leaves
what it had made.  No suite takes a path or opens a file, so a command
runs in process as ``suite(**parse(payload))`` with its pair from
``cli.COMMANDS``.
"""

from __future__ import annotations

import math
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .extremizers import epi_solve, maxent_solve, riccati_check, stationarity_residual
from .functionals import (QPForm, fisher_information, masked_quadrature, mean_quantum_potential,
                          momentum_fluctuation, quantum_potential, weighted_max_dev)
from .grid import derivative_values, quadrature_values, second_derivative_values
from .legendre import sweep, verify_euler, verify_legendre
from .propagator import (continuity_residual, entropy_rate_check, evolve, hj_residual,
                         phase_entropy_rate)
from .reports import IdentityCheck, make_check, make_residual_check
from .serialization import dump_trajectory, save_field_csv, save_json, save_sweep_csv
from .thermal import (coupled_grad_heat, coupled_run, delta_s_from_heat, thermalized_qp,
                      vanishing_qp_residual)

Artifact = tuple[str, Callable[[Path], object]]
Suite = Iterator[IdentityCheck | Artifact]


def _ratio(num: float, den: float) -> float:
    """A measured ratio; inf over a zero denominator (a uniform density has
    FI = 0, and with it both thermal Fisher routes)."""
    return num / den if den != 0.0 else math.inf


def identities_suite(density, constants, gibbs) -> Suite:
    """verify-identities; ``gibbs`` is (energy, gamma) for the Gibbs density
    exp(-gamma E)/Z, which the Gibbs-side formulas

        Q = (gamma hbar^2 / 8m) [2 E'' - gamma (E')^2]      (pointwise)
        FI = gamma^2 <(E')^2>_P                              (scalar)

    check against the direct routes.  The sign of the bracket follows the
    amplitude definition of Q.  The note of ``mean-QP-equals-FI`` gives
    the measured ratio against the opposite-sign convention for
    integral(P Q).  The second moment of delta_p is (hbar^2/4) FI by
    construction (``momentum_fluctuation``), so it is not checked."""
    yield "density.csv", partial(save_field_csv, density.field)
    p = density.values
    mask = density.support_mask
    dx = density.grid.dx
    hbar, m = constants.hbar, constants.mass
    fi = fisher_information(density)
    q_forms = {form: quantum_potential(density, constants, form) for form in QPForm}
    q_ref = q_forms[QPForm.SQRT].values
    scale = float(np.max(np.abs(q_ref))) + 1e-300
    worst = max(
        weighted_max_dev(q_forms[f].values, q_ref, density)
        for f in (QPForm.GRAD, QPForm.FLUCT, QPForm.OSMOTIC)
    )
    yield make_residual_check("qp-four-forms", worst / scale)

    mean_qp = mean_quantum_potential(density, constants)
    implemented = hbar**2 / (8.0 * m) * fi
    yield make_check("mean-QP-equals-FI", mean_qp, implemented, note=(
        "the opposite-sign convention -(hbar^2/8m) FI also circulates "
        f"(measured ratio {_ratio(mean_qp, -implemented):+.6f})"
    ))

    delta_p = momentum_fluctuation(density, constants)
    yield make_check("fluctuation-mean-zero", masked_quadrature(p * delta_p, mask, dx), 0.0)
    # a support of fewer than 3 points leaves no stencil on P to read:
    # the run is refused by name, whatever the verdicts above read
    density.support_indices(3, "verify-identities")
    if gibbs is not None:
        energy, gamma = gibbs
        e1 = derivative_values(energy.values, dx)
        e2 = second_derivative_values(energy.values, dx)
        q_formula = (gamma * hbar**2 / (8.0 * m)) * (2.0 * e2 - gamma * e1**2)
        yield make_residual_check(
            "gibbs-qp-formula",
            weighted_max_dev(q_ref, np.where(mask, q_formula, 0.0), density) / scale,
        )
        yield make_check("gibbs-fisher-formula", fi,
                         gamma**2 * masked_quadrature(p * e1**2, mask, dx))


def evolve_suite(psi0, potential, constants, dt, steps, index, dump) -> Suite:
    """evolve: the dynamical residuals at the interior step ``index`` of
    the flow from ``psi0``; a ``dump`` copies every step as it goes by."""
    psis = []
    window = evolve(psi0, potential, constants, dt, steps, index,
                    each=(lambda k, psi: psis.append(psi.copy())) if dump else None)
    if dump:
        yield "trajectory", partial(dump_trajectory, psis, potential, constants, dt)
    yield make_residual_check("continuity", continuity_residual(window))
    yield make_residual_check("modified-hj", hj_residual(window))
    lhs, rhs = entropy_rate_check(window)
    phase_route = phase_entropy_rate(window)
    yield make_check("entropy-rate", lhs, rhs, note=(
        "centered entropy rate vs -integral(dP/dt (log P + 1)) with dP/dt = -J', "
        "which leans on the continuity equation (judged by continuity); "
        f"phase route -integral(S'P')/m = {phase_route:.17g}, "
        f"gap to the rhs {phase_route - rhs:+.3e}"
    ))


def epi_suite(spec, grid, constants) -> Suite:
    """epi: the extremal density of the constraints ``spec``.

    The discrete eigen-equation the solver solves makes the quantum
    potential of p_I affine in the constraints, Q = (hbar^2/8m)(sum
    lambda A + alpha_norm), pointwise to the solver's own residual stop,
    and integrating it against p_I gives integral(p_I Q) through the
    constraint averages.  Both restate the solved equation, so neither is
    reported: on x^2 they read roundoff (2e-13 to 5e-12 at n = 1025 to
    4097)."""
    result = epi_solve(spec, grid)
    yield "epi_result.json", partial(save_json, {
        "alpha_norm": result.alpha_norm,
        "eigenvalue": result.eigenvalue,
        "fisher_information": result.fisher_I,
        "multipliers": list(result.multipliers),
    })
    yield "p_I.csv", partial(save_field_csv, result.p_I.field)
    yield "psi.csv", partial(save_field_csv, result.psi)
    mean_terms = sum(
        lam * quadrature_values(result.p_I.values * a.values, grid.dx)
        for lam, a in zip(result.multipliers, spec.A_fields)
    )
    yield make_check("epi-ground-state", result.fisher_I, result.alpha_norm + mean_terms,
                     note="contraction identity FI = alpha_norm + sum lambda <A>")
    yield make_residual_check("epi-stationarity", stationarity_residual(result))
    yield make_residual_check("riccati", riccati_check(result))
    yield make_check("epi-mean-QP-equals-FI", mean_quantum_potential(result.p_I, constants),
                     constants.hbar**2 / (8.0 * constants.mass) * result.fisher_I)


def maxent_suite(constraint, target) -> Suite:
    """maxent: the entropy extremizer attaining ``target``."""
    density, alpha, z = maxent_solve(constraint, target)
    # a Z that overflows is written as null, as a check record writes it
    yield "maxent_result.json", partial(save_json, {
        "alpha_gibbs": alpha, "Z": z if math.isfinite(z) else None, "target": target})
    yield "maxent_density.csv", partial(save_field_csv, density.field)
    attained = quadrature_values(density.values * constraint.values, constraint.grid.dx)
    yield make_check("maxent-multiplier", attained, target,
                     note=f"alpha_gibbs={alpha!r}, Z={z!r}")


def sweep_suite(constraint, lambdas) -> Suite:
    """sweep: Euler and Legendre relations along the multipliers ``lambdas``."""
    table = sweep(constraint, lambdas, constraint.grid)
    yield "sweep.csv", partial(save_sweep_csv, table)
    yield make_residual_check("fisher-euler", verify_euler(table))
    report = verify_legendre(table)
    yield make_residual_check(
        "legendre-relations", report.max_residual(),
        note=(
            f"dLambda/dlam {report.dLambda_dlam_vs_negmeanA:.3e}, "
            f"dI/d<A> {report.dI_dmeanA_vs_lambda:.3e}, "
            f"reciprocity {report.reciprocity_d2I:.3e}/{report.reciprocity_d2Lambda:.3e}"
        ),
    )


def thermal_suite(heat, density, constants, t_final, dt) -> Suite:
    """thermal: the heat field ``heat`` and its coupled ``density``.  The
    coherence checks between the thermal and probabilistic pictures and
    the thermalized quantum potential read a lockstep Fick and heat flow
    to ``t_final`` in steps of ``dt``; when ``t_final`` is None nothing
    steps and the vanishing-Q family is checked instead.

    Every run ends with the route-B thermal Fisher check: beta^2 integral
    P (grad Q)^2, with grad Q through the coupled density, against the
    direct FI.  Under the coupling route B is FI rearranged, so it
    compares FI with itself; the record stands for its rhs, the direct
    FI.  Route A, -2 alpha integral P [lap Q - (2m/hbar) dQ/dt] with
    dQ/dt = 0, reads the raw heat field: the two formal expressions
    disagree by more than a sign on static coupled pairs such as a
    Gaussian's, so route A and the ratio A/B go in the note.
    """
    p = density.values
    mask = density.support_mask
    dx = heat.grid.dx
    beta = constants.beta
    if t_final is None:
        # non-decaying density: static checks only
        res = vanishing_qp_residual(heat, constants)
        lap_scale = float(np.max(np.abs(
            second_derivative_values(heat.values, dx)
        ))) + 1e-300
        yield make_residual_check("vanishing-qp-family",
                                  float(np.max(np.abs(res.values[2:-2]))) / lap_scale)
    else:
        # ratio law P(t)/P(0) = exp(-beta DeltaQ): Fick for P against the
        # heat equation for Q; the heat fields around the middle step feed
        # the centered time derivative of the thermalized quantum potential
        dev, (before, now, after) = coupled_run(density, heat, constants, t_final, dt)
        yield make_residual_check("ratio-law-evolution", dev)

        # delta_p = grad(deltaS) = -(hbar/2) grad(P)/P and
        # grad(P)/P = -beta grad(Q), through the coupling
        ds0 = delta_s_from_heat(heat, constants).values
        delta_p = momentum_fluctuation(density, constants)
        dev_s = weighted_max_dev(derivative_values(ds0, dx), delta_p, density)
        grad_q = derivative_values(heat.values, dx)
        dev_q = weighted_max_dev(density.grad_log(), np.where(mask, -beta * grad_q, 0.0),
                                 density)
        scale = float(np.max(np.abs(delta_p))) + 1e-300
        yield make_residual_check("fluctuation-chain", max(dev_s, dev_q) / scale)
        # a support of fewer than 3 points leaves no stencil on P to read:
        # the run is refused by name, whatever the verdicts above read
        density.support_indices(3, "thermal")

        thq = thermalized_qp(before, now, after, dt, constants)
        qt_scale = (
            constants.hbar**2 / (4.0 * constants.mass)
            * float(np.max(np.abs(second_derivative_values(
                constants.alpha_th * now.values, dx
            ))))
        )
        # weight by the coupled density: the held walls grow a diffusive
        # skin that carries no probability mass
        weight = p / float(np.max(p))
        yield make_residual_check(
            "thermalized-qp-vanishes",
            float(np.max(weight[2:-2] * np.abs(thq.values[2:-2]))) / (qt_scale + 1e-300),
        )

    route_b = beta**2 * masked_quadrature(p * coupled_grad_heat(density, constants)**2,
                                          mask, dx)
    lap_q = second_derivative_values(heat.values, dx)
    route_a = -2.0 * constants.alpha_th * masked_quadrature(p * lap_q, mask, dx)
    yield make_check("thermal-fisher-route-b", route_b, fisher_information(density), note=(
        f"formal route A = {route_a:.17g}, not asserted "
        f"(measured ratio A/B = {_ratio(route_a, route_b):+.6f})"
    ))
