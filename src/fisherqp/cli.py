"""Batch front end: JSON problem specs in, CSV tables and JSON
verification reports out.

Commands
--------
verify-identities   static identity suite on a constructed density
evolve              Schroedinger trajectory plus dynamical residuals
epi                 Fisher extremization for given multipliers
maxent              entropy extremization for a given target
sweep               multiplier sweep plus Legendre-structure residuals
thermal             heat-field suite (diffusion, coherence, flags)
list-checks         print every registered check name with its tag

Each command reads ``--input`` (JSON), writes ``report.json`` and any
CSV artifacts under ``--out``, and exits 0 when every check passed,
2 on a malformed input, and 3 when a solver (or LAPACK) raised or a check
failed.  Every check is judged against its tolerance in
``reports.CHECKS`` times ``--tol-scale`` (positive and finite).  Reports
are byte-deterministic; timestamps go to ``meta.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import FisherQPError
from .extremizers import (
    ConstraintSpec,
    epi_quantum_potential_check,
    epi_solve,
    maxent_solve,
    riccati_check,
    stationarity_residual,
)
from .functionals import (
    QPForm,
    fisher_information,
    fluctuation_report,
    mean_quantum_potential,
    quantum_potential,
    weighted_max_dev,
)
from .grid import (
    Grid,
    ScalarField,
    quadrature_values,
    second_derivative_values,
)
from .legendre import sweep as run_sweep
from .legendre import verify_euler, verify_legendre
from .propagator import continuity_residual, entropy_rate_check, evolve, hj_residual
from .reports import (
    IdentityCheck,
    flagged_discrepancy_checks,
    list_checks,
    make_check,
    make_residual_check,
)
from .serialization import (
    constants_from_dict,
    dump_trajectory,
    grid_from_dict,
    save_field_csv,
    save_sweep_csv,
)
from .states import (
    Density,
    MadelungState,
    PhysicalConstants,
    density_from_heat,
    density_from_samples,
    gibbs_density,
)
from .thermal import (
    HeatField,
    coherence_suite,
    gibbs_formula_check,
    heat_from_density,
    step_count,
    thermal_fisher_report,
    thermalized_qp,
    vanishing_qp_residual,
)


# Work a run may ask for, refused up front: grid points, grid points times
# steps over every flow a run steps, and the bytes a dumped trajectory
# writes (at most 76 per point and step: three 24-character .17g fields,
# two commas and the CSV line end).
MAX_POINTS = 2**22
WORK_BUDGET = 1e10      # point-steps
DUMP_BUDGET = 2**30     # bytes
# The EPI ground-state solver squares vectors of the order of its
# operator's norm, so that norm must stay below sqrt(float max) ~ 1.3e154.
MAX_OPERATOR_NORM = 1e154


class SchemaError(Exception):
    """Input file does not match the expected layout."""


def _require_within(command: str, estimate: str, value: int, budget: float,
                    unit: str) -> None:
    if value > budget:
        raise SchemaError(f"{command}: {estimate} = {value:.3g} {unit} exceeds "
                          f"the budget of {budget:.3g} {unit}")


# ---------------------------------------------------------------------------
# input builders
# ---------------------------------------------------------------------------


def _require(payload: dict, key: str, command: str):
    if key not in payload:
        raise SchemaError(f"{command}: missing required key {key!r}")
    return payload[key]


def _integer(value, key: str, command: str) -> int:
    """``value`` as an int: an integral number, never truncated; a bool is
    refused."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise SchemaError(f"{command}: {key} must be an integer, not {value!r}")


def _multiplier(value, field: ScalarField, command: str) -> float:
    """``value`` as a finite multiplier lambda whose term lambda * A of the
    effective potential is finite on the grid; a bool or a string is
    refused."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            lam = float(value)
        except OverflowError:  # an integer beyond the float range
            lam = math.inf
        if math.isfinite(lam):
            with np.errstate(over="ignore"):
                if np.all(np.isfinite(lam * field.values)):
                    return lam
            raise SchemaError(f"{command}: lambda = {lam!r} overflows the effective "
                              f"potential lambda*A")
    raise SchemaError(f"{command}: lambda must be a finite number, not {value!r}")


def _require_operator_in_range(lo: float, hi: float, lams: list[float],
                               grid: Grid, command: str) -> None:
    """Refuse multipliers whose EPI operator -(1/2) D2 - (1/8) sum_i
    lambda_i A_i has a norm max|diagonal| + 2|off-diagonal| above
    MAX_OPERATOR_NORM; ``lo`` and ``hi`` are the extremes, in either
    order, of sum_i lambda_i A_i on the interior points."""
    kin = 1.0 / (2.0 * grid.dx * grid.dx)
    norm = max(abs(2.0 * kin - lo / 8.0), abs(2.0 * kin - hi / 8.0)) + 2.0 * kin
    if not norm <= MAX_OPERATOR_NORM:
        raise SchemaError(
            f"{command}: multipliers {lams!r} give an EPI operator of norm "
            f"{norm:.3g}, above {MAX_OPERATOR_NORM:.0e}; its square overflows"
        )


def _grid_from_input(payload: dict, args, command: str) -> Grid:
    spec = dict(_require(payload, "grid", command))
    if args.n is not None:
        spec["n"] = args.n
    if args.xmin is not None:
        spec["xmin"] = args.xmin
    if args.xmax is not None:
        spec["xmax"] = args.xmax
    spec["n"] = _integer(_require(spec, "n", command), "n", command)
    _require_within(command, "n", spec["n"], MAX_POINTS, "points")
    try:
        return grid_from_dict(spec)
    except (KeyError, ValueError) as exc:
        raise SchemaError(f"{command}: bad grid spec ({exc})") from exc


def _constants_from_input(payload: dict) -> PhysicalConstants:
    return constants_from_dict(payload.get("constants", {}))


def _build_constraint_field(spec: dict, grid: Grid, command: str) -> ScalarField:
    kind = spec.get("kind")
    if kind == "monomial":
        power = _integer(spec.get("power", 2), "power", command)
        coeff = float(spec.get("coeff", 1.0))
        return ScalarField(grid, coeff * grid.x**power)
    if kind == "tabulated":
        data = np.asarray(_require(spec, "data", command), dtype=float)
        if len(data) != grid.n:
            raise SchemaError(f"{command}: tabulated data length != grid n")
        return ScalarField(grid, data)
    raise SchemaError(f"{command}: unknown constraint kind {kind!r}")


def _build_density(spec: dict, grid: Grid, truncation_check: bool, command: str):
    kind = spec.get("kind")
    x = grid.x
    if kind == "gaussian":
        sigma = float(spec.get("sigma", 1.0))
        center = float(spec.get("center", 0.0))
        raw = np.exp(-((x - center) ** 2) / (2.0 * sigma**2))
        return density_from_samples(ScalarField(grid, raw), truncation_check)
    if kind == "mixture":
        raw = np.zeros(grid.n)
        for comp in _require(spec, "components", command):
            raw += float(comp.get("weight", 1.0)) * np.exp(
                -((x - float(comp.get("center", 0.0))) ** 2)
                / (2.0 * float(comp.get("sigma", 1.0)) ** 2)
            )
        return density_from_samples(ScalarField(grid, raw), truncation_check)
    if kind == "samples":
        values = np.asarray(_require(spec, "values", command), dtype=float)
        if len(values) != grid.n:
            raise SchemaError(f"{command}: sample length != grid n")
        return density_from_samples(ScalarField(grid, values), truncation_check)
    if kind == "gibbs":
        energy = _build_constraint_field(
            _require(spec, "energy", command), grid, command
        )
        density, _ = gibbs_density(energy, float(spec.get("gamma", 1.0)),
                                   truncation_check)
        return density
    raise SchemaError(f"{command}: unknown density kind {kind!r}")


# ---------------------------------------------------------------------------
# command implementations (each returns a list of IdentityCheck + artifacts)
# ---------------------------------------------------------------------------


def _thermal_fisher_checks(
    density: Density, hf: HeatField, constants: PhysicalConstants
) -> list[IdentityCheck]:
    """The route-B thermal Fisher check and the flagged discrepancy ledger."""
    tf = thermal_fisher_report(density, hf, constants)
    return [
        make_check("thermal-fisher-route-b", tf.route_b, tf.fisher_direct),
        *flagged_discrepancy_checks(
            mean_quantum_potential(density, constants), tf.fisher_direct,
            constants.hbar, constants.mass, tf.route_a, tf.route_b,
        ),
    ]


def _cmd_verify_identities(payload, args, out_dir: Path) -> list[IdentityCheck]:
    command = "verify-identities"
    grid = _grid_from_input(payload, args, command)
    constants = _constants_from_input(payload)
    density = _build_density(
        _require(payload, "density", command), grid, not args.no_truncation_check,
        command,
    )
    checks: list[IdentityCheck] = []

    fi = fisher_information(density)
    q_forms = {form: quantum_potential(density, constants, form) for form in QPForm}
    q_ref = q_forms[QPForm.SQRT].values
    scale = float(np.max(np.abs(q_ref))) + 1e-300
    worst = max(
        weighted_max_dev(q_forms[f].values, q_ref, density)
        for f in (QPForm.GRAD, QPForm.FLUCT, QPForm.OSMOTIC)
    )
    checks.append(make_residual_check("qp-four-forms", worst / scale))

    mean_qp = mean_quantum_potential(density, constants)
    target = constants.hbar**2 / (8.0 * constants.mass) * fi
    checks.append(make_check("mean-QP-equals-FI", mean_qp, target))

    rep = fluctuation_report(density, constants)
    checks.append(make_check("fluctuation-mean-zero", rep.mean, 0.0))
    checks.append(
        make_check(
            "fluctuation-second-moment", rep.second_moment, constants.hbar**2 / 4.0 * fi
        )
    )
    checks.extend(
        _thermal_fisher_checks(density, heat_from_density(density, constants), constants)
    )

    density_spec = payload["density"]
    if density_spec.get("kind") == "gibbs":
        energy = _build_constraint_field(density_spec["energy"], grid, command)
        gamma = float(density_spec.get("gamma", 1.0))
        gc = gibbs_formula_check(energy, gamma, constants)
        checks.append(make_residual_check("gibbs-qp-formula", gc.qp_maxdev))
        checks.append(
            make_check("gibbs-fisher-formula", gc.fisher_direct, gc.fisher_energy_route)
        )
    save_field_csv(density.field, out_dir / "density.csv")
    return checks


def _cmd_evolve(payload, args, out_dir: Path) -> list[IdentityCheck]:
    command = "evolve"
    grid = _grid_from_input(payload, args, command)
    constants = _constants_from_input(payload)
    dt = float(_require(payload, "dt", command))
    steps = _integer(_require(payload, "steps", command), "steps", command)
    dump = payload.get("dump", False)
    _require_within(command, "n*steps", grid.n * steps, WORK_BUDGET, "point-steps")
    if dump:
        _require_within(command, "the dump's n*(steps+1)*76", grid.n * (steps + 1) * 76,
                        DUMP_BUDGET, "B")

    init_spec = _require(payload, "initial", command)
    density = _build_density(init_spec, grid, not args.no_truncation_check, command)
    momentum = float(init_spec.get("momentum", 0.0))
    phase = ScalarField(grid, constants.hbar * momentum * grid.x)
    state = MadelungState(density, phase, constants)

    pot_spec = _require(payload, "potential", command)
    kind = pot_spec.get("kind")
    if kind == "free":
        V = grid.zeros()
    elif kind == "harmonic":
        V = ScalarField(grid, float(pot_spec.get("strength", 0.5)) * grid.x**2)
    elif kind == "values":
        values = np.asarray(_require(pot_spec, "values", command), dtype=float)
        if len(values) != grid.n:
            raise SchemaError("evolve: potential length != grid n")
        V = ScalarField(grid, values)
    else:
        raise SchemaError(f"evolve: unknown potential kind {kind!r}")

    index = _integer(payload.get("check_index", steps // 2), "check_index", command)
    # the checks need the centered window; an index outside the trajectory
    # keeps what exists and is refused by the checks themselves
    window = [k for k in (index - 1, index, index + 1) if 0 <= k <= steps]
    traj = evolve(state, V, dt, steps, keep=None if dump else window)

    checks = [
        make_residual_check("continuity", continuity_residual(traj, index)),
        make_residual_check("modified-hj", hj_residual(traj, index)),
    ]
    lhs, rhs = entropy_rate_check(traj, index)
    checks.append(
        make_check("entropy-rate", lhs, rhs, note="centered entropy rate vs -integral(S'P')/m")
    )
    if dump:
        dump_trajectory(traj, out_dir / "trajectory")
    return checks


def _constraints_from_input(payload, grid, command) -> ConstraintSpec:
    entries = _require(payload, "constraints", command)
    fields = []
    lams = []
    for entry in entries:
        fields.append(_build_constraint_field(entry, grid, command))
        lam = _require(entry, "lambda", command)
        lams.append(_multiplier(lam, fields[-1], command))
    # the same sum extremizers.effective_potential forms
    total = np.zeros(grid.n)
    with np.errstate(over="ignore", invalid="ignore"):
        for lam, a in zip(lams, fields):
            total += lam * a.values
    if not np.all(np.isfinite(total)):
        raise SchemaError(f"{command}: the sum of the lambda*A terms overflows")
    _require_operator_in_range(total[1:-1].min(), total[1:-1].max(), lams, grid, command)
    return ConstraintSpec(A_fields=fields, multipliers=lams)


def _cmd_epi(payload, args, out_dir: Path) -> list[IdentityCheck]:
    command = "epi"
    grid = _grid_from_input(payload, args, command)
    constants = _constants_from_input(payload)
    spec = _constraints_from_input(payload, grid, command)
    result = epi_solve(spec, grid)

    mean_terms = sum(
        lam * quadrature_values(result.p_I.values * a.values, grid.dx)
        for lam, a in zip(result.multipliers, spec.A_fields)
    )
    checks = [
        make_check(
            "epi-ground-state",
            result.fisher_I,
            result.alpha_norm + mean_terms,
            note="contraction identity FI = alpha_norm + sum lambda <A>",
        ),
        make_residual_check("epi-stationarity", stationarity_residual(result)),
        make_residual_check("riccati", riccati_check(result)),
        make_check(
            "mean-QP-equals-FI",
            mean_quantum_potential(result.p_I, constants),
            constants.hbar**2 / (8.0 * constants.mass) * result.fisher_I,
            tol=1e-5,
            note="discretization-limited on eigensolver output",
        ),
    ]
    if len(result.multipliers) == 1:
        qc = epi_quantum_potential_check(result, constants)
        scale = float(np.max(np.abs(quantum_potential(result.p_I, constants).values)))
        checks.append(make_residual_check("epi-qp-affine", qc.maxdev / (scale + 1e-300)))
        checks.append(make_check("epi-mean-qp", qc.mean_lhs, qc.mean_rhs))

    result_payload = {
        "alpha_norm": result.alpha_norm,
        "eigenvalue": result.eigenvalue,
        "fisher_information": result.fisher_I,
        "multipliers": list(result.multipliers),
    }
    with open(out_dir / "epi_result.json", "w") as fh:
        json.dump(result_payload, fh, sort_keys=True, indent=1)
    save_field_csv(result.p_I.field, out_dir / "p_I.csv")
    save_field_csv(result.psi, out_dir / "psi.csv")
    return checks


def _cmd_maxent(payload, args, out_dir: Path) -> list[IdentityCheck]:
    command = "maxent"
    grid = _grid_from_input(payload, args, command)
    a_field = _build_constraint_field(
        _require(payload, "constraint", command), grid, command
    )
    target = float(_require(payload, "target", command))
    density, alpha, z = maxent_solve(
        a_field, target, truncation_check=not args.no_truncation_check
    )
    attained = quadrature_values(density.values * a_field.values, grid.dx)
    checks = [
        make_check("maxent-multiplier", attained, target,
                   note=f"alpha_gibbs={alpha!r}, Z={z!r}")
    ]
    with open(out_dir / "maxent_result.json", "w") as fh:
        json.dump({"alpha_gibbs": alpha, "Z": z, "target": target},
                  fh, sort_keys=True, indent=1)
    save_field_csv(density.field, out_dir / "maxent_density.csv")
    return checks


def _cmd_sweep(payload, args, out_dir: Path) -> list[IdentityCheck]:
    command = "sweep"
    grid = _grid_from_input(payload, args, command)
    a_field = _build_constraint_field(
        _require(payload, "constraint", command), grid, command
    )
    lambdas = _require(payload, "lambdas", command)
    if not isinstance(lambdas, list):
        raise SchemaError(f"{command}: lambdas must be a list, not {lambdas!r}")
    lambdas = [_multiplier(v, a_field, command) for v in lambdas]
    # the operator's norm is convex in lambda: the extreme multipliers bound it
    inner = a_field.values[1:-1]
    for lam in (min(lambdas), max(lambdas)) if lambdas else ():
        _require_operator_in_range(lam * inner.min(), lam * inner.max(), [lam],
                                   grid, command)
    table = run_sweep(a_field, lambdas, grid)
    save_sweep_csv(table, out_dir / "sweep.csv")

    checks = [
        make_residual_check("fisher-euler", verify_euler(table)),
    ]
    report = verify_legendre(table)
    checks.append(
        make_residual_check(
            "legendre-relations", report.max_residual(),
            note=(
                f"dLambda/dlam {report.dLambda_dlam_vs_negmeanA:.3e}, "
                f"dI/d<A> {report.dI_dmeanA_vs_lambda:.3e}, "
                f"reciprocity {report.reciprocity_d2I:.3e}/{report.reciprocity_d2Lambda:.3e}"
            ),
        )
    )
    return checks


def _cmd_thermal(payload, args, out_dir: Path) -> list[IdentityCheck]:
    command = "thermal"
    grid = _grid_from_input(payload, args, command)
    constants = _constants_from_input(payload)

    heat_spec = _require(payload, "heat", command)
    kind = heat_spec.get("kind")
    if kind == "quadratic":
        q0 = float(heat_spec.get("coeff", 0.5)) * grid.x**2
    elif kind == "log-affine":
        a = float(heat_spec.get("a", 4.0))
        b = float(heat_spec.get("b", 0.2))
        if np.min(a + b * grid.x) <= 0:
            raise SchemaError("thermal: log-affine field needs a + b*x > 0 on the grid")
        q0 = 2.0 * constants.hbar * constants.omega * np.log(a + b * grid.x)
    elif kind == "values":
        q0 = np.asarray(_require(heat_spec, "values", command), dtype=float)
        if len(q0) != grid.n:
            raise SchemaError("thermal: heat field length != grid n")
    else:
        raise SchemaError(f"thermal: unknown heat kind {kind!r}")
    hf = HeatField(ScalarField(grid, q0), constants)
    t_final = float(payload.get("t_final", 0.004))
    dt = float(payload.get("dt", 1e-3))
    if t_final < 2.0 * dt:
        raise SchemaError("thermal: t_final must cover at least two steps")
    # the static log-affine checks never step; a heat flow's step count is
    # validated before anything is computed
    steps = None if kind == "log-affine" else step_count(t_final, dt)
    if steps is not None:
        _require_within(command, "2*n*steps", 2 * grid.n * steps, WORK_BUDGET,
                        "point-steps")

    checks: list[IdentityCheck] = []
    density, _ = density_from_heat(hf.Q_heat, constants.alpha_th,
                                   truncation_check=False)

    if kind == "log-affine":
        # non-decaying density: static checks only
        res = vanishing_qp_residual(hf)
        lap_scale = float(np.max(np.abs(
            second_derivative_values(q0, grid.dx)
        ))) + 1e-300
        checks.append(
            make_residual_check(
                "vanishing-qp-family", float(np.max(np.abs(res.values[2:-2]))) / lap_scale
            )
        )
    else:
        # the middle step of the heat flow the suite evolves, with its
        # neighbours for the centered time derivative
        mid = (steps + 1) // 2
        suite = coherence_suite(hf, constants, evolve_horizon=t_final, evolve_dt=dt,
                                keep=(mid - 1, mid, mid + 1))
        checks.extend(suite.items)
        thq = thermalized_qp(suite.heat, mid)
        qt_scale = (
            constants.hbar**2 / (4.0 * constants.mass)
            * float(np.max(np.abs(second_derivative_values(
                suite.heat.field(mid).q_tilde().values, grid.dx
            ))))
        )
        # weight by the coupled density: the held walls grow a diffusive
        # skin that carries no probability mass
        weight = density.values / float(np.max(density.values))
        checks.append(
            make_residual_check(
                "thermalized-qp-vanishes",
                float(np.max(weight[2:-2] * np.abs(thq.values[2:-2])))
                / (qt_scale + 1e-300),
            )
        )

    checks.extend(_thermal_fisher_checks(density, hf, constants))
    return checks


COMMANDS = {
    "verify-identities": _cmd_verify_identities,
    "evolve": _cmd_evolve,
    "epi": _cmd_epi,
    "maxent": _cmd_maxent,
    "sweep": _cmd_sweep,
    "thermal": _cmd_thermal,
}


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def _write_report(out_dir: Path, command: str, digest: str,
                  checks: list[IdentityCheck], error: dict | None = None) -> bool:
    overall = error is None and len(checks) > 0 and all(c.passed for c in checks)
    payload = {
        "schema": 1,
        "command": command,
        "inputs_digest": digest,
        "checks": [c.to_dict() for c in checks],
        "overall_pass": overall,
    }
    if error is not None:
        payload["error"] = error
    with open(out_dir / "report.json", "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
    meta = {
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "fisherqp_version": __version__,
    }
    with open(out_dir / "meta.json", "w") as fh:
        json.dump(meta, fh, sort_keys=True, indent=1)
    return overall


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fisherqp",
        description="Batch identity verification for densities, trajectories, "
                    "extremizers and heat fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", required=True, help="JSON problem description")
    common.add_argument("--out", required=True, help="output directory")
    common.add_argument("--n", type=int, default=None, help="override grid points")
    common.add_argument("--xmin", type=float, default=None, help="override grid xmin")
    common.add_argument("--xmax", type=float, default=None, help="override grid xmax")
    common.add_argument("--tol-scale", type=float, default=1.0, dest="tol_scale",
                        help="multiply every check tolerance by this positive factor")
    common.add_argument("--no-truncation-check", action="store_true",
                        dest="no_truncation_check",
                        help="allow densities that do not decay at the walls")

    for name in COMMANDS:
        sub.add_parser(name, parents=[common])
    sub.add_parser("list-checks")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list-checks":
        print(list_checks())
        return 0
    if not (math.isfinite(args.tol_scale) and args.tol_scale > 0.0):
        print(f"--tol-scale must be positive and finite, not {args.tol_scale!r}",
              file=sys.stderr)
        return 2

    input_path = Path(args.input)
    out_dir = Path(args.out)
    try:
        raw = input_path.read_bytes()
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return 2
    digest = "sha256:" + hashlib.sha256(raw).hexdigest()
    try:
        payload = json.loads(raw)
        if not isinstance(payload, dict):
            raise SchemaError("top-level JSON value must be an object")
    except (json.JSONDecodeError, SchemaError) as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2

    out_dir.mkdir(parents=True, exist_ok=True)
    # LinAlgError subclasses ValueError: numerical failures are caught first
    try:
        checks = COMMANDS[args.command](payload, args, out_dir)
    except (FisherQPError, np.linalg.LinAlgError) as exc:
        _write_report(
            out_dir, args.command, digest, [],
            error={"type": type(exc).__name__, "message": str(exc)},
        )
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (SchemaError, KeyError, TypeError, ValueError) as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2

    checks = [replace(c, tol=c.tol * args.tol_scale) for c in checks]
    overall = _write_report(out_dir, args.command, digest, checks)
    return 0 if overall else 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
