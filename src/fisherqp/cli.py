"""Batch front end: JSON problem specs in, CSV tables and JSON
verification reports out.

Commands
--------
verify-identities   static identity suite on a constructed density
evolve              Schroedinger trajectory plus dynamical residuals
epi                 Fisher extremization for given multipliers
maxent              entropy extremization for a given target
sweep               multiplier sweep plus Legendre-structure residuals
thermal             heat-field suite (lockstep Fick/heat flow, thermal Fisher route)
list-checks         print every registered check: tag, name, description

Every run takes one path: the ``--input`` file, then ``parse(payload)``,
then ``suite(**problem)``, then ``report.json`` under ``--out``.  Each
command is such a pair in ``COMMANDS``: the parse stage, the only one
that raises SchemaError, turns the input JSON into the validated,
budget-checked keyword arguments of a suite (``suites``), which yields
the checks and its artifacts.  Each artifact is written under ``--out``
as the suite yields it, and ``report.json`` goes there last.  The input
file alone states the run, and ``inputs_digest`` in the report, its
sha256, names it.  The digest comes from the interpreter's built-in
SHA-256 (``_sha2``, or ``_sha256`` before Python 3.12), as ``random``
takes its own: ``hashlib`` maps OpenSSL's libcrypto, several MB of
resident memory in a run that computes nothing with it, so it is
imported only where the interpreter was built without that module.
Exit codes: 0 when every check passed, 2 on a
malformed input (nothing is written, not even ``--out``, which is made
only after the parse), 3 when a check failed or the suite raised a
FisherQPError or LAPACK's LinAlgError (the report keeps the checks, and
``--out`` the artifacts, yielded before the error).  Every check is
judged against its one finite tolerance in ``reports.CHECKS``; each
check record of ``report.json`` (schema 2) holds name, paper_eq, lhs,
rhs, abs_err, rel_err, tol, note and pass.  Reports are
byte-deterministic; what varies from run to run goes to ``meta.json``:
the timestamp, the numpy version, the LAPACK that did the solves
(``lapack``: numpy's OpenBLAS file and its build configuration, or
``scipy <version> cython_lapack`` where numpy ships none; null when the run
solved nothing), the OpenBLAS thread variables as the run saw them, whether
the package set them (``blas_threads_defaulted``: none was set when it
was imported) and the wall time of the parse and suite stages
(``stage_s``, in seconds; the suite's includes writing its artifacts, and
it is null when the parse raised) and the process's peak resident memory
as the report is written (``peak_rss_mb``, ``ru_maxrss`` in MB of 2**20
bytes; null where the ``resource`` module is missing).  Linux keeps
``ru_maxrss`` across exec, so it never reads below the resident memory
of the process that started the run at the moment it did.  ``vm_hwm_mb``
is the process's own peak, ``VmHWM`` of ``/proc/self/status`` in MB of
2**20 bytes, which has no such floor; null where that file cannot be
read.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

# hashlib is heavy to load (it maps libcrypto): take the built-in SHA-256 first
try:
    from _sha2 import sha256        # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from . import _THREAD_VARS, _THREADS_DEFAULTED, __version__
from .errors import FisherQPError
from .extremizers import ConstraintSpec
from .grid import Grid, ScalarField, _lapack_name
from .reports import IdentityCheck, list_checks
from .serialization import save_json
from .states import PhysicalConstants, density_from_heat, density_from_samples, gibbs_density
from .suites import (epi_suite, evolve_suite, identities_suite, maxent_suite, sweep_suite,
                     thermal_suite)
from .thermal import step_count


# Work a run may ask for, refused up front: grid points, grid points times
# steps over every flow a run steps, and the bytes of a dumped trajectory,
# 16 per point and step (complex128): the size of its file and of the
# array the run holds to write it.
MAX_POINTS = 2**22
WORK_BUDGET = 1e10      # point-steps
DUMP_BUDGET = 2**30     # bytes
# The EPI ground-state solver squares vectors of the order of its
# operator's norm, so that norm must stay below sqrt(float max) ~ 1.3e154.
MAX_OPERATOR_NORM = 1e154


class SchemaError(Exception):
    """Input file does not match the expected layout."""


def _require_within(estimate: str, value: int, budget: float, unit: str) -> None:
    if value > budget:
        raise SchemaError(f"{estimate} = {value:.3g} {unit} exceeds "
                          f"the budget of {budget:.3g} {unit}")


# ---------------------------------------------------------------------------
# input builders
# ---------------------------------------------------------------------------


def _require(payload: dict, key: str):
    if key not in payload:
        raise SchemaError(f"missing required key {key!r}")
    return payload[key]


def _section(payload: dict, key: str) -> dict:
    value = _require(payload, key)
    if not isinstance(value, dict):
        raise SchemaError(f"{key} must be an object")
    return value


def _objects(payload: dict, key: str) -> list:
    """``payload[key]`` as a list of JSON objects; a lone object, or an
    entry that is not an object, is refused."""
    value = _require(payload, key)
    if isinstance(value, list) and all(isinstance(v, dict) for v in value):
        return value
    raise SchemaError(f"{key} must be a list of objects")


def _integer(value, key: str) -> int:
    """``value`` as an int: an integral number, never truncated; a bool is
    refused."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise SchemaError(f"{key} must be an integer, not {value!r}")


def _finite(value, key: str) -> float:
    """``value`` as a finite float; a bool or a string is refused."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise SchemaError(f"{key} must be a finite number, not {value!r}")


def _numbers(spec: dict, key: str, grid: Grid) -> np.ndarray:
    """``spec[key]`` as a float array: a list of grid.n finite numbers, none
    of them a bool, a string, a null or a list."""
    value = _require(spec, key)
    if isinstance(value, list) and all(type(v) in (int, float) for v in value):
        array = np.asarray(value, dtype=float)
        if len(array) == grid.n and np.all(np.isfinite(array)):
            return array
    raise SchemaError(f"{key} must be a list of n = {grid.n} finite numbers")


def _on_grid(values: np.ndarray, what: str) -> np.ndarray:
    """``values``, formed under ``np.errstate``, when finite at every grid
    point; else a SchemaError that names ``what``."""
    if not np.all(np.isfinite(values)):
        raise SchemaError(f"{what} is non-finite on the grid")
    return values


def _multiplier(value, field: ScalarField) -> float:
    """``value`` as a finite multiplier lambda whose term lambda * A of the
    effective potential is finite on the grid."""
    lam = _finite(value, "lambda")
    with np.errstate(over="ignore"):
        if np.all(np.isfinite(lam * field.values)):
            return lam
    raise SchemaError(f"lambda = {lam!r} overflows the effective potential lambda*A")


def _require_operator_in_range(lo: float, hi: float, lams: list[float], grid: Grid) -> None:
    """Refuse multipliers whose EPI operator -(1/2) D2 - (1/8) sum_i
    lambda_i A_i has a norm max|diagonal| + 2|off-diagonal| above
    MAX_OPERATOR_NORM; ``lo`` and ``hi`` are the extremes, in either
    order, of sum_i lambda_i A_i on the interior points."""
    kin = 1.0 / (2.0 * grid.dx * grid.dx)
    norm = max(abs(2.0 * kin - lo / 8.0), abs(2.0 * kin - hi / 8.0)) + 2.0 * kin
    if not norm <= MAX_OPERATOR_NORM:
        raise SchemaError(
            f"multipliers {lams!r} give an EPI operator of norm "
            f"{norm:.3g}, above {MAX_OPERATOR_NORM:.0e}; its square overflows"
        )


def _grid_from_input(payload: dict) -> Grid:
    spec = _section(payload, "grid")
    n = _integer(_require(spec, "n"), "n")
    _require_within("n", n, MAX_POINTS, "points")
    xmin = _finite(_require(spec, "xmin"), "xmin")
    xmax = _finite(_require(spec, "xmax"), "xmax")
    grid = Grid(xmin, xmax, n)
    # second differences need 4 points, and ?gttrf, which the Schroedinger
    # step calls, 3 interior ones
    if grid.n < 5:
        raise SchemaError(f"n = {grid.n} leaves fewer than 3 interior grid points")
    return grid


def _constants_from_input(payload: dict) -> PhysicalConstants:
    spec = _section(payload, "constants") if "constants" in payload else {}
    return PhysicalConstants(**{
        f.name: _finite(spec.get(f.name, f.default), f.name)
        for f in dataclasses.fields(PhysicalConstants)
    })


def _build_constraint_field(spec: dict, grid: Grid) -> ScalarField:
    kind = spec.get("kind")
    if kind == "monomial":
        power = _integer(spec.get("power", 2), "power")
        coeff = _finite(spec.get("coeff", 1.0), "coeff")
        with np.errstate(all="ignore"):
            values = coeff * grid.x**power
        return ScalarField(grid, _on_grid(
            values, f"coeff*x**power with coeff = {coeff!r}, power = {power}"))
    if kind == "tabulated":
        return ScalarField(grid, _numbers(spec, "data", grid))
    raise SchemaError(f"unknown constraint kind {kind!r}")


def _gibbs_from_input(spec: dict, grid: Grid) -> tuple[ScalarField, float]:
    """(energy, gamma) of a ``gibbs`` density exp(-gamma E)/Z."""
    energy = _build_constraint_field(_section(spec, "energy"), grid)
    return energy, _finite(spec.get("gamma", 1.0), "gamma")


def _build_density(spec: dict, grid: Grid):
    """(density, gibbs) of a density spec; ``gibbs`` is the (energy, gamma)
    of a ``gibbs`` density exp(-gamma E)/Z, None for every other kind."""
    kind = spec.get("kind")
    if kind in ("gaussian", "mixture"):
        # a gaussian is the one-component mixture of weight 1: 0 + 1.0*v is v
        components = ([{**spec, "weight": 1.0}] if kind == "gaussian"
                      else _objects(spec, "components"))
        raw = np.zeros(grid.n)
        with np.errstate(all="ignore"):
            for comp in components:
                weight = _finite(comp.get("weight", 1.0), "weight")
                center = _finite(comp.get("center", 0.0), "center")
                # numpy's power overflows to inf where Python's raises
                sigma = np.float64(_finite(comp.get("sigma", 1.0), "sigma"))
                raw += weight * np.exp(-((grid.x - center) ** 2) / (2.0 * sigma ** 2))
        if not np.all(np.isfinite(raw)):
            raise SchemaError(f"the {kind} is non-finite on the grid "
                              f"(a sigma near 0 or weights beyond the float range)")
        return density_from_samples(ScalarField(grid, raw)), None
    if kind == "samples":
        return density_from_samples(ScalarField(grid, _numbers(spec, "values", grid))), None
    if kind == "gibbs":
        gibbs = _gibbs_from_input(spec, grid)
        density, _ = gibbs_density(*gibbs)
        return density, gibbs
    raise SchemaError(f"unknown density kind {kind!r}")


# ---------------------------------------------------------------------------
# parse stages (each returns the keyword arguments of its command's suite)
# ---------------------------------------------------------------------------


def _parses(command: str):
    """Make ``build(payload)`` the parse stage of ``command``: a
    SchemaError, KeyError, TypeError, ValueError, AttributeError or
    OverflowError (an integer beyond the float range) becomes a SchemaError
    whose message starts with the command."""
    def decorate(build):
        def parse(payload: dict) -> dict:
            try:
                return build(payload)
            except (SchemaError, KeyError, TypeError, ValueError, AttributeError,
                    OverflowError) as exc:
                raise SchemaError(f"{command}: {exc}") from exc
        return parse
    return decorate


@_parses("verify-identities")
def _parse_verify_identities(payload) -> dict:
    grid = _grid_from_input(payload)
    constants = _constants_from_input(payload)
    density, gibbs = _build_density(_section(payload, "density"), grid)
    return {"density": density, "constants": constants, "gibbs": gibbs}


@_parses("evolve")
def _parse_evolve(payload) -> dict:
    grid = _grid_from_input(payload)
    constants = _constants_from_input(payload)
    dt = _finite(_require(payload, "dt"), "dt")
    steps = _integer(_require(payload, "steps"), "steps")
    dump = payload.get("dump", False)
    if not isinstance(dump, bool):
        raise SchemaError(f"dump must be true or false, not {dump!r}")
    _require_within("n*steps", grid.n * steps, WORK_BUDGET, "point-steps")
    if dump:
        _require_within("the dump's n*(steps+1)*16", grid.n * (steps + 1) * 16,
                        DUMP_BUDGET, "B")

    init_spec = _section(payload, "initial")
    density, _ = _build_density(init_spec, grid)
    momentum = _finite(init_spec.get("momentum", 0.0), "momentum")
    # psi0 = sqrt(P) exp(i S / hbar) with the phase S = hbar k x
    with np.errstate(over="ignore", invalid="ignore"):
        phase = constants.hbar * momentum * grid.x
        psi0 = np.sqrt(density.values) * np.exp(1j * phase / constants.hbar)
    if not np.all(np.isfinite(psi0)):
        raise SchemaError(f"momentum = {momentum!r} overflows the phase k*x")

    pot_spec = _section(payload, "potential")
    kind = pot_spec.get("kind")
    if kind == "free":
        V = grid.zeros()
    elif kind == "harmonic":
        strength = _finite(pot_spec.get("strength", 0.5), "strength")
        with np.errstate(over="ignore", invalid="ignore"):
            V = ScalarField(grid, _on_grid(strength * grid.x**2,
                                           f"strength*x**2 with strength = {strength!r}"))
    elif kind == "values":
        V = ScalarField(grid, _numbers(pot_spec, "values", grid))
    else:
        raise SchemaError(f"unknown potential kind {kind!r}")

    index = _integer(payload.get("check_index", steps // 2), "check_index")
    if dt == 0.0:
        raise SchemaError("dt must be nonzero")
    if steps < 2:
        raise SchemaError(f"steps = {steps} leaves no interior step to check")
    if not 1 <= index <= steps - 1:
        raise SchemaError(f"index {index} must be interior (1..{steps - 1})")
    return {"psi0": psi0, "potential": V, "constants": constants, "dt": dt, "steps": steps,
            "index": index, "dump": dump}


def _constraints_from_input(payload, grid) -> ConstraintSpec:
    entries = _objects(payload, "constraints")
    fields = []
    lams = []
    for entry in entries:
        fields.append(_build_constraint_field(entry, grid))
        lams.append(_multiplier(_require(entry, "lambda"), fields[-1]))
    # the same sum extremizers._effective_potential forms
    total = np.zeros(grid.n)
    with np.errstate(over="ignore", invalid="ignore"):
        for lam, a in zip(lams, fields):
            total += lam * a.values
    if not np.all(np.isfinite(total)):
        raise SchemaError("the sum of the lambda*A terms overflows")
    _require_operator_in_range(total[1:-1].min(), total[1:-1].max(), lams, grid)
    return ConstraintSpec(A_fields=fields, multipliers=lams)


@_parses("epi")
def _parse_epi(payload) -> dict:
    grid = _grid_from_input(payload)
    _constants_from_input(payload)  # no epi check reads them, but stated ones are validated
    return {"spec": _constraints_from_input(payload, grid), "grid": grid}


@_parses("maxent")
def _parse_maxent(payload) -> dict:
    grid = _grid_from_input(payload)
    constraint = _build_constraint_field(_section(payload, "constraint"), grid)
    target = _finite(_require(payload, "target"), "target")
    return {"constraint": constraint, "target": target}


@_parses("sweep")
def _parse_sweep(payload) -> dict:
    grid = _grid_from_input(payload)
    constraint = _build_constraint_field(_section(payload, "constraint"), grid)
    lambdas = _require(payload, "lambdas")
    if not isinstance(lambdas, list):
        raise SchemaError(f"lambdas must be a list, not {lambdas!r}")
    lambdas = [_multiplier(v, constraint) for v in lambdas]
    # the operator's norm is convex in lambda: the extreme multipliers bound it
    inner = constraint.values[1:-1]
    for lam in (min(lambdas), max(lambdas)) if lambdas else ():
        _require_operator_in_range(lam * inner.min(), lam * inner.max(), [lam], grid)
    if len(set(lambdas)) != len(lambdas):
        raise SchemaError("multiplier values must be distinct")
    return {"constraint": constraint, "lambdas": lambdas}


@_parses("thermal")
def _parse_thermal(payload) -> dict:
    grid = _grid_from_input(payload)
    constants = _constants_from_input(payload)

    # every heat kind reaches the thermal Fisher pair, which holds only here
    if not constants.is_thermal_equilibrium:
        raise SchemaError("the coherence checks assume hbar*omega = k*T")
    heat_spec = _section(payload, "heat")
    kind = heat_spec.get("kind")
    if kind == "quadratic":
        coeff = _finite(heat_spec.get("coeff", 0.5), "coeff")
        with np.errstate(over="ignore", invalid="ignore"):
            q0 = _on_grid(coeff * grid.x**2, f"coeff*x**2 with coeff = {coeff!r}")
    elif kind == "log-affine":
        a = _finite(heat_spec.get("a", 4.0), "a")
        b = _finite(heat_spec.get("b", 0.2), "b")
        with np.errstate(over="ignore", invalid="ignore"):
            arg = _on_grid(a + b * grid.x, f"a + b*x with a = {a!r}, b = {b!r}")
        if np.min(arg) <= 0:
            raise SchemaError("log-affine field needs a + b*x > 0 on the grid")
        q0 = 2.0 * constants.hbar * constants.omega * np.log(arg)
    elif kind == "values":
        q0 = _numbers(heat_spec, "values", grid)
    else:
        raise SchemaError(f"unknown heat kind {kind!r}")
    heat = ScalarField(grid, q0)
    t_final = _finite(payload.get("t_final", 0.004), "t_final")
    dt = _finite(payload.get("dt", 1e-3), "dt")
    if t_final < 2.0 * dt:
        raise SchemaError("t_final must cover at least two steps")
    # every kind's timing is validated; the static log-affine checks never
    # step, so only a heat flow is held to the work budget
    steps = step_count(t_final, dt)
    if kind == "log-affine":
        t_final = None
    else:
        _require_within("2*n*steps", 2 * grid.n * steps, WORK_BUDGET, "point-steps")
    density, _ = density_from_heat(heat, constants.alpha_th, truncation_check=False)
    return {"heat": heat, "density": density, "constants": constants, "t_final": t_final,
            "dt": dt}


COMMANDS = {
    "verify-identities": (_parse_verify_identities, identities_suite),
    "evolve": (_parse_evolve, evolve_suite),
    "epi": (_parse_epi, epi_suite),
    "maxent": (_parse_maxent, maxent_suite),
    "sweep": (_parse_sweep, sweep_suite),
    "thermal": (_parse_thermal, thermal_suite),
}


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def _stage_s(start: float, parsed: float | None) -> dict[str, float | None]:
    """Wall seconds of the parse and suite stages; a suite that never
    started (the parse raised) reads None."""
    now = time.perf_counter()
    if parsed is None:
        return {"parse": now - start, "suite": None}
    return {"parse": parsed - start, "suite": now - parsed}


def _peak_rss_mb() -> float | None:
    """This process's peak resident memory so far, in MB of 2**20 bytes;
    ``ru_maxrss`` is in KiB on Linux and in bytes on macOS."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2**20 if sys.platform == "darwin" else 2**10)


def _vm_hwm_mb() -> float | None:
    """This process's own peak resident memory so far, in MB of 2**20
    bytes: ``VmHWM`` of ``/proc/self/status``, which is in KiB."""
    try:
        with open("/proc/self/status") as status:
            kib = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        return None
    return kib / 2**10


def _write_report(out_dir: Path, command: str, digest: str, checks: list[IdentityCheck],
                  stage_s: dict[str, float | None], error: dict | None = None) -> bool:
    overall = error is None and len(checks) > 0 and all(c.passed for c in checks)
    payload = {
        "schema": 2,
        "command": command,
        "inputs_digest": digest,
        "checks": [c.to_dict() for c in checks],
        "overall_pass": overall,
    }
    if error is not None:
        payload["error"] = error
    save_json(payload, out_dir / "report.json")
    save_json({"generated_at": datetime.now(timezone.utc).isoformat(),
               "fisherqp_version": __version__,
               "numpy_version": np.__version__,
               "lapack": _lapack_name(),
               "blas_thread_env": {name: os.environ.get(name) for name in _THREAD_VARS},
               "blas_threads_defaulted": _THREADS_DEFAULTED,
               "stage_s": stage_s,
               "peak_rss_mb": _peak_rss_mb(),
               "vm_hwm_mb": _vm_hwm_mb()}, out_dir / "meta.json")
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

    for name in COMMANDS:
        sub.add_parser(name, parents=[common])
    sub.add_parser("list-checks")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list-checks":
        print(list_checks())
        return 0

    input_path = Path(args.input)
    out_dir = Path(args.out)
    try:
        raw = input_path.read_bytes()
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return 2
    digest = "sha256:" + sha256(raw).hexdigest()
    try:
        payload = json.loads(raw)
        if not isinstance(payload, dict):
            raise SchemaError("top-level JSON value must be an object")
    except (json.JSONDecodeError, SchemaError) as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2

    parse, suite = COMMANDS[args.command]
    checks: list[IdentityCheck] = []
    start = time.perf_counter()
    parsed = None
    # only the parse raises SchemaError, before --out is made, so a
    # malformed input writes nothing.  A suite (or a density the parse
    # refuses) fails only with FisherQPError or LAPACK's LinAlgError (a
    # ValueError); anything else is a program fault and keeps its traceback
    try:
        problem = parse(payload)
        parsed = time.perf_counter()
        out_dir.mkdir(parents=True, exist_ok=True)
        for item in suite(**problem):
            if isinstance(item, IdentityCheck):
                checks.append(item)
            else:
                name, write = item
                write(out_dir / name)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except (FisherQPError, np.linalg.LinAlgError) as exc:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_report(out_dir, args.command, digest, checks, _stage_s(start, parsed),
                      error={"type": type(exc).__name__, "message": str(exc)})
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0 if _write_report(out_dir, args.command, digest, checks,
                              _stage_s(start, parsed)) else 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
