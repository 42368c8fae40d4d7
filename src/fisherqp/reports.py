"""Identity-check bookkeeping: the table of named checks and the JSON
record format for a single check.

``CHECKS`` is the one check table: every check some command reports is
registered with a stable name, the equation tag it verifies, its
tolerance, and whether its verdict reads the relative or the absolute
error.  Every tolerance is finite and every record takes its tolerance
from the table; ``list-checks`` prints the table.  The suites form every
record (``suites``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict


@dataclass(frozen=True)
class CheckDef:
    """A registered check: its verdict passes when the relative error (or,
    with ``relative=False``, the absolute error) is at most ``tol``.
    Residual checks record one residual as both errors."""

    name: str
    paper_eq: str
    description: str
    tol: float
    relative: bool = True


CHECKS: tuple[CheckDef, ...] = (
    CheckDef("qp-four-forms", "eq2.2", "three quantum-potential routes agree pointwise", 1e-5),
    CheckDef("mean-QP-equals-FI", "eq2.4", "integral(P Q) = (hbar^2/8m) FI", 1e-6),
    CheckDef("fluctuation-mean-zero", "eq2.8", "<delta_p> vanishes for decayed densities",
             1e-8, relative=False),
    CheckDef("entropy-rate", "eq2.7",
             "d(entropy)/dt = -integral(S' P')/m, integrated by parts against -J'", 1e-3),
    CheckDef("maxent-multiplier", "eq2.10",
             "MaxEnt solution is exp(-alpha A)/Z hitting the target", 1e-8, relative=False),
    CheckDef("continuity", "eq2.1", "dP/dt + div(P S'/m) = 0 along trajectories", 1e-3),
    CheckDef("modified-hj", "eq3.7", "dS/dt + (S')^2/2m + V + Q = 0 along trajectories", 1e-3),
    CheckDef("fluctuation-chain", "eq3.3", "delta_p = grad(deltaS) = -(hbar/2) grad(P)/P", 1e-6),
    CheckDef("thermalized-qp-vanishes", "eq3.12",
             "thermalized Q vanishes on heat-equation flows", 1e-3),
    CheckDef("thermal-fisher-route-b", "eq3.18", "beta^2 integral(P (grad Q)^2) equals FI", 1e-8),
    CheckDef("ratio-law-evolution", "eq3C",
             "P(t)/P(0) tracks exp(-beta DeltaQ) under coupled flows", 1e-3),
    CheckDef("vanishing-qp-family", "eq3P",
             "log-affine heat fields solve the vanishing-Q condition", 1e-6),
    CheckDef("epi-ground-state", "eq5.7",
             "Fisher extremization reduces to the ground eigenpair", 1e-4),
    CheckDef("epi-stationarity", "eq5.4", "Euler-Lagrange residual of the extremal density", 1e-4),
    CheckDef("riccati", "eq5G", "v' + v^2 + G/4 = 0 for v = (log psi)'", 1e-3),
    CheckDef("fisher-euler", "eq5.11", "dI/dlambda = lambda d<A>/dlambda along sweeps", 1e-2),
    CheckDef("legendre-relations", "eq5.14", "Legendre transform relations along sweeps", 2e-2),
    CheckDef("gibbs-qp-formula", "eq5.23", "Q of a Gibbs density via energy derivatives", 1e-6),
    CheckDef("gibbs-fisher-formula", "eq5.24", "FI of a Gibbs density via <(E')^2>", 1e-6),
)

_BY_NAME = {c.name: c for c in CHECKS}


def check_def(name: str) -> CheckDef:
    return _BY_NAME[name]


def list_checks() -> str:
    """Stable listing 'tag name  description', one check per line."""
    return "\n".join(f"{c.paper_eq} {c.name}  {c.description}" for c in CHECKS)


@dataclass
class IdentityCheck:
    """One verified identity: two sides, errors, tolerance, verdict."""

    name: str
    paper_eq: str
    lhs: float
    rhs: float
    abs_err: float
    rel_err: float
    tol: float
    note: str = ""

    @property
    def passed(self) -> bool:
        """The error the table names (relative or absolute) against ``tol``."""
        err = self.rel_err if check_def(self.name).relative else self.abs_err
        return bool(err <= self.tol)

    def to_dict(self) -> dict:
        """The JSON record: every field, a non-finite number (a route
        that overflowed or gave NaN) as null, plus ``pass``."""
        d = {k: None if isinstance(v, float) and not math.isfinite(v) else v
             for k, v in asdict(self).items()}
        d["pass"] = self.passed
        return d


def make_check(name: str, lhs: float, rhs: float, note: str = "") -> IdentityCheck:
    """Build a check record judged against the registered tolerance."""
    cdef = check_def(name)
    abs_err = abs(lhs - rhs)
    rel_err = abs_err / max(abs(lhs), abs(rhs), 1e-300)
    return IdentityCheck(
        name=name,
        paper_eq=cdef.paper_eq,
        lhs=float(lhs),
        rhs=float(rhs),
        abs_err=float(abs_err),
        rel_err=float(rel_err),
        tol=float(cdef.tol),
        note=note,
    )


def make_residual_check(name: str, residual: float, note: str = "") -> IdentityCheck:
    """Checks expressed as a single residual rather than an lhs/rhs pair."""
    cdef = check_def(name)
    return IdentityCheck(
        name=name,
        paper_eq=cdef.paper_eq,
        lhs=float(residual),
        rhs=0.0,
        abs_err=float(abs(residual)),
        rel_err=float(abs(residual)),
        tol=float(cdef.tol),
        note=note,
    )
