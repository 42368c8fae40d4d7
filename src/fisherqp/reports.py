"""Identity-check bookkeeping: the table of named checks, the JSON record
format for a single check, and the flagged-discrepancy entries.

``CHECKS`` is the one check table: every check some command reports is
registered with a stable name, the equation tag it verifies, its
tolerance, and whether its verdict reads the relative or the absolute
error.  Records take their tolerance from the table (the CLI multiplies
it by ``--tol-scale`` afterwards); ``list-checks`` prints the table.
Conventions that circulate in both signs or normalizations are *flagged*
rather than asserted:

* the sign of integral(P Q) relative to Fisher information (the
  amplitude definition of Q fixes +hbar^2/8m; the opposite sign also
  circulates), and
* the two formal thermal routes to Fisher information, which disagree
  by more than a sign on static coupled pairs.

Flagged entries carry the measured ratio and pass by being present;
their presence in a report is itself part of the acceptance surface.
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
    CheckDef("qp-four-forms", "eq2.2", "four quantum-potential routes agree pointwise", 1e-5),
    CheckDef("mean-QP-equals-FI", "eq2.4", "integral(P Q) = (hbar^2/8m) FI", 1e-6),
    CheckDef("fluctuation-mean-zero", "eq2.8", "<delta_p> vanishes for decayed densities",
             1e-8, relative=False),
    CheckDef("fluctuation-second-moment", "eq2.8", "<delta_p^2> = (hbar^2/4) FI", 1e-6),
    CheckDef("entropy-rate", "eq2.7", "d(entropy)/dt = -integral(S' P')", 1e-3),
    CheckDef("maxent-multiplier", "eq2.10",
             "MaxEnt solution is exp(-alpha A)/Z hitting the target", 1e-8, relative=False),
    CheckDef("continuity", "eq2.1", "dP/dt + div(P S'/m) = 0 along trajectories", 1e-3),
    CheckDef("modified-hj", "eq3.7", "dS/dt + (S')^2/2m + V + Q = 0 along trajectories", 1e-3),
    CheckDef("heat-action-link", "eq3.1", "DeltaQ_heat = 2 omega Delta(deltaS)", 1e-12),
    CheckDef("fluctuation-chain", "eq3.3", "delta_p = grad(deltaS) = -(hbar/2) grad(P)/P", 1e-6),
    CheckDef("kinetic-excess", "eq3.4", "delta_E_kin two ways through P and Q_heat", 1e-10),
    CheckDef("thermalized-qp-vanishes", "eq3.12",
             "thermalized Q vanishes on heat-equation flows", 1e-3),
    CheckDef("gibbs-form-slope", "eq3.14", "log P affine in -beta Q_heat with unit slope", 1e-9),
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
    CheckDef("epi-qp-affine", "eq5.19", "Q of the extremal density is affine in A", 1e-4),
    CheckDef("epi-mean-qp", "eq5.20", "integral(p_I Q) through the constraint average", 1e-6),
    CheckDef("gibbs-qp-formula", "eq5.23", "Q of a Gibbs density via energy derivatives", 1e-6),
    CheckDef("gibbs-fisher-formula", "eq5.24", "FI of a Gibbs density via <(E')^2>", 1e-6),
    CheckDef("flag-mean-qp-sign", "eq3.16",
             "FLAG: sign convention of integral(P Q) vs FI", math.inf),
    CheckDef("flag-thermal-route-factor", "eq3.17",
             "FLAG: route A vs route B thermal Fisher", math.inf),
    CheckDef("flag-qp-bracket-sign", "eq4.5",
             "FLAG: bracket-form sign of Q vs the amplitude form", math.inf),
    CheckDef("flag-epi-qp-coefficient", "eq5.18",
             "FLAG: normalization of the Q-A link coefficient", math.inf),
)

_BY_NAME = {c.name: c for c in CHECKS}


def check_def(name: str) -> CheckDef:
    return _BY_NAME[name]


def list_checks() -> str:
    """Stable listing 'tag name', one check per line."""
    return "\n".join(f"{c.paper_eq} {c.name}" for c in CHECKS)


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
    flagged: bool = False
    note: str = ""

    @property
    def passed(self) -> bool:
        """The error the table names (relative or absolute) against ``tol``;
        flagged entries always pass."""
        err = self.rel_err if check_def(self.name).relative else self.abs_err
        return bool(err <= self.tol) or self.flagged

    def to_dict(self) -> dict:
        d = asdict(self)
        d["pass"] = self.passed
        return d


def make_check(
    name: str,
    lhs: float,
    rhs: float,
    tol: float | None = None,
    flagged: bool = False,
    note: str = "",
) -> IdentityCheck:
    """Build a check record judged against the registered tolerance, or
    against ``tol`` where a caller overrides it."""
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
        tol=float(cdef.tol if tol is None else tol),
        flagged=flagged,
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


def flagged_discrepancy_checks(
    mean_qp: float, fisher: float, hbar: float, mass: float,
    route_a: float, route_b: float,
) -> list[IdentityCheck]:
    """The standing discrepancy ledger, with measured ratios.

    These entries always 'pass': their role is to be present and to carry
    the measured ratio between the convention implemented here and the
    printed variant.
    """
    implemented = hbar**2 / (8.0 * mass) * fisher
    checks = [
        make_check(
            "flag-mean-qp-sign",
            mean_qp,
            -implemented,
            flagged=True,
            note=(
                "implemented integral(P Q) = +(hbar^2/8m) FI; the opposite-sign "
                f"convention also circulates (measured ratio {mean_qp / -implemented:+.6f})"
            ),
        ),
        make_check(
            "flag-thermal-route-factor",
            route_a,
            route_b,
            flagged=True,
            note=(
                "formal route A and exact route B disagree on static coupled "
                f"pairs (measured ratio A/B = {route_a / route_b:+.6f}); "
                "route B is the asserted one"
            ),
        ),
        make_check(
            "flag-qp-bracket-sign",
            1.0,
            -1.0,
            flagged=True,
            note=(
                "the bracket rewritings of Q are implemented with the sign "
                "fixed by the amplitude definition (ratio -1 vs the flipped form)"
            ),
        ),
        make_check(
            "flag-epi-qp-coefficient",
            0.5,
            1.0,
            flagged=True,
            note=(
                "the Q-A link of the extremal density carries hbar^2/8m, not "
                "hbar^2/4m: the doubled normalization overshoots by 2 "
                "(measured slope ratio 0.5)"
            ),
        ),
    ]
    return checks
