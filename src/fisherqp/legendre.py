"""Single-constraint multiplier sweeps and the Legendre structure of the
extreme Fisher information.

Along the solution family p_I(lambda) the scalar functions

    I(lambda)      extreme Fisher information,
    <A>(lambda)    constraint average,
    Lambda         = I - lambda <A>   (Legendre transform of I)

satisfy the thermodynamic-style relations

    dI/dlambda = lambda d<A>/dlambda          (Fisher-Euler theorem)
    dLambda/dlambda = -<A>
    dI/d<A> = lambda
    dlambda/d<A> = d2I/d<A>2
    d<A>/dlambda = -d2Lambda/dlambda2

``verify_euler`` and ``verify_legendre`` difference the sweep table
itself (no extra solves): the relations are exact along the family, so
differencing the family is the faithful discrete analogue.  For
sign-definite multiplier tables the differencing variable is log|lambda|
(geometric sweeps become uniform and the truncation errors of the two
sides of the Euler relation cancel); otherwise raw lambda is used with
non-uniform three-point stencils.

Failed solves are recorded as failures and excluded from differencing
windows; thermodynamic data is never interpolated into existence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EdgeLocalized, DegenerateGround, NonMonotoneMeanA, TooFewPoints
from .extremizers import ConstraintSpec, EPIResult, epi_solve
from .grid import Grid, ScalarField, quadrature_values


@dataclass(frozen=True)
class ThermoRecord:
    """One row of a sweep: multiplier, information, average, potential."""

    lam: float
    I: float
    meanA: float
    Lambda_pot: float
    alpha_norm: float


@dataclass(frozen=True)
class SweepTable:
    """Sweep records sorted by multiplier, plus any failed multipliers."""

    records: list[ThermoRecord]
    failures: list[tuple[float, str]]

    def lambdas(self) -> np.ndarray:
        return np.array([r.lam for r in self.records])

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records])


def sweep(A: ScalarField, lambdas, grid: Grid) -> SweepTable:
    """Solve the single-constraint Fisher extremization for each multiplier."""
    lambdas = np.asarray(lambdas, dtype=float)
    if len(np.unique(lambdas)) != len(lambdas):
        raise ValueError("multiplier values must be distinct")
    records = []
    failures = []
    for lam in sorted(lambdas):
        spec = ConstraintSpec(A_fields=[A], multipliers=[lam])
        try:
            result = epi_solve(spec, grid)
        except (EdgeLocalized, DegenerateGround) as exc:
            failures.append((float(lam), type(exc).__name__))
            continue
        records.append(_record(lam, result, A))
    return SweepTable(records=records, failures=failures)


def _record(lam: float, result: EPIResult, A: ScalarField) -> ThermoRecord:
    mean_a = quadrature_values(result.p_I.values * A.values, A.grid.dx)
    return ThermoRecord(
        lam=float(lam),
        I=result.fisher_I,
        meanA=float(mean_a),
        Lambda_pot=result.fisher_I - lam * mean_a,
        alpha_norm=result.alpha_norm,
    )


def _differencing_variable(lams: np.ndarray) -> np.ndarray:
    if np.all(lams < 0) or np.all(lams > 0):
        return np.log(np.abs(lams))
    return lams


def _centered_derivative(t: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Non-uniform 3-point first derivative at interior indices."""
    hm = t[1:-1] - t[:-2]
    hp = t[2:] - t[1:-1]
    return (
        hm**2 * f[2:] - hp**2 * f[:-2] + (hp**2 - hm**2) * f[1:-1]
    ) / (hm * hp * (hm + hp))


def _require_window(table: SweepTable, least: int) -> None:
    if len(table.records) < least:
        raise TooFewPoints(
            f"need at least {least} consecutive records, have {len(table.records)}"
        )


def _family_derivatives(table: SweepTable):
    """d/dlambda of I, <A>, Lambda at interior records via the chain rule
    through the differencing variable."""
    lams = table.lambdas()
    t = _differencing_variable(lams)
    log_space = t is not lams
    # In log space dlambda/dt = lambda exactly; use the exact factor.
    dlam_dt = lams[1:-1] if log_space else np.ones(len(lams) - 2)
    dI = _centered_derivative(t, table.column("I")) / dlam_dt
    dA = _centered_derivative(t, table.column("meanA")) / dlam_dt
    dL = _centered_derivative(t, table.column("Lambda_pot")) / dlam_dt
    return lams[1:-1], dI, dA, dL


def verify_euler(table: SweepTable) -> float:
    """Max normalized residual of dI/dlambda = lambda d<A>/dlambda."""
    _require_window(table, 3)
    lam_mid, dI, dA, _ = _family_derivatives(table)
    residual = np.abs(dI - lam_mid * dA) / (np.abs(dI) + 1e-300)
    return float(np.max(residual))


@dataclass(frozen=True)
class LegendreReport:
    """Normalized residuals of the four Legendre-structure relations."""

    dLambda_dlam_vs_negmeanA: float
    dI_dmeanA_vs_lambda: float
    reciprocity_d2I: float
    reciprocity_d2Lambda: float

    def max_residual(self) -> float:
        return max(
            self.dLambda_dlam_vs_negmeanA,
            self.dI_dmeanA_vs_lambda,
            self.reciprocity_d2I,
            self.reciprocity_d2Lambda,
        )


def verify_legendre(table: SweepTable) -> LegendreReport:
    """Check the Legendre relations by differencing the sweep table.

    Requires a strictly monotone <A>(lambda) (otherwise the inversion
    lambda <-> <A> is ill-posed) and at least five records for the
    second-derivative reciprocity checks.
    """
    _require_window(table, 3)
    mean_a = table.column("meanA")
    diffs = np.diff(mean_a)
    if not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise NonMonotoneMeanA("constraint average is not strictly monotone")

    lam_mid, dI, dA, dL = _family_derivatives(table)
    mean_mid = mean_a[1:-1]

    res_dlambda = np.max(np.abs(dL + mean_mid) / (np.abs(mean_mid) + 1e-300))
    res_dImeanA = np.max(np.abs(dI / dA - lam_mid) / (np.abs(lam_mid) + 1e-300))

    _require_window(table, 5)
    # Second derivatives: difference the first-derivative fields, which
    # live at interior records, against the same variable.
    lams = table.lambdas()
    full_t = _differencing_variable(lams)
    log_space = full_t is not lams
    t = full_t[1:-1]
    lam_inner = lam_mid[1:-1]
    dlam_dt = lam_inner if log_space else np.ones_like(lam_inner)

    dI_dA_field = dI / dA                       # = dI/d<A> at interior records
    d_dt = _centered_derivative(t, dI_dA_field)
    d2I_dA2 = (d_dt / dlam_dt) / dA[1:-1]       # chain rule through lambda
    dlam_dA = 1.0 / dA[1:-1]
    res_recip_I = np.max(np.abs(d2I_dA2 - dlam_dA) / (np.abs(dlam_dA) + 1e-300))

    d_dt_L = _centered_derivative(t, dL)
    d2L = d_dt_L / dlam_dt
    res_recip_L = np.max(np.abs(dA[1:-1] + d2L) / (np.abs(dA[1:-1]) + 1e-300))

    return LegendreReport(
        dLambda_dlam_vs_negmeanA=float(res_dlambda),
        dI_dmeanA_vs_lambda=float(res_dImeanA),
        reciprocity_d2I=float(res_recip_I),
        reciprocity_d2Lambda=float(res_recip_L),
    )
