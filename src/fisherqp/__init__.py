"""fisherqp: a desk-scale numerical toolkit for the web of identities
linking Fisher information, the Bohm/Madelung quantum potential,
constrained-entropy and Fisher extremization, Legendre thermodynamic
structure, and subquantum heat dynamics, all on uniform 1-D grids.

The package is organized bottom-up:

``grid``         quadrature and finite differences
``states``       densities and physical constants
``functionals``  Fisher information, entropy, quantum potential, the delta_p field
``propagator``   Crank-Nicolson Schroedinger evolution of psi and residual checks
``extremizers``  MaxEnt and the Fisher-extremization eigensolver
``legendre``     multiplier sweeps and Legendre-structure verification
``thermal``      heat-field identities, the lockstep Fick and heat flow
``reports``      check table and report records
``serialization`` CSV/JSON file formats
``suites``       every identity check, formed and yielded per CLI command
``cli``          batch front end
"""

__version__ = "0.1.0"

from .errors import (
    BoundaryContact,
    DecoupledInputs,
    DegenerateGround,
    DegenerateSupport,
    EdgeLocalized,
    FisherQPError,
    InfeasibleTarget,
    NegativeDensity,
    NonDecaying,
    NonFinite,
    NonMonotoneMeanA,
    TooFewPoints,
    TruncationError,
    ZeroMass,
)
from .grid import Grid, ScalarField, quadrature
from .states import (
    Density,
    PhysicalConstants,
    density_from_heat,
    density_from_samples,
    gibbs_density,
)
from .functionals import (
    QPForm,
    differential_entropy,
    fisher_information,
    mean_quantum_potential,
    momentum_fluctuation,
    osmotic_fields,
    quantum_potential,
)
from .propagator import (
    Trajectory,
    continuity_residual,
    energy_expectation,
    entropy_rate_check,
    evolve,
    hj_residual,
    norm_drift,
    osmotic_entropy_rate,
)
from .extremizers import (
    ConstraintSpec,
    EPIResult,
    epi_solve,
    maxent_solve,
    riccati_check,
    stationarity_residual,
)
from .legendre import SweepTable, ThermoRecord, sweep, verify_euler, verify_legendre
from .thermal import (
    delta_s_from_heat,
    heat_from_density,
    thermalized_qp,
    vanishing_qp_residual,
)

__all__ = [name for name in dir() if not name.startswith("_")]
