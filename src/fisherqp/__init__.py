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

BLAS threads: no routine the package calls is threaded by OpenBLAS (the
tridiagonal LAPACK solvers and numpy's elementwise ufuncs run on one
thread), yet OpenBLAS starts a pool of worker threads when it loads
with numpy.  The solvers run on that same OpenBLAS (``grid._lapack``);
only where numpy ships none does the first solve load scipy's
``cython_lapack`` extension, and with it a second OpenBLAS and a second
pool.  So
importing the package sets ``OPENBLAS_NUM_THREADS=1`` before numpy
loads, unless one of the variables OpenBLAS reads (``_THREAD_VARS``)
already names a thread count: set any of them to choose another.  The
variable stays set for the rest of the process, so scipy's OpenBLAS,
where it loads, reads it too, and so does any BLAS library the caller
loads later and every child process the caller starts.
``_THREADS_DEFAULTED`` records whether the package set it.
"""

import os as _os

# the variables OpenBLAS reads, once, when it loads, in this order
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
_THREADS_DEFAULTED = not any(_os.environ.get(name) for name in _THREAD_VARS)
if _THREADS_DEFAULTED:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.1.0"

from .errors import (
    BoundaryContact,
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
from .grid import Grid, ScalarField
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
    continuity_residual,
    entropy_rate_check,
    evolve,
    hj_residual,
    madelung_window,
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
    thermalized_qp,
    vanishing_qp_residual,
)

__all__ = [name for name in dir() if not name.startswith("_")]
