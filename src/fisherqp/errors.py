"""Exception types shared across the toolkit.

Every failure mode that callers are expected to branch on gets its own
class; anything else surfaces as a plain ValueError.  ``NonFinite`` is
both: a malformed input where handed in, a numerical failure where computed.
"""


class FisherQPError(Exception):
    """Base class for all toolkit-specific errors."""


class NegativeDensity(FisherQPError):
    """Raw density samples fall below the negative-noise floor (-1e-14)."""


class ZeroMass(FisherQPError):
    """Density samples integrate to a non-positive number."""


class TruncationError(FisherQPError):
    """A density carries non-negligible mass at the grid endpoints.

    Raised when the endpoint values exceed 1e-12 * max(P); the grid is a
    stand-in for an unbounded domain, so endpoint mass invalidates every
    integration-by-parts step downstream.
    """


class BoundaryContact(FisherQPError):
    """An evolving field has reached the grid walls."""


class InfeasibleTarget(FisherQPError):
    """A constraint target lies outside the range of the constraint function."""


class NonDecaying(FisherQPError):
    """A solver produced a density that fails the endpoint-decay check."""


class EdgeLocalized(FisherQPError):
    """An eigenproblem ground state is concentrated at the grid walls,
    signalling an unbound continuum problem (e.g. an inverted potential)."""


class DegenerateGround(FisherQPError):
    """The two lowest eigenvalues are numerically indistinguishable."""


class TooFewPoints(FisherQPError):
    """A sweep table has too few records for differencing."""


class NonMonotoneMeanA(FisherQPError):
    """The constraint average is not strictly monotone across a sweep,
    so the Legendre inversion is ill-posed."""


class DegenerateSupport(FisherQPError):
    """A density's support has too few points for the derivatives its
    checks take."""


class NonFinite(FisherQPError, ValueError):
    """A field holds an infinity or a NaN."""
