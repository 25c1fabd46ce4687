"""Exception types shared across the package."""


class PolysafeError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(PolysafeError, ValueError):
    """Operands have inconsistent dimensions."""


class UnboundedSetError(PolysafeError):
    """A polyhedron is unbounded along some direction (not a C-set)."""


class EmptySetError(PolysafeError):
    """A polyhedron has no feasible point (or no feasible vertex)."""


class DimensionTooLargeError(PolysafeError):
    """Exact vertex enumeration is only supported for dimension <= 3."""


class MalformedProgramError(PolysafeError, ValueError):
    """A linear program references undeclared blocks or has bad shapes."""


class SolverStalledError(PolysafeError):
    """The simplex reached its pivot cap before reaching a verdict."""


class NumericalInstabilityError(PolysafeError, ArithmeticError):
    """A solve finished but its solution does not replay within tolerance.

    Typically the constraint system is so ill-conditioned (near-singular
    basis, nearly inconsistent equalities) that double precision cannot
    distinguish feasibility; the outcome is refused rather than returned.
    """


class TooFewSamplesError(PolysafeError, ValueError):
    """An experiment is shorter than the identifiability floor."""


class TrajectoryDivergedError(PolysafeError):
    """An excitation trajectory left the allowed region during collection."""


class DisturbanceOutOfBoundsError(PolysafeError, ValueError):
    """A disturbance sample exceeds the plant's stated bound."""


class RankDeficientDataError(PolysafeError):
    """Collected data fails the rank condition required by a design method."""

    def __init__(self, message, diagnostic=None):
        super().__init__(message)
        self.diagnostic = diagnostic


class InconsistentDataError(PolysafeError):
    """Collected data do not fit a noiseless plant of the dictionary's form,
    so a design method that assumes noiseless data cannot certify from them."""


class SynthesisInfeasibleError(PolysafeError):
    """The synthesis program admits no solution, or none at the requested level."""

    def __init__(self, message, outcome=None):
        super().__init__(message)
        self.outcome = outcome


class ScenarioValidationError(PolysafeError, ValueError):
    """A scenario file is malformed; the message carries the field path."""
