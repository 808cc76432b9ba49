"""Exception types raised by the computational modules.

Every contract violation gets its own class so callers (and the CLI exit-code
mapping) can tell input problems, precondition failures and genuine numerical
breakdowns apart.
"""


class FramebenchError(Exception):
    """Base class for all library errors."""

    exit_code = 4  # command-line exit status: precondition failure


class NonSquareError(FramebenchError):
    """A square matrix was required."""


class NonHermitianError(FramebenchError):
    """Hermitian symmetry violated beyond the absolute tolerance."""


class NotPositiveDefiniteError(FramebenchError):
    """Smallest eigenvalue at or below the positive-definiteness tolerance."""


class NumericalFailureError(FramebenchError):
    """An underlying dense solver failed to converge."""

    exit_code = 3  # numerical failure


class DimensionMismatchError(FramebenchError):
    """Operands live in incompatible dimensions."""


class NotAFrameError(FramebenchError):
    """Lower frame bound is numerically zero at this truncation."""


class NotRieszBasisError(FramebenchError):
    """Family is not square/full-rank enough to act as a Riesz basis."""


class LadderTooShortError(FramebenchError):
    """A truncation ladder needs at least two strictly increasing sizes."""


class BadExponentError(FramebenchError):
    """Polynomial-decay exponent outside the admissible range."""


class InsufficientDataError(FramebenchError):
    """Too few nonzero off-diagonal offsets to fit a decay exponent."""


class PerturbationViolationError(FramebenchError):
    """A sampling point strays further from its integer than the stated bound."""


class NotSeparatedError(FramebenchError):
    """Two sampling points closer than the separation threshold."""


class GeneratorUnsuitableError(FramebenchError):
    """Generator fails the decay or stable-shifts requirements."""


class PreconditionEvidenceError(FramebenchError):
    """Reference family failed its Riesz-basis or localization evidence check."""
