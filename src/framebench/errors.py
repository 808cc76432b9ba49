"""Exception types raised by the computational modules.

Every contract violation gets its own class, raised once, where the violating
input or matrix is built (not again by the kernels that take it as given),
so callers can tell input problems, precondition failures and genuine
numerical breakdowns apart.  Each
class states its command-line exit status once, as ``exit_code``: 2 input
error, 3 numerical failure, 4 precondition failure (the default).

``InputError`` is the one exit-2 class, and the other input errors derive
from it.  Every input error is a ``ValueError``: the command line maps any
``ValueError``, a malformed config value included, to exit 2.
"""


class FramebenchError(Exception):
    """Base class for all library errors."""

    exit_code = 4  # command-line exit status: precondition failure


class InputError(FramebenchError, ValueError):
    """Malformed input: a config, file or argument the computation cannot take."""

    exit_code = 2  # input error


class NonSquareError(FramebenchError):
    """A square matrix was required."""


class NonHermitianError(FramebenchError):
    """Hermitian symmetry violated beyond the tolerance relative to the entries."""


class NumericalFailureError(FramebenchError):
    """The arithmetic broke down: a dense solver did not converge, a banded
    Cholesky factorization or solve failed, a result left the float range,
    or no eigenvalue bracket fits inside it."""

    exit_code = 3  # numerical failure


class DimensionMismatchError(InputError):
    """Operands live in incompatible dimensions."""


class LadderTooShortError(InputError):
    """A truncation ladder needs at least two strictly increasing sizes, each
    large enough for the computation that uses it."""


class BadExponentError(InputError):
    """Polynomial-decay exponent outside the admissible range."""


class PerturbationViolationError(FramebenchError):
    """A sampling point strays further from its integer than the stated bound."""


class NotSeparatedError(FramebenchError):
    """Two sampling points closer than the separation threshold."""


class GeneratorUnsuitableError(FramebenchError):
    """Generator breaks its decay claim, or its symbol minimum is not certified above tol."""


class PreconditionEvidenceError(FramebenchError):
    """Reference family failed its Riesz-basis or localization evidence check."""


class NotRieszBasisError(PreconditionEvidenceError):
    """Reference family is not square, or its lower Riesz bound is at or
    below the tolerance.  Raised by the reference check that ``rdual`` and
    the battery share, so the battery reports it as precondition evidence."""
