"""Exception types raised across the library.

Plain division by zero raises the builtin ZeroDivisionError; everything
else that represents a violated contract gets a named class here so
callers can catch precisely.
"""


class EulerPadeError(Exception):
    """Base class for all library-specific errors."""


class FieldMismatchError(EulerPadeError, ValueError):
    """Two elements of different fields were combined."""


class InvalidPrimeError(EulerPadeError, ValueError):
    """A prime was expected."""


class ZeroElementError(EulerPadeError, ValueError):
    """A nonzero element was expected (valuations of 0 are undefined)."""


class NotSplitError(EulerPadeError, ValueError):
    """No square root of d exists in Z_p (or p = 2 is excluded)."""


class PrecisionCapError(EulerPadeError, RuntimeError):
    """The working-precision cap was reached before the result settled."""


class BoundChainError(EulerPadeError, RuntimeError):
    """The bound chain failed one of its own consistency checks."""


class NoConvergenceError(EulerPadeError, RuntimeError):
    """No term of the series cleared the precision target within n_max."""


class RepeatedAlphaError(EulerPadeError, ValueError):
    """Evaluation points must be pairwise distinct."""


class ZeroAlphaError(EulerPadeError, ValueError):
    """Evaluation points must be nonzero."""


class CutoffTooSmallError(EulerPadeError, ValueError):
    """Series cutoff too short to witness the claimed remainder order."""


class DegeneratePolynomialError(EulerPadeError, ValueError):
    """The coefficient polynomial must have degree exactly one."""


class AllLambdaZeroError(EulerPadeError, ValueError):
    """The coefficient vector of the linear form must not vanish."""


class UnsupportedDescriptorError(EulerPadeError, ValueError):
    """This valuation-set descriptor kind is not accepted here."""


class HeightTooSmallError(EulerPadeError, ValueError):
    """log H is below the admissible threshold s*e^s."""


class InvalidModulusError(EulerPadeError, ValueError):
    """The residue-class modulus must be an integer >= 3."""


class RepeatedRootsError(EulerPadeError, ValueError):
    """The characteristic polynomial has a repeated root."""


class OrderUnsupportedError(EulerPadeError, ValueError):
    """Only recurrences of order at most two are reduced."""
