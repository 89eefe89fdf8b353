"""Exception types raised across the package.

Every validation error names the violated property and, where meaningful,
carries the measured residual in its message.
"""

import math
from typing import Callable


def _shown(value: object, form: Callable[[object], str] = str) -> str:
    """form(value) for an error message; Python refuses str() of an integer over 4,300 digits."""
    try:
        return form(value)
    except ValueError:
        if isinstance(value, int):
            digits = math.floor(math.log10(abs(value))) + 1
            return f"{'a negative' if value < 0 else 'an'} integer of about {digits} digits"
        return f"a {type(value).__name__} holding an integer too long to print"


class NmecutError(Exception):
    """Base class for all package errors."""


class NotHermitianError(NmecutError):
    """Matrix is not Hermitian within tolerance."""


class NotUnitTraceError(NmecutError):
    """Matrix trace differs from 1 beyond tolerance."""


class NotPositiveError(NmecutError):
    """Matrix has an eigenvalue below the positivity floor."""


class NotUnitaryError(NmecutError):
    """Matrix is not unitary within tolerance."""


class NotTracePreservingError(NmecutError):
    """Kraus set does not satisfy sum(K^dag K) = I within tolerance."""


class DimensionMismatchError(NmecutError):
    """Operand dimensions are incompatible."""


class InvalidParameterError(NmecutError):
    """Parameter outside its admissible domain (negative, non-finite, ...)."""


class OutOfRangeError(InvalidParameterError):
    """Scalar argument outside its documented range."""


class InvalidObservableError(NmecutError):
    """Observable does not have the required +/-1 eigenvalues."""


class InvalidProbabilityError(NmecutError):
    """Computed outcome probability falls outside [0, 1] beyond tolerance."""


class ZeroShotsError(NmecutError):
    """An estimator was asked to run with no shots."""
