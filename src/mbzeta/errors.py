"""Error taxonomy. Every numerical failure mode is a named exception so the
CLI can print the error name and offending parameters."""
import cmath
import math


class MBZetaError(Exception):
    """Base class for all package errors."""


class PoleProximity(MBZetaError):
    def __init__(self, z, nearest_pole):
        self.z = z
        self.nearest_pole = nearest_pole
        super().__init__(f"argument {z} within guard distance of pole {nearest_pole}")


class IndexBeyondTable(MBZetaError):
    pass


class OverflowRegime(MBZetaError):
    pass


class DomainViolation(MBZetaError):
    pass


def require_finite(**values):
    """Raise DomainViolation naming the first NaN or infinite argument."""
    for name, value in values.items():
        if not cmath.isfinite(value):
            raise DomainViolation(f"{name} must be finite, got {value!r}")


def require_tol(tol):
    """Raise DomainViolation unless the quadrature target tol is positive and
    finite; any other value would spend the whole evaluation budget."""
    if not 0.0 < tol < math.inf:
        raise DomainViolation(f"tol must be positive and finite, got {tol}")


def overflow_checked(kernel, *args):
    """kernel(*args) from finite args, with binary64 overflow (an
    OverflowError, an infinite or NaN value, or the ValueError cmath raises
    when an intermediate is no longer finite) raised as OverflowRegime."""
    try:
        value = kernel(*args)
    except (OverflowError, ValueError):
        value = math.inf
    if not cmath.isfinite(value):
        raise OverflowRegime(f"{kernel.__name__} overflows binary64 at "
                             + ", ".join(map(str, args)))
    return value


class ToleranceUnreachable(MBZetaError):
    def __init__(self, message, partial_value=None, evaluations=0):
        self.partial_value = partial_value
        self.evaluations = evaluations
        super().__init__(message)


class PoleOnPath(MBZetaError):
    pass


class PoleOnBoundary(MBZetaError):
    pass


class PoleOnCircle(MBZetaError):
    pass


class NotAPole(MBZetaError):
    pass


class UnknownCaseKind(MBZetaError):
    pass


class ConfigError(MBZetaError):
    pass


class UsageError(MBZetaError):
    """Command-line usage problems; maps to exit code 2."""
