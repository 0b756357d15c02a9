"""Error taxonomy. Every numerical failure mode is a named exception so the
CLI can print the error name and offending parameters."""
import cmath


class MBZetaError(Exception):
    """Base class for all package errors."""


class PoleProximity(MBZetaError):
    def __init__(self, z, nearest_pole):
        self.z = z
        self.nearest_pole = nearest_pole
        super().__init__(f"argument {z} within guard distance of pole {nearest_pole}")


class SectorViolation(MBZetaError):
    pass


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
