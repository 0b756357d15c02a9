"""Complex Gamma function, the Beta function, and exact Bernoulli numbers.

Complex points are plain ``complex`` values throughout the package; every
function returns finite values or raises a named error (no NaN/inf escapes).
"""
import cmath

from ._backend import kernels
from ._kernel_constants import BERNOULLI_FRACTIONS, BERNOULLI_MAX_INDEX
from .errors import (DomainViolation, IndexBeyondTable, PoleProximity,
                     overflow_checked, require_finite)

__all__ = [
    "POLE_GUARD", "BERNOULLI_MAX_INDEX", "log_gamma", "gamma", "bernoulli",
    "beta",
]

# complex distance below which Gamma arguments are rejected; keeps condition
# numbers of every downstream identity below ~1e8 at binary64
POLE_GUARD = 1e-6


def _guard(z):
    z = complex(z)
    require_finite(z=z)
    pole = complex(min(0, round(z.real)))  # the nearest of Gamma's poles
    if abs(z - pole) <= POLE_GUARD:
        raise PoleProximity(z, pole)
    return z


def log_gamma(z):
    """log Gamma on the continuous lift that is real for real z > 0."""
    return overflow_checked(kernels.loggamma, _guard(z))


def gamma(z):
    return overflow_checked(kernels.gamma, _guard(z))


def bernoulli(n):
    """Exact Bernoulli number B_n as a Fraction (B_1 = -1/2 convention)."""
    if not isinstance(n, int):
        require_finite(n=n)
        if n != int(n):
            raise DomainViolation(f"Bernoulli index must be an integer, got {n}")
        n = int(n)
    if not 0 <= n <= BERNOULLI_MAX_INDEX:
        raise IndexBeyondTable(
            f"Bernoulli table holds B_0..B_{BERNOULLI_MAX_INDEX}, got {n}")
    return BERNOULLI_FRACTIONS[n]


def beta(x, y):
    """Euler Beta via the log-Gamma lift: exp(lg(x) + lg(y) - lg(x+y))."""
    x, y = complex(x), complex(y)
    return overflow_checked(cmath.exp,
                            log_gamma(x) + log_gamma(y) - log_gamma(x + y))
