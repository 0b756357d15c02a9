"""Complex Gamma function, Stirling asymptotics, pole data, the Beta function,
and exact Bernoulli numbers.

Complex points are plain ``complex`` values throughout the package; every
function returns finite values or raises a named error (no NaN/inf escapes).
"""
import cmath
import math
from fractions import Fraction

from ._backend import kernels
from ._kernel_constants import BERNOULLI_FRACTIONS, BERNOULLI_MAX_INDEX
from .errors import (IndexBeyondTable, PoleProximity, SectorViolation,
                     overflow_checked, require_finite)

__all__ = [
    "POLE_GUARD", "BERNOULLI_MAX_INDEX", "log_gamma", "gamma",
    "stirling_main_term", "stirling_defect", "gamma_pole_residue", "bernoulli",
    "beta", "nearest_gamma_pole",
]

# complex distance below which Gamma arguments are rejected; keeps condition
# numbers of every downstream identity below ~1e8 at binary64
POLE_GUARD = 1e-6
SECTOR_DELTA = 0.01  # the Stirling sector is |arg z| < pi - SECTOR_DELTA

_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def nearest_gamma_pole(z):
    """The nonpositive integer closest to z (Gamma's only poles)."""
    z = complex(z)
    require_finite(z=z)
    return complex(min(0, round(z.real)))


def _guard(z):
    z = complex(z)
    pole = nearest_gamma_pole(z)
    if abs(z - pole) <= POLE_GUARD:
        raise PoleProximity(z, pole)
    return z


def log_gamma(z):
    """log Gamma on the continuous lift that is real for real z > 0."""
    return overflow_checked(kernels.loggamma, _guard(z))


def gamma(z):
    return overflow_checked(kernels.gamma, _guard(z))


def stirling_main_term(z):
    """(z - 1/2) log z - z + log sqrt(2 pi), the leading Stirling term.

    Rejects arguments with |arg z| >= pi - SECTOR_DELTA, next to the negative
    real axis, where the asymptotic sector ends.
    """
    z = complex(z)
    require_finite(z=z)
    if z == 0.0 or abs(cmath.phase(z)) >= math.pi - SECTOR_DELTA:
        raise SectorViolation(
            f"arg({z}) outside the Stirling sector |arg z| < pi - {SECTOR_DELTA}")
    return (z - 0.5) * cmath.log(z) - z + _HALF_LOG_TWO_PI


def stirling_defect(z):
    """log_gamma minus the main term; O(1/|z|) on the Stirling sector
    |arg z| < pi - SECTOR_DELTA."""
    return log_gamma(z) - stirling_main_term(z)


def gamma_pole_residue(n):
    """Residue of Gamma at z = -n, namely (-1)^n / n!."""
    require_finite(n=n)
    if n < 0 or n != int(n):
        raise ValueError("pole index must be a nonnegative integer")
    n = int(n)
    return float(Fraction((-1) ** n, math.factorial(n)))


def bernoulli(n):
    """Exact Bernoulli number B_n as a Fraction (B_1 = -1/2 convention)."""
    if n != int(n):
        raise ValueError("Bernoulli index must be an integer")
    if not 0 <= n <= BERNOULLI_MAX_INDEX:
        raise IndexBeyondTable(
            f"Bernoulli table holds B_0..B_{BERNOULLI_MAX_INDEX}, got {n}")
    return BERNOULLI_FRACTIONS[int(n)]


def bernoulli_table():
    """The whole exact table B_0..B_64, read-only."""
    return BERNOULLI_FRACTIONS


def beta(x, y):
    """Euler Beta via the log-Gamma lift: exp(lg(x) + lg(y) - lg(x+y))."""
    x, y = complex(x), complex(y)
    return overflow_checked(cmath.exp,
                            log_gamma(x) + log_gamma(y) - log_gamma(x + y))
