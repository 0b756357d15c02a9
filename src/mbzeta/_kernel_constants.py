"""Numeric tables shared by the compiled and pure-Python kernel backends.

Everything here is derived from exact rational arithmetic at import time (no
typed-in decimal literals to drift), except the Gauss-Kronrod nodes/weights,
which are the standard QUADPACK dqk15 constants.
"""
import math
from fractions import Fraction

__all__ = [
    "BERNOULLI_FRACTIONS", "BERNOULLI_MAX_INDEX", "STIRLING_COEFFS",
    "EM_COEFFS", "GK_NODES", "GK_WEIGHTS", "GAUSS_WEIGHTS",
]

BERNOULLI_MAX_INDEX = 64


def _bernoulli_fractions(n_max):
    # Brent & Harvey's TangentNumbers (2013): the integer recurrence below
    # leaves the tangent numbers T_1..T_m in t, and then
    # B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)); B_1 = -1/2, other odd B_n = 0.
    m = n_max // 2
    t = [0, 1] + [0] * (m - 1)
    for k in range(2, m + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, m + 1):
        for j in range(k, m + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    table = [Fraction(1), Fraction(-1, 2)] + [Fraction(0)] * (n_max - 1)
    for k in range(1, m + 1):
        table[2 * k] = Fraction((-1) ** (k - 1) * 2 * k * t[k], 4 ** k * (4 ** k - 1))
    return tuple(table)


BERNOULLI_FRACTIONS = _bernoulli_fractions(BERNOULLI_MAX_INDEX)

# B_{2k} / (2k (2k-1)), k = 1..10: the Stirling-series correction coefficients.
STIRLING_COEFFS = tuple(
    float(BERNOULLI_FRACTIONS[2 * k] / (2 * k * (2 * k - 1))) for k in range(1, 11)
)

# B_{2k} / (2k)!, k = 1..16: Euler-Maclaurin correction coefficients.
EM_COEFFS = tuple(
    float(BERNOULLI_FRACTIONS[2 * k] / math.factorial(2 * k)) for k in range(1, 17)
)

# QUADPACK dqk15: 15-point Kronrod nodes on [-1, 1] (nonnegative half) with the
# embedded 7-point Gauss rule on the odd-indexed nodes.
GK_NODES = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
GK_WEIGHTS = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
GAUSS_WEIGHTS = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)
