"""Pure-Python scalar kernels: log-gamma, gamma, zeta, and line integrands.

Twin of the optional compiled module ``_core``; the two must stay in lockstep
(the test suite runs the same battery against both). Domain guards live in the
public wrapper modules, not here: kernels assume admissible input.
"""
import cmath
import math

from ._kernel_constants import EM_COEFFS, STIRLING_COEFFS

BACKEND_NAME = "python"

_LOG_PI = math.log(math.pi)
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)
_LOG_TWO_PI = math.log(2.0 * math.pi)
_UNIT_ROUNDOFF = 2.0 ** -53
# sector where the 10-term Stirling series is used directly
_ASYM_RADIUS = 16.0


def _loggamma_asym(z):
    # Stirling series with B_{2k}/(2k(2k-1)) corrections; |z| >= 16, Re z >= 0.5.
    rz2 = 1.0 / (z * z)
    acc = complex(STIRLING_COEFFS[9])
    for k in (8, 7, 6, 5, 4, 3, 2, 1, 0):
        acc = acc * rz2 + STIRLING_COEFFS[k]
    return (z - 0.5) * cmath.log(z) - z + _HALF_LOG_TWO_PI + acc / z


def _logsinpi(z):
    # log sin(pi z) on the branch continuous for Im z >= 0:
    # sin(pi z) = e^{-i pi z} (1 - e^{2 i pi z}) / (2i)
    return (-math.log(2.0) + 0.5j * math.pi) - 1j * math.pi * z + cmath.log(
        1.0 - cmath.exp(2j * math.pi * z))


def loggamma(z):
    """Principal-lift log Gamma (real on the positive real axis)."""
    z = complex(z)
    if z.imag < 0.0:
        return loggamma(z.conjugate()).conjugate()
    if z.real < 0.5:
        r = _LOG_PI - _logsinpi(z) - loggamma(1.0 - z)
        if z.imag == 0.0 and z.real > 0.0:
            # Gamma > 0 on (0, 1/2): kill the reflection's rounding residue
            r = complex(r.real, 0.0)
        return r
    shift = 0j
    while abs(z) < _ASYM_RADIUS:
        shift += cmath.log(z)
        z += 1.0
    return _loggamma_asym(z) - shift


def gamma(z):
    z = complex(z)
    if z.real < 0.5:
        # reflection keeps the exponent argument in the Stirling half-plane
        return math.pi / (cmath.sin(math.pi * z) * cmath.exp(loggamma(1.0 - z)))
    return cmath.exp(loggamma(z))


def zeta_em(s, a, n_terms, order):
    """sum_{n=0}^{n_terms-1} (n+a)^{-s} plus the Euler-Maclaurin tail at n_terms+a.

    The tail's Bernoulli corrections stop at order, or after the first one
    below 2^-53 of the running sum.
    """
    s = complex(s)
    acc = 0j
    for n in range(n_terms):
        acc += (n + a) ** (-s)
    x = n_terms + a
    xs = x ** (-s)
    acc += xs * x / (s - 1.0) + 0.5 * xs
    poch = s
    pw = xs / x
    for k in range(1, order // 2 + 1):
        term = EM_COEFFS[k - 1] * poch * pw
        acc += term
        if abs(term) < _UNIT_ROUNDOFF * abs(acc):
            break
        poch *= (s + (2 * k - 1)) * (s + 2 * k)
        pw /= x * x
    return acc


def riemann_zeta(s, em_min=16, em_per_im=0.5, order=32, reflect_below=0.5):
    s = complex(s)
    if s == 0.0:
        return complex(-0.5)  # reflection path would hit the zeta pole
    if s.real >= reflect_below:
        n = max(em_min, math.ceil(em_per_im * abs(s.imag)))
        return zeta_em(s, 1.0, n - 1, order)
    w = 1.0 - s
    pref = 2.0 * cmath.exp((s - 1.0) * _LOG_TWO_PI) * cmath.sin(0.5 * math.pi * s)
    return pref * cmath.exp(loggamma(w)) * riemann_zeta(
        w, em_min, em_per_im, order, reflect_below)


def hurwitz_zeta(s, a, em_min=16, em_per_im=0.5, order=32):
    s = complex(s)
    n = max(em_min, math.ceil(em_per_im * abs(s.imag)))
    return zeta_em(s, a, n, order)


# integrand family tags
TAG_GAMMA_POWER = 0
TAG_ZETA_ZETA_GAMMA = 1
TAG_ZETA_GAMMA_POWER = 2


def integrand(tag, s, p, z, em_min=16, em_per_im=0.5, order=32, reflect_below=0.5):
    """Meromorphic line integrands.

    tag 0: Gamma(z) Gamma(s-z) u^{-z}            (p = u)
    tag 1: zeta(z) zeta(s-z) Gamma(z) Gamma(s-z) (p unused)
    tag 2: zeta(z) Gamma(z) Gamma(s-z) (a-1)^{z-s} (p = a)

    The gamma and power factors share one exponent so that their separate
    over/underflows cancel before exponentiation.
    """
    s = complex(s)
    z = complex(z)
    expo = loggamma(z) + loggamma(s - z)
    if tag == TAG_GAMMA_POWER:
        return cmath.exp(expo - z * math.log(p))
    if tag == TAG_ZETA_ZETA_GAMMA:
        return (riemann_zeta(z, em_min, em_per_im, order, reflect_below)
                * riemann_zeta(s - z, em_min, em_per_im, order, reflect_below)
                * cmath.exp(expo))
    if tag == TAG_ZETA_GAMMA_POWER:
        return (riemann_zeta(z, em_min, em_per_im, order, reflect_below)
                * cmath.exp(expo + (z - s) * math.log(p - 1.0)))
    raise ValueError(f"unknown integrand tag {tag}")
