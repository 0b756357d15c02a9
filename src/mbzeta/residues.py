"""Pole enumeration and closed-form residues for the three integrand families,
a small-circle numerical residue oracle, and the asymptotic tail study that
witnesses the divergence of the infinite residue series.

Left pole field, on the real axis, of Gamma(z) zeta(z)^i:
    i = 0 (gamma_power)   simple poles at 0, -1, -2, ... (Gamma factor)
    i = 1 (zeta families) zeta pole at 1, Gamma pole at 0, and combined poles
                          at negative odd integers; negative even integers
                          are regular because the trivial zeta zeros cancel
                          them.
Rectangle residue sums cover this field only, and a rectangle that reaches
the right field of Gamma(s-z) zeta(s-z)^j raises; no code path computes
the right field's residues.
"""
import cmath
import math
from dataclasses import dataclass

from ._backend import kernels
from .contour import _bound_integrand, _nested_trapezoid, _residue
from .errors import (DomainViolation, NotAPole, OverflowRegime, PoleOnBoundary,
                     PoleOnCircle, require_finite, require_tol)
from .specfun import POLE_GUARD
from .zeta import DEFAULT_CONFIG, _bound_zeta, zeta_negative_integer

__all__ = [
    "ZETA_POLE", "GAMMA_POLE", "ODD_COMBINED", "PoleLocation", "ResidueTerm",
    "TailStudy", "classify_pole", "enumerate_poles", "residue_at",
    "numerical_residue", "asymptotic_tail_terms",
]

ZETA_POLE = "ZetaPole"
GAMMA_POLE = "GammaPole"
ODD_COMBINED = "OddCombined"


@dataclass(frozen=True)
class PoleLocation:
    position: int
    kind: str


@dataclass(frozen=True)
class ResidueTerm:
    location: PoleLocation
    value: complex


@dataclass(frozen=True)
class TailStudy:
    """Terms t_m of the infinite residue series for m = 0..M.

    min_index: index of the smallest |t_m|; growth_onset: smallest m0 with
    |t_m| strictly increasing for all m >= m0 in range. The series diverges
    (Gamma growth beats the (2pi)^{2m} decay of zeta at negative odd
    integers), which is exactly what this table documents.
    """
    s: complex
    terms: tuple
    min_index: int
    growth_onset: int


def classify_pole(f, position):
    """PoleLocation for a left-field pole position, or NotAPole: the pole at
    1 is zeta's, those below 0 are combined when i = 1, and the rest are
    Gamma's."""
    if not f.is_pole(position):
        raise NotAPole(f"z = {position} is not a pole of {f.tag}")
    n = int(position)
    if n == 1:
        kind = ZETA_POLE
    elif n < 0 and f.shape[0]:
        kind = ODD_COMBINED
    else:
        kind = GAMMA_POLE
    return PoleLocation(n, kind)


def enumerate_poles(f, rect):
    """Left-field poles strictly inside the rectangle, ascending by position.

    A rectangle that reaches a right-field pole raises DomainViolation, as
    its residue sum would miss that pole, and one that encloses a pole whose
    residue overflows binary64 raises OverflowRegime.
    """
    right, left = rect.c, rect.left
    # the right-field poles around the right edge hold the rightmost one
    # left of it, and any in reach do if one does
    for p in f.poles_around(right, right + POLE_GUARD)[1]:
        if (left - POLE_GUARD <= p.real <= right + POLE_GUARD
                and abs(p.imag) <= rect.T + POLE_GUARD):
            raise DomainViolation(
                f"rectangle reaches the right-field pole at {p}; residue sums "
                f"cover the left field only")
    for edge in (right, left):
        n = round(edge)
        if f.is_pole(n) and abs(edge - n) <= POLE_GUARD:
            raise PoleOnBoundary(f"pole at {n} lies on the rectangle edge {edge}")
    if rect.T <= POLE_GUARD:
        raise PoleOnBoundary("rectangle height too small to clear real-axis poles")
    lo, hi = left + POLE_GUARD, right - POLE_GUARD
    _require_finite_residues(f, lo, hi)
    return [classify_pole(f, n) for n in f.poles(lo, hi)]


def _require_finite_residues(f, lo, hi):
    """Raise OverflowRegime if a left pole in [lo, hi] has a residue beyond
    binary64, looking at the lowest one only: the residue at n is a multiple
    of Gamma(s - n), which overflows for Re(s - n) > 170. Callers run it
    before listing the poles, which a wide range would make billions of."""
    lowest = f.poles(lo, min(lo + 2.0, hi))
    if lowest and f.s.real - lowest[0] > 170.0:
        raise OverflowRegime(
            f"the residue at the pole {lowest[0]} overflows binary64")


def residue_at(f, p):
    """Closed-form residue of the family integrand at the pole p.

    p may be a PoleLocation or a bare integer position.
    """
    if not isinstance(p, PoleLocation):
        p = classify_pole(f, p)
    elif not f.is_pole(p.position) or classify_pole(f, p.position).kind != p.kind:
        raise NotAPole(f"{p} is not a pole of {f.tag}")
    return ResidueTerm(p, _residue(f, round(p.position)))


def numerical_residue(f, z0, radius=0.3, tol=1e-10):
    """(1/2*pi*i) integral over the counterclockwise circle |z - z0| = radius.

    Independent oracle for residue_at: trapezoid sums on the circle converge
    geometrically for analytic integrands, so the point count doubles until
    two successive levels agree within tol. Equals the residue when z0 is the
    only enclosed pole, and 0 over regular points.
    """
    z0 = complex(z0)
    require_finite(z0=z0, radius=radius)
    if radius <= 0.0:
        raise DomainViolation("radius must be positive")
    require_tol(tol)
    # if the second nearest pole is beyond the circle, so is every other
    enclosed = []
    left, right = f.poles_around(z0.real, z0.real)
    for p in sorted(left + right, key=lambda p: abs(z0 - p))[:2]:
        d = abs(z0 - p)
        if abs(d - radius) <= POLE_GUARD:
            raise PoleOnCircle(f"pole at {p} within {POLE_GUARD} of the circle")
        if d < radius:
            enclosed.append(p)
    # the disk may contain at most the candidate pole at/near z0 itself
    if len(enclosed) > 1:
        raise PoleOnCircle(f"disk around {z0} encloses multiple poles {enclosed}")
    fn = _bound_integrand(f)

    def term(j, n):
        w = cmath.exp(2j * math.pi * j / n)
        v = fn(z0 + radius * w) * radius * w
        return v, abs(v)

    # 16 nodes to start, doubled up to the 16384 of the finest grid
    value, _, _ = _nested_trapezoid(term, 16, 16, 1.0, tol, 16384,
                                    "circle quadrature")
    return value


def asymptotic_tail_terms(s, M=20):
    """Terms t_m = zeta(-2m-1) zeta(s+2m+1) Gamma(s+2m+1) / (2m+1)!, m = 0..M.

    |t_m| eventually grows without bound; the study reports where the minimum
    sits and where monotone growth sets in.
    """
    s = complex(s)
    require_finite(s=s)
    if s.real <= 2.0:
        raise DomainViolation(f"tail study needs Re(s) > 2, got {s}")
    if not 0 <= M <= 30:
        raise DomainViolation(f"M must be within 0..30, got {M}")
    if s.real + 2 * M + 1 > 170.0:
        raise OverflowRegime(f"Gamma(s + {2 * M + 1}) overflows binary64")
    zeta = _bound_zeta(DEFAULT_CONFIG)
    terms = []
    for m in range(M + 1):
        w = s + (2 * m + 1)
        t = (float(zeta_negative_integer(2 * m + 1)) * zeta(w)
             * cmath.exp(kernels.loggamma(w)) / math.factorial(2 * m + 1))
        terms.append(t)
    mags = [abs(t) for t in terms]
    min_index = mags.index(min(mags))
    growth_onset = M
    for m0 in range(M, -1, -1):
        if all(mags[i + 1] > mags[i] for i in range(m0, M)):
            growth_onset = m0
    return TailStudy(s, tuple(terms), min_index, growth_onset)
