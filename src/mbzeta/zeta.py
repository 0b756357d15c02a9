"""Riemann and Hurwitz zeta on complex arguments, exact zeta values at
negative integers, and an independent truncated double-sum oracle.

Both zeta functions run on one Euler-Maclaurin engine: direct Dirichlet terms
plus an EM tail with Bernoulli corrections; below the critical line the
Riemann function switches to the functional equation. The double-sum oracle
never calls riemann_zeta - it exists to cross-check it.
"""
import math
from dataclasses import dataclass
from fractions import Fraction

from ._backend import kernels
from ._kernel_constants import BERNOULLI_FRACTIONS, BERNOULLI_MAX_INDEX, EM_COEFFS
from .errors import (DomainViolation, IndexBeyondTable, OverflowRegime,
                     PoleProximity, overflow_checked, require_finite,
                     require_tol)
from .specfun import POLE_GUARD

__all__ = [
    "ZetaEvalConfig", "DEFAULT_CONFIG", "riemann_zeta", "hurwitz_zeta",
    "zeta_negative_integer", "double_sum_oracle",
]

# validity window of the EM/reflection evaluation at binary64: beyond these
# heights the reflection prefactors overflow / term counts explode
_IM_MAX_DIRECT = 1.0e5
_IM_MAX_REFLECT = 400.0


# the whole Euler-Maclaurin table: the largest correction_order, and the one
# at which the adaptive term count is N = max(16, ceil(|Im s| / 2))
_FULL_ORDER = 2 * len(EM_COEFFS)


@dataclass(frozen=True)
class ZetaEvalConfig:
    """Evaluation knobs of riemann_zeta; all other paths use DEFAULT_CONFIG.

    em_terms: directly summed Dirichlet terms N; None means the adaptive
        N = ceil(f * max(|Im s|, correction_order)) with
        f = 2^(53/correction_order - 53/32) / 2, so N = max(16, ceil(|Im s|/2))
        at the default cap. The correction of order 2k is about
        (|s + 2k| / (2 pi N))^(2k) of the leading term; f keeps that ratio at
        the cap near 2^-53 for every cap, so a lower cap sums more terms
        (order 12: N = max(41, ceil(3.39 |Im s|))). riemann_zeta refuses a
        fixed N whose first correction beyond the cap exceeds 2^-53 of the
        sum.
    correction_order: cap on the Euler-Maclaurin Bernoulli corrections, even,
        at most 32 (the whole table). The corrections stop earlier, after the
        first one below 2^-53 of the running sum.

    Every path switches to the functional equation for Re(s) below
    reflect_below, a constant 1/2, not a field.
    """
    em_terms: int | None = None
    correction_order: int = _FULL_ORDER
    reflect_below = 0.5

    def __post_init__(self):
        if self.em_terms is not None and self.em_terms < 1:
            raise DomainViolation("em_terms must be >= 1")
        if self.correction_order % 2 or not (
                0 < self.correction_order <= _FULL_ORDER):
            raise DomainViolation(
                f"correction_order must be even and <= {_FULL_ORDER}")
        if self.em_terms is None and self.correction_order < 4:
            # one correction reaches rounding only at N ~ 1.5e7 * |s + 2|
            raise DomainViolation("the adaptive em_terms needs correction_order"
                                  " >= 4; set em_terms for order 2")

    def _term_args(self):
        # kernel encodes "max(em_min, ceil(em_per_im * |Im s|))"
        if self.em_terms is not None:
            return self.em_terms, 0.0
        order = self.correction_order
        per_im = 0.5 * 2.0 ** (53.0 / order - 53.0 / _FULL_ORDER)
        return math.ceil(per_im * order), per_im


DEFAULT_CONFIG = ZetaEvalConfig()


def riemann_zeta(s, cfg=DEFAULT_CONFIG):
    s = complex(s)
    require_finite(s=s)
    if abs(s - 1.0) <= POLE_GUARD:
        raise PoleProximity(s, complex(1.0))
    t = abs(s.imag)
    if t > _IM_MAX_DIRECT or (s.real < cfg.reflect_below and t > _IM_MAX_REFLECT):
        raise OverflowRegime(f"|Im s| = {t} outside the validity window")
    value = overflow_checked(_bound_zeta(cfg), s)
    if cfg.em_terms is not None and s != 0.0:
        # the first correction beyond the cap, B_(cap+2)/(cap+2)! (w)_(cap+1)
        # N^(-w-cap-1) at the argument w the kernel sums at (1 - s on the
        # functional equation's path, none at s = 0), must be within 2^-53
        # of zeta(w); at 0.6+390i and N = 63 it is 3.3e-3 of zeta, and the
        # value 1.7e-2 off
        w = s if s.real >= cfg.reflect_below else 1.0 - s
        cap, n = cfg.correction_order, cfg.em_terms
        omitted = (abs(BERNOULLI_FRACTIONS[cap + 2]) / math.factorial(cap + 2)
                   * n ** -(w.real + cap + 1))
        for m in range(cap + 1):
            omitted *= abs(w + m)
        zeta_w = value if w == s else _bound_zeta(cfg)(w)
        if not omitted <= 2.0 ** -53 * abs(zeta_w):
            raise DomainViolation(
                f"em_terms={n} is too few at s={s}: the first Euler-Maclaurin "
                f"correction beyond correction_order={cap} is {omitted:.2g}, "
                f"above 2^-53 of |zeta({w})| (em_terms=None picks a count for "
                "full accuracy)")
    return value


def _bound_zeta(cfg):
    """The Riemann zeta kernel at cfg's term arguments, complex w -> value.

    No pole or validity-window guard; riemann_zeta adds those.
    """
    em_min, em_per_im = cfg._term_args()
    order, reflect_below = cfg.correction_order, cfg.reflect_below
    kern = kernels.riemann_zeta

    def zeta(w):
        return kern(w, em_min, em_per_im, order, reflect_below)

    return zeta


def hurwitz_zeta(s, a):
    """sum_{n>=0} (n+a)^{-s}, convergent region only (Re s > 1, a >= 1)."""
    s = complex(s)
    require_finite(s=s, a=a)
    if s.real <= 1.0:
        raise DomainViolation(f"hurwitz_zeta needs Re(s) > 1, got {s}")
    if not (a >= 1.0):
        raise DomainViolation(f"hurwitz_zeta needs a >= 1, got a = {a}")
    if abs(s.imag) > _IM_MAX_DIRECT:
        raise OverflowRegime(f"|Im s| = {abs(s.imag)} outside the validity window")
    em_min, em_per_im = DEFAULT_CONFIG._term_args()
    return overflow_checked(kernels.hurwitz_zeta, s, float(a), em_min,
                            em_per_im, DEFAULT_CONFIG.correction_order)


def zeta_negative_integer(n):
    """Exact zeta(-n) = (-1)^n B_{n+1} / (n+1) as a Fraction."""
    if not isinstance(n, int):
        require_finite(n=n)
        if n != int(n):
            raise DomainViolation("n must be a positive integer")
        n = int(n)
    if n < 1:
        raise DomainViolation("n must be a positive integer")
    if n + 1 > BERNOULLI_MAX_INDEX:
        raise IndexBeyondTable(f"need B_{n + 1}, table ends at B_{BERNOULLI_MAX_INDEX}")
    return Fraction(-1) ** n * BERNOULLI_FRACTIONS[n + 1] / (n + 1)


def _em_tail(K, w, order):
    # sum_{n>=K} n^{-w} by Euler-Maclaurin, plus the magnitude of the first
    # omitted correction term as a remainder estimate
    x = float(K)
    xs = x ** (-w)
    if xs == 0.0:
        # every term carries K^-w: the tail underflows, though the Pochhammer
        # factor alone may overflow (inf * 0 would make it NaN)
        return 0j, 0.0
    out = xs * x / (w - 1.0) + 0.5 * xs
    poch = w
    pw = xs / x
    half = order // 2
    for k in range(1, half + 1):
        out += EM_COEFFS[k - 1] * poch * pw
        poch *= (w + (2 * k - 1)) * (w + 2 * k)
        pw /= x * x
    remainder = abs(EM_COEFFS[half] * poch * pw)
    return out, remainder


def double_sum_oracle(s, tol=1e-12):
    """sum over m,n >= 1 of (m+n)^{-s}, rearranged as sum_{k>=2} (k-1) k^{-s}.

    Truncated direct sum plus EM tails for the exponents s-1 and s; K grows
    until the EM remainder estimate is within tol. Independent of
    riemann_zeta by construction.
    """
    s = complex(s)
    require_finite(s=s)
    if s.real <= 2.0:
        raise DomainViolation(f"double_sum_oracle needs Re(s) > 2, got {s}")
    require_tol(tol)
    K = max(20, math.ceil(2.0 * abs(s.imag)))
    order = 12
    while True:
        tail1, rem1 = _em_tail(K, s - 1.0, order)
        tail0, rem0 = _em_tail(K, s, order)
        if rem1 + rem0 <= 0.5 * tol or K > 1_000_000:
            break
        K *= 2
    acc = 0j
    for k in range(2, K):
        acc += (k - 1) * k ** (-s)
    return acc + tail1 - tail0
