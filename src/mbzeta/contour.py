"""Adaptive contour integration for three meromorphic integrand families,
all of one shape,

    Gamma(z) Gamma(s-z) zeta(z)^i zeta(s-z)^j b^(alpha z + beta s):

    family            (i, j, alpha, beta)   b     integrand
    gamma_power       (0, 0, -1,  0)        u     Gamma(z) Gamma(s-z) u^{-z}
    zeta_zeta_gamma   (1, 1,  0,  0)        1     zeta(z) zeta(s-z) Gamma(z) Gamma(s-z)
    zeta_gamma_power  (1, 0,  1, -1)        a-1   zeta(z) Gamma(z) Gamma(s-z) (a-1)^{z-s}

Poles, residues, line strips and tail bounds are read from the shape, never
from the family's name.

The integrals run along vertical lines (with an analytic truncation bound),
straight segments, axis-aligned rectangles, and the positive real axis. The
left poles (of Gamma(z) and zeta(z)^i) lie on the real axis, the right ones
(of Gamma(s-z) and zeta(s-z)^j) at s + n; IntegrandFamily lists both fields,
and every point, path and circle guard asks it.

Segments, rectangle edges and the real axis are one path each of a globally
adaptive 15-point Kronrod / 7-point Gauss walker (QUADPACK's dqagp): its legs
are first cut at the poles within BREAK_REACH and graded geometrically away
from them, then the panel with the largest error is bisected until the errors
of the whole path sum to tol; a tol below FLOOR_FACTOR rounding floors raises.
For real s, f(conj z) = conj f(z): a rectangle walks its upper half, held to
tol/2, and takes the full integral as 2i Im of it.

Vertical lines run a nested trapezoid rule in a mapped variable u, which
converges geometrically in the width of the strip around the real u-axis
where the integrand is analytic. The poles lie on two rows, the left field's
at height 0 and the right field's at Im s; u(y) = asinh(y/a) +
asinh((y - Im s)/b), a and b the distances from the line to each row's
nearest pole, makes that pole the branch point of its own asinh and keeps
every pole at |Im u| >= pi/2, however close the line passes. For real s
the rows coincide and the map is odd, so the line takes its upper half. The
sums also give the rounding floor of the integral: a tol/2 below
FLOOR_FACTOR floors raises ToleranceUnreachable at the first level that
shows it, instead of spending the evaluation budget, and err_estimate adds
KERNEL_ROUNDING floors for the kernels' own rounding.
"""
import cmath
import heapq
import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from ._backend import kernels
from ._kernel_constants import (BERNOULLI_FRACTIONS, GAUSS_WEIGHTS, GK_NODES,
                                GK_WEIGHTS)
from .errors import (DomainViolation, OverflowRegime, PoleOnPath,
                     PoleProximity, ToleranceUnreachable, overflow_checked,
                     require_finite, require_tol)
from .specfun import POLE_GUARD
from .zeta import DEFAULT_CONFIG, _bound_zeta, zeta_negative_integer

__all__ = [
    "GAMMA_POWER", "ZETA_ZETA_GAMMA", "ZETA_GAMMA_POWER",
    "IntegrandFamily", "gamma_power", "zeta_zeta_gamma", "zeta_gamma_power",
    "FAMILY_PARAMS",
    "VerticalLineSpec", "RectangleSpec", "QuadratureResult",
    "integrand_eval", "integrate_vertical", "integrate_segment",
    "integrate_rectangle", "integrate_real_improper",
    "DEFAULT_MAX_EVALUATIONS",
]

GAMMA_POWER = "gamma_power"
ZETA_ZETA_GAMMA = "zeta_zeta_gamma"
ZETA_GAMMA_POWER = "zeta_gamma_power"

TWO_PI = 2.0 * math.pi
EPS = sys.float_info.epsilon
LOG_MAX = math.log(sys.float_info.max)
DEFAULT_MAX_EVALUATIONS = 2_000_000
# a line raises ToleranceUnreachable when tol/2 is below this multiple of
# its trapezoid's rounding floor, a GK path when tol is below this multiple
# of its own. With the check off, on the 240 edge and floor probes of
# perfbench's lines workload (seeds 1-40), the six wrong answers (off by 1.5
# to 12.4 tol) had tol/2 below 3.9 floors; right ones came from 0.68 floors
# up, with errors up to 0.82 tol below 8 floors.
FLOOR_FACTOR = 8.0
# a trapezoid line's err_estimate adds this many rounding floors for the
# kernels' own rounding (~1e-14 relative), which the nested levels share and
# so never show in their difference. Against mpmath at 30 digits, on the
# 1,608 lines of perfbench's lines workload (seeds 201-208, timed and probe
# ops) that returned, the worst error beyond the difference was 59 floors,
# on a real-s line; complex-s lines needed at most 14.
KERNEL_ROUNDING = 64.0
# a GK leg is first cut at the nearest point of each pole within this reach,
# and this far times 2^k from it along the leg. Cuts for poles within 2 got a
# plane rectangle of seed 9 1.16 tol wrong; cuts for every pole took the
# default battery's horizontal decay study from 45 evaluations to 315.
BREAK_REACH = 4.0


@dataclass(frozen=True)
class _Family:
    """A family: its kernel's tag; the parameter it takes besides s, or None;
    what that parameter must satisfy, as a test and in words; the base b it
    gives; and the shape (i, j, alpha, beta) of
    Gamma(z) Gamma(s-z) zeta(z)^i zeta(s-z)^j b^(alpha z + beta s)."""
    kernel_tag: int
    param: str | None
    admits: object
    needs: str
    base: object
    shape: tuple


_FAMILIES = {
    GAMMA_POWER: _Family(kernels.TAG_GAMMA_POWER, "u",
                         lambda u: 0.0 < u <= 1.0, "u in (0, 1]",
                         lambda u: u, (0, 0, -1, 0)),
    ZETA_ZETA_GAMMA: _Family(kernels.TAG_ZETA_ZETA_GAMMA, None, None, "",
                             lambda p: 1.0, (1, 1, 0, 0)),
    ZETA_GAMMA_POWER: _Family(kernels.TAG_ZETA_GAMMA_POWER, "a",
                              lambda a: 2.0 <= a < math.inf, "a finite a >= 2",
                              lambda a: a - 1.0, (1, 0, 1, -1)),
}

# the parameters each family takes besides s, as IntegrandFamily names them
FAMILY_PARAMS = {tag: (row.param,) if row.param else ()
                 for tag, row in _FAMILIES.items()}


@dataclass(frozen=True)
class IntegrandFamily:
    """A family of _FAMILIES at s, with u for gamma_power and a for
    zeta_gamma_power; a zeta factor needs Re(s) > 2."""
    tag: str
    s: complex
    u: float | None = None
    a: float | None = None

    def __post_init__(self):
        s = complex(self.s)
        object.__setattr__(self, "s", s)
        if not (math.isfinite(s.real) and math.isfinite(s.imag)):
            raise DomainViolation("s must be finite")
        if not (isinstance(self.tag, str) and self.tag in _FAMILIES):
            raise DomainViolation(f"unknown family tag {self.tag!r}")
        row = _FAMILIES[self.tag]
        i, j = row.shape[:2]
        if (i or j) and s.real <= 2.0:
            raise DomainViolation(f"{self.tag} needs Re(s) > 2, got {s}")
        for name in ("u", "a"):
            value = getattr(self, name)
            if name == row.param:
                if value is None or not row.admits(value):
                    raise DomainViolation(
                        f"{self.tag} needs {row.needs}, got {value}")
            elif value is not None:
                raise DomainViolation(f"{self.tag} takes no parameter {name}")

    @property
    def param(self):
        """The kernel's parameter: u, a, or 0.0 for a family without one."""
        name = _FAMILIES[self.tag].param
        return getattr(self, name) if name else 0.0

    @property
    def shape(self):
        """(i, j, alpha, beta) of the integrand
        Gamma(z) Gamma(s-z) zeta(z)^i zeta(s-z)^j b^(alpha z + beta s)."""
        return _FAMILIES[self.tag].shape

    @property
    def base(self):
        """The base b of the shape's power."""
        return _FAMILIES[self.tag].base(self.param)

    def is_pole(self, n):
        """Whether n is a pole of the left field."""
        return bool(self.poles(n, n))

    def poles(self, lo, hi):
        """The left poles n with lo <= n <= hi, ascending: those of Gamma(z),
        and of zeta(z) if i = 1. The residue sums cover these.

        The field ends at 0, or at 1 if i = 1, so hi may be arbitrarily large
        but not infinite.
        """
        require_finite(lo=lo, hi=hi)
        return _field(self.shape[0], lo, hi)

    def poles_around(self, x_left, x_right):
        """The left-field poles around Re z = x_left and the right-field
        poles around Re z = x_right, as two lists of complex points, each in
        ascending order of its field's member. The right poles are s - q for
        the members q of the left field of Gamma, or of zeta Gamma if j = 1:
        s + n for n >= 0 from Gamma(s-z), and s - 1 from zeta(s-z), whose
        trivial zeros cancel s + n for even n >= 2.

        Each list holds its field's members on both sides of the abscissa
        and next to it, so the two members nearest to any point on that
        vertical, and holds a handful of poles however far the abscissa
        lies.
        """
        s = self.s
        i, j = self.shape[:2]
        return ([complex(n) for n in _window(i, x_left)],
                [s - q for q in _window(j, s.real - x_right)])

    def nearest_pole(self, z):
        """Closest pole of either field to z, the lower member on ties."""
        z = complex(z)
        s = self.s
        i, j = self.shape[:2]
        left = complex(_nearest_member(i, z.real))
        right = s - _nearest_member(j, s.real - z.real)
        return left if abs(z - left) <= abs(z - right) else right


def _field(with_zeta, lo, hi):
    """The integers n in [lo, hi] at which Gamma(w), or zeta(w) Gamma(w) if
    with_zeta, has a pole w = n: every n <= 0 for Gamma alone; 1, 0 and the
    negative odd n with zeta, whose trivial zeros cancel the negative even."""
    top = 1 if with_zeta else 0
    return [n for n in range(math.ceil(lo), min(math.floor(hi), top) + 1)
            if not with_zeta or n >= 0 or n % 2]


def _nearest_member(with_zeta, x):
    """The member of _field(with_zeta, ...) nearest to x, the lower one on
    ties: the integer nearest to x, at most 0, for Gamma alone; with zeta, 1
    right of 1/2, 0 right of -1/2, and below that the nearest odd integer."""
    if not with_zeta:
        return min(math.ceil(x - 0.5), 0)
    if x > 0.5:
        return 1
    if x > -0.5:
        return 0
    return 2 * math.ceil(x / 2.0) - 1


def _window(with_zeta, x):
    """The members of _field(with_zeta, ...) within 2 of round(x), or every
    member >= -2 when x is right of -1/2: consecutive members are at most 2
    apart and the field ends at 0 or 1, so these include the members just
    below and just above x, and the two nearest to it."""
    n = round(x)
    return _field(with_zeta, min(n, 0) - 2, n + 2)


def gamma_power(s, u):
    return IntegrandFamily(GAMMA_POWER, complex(s), u=float(u))


def zeta_zeta_gamma(s):
    return IntegrandFamily(ZETA_ZETA_GAMMA, complex(s))


def zeta_gamma_power(s, a):
    return IntegrandFamily(ZETA_GAMMA_POWER, complex(s), a=float(a))


@dataclass(frozen=True)
class VerticalLineSpec:
    """Line Re z = c for a 1/(2*pi*i) principal-value-free line integral."""
    c: float
    tol: float = 1e-8

    def validate_for(self, family):
        require_tol(self.tol)
        c, sigma = self.c, family.s.real
        i, j = family.shape[:2]
        if i or j:
            ok, needs = c > 1.0 and sigma - c > 1.0, "c > 1 and Re(s)-c > 1"
        else:
            ok, needs = (c >= 0.5 and sigma - c >= 0.5,
                         "c >= 1/2 and Re(s)-c >= 1/2")
        if not ok:
            raise DomainViolation(
                f"{family.tag} line needs {needs}; c={c}, Re(s)={sigma}")


@dataclass(frozen=True)
class RectangleSpec:
    """Counterclockwise rectangle: right edge at c, left at c-k, height 2T."""
    c: float
    k: float
    T: float

    def __post_init__(self):
        require_finite(c=self.c, k=self.k, T=self.T)
        if not (self.k > 0.0 and self.T > 0.0):
            raise DomainViolation("rectangle needs k > 0 and T > 0")

    @property
    def left(self):
        return self.c - self.k

    def corners(self):
        c, le, T = self.c, self.left, self.T
        return (complex(c, -T), complex(c, T), complex(le, T), complex(le, -T))


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    err_estimate: float
    tail_bound: float
    evaluations: int

    @property
    def total_error(self):
        return self.err_estimate + self.tail_bound


def integrand_eval(f, z):
    """Point evaluation of the family integrand, pole-guarded."""
    z = complex(z)
    require_finite(z=z)
    pole = f.nearest_pole(z)
    if abs(z - pole) <= POLE_GUARD:
        raise PoleProximity(z, pole)
    return overflow_checked(_bound_integrand(f), z)


def _bound_integrand(f):
    """The kernel integrand of family f at DEFAULT_CONFIG's term arguments,
    z -> value.

    No pole guard: the quadrature loops check their paths once up front.
    """
    em_min, em_per_im = DEFAULT_CONFIG._term_args()
    tag = _FAMILIES[f.tag].kernel_tag
    s, p = f.s, f.param
    order = DEFAULT_CONFIG.correction_order
    reflect_below = DEFAULT_CONFIG.reflect_below
    kern = kernels.integrand

    def integrand(z):
        return kern(tag, s, p, z, em_min, em_per_im, order, reflect_below)

    return integrand


def _gk15(f, a, b):
    """15-point Kronrod value, |K-G| error estimate and Kronrod sum of
    |f| * |half| (the scale of its rounding) on the segment [a, b]."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    vk = vg = 0j
    mass = 0.0
    for i, x in enumerate(GK_NODES):
        # the odd nodes, the centre x = 0 last, are the 7-point Gauss rule's
        v1 = f(mid - half * x)
        v2 = f(mid + half * x) if x else 0.0
        vk += GK_WEIGHTS[i] * (v1 + v2)
        mass += GK_WEIGHTS[i] * (abs(v1) + abs(v2))
        if i % 2 == 1:
            vg += GAUSS_WEIGHTS[i // 2] * (v1 + v2)
    return vk * half, abs(vk - vg) * abs(half), mass * abs(half)


def _first_cuts(z0, z1, poles):
    """[z0, z1] cut at the nearest point of each pole within BREAK_REACH of
    it, and at BREAK_REACH * 2^k from that point on either side."""
    length = abs(z1 - z0)
    cuts = set()
    for p in poles:
        q = _nearest_point(p, z0, z1)
        if abs(p - q) <= BREAK_REACH:
            x, step = abs(q - z0), BREAK_REACH
            cuts.add(x)
            while x - step > 0.0 or x + step < length:
                cuts.update((x - step, x + step))
                step *= 2.0
    return ([z0] + [z0 + (z1 - z0) * (x / length) for x in sorted(cuts)
                    if 0.0 < x < length] + [z1])


def _adaptive(legs, tol, unit, max_evaluations):
    """(value, err, evals) of the raw integral along the legs (fn, z0, z1,
    poles), by QUADPACK's dqagp: from the panels of _first_cuts, bisect the
    one with the largest |K-G| until the errors sum to tol (tol * unit raw);
    fsum the panels at the end. ToleranceUnreachable, with the raw sum of the
    current panels and every evaluation spent: a tol below FLOOR_FACTOR
    rounding floors (eps times the panels' Kronrod sums of |f|), or a
    bisection, not started, that would pass max_evaluations."""
    heap, order, evals = [], itertools.count(), 0

    def total(k):
        return math.fsum(panel[k] for panel in heap)

    def unreachable(why):
        path = " -> ".join(map(str, [legs[0][1]] + [leg[2] for leg in legs]))
        return ToleranceUnreachable(f"path {path}: {why}", evaluations=evals,
                                    partial_value=complex(total(5), total(6)))

    def add_panel(fn, a, b):
        try:
            v, e, m = _gk15(fn, a, b)
        except OverflowError:
            e = m = math.inf
        if not (e < math.inf and m < math.inf):  # m bounds |v|; NaN fails too
            raise OverflowRegime(f"integrand overflows binary64 on the panel [{a}, {b}]")
        heapq.heappush(heap, (-e, next(order), fn, a, b, v.real, v.imag, m))
        return e

    first = [(fn, a, b) for fn, z0, z1, poles in legs if z0 != z1
             for a, b in itertools.pairwise(_first_cuts(z0, z1, poles))]
    if 15 * len(first) > max_evaluations:
        raise unreachable(f"evaluation budget {max_evaluations} is below the "
                          f"{15 * len(first)} evaluations of the first panels")
    for panel in first:
        add_panel(*panel)
    evals = 15 * len(first)
    err = synced = math.inf
    while True:
        # err drifts by rounding as it runs: resum it each time it halves
        if err <= max(tol * unit, 0.5 * synced):
            err = synced = abs(total(0))
            floor = EPS * total(7) / unit
            if tol < FLOOR_FACTOR * floor:
                raise unreachable(f"tol {tol:.3g} is below {FLOOR_FACTOR:g} "
                                  f"times the path's rounding floor {floor:.3g}")
            if err <= tol * unit:
                return complex(total(5), total(6)), err, evals
        if evals + 30 > max_evaluations:
            raise unreachable(f"did not reach tol {tol:.3g} within "
                              f"{max_evaluations} evaluations")
        neg_e, _, fn, a, b, *_ = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        err += add_panel(fn, a, mid) + add_panel(fn, mid, b) + neg_e
        evals += 30


def _walk(f, legs, tol, max_evaluations, mirrored=False):
    """(value, err, evals) of (1/(2*pi*i)) times the integral of family f
    along the legs (z0, z1) by _adaptive, whose ToleranceUnreachable it puts
    in value's units; a leg within POLE_GUARD of a pole raises PoleOnPath.
    mirrored: the legs are the upper half of a real-s path, held to tol/2,
    and its whole raw integral is 2i Im of theirs."""
    fn = _bound_integrand(f)
    walk = [(fn, z0, z1, _path_poles(f, z0, z1)) for z0, z1 in legs]
    for _, z0, z1, poles in walk:
        if min(abs(p - _nearest_point(p, z0, z1)) for p in poles) <= POLE_GUARD:
            raise PoleOnPath(f"path leg [{z0}, {z1}] passes within {POLE_GUARD} of a pole")

    def normalized(raw):
        return (complex(0.0, 2.0 * raw.imag) if mirrored else raw) / (2j * math.pi)

    unit = math.pi if mirrored else TWO_PI
    try:
        raw, err, evals = _adaptive(walk, tol, unit, max_evaluations)
    except ToleranceUnreachable as exc:
        exc.partial_value = normalized(exc.partial_value)
        raise
    return normalized(raw), err / unit, evals


def _nested_trapezoid(term, n, nodes, scale, tol, max_evaluations, what,
                      floor_factor=0.0):
    """(value, err, evals) of the nested trapezoid sums
    Q_n = scale * sum_j term(j, n)[0] / n, at the first level within tol of
    the level before it.

    term(j, n) is a pair: the weighted integrand at node j and the magnitude
    its rounding scales with. The first level sums terms over j in
    range(nodes). Each doubling keeps the running sums, whose nodes are the
    even j of the finer grid, and evaluates only the odd j in
    range(1, 2n, 2). The rounding floor of a level is
    eps * scale * sum_j term(j, n)[1] / n; err is the larger of it and the
    last difference, plus KERNEL_ROUNDING floors, and a level raises
    ToleranceUnreachable when tol is below floor_factor times its floor. A
    level that would take the evaluation count beyond max_evaluations is not
    started: the raise carries the last level's value. A level whose sums
    overflow binary64 raises OverflowRegime.
    """
    overflow = f"{what}: the integrand overflows binary64"
    if nodes > max_evaluations:
        raise ToleranceUnreachable(
            f"{what}: evaluation budget {max_evaluations} is below the "
            f"{nodes} nodes of the first level")
    acc = 0.0
    mass = 0.0
    evals = 0
    js = range(nodes)
    prev = None
    while True:
        try:
            terms = [term(j, n) for j in js]
        except OverflowError:
            raise OverflowRegime(overflow) from None
        evals += len(terms)
        acc += sum(v for v, _ in terms)
        mass += sum(m for _, m in terms)
        cur = acc * scale / n
        floor = EPS * scale * mass / n
        if not (floor < math.inf and cmath.isfinite(cur)):
            raise OverflowRegime(overflow)
        if tol < floor_factor * floor:
            raise ToleranceUnreachable(
                f"{what}: the trapezoid's share of tol, {tol:.3g}, is below "
                f"{floor_factor:g} times its rounding floor {floor:.3g}",
                partial_value=cur,
                evaluations=evals)
        if prev is not None and abs(cur - prev) < tol:
            return (cur, max(abs(cur - prev), floor) + KERNEL_ROUNDING * floor,
                    evals)
        prev = cur
        if evals + n > max_evaluations:
            raise ToleranceUnreachable(
                f"{what} did not stabilize to {tol} within {max_evaluations} "
                f"evaluations", partial_value=cur, evaluations=evals)
        n *= 2
        js = range(1, n, 2)


def _path_poles(f, z0, z1):
    """The poles around the segment [z0, z1], the nearest of each field
    among them: a field lies on one horizontal, at height 0 or Im s, along
    which the distance to the segment is convex, so least at a member next
    to an x where the segment comes closest. Ties go to where the fields
    begin, at i and Re s - j next to the strip, and the integrand is largest."""
    i, j = f.shape[:2]
    left, right = f.poles_around(_closest_abscissa(z0, z1, 0.0, i),
                                 _closest_abscissa(z0, z1, f.s.imag, f.s.real - j))
    return left + right


def _closest_abscissa(z0, z1, h, end):
    """An x at which x + ih is nearest to the segment [z0, z1]; of the ties
    along a horizontal segment, the one nearest to end."""
    y0, y1 = z0.imag - h, z1.imag - h
    if y0 == y1:
        return min(max(end, min(z0.real, z1.real)), max(z0.real, z1.real))
    if min(y0, y1) <= 0.0 <= max(y0, y1):
        return z0.real + (z1.real - z0.real) * y0 / (y0 - y1)
    return z0.real if abs(y0) < abs(y1) else z1.real


def _nearest_point(p, z0, z1):
    """The point of the segment [z0, z1] nearest to p."""
    d = z1 - z0
    L2 = d.real * d.real + d.imag * d.imag
    if L2 == 0.0:
        return z0
    t = ((p - z0).real * d.real + (p - z0).imag * d.imag) / L2
    return z0 + max(0.0, min(1.0, t)) * d


def integrate_segment(f, z0, z1, tol=1e-10,
                      max_evaluations=DEFAULT_MAX_EVALUATIONS):
    """Oriented straight-line integral of the integrand, normalized by 1/(2*pi*i)."""
    z0 = complex(z0)
    z1 = complex(z1)
    require_finite(z0=z0, z1=z1)
    require_tol(tol)
    value, err, n = _walk(f, ((z0, z1),), tol, max_evaluations)
    return QuadratureResult(value, err, 0.0, n)


_MODULUS_K = math.sqrt(TWO_PI) * 1.25  # |Gamma(x+iy)| <= K|y|^{x-1/2}e^{-pi|y|/2}, |y|>=10


def _pair_tail_bound(x0, s, T, extra):
    """Bound on (1/2pi) |int over |y| >= T| of the Gamma-pair integrand times
    factors bounded by `extra` on the line Re z = x0."""
    sig, ts = s.real, abs(s.imag)
    a = x0 - 0.5            # |y| exponent from Gamma(z)
    c = sig - x0 - 0.5      # |y -+ Im s| exponent from Gamma(s-z)
    if T <= ts + 5.0 or T < 10.0:
        return math.inf
    pre = _MODULUS_K * _MODULUS_K * overflow_checked(math.exp,
                                                     math.pi * ts / 2.0)
    growth = max(a, 0.0) + max(c, 0.0)
    pre *= T ** min(a, 0.0) * (T + ts) ** min(c, 0.0)
    denom = math.pi - growth / (T + ts)
    if denom <= 0.5:
        return math.inf
    one_side = pre * (T + ts) ** growth * math.exp(-math.pi * T) / denom
    return 2.0 * extra * one_side / TWO_PI


def _line_extra_const(f, x0):
    """Max modulus of the non-Gamma-pair factors along Re z = x0: the power
    has modulus b^(alpha x0 + beta Re s) there, and each zeta factor its
    modulus on the real axis, where it is largest right of 1."""
    i, j, alpha, beta = f.shape
    sigma = f.s.real
    extra = f.base ** (alpha * x0 + beta * sigma)
    zeta = _bound_zeta(DEFAULT_CONFIG)
    if i:
        extra *= abs(zeta(complex(x0)))
    if j:
        extra *= abs(zeta(complex(sigma - x0)))
    return extra


def _gamma_value(w):
    if w.real > 170.0:
        raise OverflowRegime(f"Gamma({w}) overflows binary64")
    return cmath.exp(kernels.loggamma(w))


def _pole_coefficient(i, n):
    """The residue of Gamma(z) zeta(z)^i at its pole n, rounded once: zeta's
    pole at 1 has residue 1 and Gamma(1) = 1; Res Gamma(z) at -m is
    (-1)^m / m!, and zeta(-m) is -1/2 at m = 0. zeta(-m) beyond the
    Bernoulli table raises IndexBeyondTable, and 1/m! beyond binary64,
    m > 170, OverflowRegime."""
    if n == 1:
        return 1.0
    m = -n
    if i:
        c = zeta_negative_integer(m) if m else Fraction(-1, 2)
    elif m > 170:
        raise OverflowRegime(f"the Gamma residue (-1)^m/m! at {n} is below binary64's range")
    else:
        c = 1
    return float(c * Fraction((-1) ** m, math.factorial(m)))


def _residue(f, n):
    """The residue of the integrand of f, Gamma(z) Gamma(s-z) zeta(z)^i
    zeta(s-z)^j b^(alpha z + beta s), at the member n of its left field."""
    i, j, alpha, beta = f.shape
    w = f.s - n
    value = _pole_coefficient(i, n) * _gamma_value(w)
    if j:
        value *= _bound_zeta(DEFAULT_CONFIG)(w)
    return value * f.base ** (alpha * n + beta * f.s)


def _integrate_vertical_unchecked(f, x0, tol,
                                  max_evaluations=DEFAULT_MAX_EVALUATIONS):
    # Core of integrate_vertical without the convergence-strip validation.
    # _line_extra_const must bound the non-Gamma factors at x0, which holds
    # at any real x0 for a shape without zeta factors but with one only
    # inside the admissible strip -- callers shifting left of it pass
    # zeta-free shapes only.
    extra = _line_extra_const(f, x0)
    T = max(abs(f.s.imag) + 10.0, 15.0)
    while _pair_tail_bound(x0, f.s, T, extra) > 0.5 * tol:
        T += 2.0
        if T > 500.0:
            raise ToleranceUnreachable(
                f"tail bound will not reach {tol} at practical heights")
    tail = _pair_tail_bound(x0, f.s, T, extra)
    value, err, n = _line(f, x0, T, tol, max_evaluations)
    return QuadratureResult(value, err, tail, n)


def _two_row_map(a, b, t):
    """(u, y): u(y) = asinh(y/a) + asinh((y - t)/b), and its inverse y(u).

    The inverse is closed-form. With A = asinh(y/a) and B = u - A =
    asinh((y - t)/b), t = a sinh A - b sinh(u - A) = R sinh(A - phi), where
    R^2 = a^2 + b^2 + 2ab cosh u and tanh phi = b sinh u / (a + b cosh u).
    phi is taken as (1/2) log((a + b e^u) / (a + b e^-u)): as the atanh of
    that ratio it loses up to 1e-6 of y, relative, where the ratio nears
    +-1 (at |y| = 500, a = 0.01). y is read off the row with the smaller
    a e^|A| or b e^|B|, the scale its rounding takes.
    """
    tilt = math.log(b / a)
    r2, ab = a * a + b * b, a * b

    def u_of(y):
        return math.asinh(y / a) + math.asinh((y - t) / b)

    def y_of(u):
        e = math.exp(u)
        ie = 1.0 / e
        A = (0.5 * math.log((a + b * e) / (a + b * ie))
             + math.asinh(t / math.sqrt(r2 + ab * (e + ie))))
        B = u - A
        return a * math.sinh(A) if abs(A) - abs(B) <= tilt else t + b * math.sinh(B)

    return u_of, y_of


def _line(f, x0, T, tol, max_evaluations):
    # The poles lie on two rows, the left field's at height 0 and the right
    # field's at t = Im s. In u of _two_row_map, a and b the distances from
    # the line to the nearest pole of each row, that pole is the branch
    # point of its own row's asinh, and every pole lies at |Im u| >= pi/2:
    # the two-pole sinh map of Johnston & Elliott (IJNME 62 (2005) 564-578),
    # which leaves the trapezoid in u a strip of fixed width whatever Im s
    # and however close the line passes a pole. For real s, t = 0, the map
    # is odd and f(conj z) = conj f(z): the line integral is
    # (1/pi) int_0^T Re f(x0+iy) dy, and the nodes cover [0, T].
    fn = _bound_integrand(f)
    sigma, t = f.s.real, f.s.imag
    a = abs(x0 - _nearest_member(f.shape[0], x0))
    b = abs(sigma - x0 - _nearest_member(f.shape[1], sigma - x0))
    if min(a, b) <= POLE_GUARD:
        raise PoleOnPath(f"line Re z = {x0} passes within {POLE_GUARD} of a pole")
    u_of, y_of = _two_row_map(a, b, t)
    mirrored = t == 0.0
    bottom = 0.0 if mirrored else -T
    u0 = u_of(bottom)
    U = u_of(T) - u0

    def term(j, n):
        # the end nodes sit at exactly y = bottom and y = T
        y = bottom if j == 0 else T if j == n else y_of(u0 + j * U / n)
        jac = 1.0 / (1.0 / math.hypot(y, a) + 1.0 / math.hypot(y - t, b))
        v = fn(complex(x0, y))
        if mirrored:
            v = v.real * jac * (2.0 if j else 1.0)
        else:
            v *= jac * (0.5 if j in (0, n) else 1.0)
        return v, abs(v)

    first = 8 if mirrored else 16
    value, err, n = _nested_trapezoid(term, first, first + 1, U / TWO_PI,
                                      0.5 * tol, max_evaluations,
                                      f"line Re z = {x0}, tol {tol:.3g}",
                                      FLOOR_FACTOR)
    return complex(value), err, n


def integrate_vertical(f, line, max_evaluations=DEFAULT_MAX_EVALUATIONS):
    """(1/2*pi*i) integral over the full vertical line Re z = line.c.

    The line is truncated at the smallest height T (stepped by 2 from
    max(|Im s| + 10, 15)) whose analytic Gamma-pair tail bound is <= tol/2;
    the finite part runs a nested trapezoid in u(y) = asinh(y/a) +
    asinh((y - Im s)/b), a and b the distances from the line to the nearest
    pole at height 0 and at height Im s, until two levels agree within
    tol/2: on the upper half line for real s, on the whole line for complex
    s. evaluations counts the integrand calls. err_estimate is the last
    difference or the rounding floor eps * int |f|, whichever is larger,
    plus KERNEL_ROUNDING floors; a tol/2 below FLOOR_FACTOR floors raises
    ToleranceUnreachable.
    """
    line.validate_for(f)
    return _integrate_vertical_unchecked(f, line.c, line.tol, max_evaluations)


def integrate_rectangle(f, rect, tol=1e-9,
                        max_evaluations=DEFAULT_MAX_EVALUATIONS):
    """Counterclockwise boundary integral, normalized by 1/(2*pi*i); equals the
    sum of residues strictly inside by the residue theorem."""
    require_tol(tol)
    c1, c2, c3, c4 = rect.corners()
    mirrored = f.s.imag == 0.0
    if mirrored:
        # f(conj z) = conj f(z): the lower half of the boundary adds minus
        # the conjugate of the upper half's integral; walk the upper half
        legs = ((complex(rect.c), c2), (c2, c3), (c3, complex(rect.left)))
    else:
        legs = ((c1, c2), (c2, c3), (c3, c4), (c4, c1))
    value, err, evals = _walk(f, legs, tol, max_evaluations, mirrored)
    return QuadratureResult(value, err, 0.0, evals)


def _axis_coefficients():
    # 1/(e^t - 1)^2 = t^{-2} - t^{-1} + 5/12 - sum_{k>=1} B_{2k} [(2k-1) t^{2k-2}
    #                 + t^{2k-1}] / (2k)! + 1/12-offset; derived from the
    #                 Bernoulli expansion of 1/(e^t - 1) and its derivative
    out = []
    fact = 2
    for k in range(1, 6):
        b2k = BERNOULLI_FRACTIONS[2 * k]
        out.append((float(b2k * (2 * k - 1) / fact), float(b2k / fact)))
        fact *= (2 * k + 1) * (2 * k + 2)
    return tuple(out)


_AXIS_SERIES = _axis_coefficients()


def integrate_real_improper(s, tol=1e-10,
                            max_evaluations=DEFAULT_MAX_EVALUATIONS):
    """integral_0^inf t^{s-1} / (e^t - 1)^2 dt for Re(s) > 2.

    The algebraic t->0 endpoint is handled by integrating the first three
    expansion terms t^{-2} - t^{-1} + 5/12 analytically on (0, eps] and the
    (smooth, O(t)) remainder numerically; the far tail is cut where an
    exponential bound falls below tol/4, and (0, eps], [eps, 1] and [1, cut]
    are one _adaptive path held to 3 tol/4. No power of t overflows before
    the value, ~Gamma(Re s) 2^-Re s, does; a larger one raises OverflowRegime.
    """
    s = complex(s)
    require_finite(s=s)
    if s.real <= 2.0:
        raise DomainViolation(f"integrate_real_improper needs Re(s) > 2, got {s}")
    require_tol(tol)
    sig = s.real
    if overflow_checked(math.lgamma, sig) - sig * math.log(2.0) > LOG_MAX:
        raise OverflowRegime(f"integrate_real_improper({s}) overflows binary64")
    eps = 1e-3
    head = (eps ** (s - 2.0) / (s - 2.0) - eps ** (s - 1.0) / (s - 1.0)
            + (5.0 / 12.0) * eps ** s / s)

    def remainder(t):
        # 1/(e^t-1)^2 minus the three analytic terms, via the Bernoulli series
        acc = 1.0 / 12.0
        for k, (c_even, c_odd) in enumerate(_AXIS_SERIES, start=1):
            tp = t ** (2 * k - 2)
            acc -= c_even * tp + c_odd * tp * t
        return acc * t ** (s - 1.0)

    def middle(t):
        # t^(s-1) e^(-2t) / (1 - e^(-t))^2, the square of a half that is finite
        t = t.real
        w = t ** (0.5 * s - 0.5) * (math.exp(-t) / math.expm1(-t))
        return w * w

    def tail_cut_bound(Tc):
        # integrand <= t^{sig-1} e^{-2t} / (1-e^{-Tc})^2 beyond Tc; integrate by
        # parts once for the polynomial factor
        d = 2.0 - max(sig - 1.0, 0.0) / Tc
        if d <= 0.5:
            return math.inf
        return (math.exp((sig - 1.0) * math.log(Tc) - 2.0 * Tc)
                / (math.expm1(-Tc) ** 2 * d))

    Tc = max(30.0, 2.0 * sig)
    while tail_cut_bound(Tc) > 0.25 * tol:
        Tc += 5.0
    legs = ((remainder, 0j, complex(eps), ()), (middle, complex(eps), 1 + 0j, ()),
            (middle, 1 + 0j, complex(Tc), ()))
    try:
        value, err, evals = _adaptive(legs, 0.75 * tol, 1.0, max_evaluations)
    except ToleranceUnreachable as exc:
        exc.partial_value += head
        raise
    return QuadratureResult(head + value, err, tail_cut_bound(Tc), evals)
