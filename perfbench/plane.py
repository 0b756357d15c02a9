"""`plane` workload: everything off the vertical line.

Op kinds, in fixed counts per block (BLOCK):

  rect      integrate_rectangle across the pole field (T up to 60, 1-10
            enclosed poles) vs the residue sum from enumerate_poles/residue_at
  lid       a horizontal lid by integrate_segment vs a fixed composite
            Gauss-Legendre sum of public integrand_eval
  numres    numerical_residue vs residue_at
  improper  integrate_real_improper vs Gamma(s)(zeta(s-1) - zeta(s))
  tail      asymptotic_tail_terms vs terms rebuilt from Gamma(z+1) = z Gamma(z)
            and riemann_zeta at the negative odd integers
  zeta      a batch of riemann_zeta calls, t40 / t390 / reflect, vs a
            zeta of different truncation (and the functional equation)
  specfun   a batch of hurwitz_zeta, log_gamma and gamma calls vs their
            shift identities

Why: it uses the contour layer differently from `lines` (adaptive GK15 on
segments and rectangle edges, the trapezoid rule on residue circles) and is
where the public specfun and zeta wrappers do direct work, so a change aimed
only at vertical lines predicts no change here, and a change to the shared
GK15 panels that slows rectangles shows here.

Every quadrature op passes tol = rtol * |reference| and is judged on
relative error against a reference computed before timing. Rectangles and
lids are drawn again while an edge's margin to the cancellation floor
(edge_margin, as in lines.py) is REACHABLE_MARGIN or more, so that no op
of this workload fails and any failure turns the run's `correct` false;
ill-conditioning is what the `lines` workload's strata measure.
"""
import cmath
import math
import random

from mbzeta import contour, residues, specfun, zeta

from lines import EPS

# Rectangles take ~80% of the time. The median op falls inside the zeta
# batches, whose cost is concentrated, rather than on a boundary between
# two kinds, where a small shift in the mix would move it.
BLOCK = {"rect": 6, "lid": 3, "numres": 3, "improper": 2, "tail": 2,
         "zeta": 6, "specfun": 3}
ZETA_STRATA = ("t40", "t390", "reflect")
ZETA_PER_STRATUM = 8
SPECFUN_PER_FN = 8
FAMILIES = (contour.GAMMA_POWER, contour.ZETA_ZETA_GAMMA, contour.ZETA_GAMMA_POWER)
# enclosable poles, right to left
GAMMA_POLES = tuple(range(0, -10, -1))
ZETA_POLES = (1, 0) + tuple(range(-1, -17, -2))
GL_POINTS = 16
LID_PANEL = 2.0
LOG_2 = math.log(2.0)
LOG_PI = math.log(math.pi)
MAX_EVALUATIONS = 200_000
REACHABLE_MARGIN = 3e-3
MARGIN_GRID = 12
MAX_DRAWS = 1000


def gauss_legendre(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1],
    by Newton's method on the Legendre recurrence."""
    nodes, weights = [], []
    for i in range(1, n + 1):
        x = math.cos(math.pi * (i - 0.25) / (n + 0.5))
        for _ in range(100):
            p0, p1 = 1.0, x
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = n * (x * p1 - p0) / (x * x - 1.0)
            dx = p1 / dp
            x -= dx
            if abs(dx) < 1e-16:
                break
        nodes.append(x)
        weights.append(2.0 / ((1.0 - x * x) * dp * dp))
    return nodes, weights


_GL = gauss_legendre(GL_POINTS)


def segment_reference(f, z0, z1):
    """(1/2pi i) int_[z0,z1] f by composite Gauss-Legendre on panels of
    length <= LID_PANEL; the lid keeps >= 3 from every pole, so each panel's
    error is far below binary64 rounding."""
    nodes, weights = _GL
    m = max(1, math.ceil(abs(z1 - z0) / LID_PANEL))
    d = (z1 - z0) / m
    acc = 0j
    for j in range(m):
        mid = z0 + (j + 0.5) * d
        for x, w in zip(nodes, weights):
            acc += w * contour.integrand_eval(f, mid + 0.5 * x * d)
    return acc * 0.5 * d / (2j * math.pi)


def edge_margin(f, z0, z1, ref, rtol, share):
    """Rounding noise of a GK15 panel at the edge's peak |f| over the share
    of tol * 2 pi the edge's panels may spend, per unit length. On a
    vertical edge the peak is also looked for at the heights of the nearest
    poles: 0 (the real axis) and Im s (the poles of Gamma(s-z), zeta(s-z))."""
    peak = 0.0
    for i in range(MARGIN_GRID + 1):
        peak = max(peak, abs(contour.integrand_eval(f, z0 + (z1 - z0) * i / MARGIN_GRID)))
    if z0.real == z1.real:
        for y in (0.0, f.s.imag):
            if min(z0.imag, z1.imag) < y < max(z0.imag, z1.imag):
                peak = max(peak, abs(contour.integrand_eval(f, complex(z0.real, y))))
    return EPS * peak * abs(z1 - z0) / (share * 2.0 * math.pi * abs(ref) * rtol)


def _redraw(make):
    """Retry a maker until it returns an op that is not None."""
    def maker(rng):
        for _ in range(MAX_DRAWS):
            op = make(rng)
            if op is not None:
                return op
        raise RuntimeError(f"{make.__name__}: no reachable draw in {MAX_DRAWS}")
    maker.__name__ = make.__name__
    return maker


def rel_ok(value, ref, rtol):
    return abs(value - ref) <= rtol * abs(ref)


class Op:
    """One timed call with a reference computed before timing; `args` are the
    inputs the call passes to mbzeta, kept for the self-tests."""
    __slots__ = ("kind", "stratum", "call", "judge", "info", "args")

    def __init__(self, kind, call, judge, info, args=()):
        self.kind = kind
        self.stratum = ""
        self.call = call
        self.judge = judge
        self.info = info
        self.args = args

    def describe(self):
        return f"{self.kind}: {self.info}"


def _s(rng, lo, hi, t_max):
    sigma = rng.uniform(lo, hi)
    if rng.random() < 0.5:
        return complex(sigma, 0.0)
    return complex(sigma, rng.choice((-1.0, 1.0)) * t_max * (1.0 - rng.random()))


def _family(rng, t_max=10.0):
    tag = rng.choice(FAMILIES)
    s = _s(rng, 3.2, 8.0, t_max)
    sigma = s.real
    if tag == contour.GAMMA_POWER:
        return contour.gamma_power(s, 1.0 - rng.random()), rng.uniform(0.5, sigma - 0.5)
    f = (contour.zeta_zeta_gamma(s) if tag == contour.ZETA_ZETA_GAMMA
         else contour.zeta_gamma_power(s, rng.uniform(2.0, 5.0)))
    return f, rng.uniform(1.05, sigma - 1.05)


def _left_edge(rng, f, n_poles):
    poles = GAMMA_POLES if f.tag == contour.GAMMA_POWER else ZETA_POLES
    inner = poles[n_poles - 1]
    outer = poles[n_poles] if n_poles < len(poles) else inner - 1
    return inner - (inner - outer) * rng.uniform(0.15, 0.85)


def _clear_of_poles(f, T):
    """Horizontal edges at +-T keep >= 3 from the poles of Gamma(s-z) and
    zeta(s-z), which sit at height Im s just right of the strip; closer
    edges would need the pole guards the package applies only on the real
    axis, and would spoil the Gauss-Legendre lid reference."""
    return min(abs(T - f.s.imag), abs(T + f.s.imag)) >= 3.0


def _rtol(rng, lo, hi):
    return 10.0 ** rng.uniform(lo, hi)


@_redraw
def make_rect(rng):
    f, c = _family(rng)
    poles = GAMMA_POLES if f.tag == contour.GAMMA_POWER else ZETA_POLES
    n_poles = rng.randint(1, len(poles))
    left = _left_edge(rng, f, n_poles)
    rect = contour.RectangleSpec(c, c - left, rng.uniform(2.0, 60.0))
    rtol = _rtol(rng, -10.0, -7.0)
    if not _clear_of_poles(f, rect.T):
        return None
    found = residues.enumerate_poles(f, rect)
    if len(found) != n_poles:
        raise RuntimeError(f"rectangle encloses {len(found)} poles, wanted {n_poles}")
    ref = sum((residues.residue_at(f, p).value for p in found), start=0j)
    c1, c2, c3, c4 = rect.corners()
    if max(edge_margin(f, a, b, ref, rtol, 0.25)
           for a, b in ((c1, c2), (c2, c3), (c3, c4), (c4, c1))) >= REACHABLE_MARGIN:
        return None
    tol = rtol * abs(ref)
    return Op("rect",
              lambda: contour.integrate_rectangle(f, rect, tol,
                                                  max_evaluations=MAX_EVALUATIONS),
              lambda r: rel_ok(r.value, ref, rtol),
              f"{f.tag}(s={f.s}, p={f.param:.6g}) {rect} poles={n_poles} rtol={rtol:.3g}",
              (f, rect))


@_redraw
def make_lid(rng):
    f, c = _family(rng)
    poles = GAMMA_POLES if f.tag == contour.GAMMA_POWER else ZETA_POLES
    left = _left_edge(rng, f, rng.randint(1, len(poles)))
    T = rng.uniform(3.0, 40.0)
    z0, z1 = complex(c, T), complex(left, T)
    rtol = _rtol(rng, -10.0, -7.0)
    if not _clear_of_poles(f, T):
        return None
    ref = segment_reference(f, z0, z1)
    if edge_margin(f, z0, z1, ref, rtol, 1.0) >= REACHABLE_MARGIN:
        return None
    tol = rtol * abs(ref)
    return Op("lid",
              lambda: contour.integrate_segment(f, z0, z1, tol,
                                                max_evaluations=MAX_EVALUATIONS),
              lambda r: rel_ok(r.value, ref, rtol),
              f"{f.tag}(s={f.s}, p={f.param:.6g}) [{z0}, {z1}] rtol={rtol:.3g}",
              (f, z0, z1))


def make_numres(rng):
    f, _ = _family(rng)
    poles = GAMMA_POLES if f.tag == contour.GAMMA_POWER else ZETA_POLES
    pole = rng.choice(poles)
    radius = rng.uniform(0.1, 0.45)
    rtol = _rtol(rng, -11.0, -8.0)
    ref = residues.residue_at(f, pole).value
    tol = rtol * abs(ref)
    return Op("numres",
              lambda: residues.numerical_residue(f, complex(pole), radius, tol),
              lambda v: rel_ok(v, ref, rtol),
              f"{f.tag}(s={f.s}, p={f.param:.6g}) pole={pole} r={radius:.3g} rtol={rtol:.3g}",
              (f, complex(pole), radius))


def improper_closed_form(s):
    return cmath.exp(specfun.log_gamma(s)) * (zeta.riemann_zeta(s - 1.0)
                                              - zeta.riemann_zeta(s))


def make_improper(rng):
    s = _s(rng, 2.5, 10.0, 2.0)
    rtol = _rtol(rng, -11.0, -8.0)
    ref = improper_closed_form(s)
    tol = rtol * abs(ref)
    return Op("improper",
              lambda: contour.integrate_real_improper(
                  s, tol, max_evaluations=MAX_EVALUATIONS),
              lambda r: rel_ok(r.value, ref, rtol),
              f"s={s} rtol={rtol:.3g}", (s,))


TAIL_RTOL = 1e-9


def tail_reference(s, M):
    """t_m = zeta(-2m-1) zeta(s+2m+1) Gamma(s+2m+1) / (2m+1)!, with Gamma
    stepped up by Gamma(z+1) = z Gamma(z) and zeta(-2m-1) taken from
    riemann_zeta's functional-equation path, not the Bernoulli table."""
    g = cmath.exp(specfun.log_gamma(s))
    terms = []
    for m in range(M + 1):
        k = 2 * m + 1
        g *= s + (k - 1)  # now Gamma(s + k)
        terms.append(zeta.riemann_zeta(complex(-k)) * zeta.riemann_zeta(s + k)
                     * g / math.factorial(k))
        g *= s + k
    return terms


def _tail_judge(ref):
    def judge(study):
        if len(study.terms) != len(ref):
            return False
        if not all(rel_ok(t, r, TAIL_RTOL) for t, r in zip(study.terms, ref)):
            return False
        mags = [abs(t) for t in study.terms]
        return mags[study.min_index] == min(mags)
    return judge


def make_tail(rng):
    s = _s(rng, 3.0, 8.0, 10.0)
    M = rng.randint(5, 25)
    ref = tail_reference(s, M)
    return Op("tail", lambda: residues.asymptotic_tail_terms(s, M),
              _tail_judge(ref), f"s={s} M={M}", (s, M))


ZETA_RTOL = 1e-10


def zeta_reference(s):
    """riemann_zeta with more Dirichlet terms and Euler-Maclaurin
    corrections than the default; below Re s = 1/2 through the functional
    equation zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s)."""
    if s.real < 0.5:
        w = 1.0 - s
        log_pref = s * LOG_2 + (s - 1.0) * LOG_PI + specfun.log_gamma(w)
        return cmath.exp(log_pref) * cmath.sin(0.5 * math.pi * s) * zeta_reference(w)
    cfg = zeta.ZetaEvalConfig(em_terms=math.ceil(2.0 * abs(s.imag)) + 40,
                              correction_order=20)
    return zeta.riemann_zeta(s, cfg)


def _zeta_point(rng, stratum):
    sign = rng.choice((-1.0, 1.0))
    if stratum == "t40":
        return complex(rng.uniform(0.6, 5.0), sign * rng.uniform(1.0, 40.0))
    if stratum == "t390":
        return complex(rng.uniform(0.6, 5.0), sign * rng.uniform(40.0, 390.0))
    return complex(rng.uniform(-3.0, 0.4), sign * rng.uniform(1.0, 390.0))


def _batch_judge(refs, rtol):
    def judge(values):
        return len(values) == len(refs) and all(
            rel_ok(v, r, rtol) for v, r in zip(values, refs))
    return judge


def make_zeta(rng):
    points = [(st, _zeta_point(rng, st)) for st in ZETA_STRATA
              for _ in range(ZETA_PER_STRATUM)]
    rng.shuffle(points)
    zs = [p for _, p in points]
    refs = [zeta_reference(p) for p in zs]

    def call():
        return [zeta.riemann_zeta(p) for p in zs]
    return Op("zeta", call, _batch_judge(refs, ZETA_RTOL), f"{len(zs)} points")


SPECFUN_RTOL = 1e-10


def _wrap_log(d):
    """Distance of a log difference from 0 modulo 2 pi i."""
    return abs(complex(d.real, (d.imag + math.pi) % (2.0 * math.pi) - math.pi))


def make_specfun(rng):
    hz = []
    for _ in range(SPECFUN_PER_FN):
        s = complex(rng.uniform(1.5, 8.0), rng.uniform(-40.0, 40.0))
        hz.append((s, rng.uniform(1.0, 5.0)))
    lg = [complex(rng.uniform(-10.0, 20.0), rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 50.0))
          for _ in range(SPECFUN_PER_FN)]
    gz = [complex(rng.uniform(-10.0, 20.0), rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 10.0))
          for _ in range(SPECFUN_PER_FN)]
    # zeta(s, a) = zeta(s, a+1) + a^-s; log Gamma(z+1) = log Gamma(z) + log z
    # (mod 2 pi i); Gamma(z) = Gamma(z+1) / z
    hz_ref = [zeta.hurwitz_zeta(s, a + 1.0) + a ** (-s) for s, a in hz]
    lg_ref = [specfun.log_gamma(z + 1.0) - cmath.log(z) for z in lg]
    g_ref = [specfun.gamma(z + 1.0) / z for z in gz]

    def call():
        return ([zeta.hurwitz_zeta(s, a) for s, a in hz],
                [specfun.log_gamma(z) for z in lg],
                [specfun.gamma(z) for z in gz])

    def judge(out):
        h, l, g = out
        return (_batch_judge(hz_ref, SPECFUN_RTOL)(h)
                and _batch_judge(g_ref, SPECFUN_RTOL)(g)
                and all(_wrap_log(v - r) <= SPECFUN_RTOL * max(1.0, abs(r))
                        for v, r in zip(l, lg_ref)))
    return Op("specfun", call, judge, f"{3 * SPECFUN_PER_FN} calls")


MAKERS = {"rect": make_rect, "lid": make_lid, "numres": make_numres,
          "improper": make_improper, "tail": make_tail, "zeta": make_zeta,
          "specfun": make_specfun}


def make_block(seed, index):
    """The index-th block; a pure function of (seed, index)."""
    rng = random.Random(f"plane:{seed}:{index}")
    ops = [MAKERS[kind](rng) for kind, n in BLOCK.items() for _ in range(n)]
    rng.shuffle(ops)
    return ops


def stream(seed):
    index = 0
    while True:
        yield from make_block(seed, index)
        index += 1
