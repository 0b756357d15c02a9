"""`lines` workload: `integrate_vertical` on all three integrand families.

Inputs: Re s in [3.2, 8]; half the ops real s, half 0 < |Im s| <= 50; c
anywhere in the family's admissible strip; u in (0, 1]; a in [2, 5]; rtol
log-uniform in [1e-12, 1e-8], passed as tol = rtol * |closed form|.

Why: vertical-line quadrature and the integrand kernels do nearly all the
work, and the workload never touches import or rectangles, so changes to
line quadrature or the kernels show here and nowhere else.

Before timing, each op's cancellation kappa = int |f| / |int f| along its
line is estimated with public `integrand_eval` on a coarse grid, together
with

  margin = eps * max|f| * 2Y / (pi |int f|) / rtol,

which compares the rounding noise of a GK15 panel at the integrand's peak
with the share of the tolerance the panel is allowed (the grid includes the
heights 0 and Im s, where a line near the edge of the strip passes closest
to a pole). Every draw falls into exactly one stratum:

  k_lo   margin < EDGE_MARGIN, kappa < 1e2
  k_mid  margin < EDGE_MARGIN, kappa >= 1e2
  edge   EDGE_MARGIN <= margin < FLOOR_MARGIN: near the cancellation floor;
         some ops converge, some raise ToleranceUnreachable
  floor  margin >= FLOOR_MARGIN: rtol below the cancellation floor; raises
         ToleranceUnreachable once MAX_EVALUATIONS is spent

The timed ops are the reachable ones. Each block holds K_LO_PER_CELL k_lo
ops of every (family, real or complex s) cell, so that every seed runs the
same mix, and K_MID_PER_BLOCK k_mid ops drawn from the whole distribution.
A cell's k_lo ops fill a GRID x GRID grid over |Im s| and log rtol, which
set most of an op's cost, one op per box (a box's draw is repeated until
it is k_lo); this keeps the cost mix, and with it the run's median and
tail, close from seed to seed. Of the reachable draws, 97.9% are k_lo and
2.1% k_mid; a block holds 96 and 2. Ops with kappa >=
1e4 are reachable in 0.03% of draws, so they form no stratum of their own;
the run reports every op's kappa band.

Edge and floor ops (5.2% and 1.2% of draws) are not timed: a closed loop
whose ops may fail counts a varying number of failures from run to run.
`probe_ops` draws a fixed PROBE of them, which the traced run runs once,
outside the timed loop, and reports: how many raised ToleranceUnreachable
and how many evaluations they spent.

MAX_EVALUATIONS is 20 000, a hundredth of the package's default budget, so
that a floor op raises after about 0.3 s instead of 20 s. Of about 2 000
ops with margin below 5e-2, none failed and none needed more than 3 200
evaluations; the lowest margin seen to fail was 5.5e-2. Any timed op that
raises or returns a value outside its rtol turns the run's `correct` false.
"""
import cmath
import math
import random
import sys

from mbzeta import contour, specfun, zeta

EPS = sys.float_info.epsilon
MAX_EVALUATIONS = 20_000
GRID = 4
K_LO_PER_CELL = GRID * GRID
K_MID_PER_BLOCK = 2
PROBE = {"edge": 5, "floor": 1}
STRATA = ("k_lo", "k_mid") + tuple(PROBE)
K_MID = 1e2
EDGE_MARGIN = 2e-2
FLOOR_MARGIN = 1.0
KAPPA_BANDS = ((1e2, "kappa<1e2"), (1e4, "1e2<=kappa<1e4"), (math.inf, "kappa>=1e4"))
KAPPA_GRID = 64
MAX_DRAWS = 20_000
FAMILIES = (contour.GAMMA_POWER, contour.ZETA_ZETA_GAMMA, contour.ZETA_GAMMA_POWER)
CELLS = tuple((tag, real) for tag in FAMILIES for real in (True, False))


def closed_form(f):
    """The family's closed form, through log_gamma / riemann_zeta /
    hurwitz_zeta: a different code path from the line quadrature."""
    s = f.s
    g = cmath.exp(specfun.log_gamma(s))
    if f.tag == contour.GAMMA_POWER:
        return g * (1.0 + f.u) ** (-s)
    if f.tag == contour.ZETA_ZETA_GAMMA:
        return g * (zeta.riemann_zeta(s - 1.0) - zeta.riemann_zeta(s))
    return g * zeta.hurwitz_zeta(s, f.a)


def line_profile(f, c, n=KAPPA_GRID):
    """((1/2pi) int |f(c+iy)| dy, max |f|, Y) on a coarse trapezoid grid over
    |y| <= Y = |Im s| + 15, where the Gamma pair has decayed by ~e^-23; the
    max also looks at the heights of the nearest poles, 0 and Im s."""
    Y = abs(f.s.imag) + 15.0
    h = 2.0 * Y / n
    acc = 0.0
    peak = 0.0
    for i in range(n + 1):
        v = abs(contour.integrand_eval(f, complex(c, -Y + i * h)))
        acc += 0.5 * v if i in (0, n) else v
        peak = max(peak, v)
    for y in (0.0, f.s.imag):
        peak = max(peak, abs(contour.integrand_eval(f, complex(c, y))))
    return acc * h / (2.0 * math.pi), peak, Y


def kappa_band(kappa):
    return next(name for bound, name in KAPPA_BANDS if kappa < bound)


class LineOp:
    kind = "line"
    __slots__ = ("f", "line", "rtol", "ref", "kappa", "margin", "stratum")

    def __init__(self, f, c, rtol, ref, kappa, margin, stratum):
        self.f = f
        self.rtol = rtol
        self.ref = ref
        self.kappa = kappa
        self.margin = margin
        self.stratum = stratum
        self.line = contour.VerticalLineSpec(c, rtol * abs(ref))

    @property
    def band(self):
        return kappa_band(self.kappa)

    def call(self):
        return contour.integrate_vertical(self.f, self.line,
                                          max_evaluations=MAX_EVALUATIONS)

    def judge(self, result):
        return abs(result.value - self.ref) <= self.rtol * abs(self.ref)

    def describe(self):
        f = self.f
        return (f"{f.tag}(s={f.s}, p={f.param:.6g}) c={self.line.c:.6g} "
                f"rtol={self.rtol:.3g} kappa={self.kappa:.3g} "
                f"margin={self.margin:.3g} [{self.stratum}]")


def draw(rng, tag=None, real=None, slots=None):
    """One input from the workload's distribution, or from one (tag, real)
    cell of it: (family, c, rtol). `slots` maps "t" or "rtol" to a
    sub-interval (lo, hi) of [0, 1) that the uniform behind |Im s| or log
    rtol comes from."""
    def unit(dim):
        lo, hi = (slots or {}).get(dim, (0.0, 1.0))
        return lo + (hi - lo) * rng.random()
    sigma = 3.2 + 4.8 * unit("sigma")
    if real is None:
        real = rng.random() < 0.5
    t = 0.0 if real else rng.choice((-1.0, 1.0)) * 50.0 * (1.0 - unit("t"))
    s = complex(sigma, t)
    if tag is None:
        tag = rng.choice(FAMILIES)
    if tag == contour.GAMMA_POWER:
        f = contour.gamma_power(s, 1.0 - unit("p"))
        c = 0.5 + (sigma - 1.0) * unit("c")
    else:
        f = (contour.zeta_zeta_gamma(s) if tag == contour.ZETA_ZETA_GAMMA
             else contour.zeta_gamma_power(s, 2.0 + 3.0 * unit("p")))
        c = 1.0 + (sigma - 2.0) * min(max(unit("c"), 1e-6), 1.0 - 1e-6)
    return f, c, 10.0 ** (-12.0 + 4.0 * unit("rtol"))


def stratum_of(kappa, margin):
    if margin >= FLOOR_MARGIN:
        return "floor"
    if margin >= EDGE_MARGIN:
        return "edge"
    return "k_lo" if kappa < K_MID else "k_mid"


def make_op(f, c, rtol):
    """The op for one draw, with its reference, kappa, margin and stratum."""
    contour.VerticalLineSpec(c, 1.0).validate_for(f)
    ref = closed_form(f)
    mass, peak, Y = line_profile(f, c)
    kappa = mass / abs(ref)
    margin = EPS * peak * 2.0 * Y / (math.pi * abs(ref)) / rtol
    return LineOp(f, c, rtol, ref, kappa, margin, stratum_of(kappa, margin))


def take(rng, stratum, n, cell=(None, None), slots=None):
    """The first n draws (from `cell` and `slots`, or from the whole
    distribution) that fall into `stratum`."""
    ops = []
    for _ in range(MAX_DRAWS):
        if len(ops) == n:
            return ops
        op = make_op(*draw(rng, *cell, slots))
        if op.stratum == stratum:
            ops.append(op)
    raise RuntimeError(f"lines: {n} {stratum} ops not found in {MAX_DRAWS} draws")


def grid_cell(rng, cell):
    """GRID x GRID k_lo ops of one cell, one in each box of the grid over the
    uniforms behind |Im s| and log rtol."""
    return [op for i in range(GRID) for j in range(GRID) for op in take(
        rng, "k_lo", 1, cell, {"t": (i / GRID, (i + 1) / GRID),
                               "rtol": (j / GRID, (j + 1) / GRID)})]


def make_block(seed, index):
    """The index-th block of timed ops, in shuffled order; a pure function of
    (seed, index)."""
    rng = random.Random(f"lines:{seed}:{index}")
    ops = [op for cell in CELLS for op in grid_cell(rng, cell)]
    ops += take(rng, "k_mid", K_MID_PER_BLOCK)
    rng.shuffle(ops)
    return ops


def probe_ops(seed):
    """PROBE edge and floor ops; a pure function of seed."""
    rng = random.Random(f"lines-probe:{seed}")
    return [op for stratum, n in PROBE.items() for op in take(rng, stratum, n)]


def stream(seed):
    index = 0
    while True:
        yield from make_block(seed, index)
        index += 1
