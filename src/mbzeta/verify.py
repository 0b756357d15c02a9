"""Verification harness: identity checks, rectangle cross-checks, decay
studies, envelope fits, and a batch suite runner producing a deterministic
report.

Entry semantics: every report row carries lhs, rhs, abs_err, rel_err and a
tolerance, and passes iff abs_err <= tolerance or rel_err <= tolerance.
Boolean facts (monotone decay, zero envelope violations, tail growth) are
encoded as counting rows -- lhs = number of violations against rhs = 0 with
the indicator tolerance (0.5 by default) -- so the pass rule above remains
the single source of truth.
Each case kind is one row of _KINDS, and _READERS says how each key is read.
A suite config has two keys, tolerances and cases: the quadrature runs at
the contour module's pole guard and evaluation budget, and envelope cases
fit on the ranges of _ENVELOPES.
"""
import cmath
import math
from dataclasses import dataclass

from ._backend import BACKEND, kernels
from ._kernel_constants import EM_COEFFS
from ._version import __version__
from .contour import (FAMILY_PARAMS, IntegrandFamily, RectangleSpec,
                      VerticalLineSpec, _integrate_vertical_unchecked,
                      gamma_power, integrate_real_improper,
                      integrate_rectangle, integrate_segment,
                      integrate_vertical, zeta_gamma_power, zeta_zeta_gamma)
from .errors import ConfigError, DomainViolation, MBZetaError, UnknownCaseKind
from .residues import (_require_finite_residues, asymptotic_tail_terms,
                       enumerate_poles, residue_at)
from .specfun import POLE_GUARD
from .zeta import double_sum_oracle, hurwitz_zeta, riemann_zeta

__all__ = [
    "IDENTITY_KINDS", "IdentityCase", "CheckEntry", "DecayStudy",
    "EnvelopeFit", "VerificationReport", "check_identity", "check_rectangle",
    "decay_study", "fit_envelope", "run_suite", "default_config",
]

_TINY = 1e-300  # rel_err floor keeps rhs = 0 rows finite and JSON-safe


@dataclass(frozen=True)
class IdentityCase:
    """One identity check; params are read by _READERS on construction."""
    id: str
    kind: str
    params: dict
    tolerance: float
    method: str = "closed_form"

    def __post_init__(self):
        if self.kind not in IDENTITY_KINDS:
            raise UnknownCaseKind(f"unknown identity kind {self.kind!r}")
        if not 0.0 < self.tolerance < math.inf:
            raise DomainViolation("tolerance must be positive and finite")
        where = f"identity case {self.id!r}"
        object.__setattr__(self, "params", _read(self.params, where, self.kind))
        _read_value("method", self.method, where)


@dataclass(frozen=True)
class CheckEntry:
    id: str
    lhs: complex
    rhs: complex
    abs_err: float
    rel_err: float
    tolerance: float
    passed: bool
    error: str = ""

    def to_dict(self):
        d = {
            "id": self.id,
            "lhs_re": self.lhs.real, "lhs_im": self.lhs.imag,
            "rhs_re": self.rhs.real, "rhs_im": self.rhs.imag,
            "abs_err": self.abs_err, "rel_err": self.rel_err,
            "tolerance": self.tolerance, "pass": self.passed,
        }
        if self.error:
            d["error"] = self.error
        return d


def _entry(entry_id, lhs, rhs, tolerance):
    lhs = complex(lhs)
    rhs = complex(rhs)
    abs_err = abs(lhs - rhs)
    rel_err = abs_err / max(abs(rhs), _TINY)
    passed = abs_err <= tolerance or rel_err <= tolerance
    return CheckEntry(entry_id, lhs, rhs, abs_err, rel_err, tolerance, passed)


def _failed_entry(entry_id, tolerance, exc):
    return CheckEntry(entry_id, 0j, 0j, 1e308, 1e308, tolerance, False,
                      error=f"{type(exc).__name__}: {exc}")


def _quad_tol(tolerance):
    # quadrature target one decade below the comparison tolerance, floored at
    # the practical binary64 limit so absurd requests fail by comparison, not
    # by burning the evaluation budget
    return max(0.1 * tolerance, 1e-12)


def _power_closed_form(s, u):
    return cmath.exp(kernels.loggamma(s)) * (1.0 + u) ** (-s)


def _zeta_pair_closed_form(s):
    g = cmath.exp(kernels.loggamma(s))
    return g * (riemann_zeta(s - 1.0) - riemann_zeta(s))


# The two sides of each identity kind, sides(p, qt, method) -> (lhs, rhs),
# from the read params p and the quadrature target qt.

def _mb_power(p, qt, method):
    # line integral vs Gamma(s)(1+u)^{-s}
    s, u = p["s"], p["u"]
    line = VerticalLineSpec(p["c"], qt)
    return (integrate_vertical(gamma_power(s, u), line).value,
            _power_closed_form(s, u))


def _binomial_series(p, qt, method):
    # partial sum vs Gamma(s)(1+u)^{-s}
    s, u = p["s"], p["u"]
    term = total = cmath.exp(kernels.loggamma(s))
    for n in range(p["n_terms"] - 1):
        term *= -u * (s + n) / (n + 1.0)
        total += term
    return total, _power_closed_form(s, u)


def _two_term(p, qt, method):
    # rescaled line integral vs Gamma(s)/(a+b)^s
    s, a, b = p["s"], p["a"], p["b"]
    if a <= 0.0 or b <= 0.0:
        raise DomainViolation("two_term needs a > 0 and b > 0")
    lo, hi = min(a, b), max(a, b)
    line = VerticalLineSpec(p["c"], qt)
    lhs = (hi ** (-s)) * integrate_vertical(gamma_power(s, lo / hi),
                                            line).value
    return lhs, cmath.exp(kernels.loggamma(s)) * (a + b) ** (-s)


def _double_sum(p, qt, method):
    # line integral vs the closed form, or the truncated double-sum oracle
    s = p["s"]
    line = VerticalLineSpec(p.get("c", 1.5), qt)
    lhs = integrate_vertical(zeta_zeta_gamma(s), line).value
    if method == "oracle":
        return lhs, cmath.exp(kernels.loggamma(s)) * double_sum_oracle(
            s, min(qt, 1e-12))
    return lhs, _zeta_pair_closed_form(s)


def _hurwitz_kernel(p, qt, method):
    # line integral vs Gamma(s) zeta(s, a)
    s, a = p["s"], p["a"]
    line = VerticalLineSpec(p.get("c", 1.5), qt)
    return (integrate_vertical(zeta_gamma_power(s, a), line).value,
            cmath.exp(kernels.loggamma(s)) * hurwitz_zeta(s, a))


def _app_integral(p, qt, method):
    # real-axis integral vs closed form
    s = p["s"]
    return integrate_real_improper(s, qt).value, _zeta_pair_closed_form(s)


def _coth_expansion(p, qt, method):
    # partial sum of (x/2)coth(x/2) = sum B_{2n} x^{2n} / (2n)! vs its value
    x, n_terms = p["x"], p["n_terms"]
    if not 1 <= n_terms <= len(EM_COEFFS) + 1:
        raise DomainViolation(
            f"n_terms must be within 1..{len(EM_COEFFS) + 1}, got {n_terms}")
    if x == 0.0 or abs(x) >= 2.0 * math.pi:
        raise DomainViolation(f"series point must satisfy 0 < |x| < 2*pi, got {x}")
    total = 1.0
    x2 = x * x
    xp = 1.0
    for n in range(1, n_terms):
        xp *= x2
        total += EM_COEFFS[n - 1] * xp
    return total, (x / 2.0) / math.tanh(x / 2.0)


def check_identity(case):
    """Evaluate both sides of the identity named by case.kind and compare."""
    sides = _KINDS[case.kind][2].sides
    lhs, rhs = sides(case.params, _quad_tol(case.tolerance), case.method)
    return _entry(case.id, lhs, rhs, case.tolerance)


def check_rectangle(f, rect, tol=1e-6, entry_id=None):
    """Compare the rectangle boundary integral against the enclosed residue
    sum; a residue that overflows binary64 raises before the integral runs."""
    if entry_id is None:
        entry_id = (f"rectangle[{f.tag},right={rect.c:g},left={rect.left:g},"
                    f"T={rect.T:g}]")
    _require_finite_residues(f, rect.left + POLE_GUARD, rect.c - POLE_GUARD)
    lhs = integrate_rectangle(f, rect, _quad_tol(tol)).value
    rhs = sum((residue_at(f, p).value for p in enumerate_poles(f, rect)),
              start=0j)
    return _entry(entry_id, lhs, rhs, tol)


# the parameters each decay study takes besides those of the decay kind
_STUDY_PARAMS = {"vertical_shift": (), "horizontal": ("left",)}


@dataclass(frozen=True)
class DecayStudy:
    kind: str                  # one of _STUDY_PARAMS
    family_tag: str
    abscissa: float            # right abscissa c
    values: tuple              # shifts k (vertical) or heights T (horizontal)
    magnitudes: tuple
    threshold: float
    strictly_decreasing: bool
    final_below: bool

    @property
    def passed(self):
        return self.strictly_decreasing and self.final_below

    def entries(self, prefix=None, tolerance=0.5):
        """The .final row at the threshold, and the .monotone counting row
        at the indicator tolerance."""
        if prefix is None:
            prefix = f"decay_{self.kind}[{self.family_tag}]"
        final = _entry(prefix + ".final", self.magnitudes[-1], 0j,
                       self.threshold)
        violations = sum(1 for a, b in zip(self.magnitudes, self.magnitudes[1:])
                         if not b < a)
        monotone = _entry(prefix + ".monotone", complex(violations), 0j,
                          tolerance)
        return [final, monotone]


def decay_study(kind, f, c, values, left=None, threshold=1e-6):
    """Magnitude table for the two decay mechanisms behind contour shifting.

    vertical_shift: |full line integral| at abscissas c - k for k in values
    (families without zeta factors, gamma_power: their tail bound holds on
    every vertical line, and the magnitudes reproduce the binomial-series
    tail beyond the swept poles).

    horizontal: |top edge integral| from c + iT to left + iT for T in values,
    witnessing that rectangle lids vanish as the rectangle grows tall.
    """
    if kind not in _STUDY_PARAMS:
        raise DomainViolation(f"unknown decay study kind {kind!r}")
    values = tuple(float(v) for v in values)
    if len(values) < 2 or any(b <= a for a, b in zip(values, values[1:])):
        raise DomainViolation("values must be at least two increasing numbers")
    qt = max(1e-3 * threshold, 1e-13)
    mags = []
    if kind == "vertical_shift":
        i, j = f.shape[:2]
        if i or j:
            raise DomainViolation(
                "vertical_shift decay is defined for families without zeta "
                "factors (gamma_power)")
        for k in values:
            if k <= 0.0:
                raise DomainViolation("shifts must be positive")
            r = _integrate_vertical_unchecked(f, c - k, qt)
            mags.append(abs(r.value))
    else:
        if left is None or not left < c:
            raise DomainViolation("horizontal study needs left < c")
        for T in values:
            r = integrate_segment(f, complex(c, T), complex(left, T), qt)
            mags.append(abs(r.value))
    mags = tuple(mags)
    decreasing = all(b < a for a, b in zip(mags, mags[1:]))
    return DecayStudy(kind, f.tag, float(c), values, mags, float(threshold),
                      decreasing, mags[-1] <= threshold)


# bound: (sigma range, |f| / envelope at sigma + it, the fit and test ranges
# of |t| its suite case uses)
_ENVELOPES = {
    "gamma_exp": ((0.5, 3.0), lambda sig, t: (
        math.exp(kernels.loggamma(complex(sig, t)).real) / math.exp(-abs(t))),
        (1.0, 10.0), (10.0, 40.0)),
    "zeta_left": ((-2.0, -0.5), lambda sig, t: (
        abs(riemann_zeta(complex(sig, t))) / abs(t) ** (0.5 - sig)),
        (5.0, 50.0), (50.0, 60.0)),
    "zeta_strip": ((0.25, 0.75), lambda sig, t: (
        abs(riemann_zeta(complex(sig, t))) / abs(t) ** 0.75),
        (5.0, 20.0), (20.0, 60.0)),
}


@dataclass(frozen=True)
class EnvelopeFit:
    bound_kind: str
    sigma_range: tuple
    fit_range: tuple
    test_range: tuple
    grid: tuple
    constant: float            # C fitted as the max ratio over the fit grid
    worst_test_ratio: float
    violations: int

    @property
    def passed(self):
        return self.violations == 0

    def entry(self, entry_id=None, tolerance=0.5):
        """The counting row of the violations."""
        if entry_id is None:
            entry_id = (f"envelope[{self.bound_kind},fit={self.fit_range[0]:g}"
                        f"..{self.fit_range[1]:g},test={self.test_range[0]:g}"
                        f"..{self.test_range[1]:g}]")
        return _entry(entry_id, complex(self.violations), 0j, tolerance)


# points per axis of an envelope fit's sigma-by-|t| grids
_GRID_POINTS = 20


def _grid(lo, hi):
    step = (hi - lo) / (_GRID_POINTS - 1)
    return [lo + i * step for i in range(_GRID_POINTS)]


def fit_envelope(bound_kind, fit_range, test_range):
    """Fit C = max |f| / envelope over the fit |t| range, then count test-range
    grid points exceeding it; each grid is 20 by 20, sigma by |t|.

    Zero violations means the envelope shape explains the growth of |f| on the
    held-out range with the fitted constant; any violation is reported, never
    absorbed by refitting.
    """
    if bound_kind not in _ENVELOPES:
        raise DomainViolation(f"unknown envelope kind {bound_kind!r}")
    fit_range = (float(fit_range[0]), float(fit_range[1]))
    test_range = (float(test_range[0]), float(test_range[1]))
    for lo, hi in (fit_range, test_range):
        if not 0.0 < lo < hi:
            raise DomainViolation(f"range must satisfy 0 < lo < hi, got {lo, hi}")
    if test_range[0] < fit_range[1]:
        raise DomainViolation("test range must sit above the fit range")
    (sig_lo, sig_hi), ratio, _, _ = _ENVELOPES[bound_kind]
    sigmas = _grid(sig_lo, sig_hi)
    constant = 0.0
    for t in _grid(*fit_range):
        for sig in sigmas:
            constant = max(constant, ratio(sig, t))
    worst = 0.0
    violations = 0
    for t in _grid(*test_range):
        for sig in sigmas:
            r = ratio(sig, t)
            worst = max(worst, r)
            if r > constant:
                violations += 1
    return EnvelopeFit(bound_kind, (sig_lo, sig_hi), fit_range, test_range,
                       (_GRID_POINTS, _GRID_POINTS), constant, worst,
                       violations)


@dataclass(frozen=True)
class VerificationReport:
    entries: tuple
    environment: dict
    overall_pass: bool

    def to_dict(self):
        return {
            "version": __version__,
            "environment": dict(self.environment),
            "entries": [e.to_dict() for e in self.entries],
            "overall_pass": self.overall_pass,
        }

    def to_csv(self):
        lines = ["id,lhs_re,lhs_im,rhs_re,rhs_im,abs_err,rel_err,tolerance,pass"]
        for e in self.entries:
            lines.append(",".join([
                e.id.replace(",", ";"),
                repr(e.lhs.real), repr(e.lhs.imag),
                repr(e.rhs.real), repr(e.rhs.imag),
                repr(e.abs_err), repr(e.rel_err), repr(e.tolerance),
                "true" if e.passed else "false",
            ]))
        return "\n".join(lines) + "\n"

    def to_text(self):
        lines = [f"{'PASS' if e.passed else 'FAIL'} {e.id} "
                 f"abs_err={e.abs_err:.3e} rel_err={e.rel_err:.3e} "
                 f"tol={e.tolerance:g}" + (f" [{e.error}]" if e.error else "")
                 for e in self.entries]
        lines.append(f"overall_pass={'true' if self.overall_pass else 'false'}")
        return "\n".join(lines) + "\n"


DEFAULT_TOLERANCES = {
    "gamma_only": 1e-8,
    "zeta_bearing": 1e-6,
    "series": 1e-10,
    "rectangle": 1e-6,
    "decay_threshold": 1e-6,
    "indicator": 0.5,
}


# Suite runners, run(case, name, tol, cfg) -> entries: name is case["id"],
# or kind#index, and cfg the read config.

class _Identity:
    """Runner of an identity kind: check_identity, comparing the two sides."""

    def __init__(self, sides):
        self.sides = sides

    def __call__(self, case, name, tol, cfg):
        params = {k: v for k, v in case.items()
                  if k not in ("id", "kind", "tolerance", "method")}
        ic = IdentityCase(name, case["kind"], params, tol,
                          case.get("method", "closed_form"))
        return [check_identity(ic)]


def _family(case):
    tag = case["family"]
    return IntegrandFamily(tag, case["s"],
                           **{k: case[k] for k in FAMILY_PARAMS[tag]})


def _run_rectangle(case, name, tol, cfg):
    right = case["right"]
    rect = RectangleSpec(right, right - case["left"], case["T"])
    return [check_rectangle(_family(case), rect, tol, entry_id=case.get("id"))]


def _run_decay(case, name, tol, cfg):
    study = decay_study(case["study"], _family(case), case["c"],
                        case["values"], left=case.get("left"), threshold=tol)
    return study.entries(case.get("id"), cfg["tolerances"]["indicator"])


def _run_envelope(case, name, tol, cfg):
    _, _, fit_range, test_range = _ENVELOPES[case["bound"]]
    fit = fit_envelope(case["bound"], fit_range, test_range)
    return [fit.entry(case.get("id"), tol)]


def _run_tail_study(case, name, tol, cfg):
    # strict-growth violations for m >= 2 witness divergence
    study = asymptotic_tail_terms(case["s"], case.get("M", 20))
    mags = [abs(t) for t in study.terms]
    violations = sum(1 for i in range(2, len(mags) - 1)
                     if not mags[i + 1] > mags[i])
    return [_entry(name, complex(violations), 0j, tol)]


# kind: (required params, tolerance class, runner). A family's own
# parameters (FAMILY_PARAMS) and a study's (_STUDY_PARAMS) are required
# with it.
_KINDS = {
    "mb_power": (("s", "u", "c"), "gamma_only", _Identity(_mb_power)),
    "binomial_series": (("s", "u", "n_terms"), "gamma_only",
                        _Identity(_binomial_series)),
    "two_term": (("s", "a", "b", "c"), "gamma_only", _Identity(_two_term)),
    "double_sum": (("s",), "zeta_bearing", _Identity(_double_sum)),
    "hurwitz_kernel": (("s", "a"), "zeta_bearing", _Identity(_hurwitz_kernel)),
    "app_integral": (("s",), "zeta_bearing", _Identity(_app_integral)),
    "coth_expansion": (("x", "n_terms"), "series", _Identity(_coth_expansion)),
    "rectangle": (("family", "s", "right", "left", "T"), "rectangle",
                  _run_rectangle),
    "decay": (("study", "family", "s", "c", "values"), "decay_threshold",
              _run_decay),
    "envelope": (("bound",), "indicator", _run_envelope),
    "tail_study": (("s",), "indicator", _run_tail_study),
}

IDENTITY_KINDS = tuple(k for k, row in _KINDS.items()
                       if isinstance(row[2], _Identity))


# How each key is read: (read, what it expects). read returns the value it
# reads or raises TypeError or ValueError.

def _ok(value, ok):
    if not ok:
        raise ValueError
    return value


def _real(v):
    return float(_ok(v, not isinstance(v, bool) and math.isfinite(v)))


def _integer(v):
    return int(_ok(v, _real(v).is_integer()))


def _complex(v):
    if isinstance(v, str):
        v = [float(x) for x in v.split(",")]
    if isinstance(v, (list, tuple)):
        re, im = v
        return complex(_real(re), _real(im))
    if isinstance(v, complex):
        return _ok(v, cmath.isfinite(v))
    return complex(_real(v))


def _one_of(options):
    return lambda v: _ok(v, v in options), "one of " + ", ".join(options)


def _reals(v):
    return tuple(map(_real, _ok(v, isinstance(v, (list, tuple)))))


_POSITIVE = (lambda v: _ok(_real(v), v > 0.0), "a positive finite number")
_ANY = (lambda v: v, "anything")

_READERS = {
    "kind": _one_of(_KINDS),
    "id": (lambda v: _ok(v, isinstance(v, str)), "a string"),
    "tolerance": _POSITIVE, "method": _one_of(("closed_form", "oracle")),
    "s": (_complex, 'a finite number, [re, im] or "re,im"'),
    **dict.fromkeys(("u", "a", "b", "c", "x", "right", "left", "T"),
                    (_real, "a finite number")),
    "n_terms": (_integer, "an integer"), "M": (_integer, "an integer"),
    "values": (_reals, "a list of finite numbers"),
    "family": _one_of(FAMILY_PARAMS), "study": _one_of(_STUDY_PARAMS),
    "bound": _one_of(_ENVELOPES),
}


def _read_value(key, value, where, reader=None):
    read, what = reader or _READERS[key]
    try:
        return read(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where}: {key} must be {what}, got {value!r}") from None


def _read(raw, where, kind=None):
    """The keys of raw that _READERS knows, each read, with the parameters
    of its kind (raw["kind"] if not given), family and study present."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be an object")
    kind = kind or _read_value("kind", raw.get("kind"), where)
    case = {k: _read_value(k, v, where) for k, v in raw.items()
            if k in _READERS}
    missing = [k for k in _KINDS[kind][0]
               + FAMILY_PARAMS.get(case.get("family"), ())
               + _STUDY_PARAMS.get(case.get("study"), ()) if k not in case]
    if missing:
        raise ConfigError(f"{where} ({kind}) is missing {missing}")
    return case


def default_config():
    """The default battery: every identity kind at several parameter points,
    three rectangles, both decay studies, the three envelope fits, and one
    tail study."""
    cases = [
        {"id": "mb_power[s=3,u=0.5]", "kind": "mb_power",
         "s": 3, "u": 0.5, "c": 1.2},
        {"id": "mb_power[s=4.5,u=0.25]", "kind": "mb_power",
         "s": 4.5, "u": 0.25, "c": 1.5},
        {"id": "mb_power[s=3+1i,u=0.7]", "kind": "mb_power",
         "s": [3, 1], "u": 0.7, "c": 1.2},
        {"id": "binomial_series[s=3,u=0.5,n=60]", "kind": "binomial_series",
         "s": 3, "u": 0.5, "n_terms": 60},
        {"id": "binomial_series[s=4.5,u=0.25,n=40]", "kind": "binomial_series",
         "s": 4.5, "u": 0.25, "n_terms": 40},
        {"id": "binomial_series[s=3+1i,u=0.7,n=90]", "kind": "binomial_series",
         "s": [3, 1], "u": 0.7, "n_terms": 90},
        {"id": "two_term[s=3.5,a=2,b=3]", "kind": "two_term",
         "s": 3.5, "a": 2, "b": 3, "c": 1.2},
        {"id": "two_term[s=3,a=1,b=1]", "kind": "two_term",
         "s": 3, "a": 1, "b": 1, "c": 1.2},
        {"id": "two_term[s=4.5,a=1.5,b=2.5]", "kind": "two_term",
         "s": 4.5, "a": 1.5, "b": 2.5, "c": 1.5},
        {"id": "double_sum[s=3]", "kind": "double_sum", "s": 3, "c": 1.5},
        {"id": "double_sum[s=4]", "kind": "double_sum", "s": 4, "c": 1.5},
        {"id": "double_sum[s=6.5]", "kind": "double_sum", "s": 6.5, "c": 1.5},
        {"id": "double_sum[s=3,oracle]", "kind": "double_sum", "s": 3,
         "c": 1.5, "method": "oracle"},
        {"id": "hurwitz_kernel[s=4,a=2]", "kind": "hurwitz_kernel",
         "s": 4, "a": 2, "c": 1.5},
        {"id": "hurwitz_kernel[s=3.5,a=2]", "kind": "hurwitz_kernel",
         "s": 3.5, "a": 2, "c": 1.5},
        {"id": "hurwitz_kernel[s=6.5,a=3]", "kind": "hurwitz_kernel",
         "s": 6.5, "a": 3, "c": 1.5},
        {"id": "app_integral[s=3]", "kind": "app_integral", "s": 3},
        {"id": "app_integral[s=4]", "kind": "app_integral", "s": 4},
        {"id": "app_integral[s=10]", "kind": "app_integral", "s": 10},
        {"id": "coth_expansion[x=1,n=10]", "kind": "coth_expansion",
         "x": 1.0, "n_terms": 10},
        {"id": "coth_expansion[x=0.5,n=10]", "kind": "coth_expansion",
         "x": 0.5, "n_terms": 10},
        {"id": "coth_expansion[x=1.5,n=12]", "kind": "coth_expansion",
         "x": 1.5, "n_terms": 12},
        {"kind": "rectangle", "family": "zeta_zeta_gamma", "s": 4,
         "right": 1.5, "left": -4.5, "T": 30},
        {"kind": "rectangle", "family": "gamma_power", "s": 3, "u": 0.5,
         "right": 0.8, "left": -3.5, "T": 20},
        {"kind": "rectangle", "family": "zeta_zeta_gamma", "s": 4,
         "right": 1.4, "left": 1.2, "T": 5},
        {"kind": "decay", "study": "vertical_shift", "family": "gamma_power",
         "s": 3, "u": 0.5, "c": 0.5, "values": [10, 20, 30]},
        {"kind": "decay", "study": "horizontal", "family": "zeta_zeta_gamma",
         "s": 4, "c": 1.5, "left": -4.5, "values": [10, 20, 30]},
        {"kind": "envelope", "bound": "gamma_exp"},
        {"kind": "envelope", "bound": "zeta_left"},
        {"kind": "envelope", "bound": "zeta_strip"},
        {"id": "tail_study[s=4,M=20]", "kind": "tail_study", "s": 4, "M": 20},
    ]
    return {"tolerances": dict(DEFAULT_TOLERANCES), "cases": cases}


def _section(given, where, defaults, reader):
    """defaults updated from the object given, each value read by reader."""
    if not isinstance(given, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = sorted(set(given) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown {where} keys {unknown}")
    return {**defaults, **{k: _read_value(k, v, where, reader)
                           for k, v in given.items()}}


def _read_config(config):
    """The whole config read over its defaults."""
    top = _section(config, "config", default_config(), _ANY)
    if not isinstance(top["cases"], list):
        raise ConfigError("cases must be a list of objects")
    return {
        "tolerances": _section(top["tolerances"], "tolerances",
                               DEFAULT_TOLERANCES, _POSITIVE),
        "cases": [_read(c, f"cases[{i}]") for i, c in enumerate(top["cases"])],
    }


def run_suite(config=None):
    """Run a battery of checks and assemble the deterministic report.

    Malformed configuration raises ConfigError before any case runs; errors
    inside an individual case never abort the suite -- they become failing
    entries carrying the error text and the case's tolerance, with sentinel
    errors of 1e308.
    """
    cfg = _read_config(config if config is not None else {})
    entries = []
    for i, case in enumerate(cfg["cases"]):
        kind = case["kind"]
        _, tol_class, run = _KINDS[kind]
        tol = case.get("tolerance", cfg["tolerances"][tol_class])
        name = case.get("id", f"{kind}#{i}")
        try:
            entries.extend(run(case, name, tol, cfg))
        except (MBZetaError, ValueError, KeyError, OverflowError,
                ZeroDivisionError) as exc:
            entries.append(_failed_entry(name, tol, exc))
    environment = {
        "package": "mbzeta",
        "version": __version__,
        "backend": BACKEND,
        "float_format": "binary64",
    }
    overall = all(e.passed for e in entries)
    return VerificationReport(tuple(entries), environment, overall)
