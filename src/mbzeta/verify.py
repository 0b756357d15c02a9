"""Verification harness: identity checks, rectangle cross-checks, decay
studies, envelope fits, and a batch suite runner producing a deterministic
report.

Entry semantics: every report row carries lhs, rhs, abs_err, rel_err and a
tolerance, and passes iff abs_err <= tolerance or rel_err <= tolerance.
Boolean facts (monotone decay, zero envelope violations, tail growth) are
encoded as counting rows -- lhs = number of violations against rhs = 0 with
tolerance 0.5 -- so the pass rule above remains the single source of truth.
"""
import cmath
import math
from dataclasses import dataclass

from ._backend import BACKEND, kernels
from ._kernel_constants import EM_COEFFS
from ._version import __version__
from .contour import (DEFAULT_MAX_EVALUATIONS, GAMMA_POWER, RectangleSpec,
                      VerticalLineSpec, _integrate_vertical_unchecked,
                      gamma_power, integrate_real_improper, integrate_rectangle,
                      integrate_segment, integrate_vertical, zeta_gamma_power,
                      zeta_zeta_gamma)
from .errors import (ConfigError, DomainViolation, MBZetaError,
                     UnknownCaseKind)
from .residues import asymptotic_tail_terms, enumerate_poles, residue_at
from .specfun import POLE_GUARD
from .zeta import double_sum_oracle, hurwitz_zeta, riemann_zeta

__all__ = [
    "IDENTITY_KINDS", "IdentityCase", "CheckEntry", "DecayStudy",
    "EnvelopeFit", "VerificationReport", "check_identity", "check_rectangle",
    "decay_study", "fit_envelope", "run_suite", "default_config",
]

IDENTITY_KINDS = ("mb_power", "binomial_series", "two_term", "double_sum",
                  "hurwitz_kernel", "app_integral", "coth_expansion")

_TINY = 1e-300  # rel_err floor keeps rhs = 0 rows finite and JSON-safe


@dataclass(frozen=True)
class IdentityCase:
    id: str
    kind: str
    params: dict
    tolerance: float
    method: str = "closed_form"

    def __post_init__(self):
        if self.kind not in IDENTITY_KINDS:
            raise UnknownCaseKind(f"unknown identity kind {self.kind!r}")
        if not self.tolerance > 0.0:
            raise DomainViolation("tolerance must be positive")


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


def _binomial_partial(s, u, n_terms):
    term = cmath.exp(kernels.loggamma(s))
    total = term
    for n in range(n_terms - 1):
        term *= -u * (s + n) / (n + 1.0)
        total += term
    return total


def _coth_partial(x, n_terms):
    # partial sums of (x/2)coth(x/2) = sum B_{2n} x^{2n} / (2n)!
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
    return total


def check_identity(case, max_evaluations=DEFAULT_MAX_EVALUATIONS):
    """Evaluate both sides of the identity named by case.kind and compare.

    params by kind:
      mb_power          s, u, c          line integral vs Gamma(s)(1+u)^{-s}
      binomial_series   s, u, n_terms    partial sum vs Gamma(s)(1+u)^{-s}
      two_term          s, a, b, c       rescaled line integral vs Gamma(s)/(a+b)^s
      double_sum        s, c             line integral vs closed form or the
                                         truncated double-sum oracle (method)
      hurwitz_kernel    s, a, c          line integral vs Gamma(s) zeta(s, a)
      app_integral      s                real-axis integral vs closed form
      coth_expansion    x, n_terms       even series partial vs (x/2)coth(x/2)
    """
    p = case.params
    qt = _quad_tol(case.tolerance)
    kind = case.kind
    if kind == "mb_power":
        s, u = complex(p["s"]), float(p["u"])
        line = VerticalLineSpec(float(p["c"]), qt)
        lhs = integrate_vertical(gamma_power(s, u), line,
                                 max_evaluations).value
        rhs = _power_closed_form(s, u)
    elif kind == "binomial_series":
        s, u = complex(p["s"]), float(p["u"])
        lhs = _binomial_partial(s, u, int(p["n_terms"]))
        rhs = _power_closed_form(s, u)
    elif kind == "two_term":
        s = complex(p["s"])
        a, b = float(p["a"]), float(p["b"])
        if a <= 0.0 or b <= 0.0:
            raise DomainViolation("two_term needs a > 0 and b > 0")
        lo, hi = min(a, b), max(a, b)
        line = VerticalLineSpec(float(p["c"]), qt)
        lhs = (hi ** (-s)) * integrate_vertical(gamma_power(s, lo / hi), line,
                                                max_evaluations).value
        rhs = cmath.exp(kernels.loggamma(s)) * (a + b) ** (-s)
    elif kind == "double_sum":
        s = complex(p["s"])
        line = VerticalLineSpec(float(p.get("c", 1.5)), qt)
        lhs = integrate_vertical(zeta_zeta_gamma(s), line,
                                 max_evaluations).value
        if case.method == "oracle":
            rhs = cmath.exp(kernels.loggamma(s)) * double_sum_oracle(
                s, min(qt, 1e-12))
        else:
            rhs = _zeta_pair_closed_form(s)
    elif kind == "hurwitz_kernel":
        s, a = complex(p["s"]), float(p["a"])
        line = VerticalLineSpec(float(p.get("c", 1.5)), qt)
        lhs = integrate_vertical(zeta_gamma_power(s, a), line,
                                 max_evaluations).value
        rhs = cmath.exp(kernels.loggamma(s)) * hurwitz_zeta(s, a)
    elif kind == "app_integral":
        s = complex(p["s"])
        lhs = integrate_real_improper(s, qt, max_evaluations).value
        rhs = _zeta_pair_closed_form(s)
    elif kind == "coth_expansion":
        x = float(p["x"])
        lhs = _coth_partial(x, int(p["n_terms"]))
        rhs = (x / 2.0) / math.tanh(x / 2.0)
    else:  # pragma: no cover - IdentityCase already validates
        raise UnknownCaseKind(f"unknown identity kind {kind!r}")
    return _entry(case.id, lhs, rhs, case.tolerance)


def check_rectangle(f, rect, tol=1e-6,
                    max_evaluations=DEFAULT_MAX_EVALUATIONS,
                    pole_guard=POLE_GUARD, entry_id=None):
    """Compare the rectangle boundary integral against the enclosed residue sum."""
    if entry_id is None:
        entry_id = (f"rectangle[{f.tag},right={rect.c:g},left={rect.left:g},"
                    f"T={rect.T:g}]")
    lhs = integrate_rectangle(f, rect, _quad_tol(tol), max_evaluations,
                              pole_guard).value
    rhs = sum((residue_at(f, p).value for p in enumerate_poles(f, rect)),
              start=0j)
    return _entry(entry_id, lhs, rhs, tol)


@dataclass(frozen=True)
class DecayStudy:
    kind: str                  # "vertical_shift" or "horizontal"
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

    def entries(self, prefix=None):
        if prefix is None:
            prefix = f"decay_{self.kind}[{self.family_tag}]"
        final = _entry(prefix + ".final", self.magnitudes[-1], 0j,
                       self.threshold)
        violations = sum(1 for a, b in zip(self.magnitudes, self.magnitudes[1:])
                         if not b < a)
        monotone = _entry(prefix + ".monotone", complex(violations), 0j, 0.5)
        return [final, monotone]


def decay_study(kind, f, c, values, left=None, threshold=1e-6,
                max_evaluations=DEFAULT_MAX_EVALUATIONS):
    """Magnitude table for the two decay mechanisms behind contour shifting.

    vertical_shift: |full line integral| at abscissas c - k for k in values
    (gamma_power only; its tail bound holds on every vertical line, and the
    magnitudes reproduce the binomial-series tail beyond the swept poles).

    horizontal: |top edge integral| from c + iT to left + iT for T in values,
    witnessing that rectangle lids vanish as the rectangle grows tall.
    """
    if kind not in ("vertical_shift", "horizontal"):
        raise DomainViolation(f"unknown decay study kind {kind!r}")
    values = tuple(float(v) for v in values)
    if len(values) < 2 or any(b <= a for a, b in zip(values, values[1:])):
        raise DomainViolation("values must be at least two increasing numbers")
    qt = max(1e-3 * threshold, 1e-13)
    mags = []
    if kind == "vertical_shift":
        if f.tag != GAMMA_POWER:
            raise DomainViolation(
                "vertical_shift decay is defined for the gamma_power family")
        for k in values:
            if k <= 0.0:
                raise DomainViolation("shifts must be positive")
            r = _integrate_vertical_unchecked(f, c - k, qt, max_evaluations)
            mags.append(abs(r.value))
    else:
        if left is None or not left < c:
            raise DomainViolation("horizontal study needs left < c")
        for T in values:
            r = integrate_segment(f, complex(c, T), complex(left, T), qt,
                                  max_evaluations)
            mags.append(abs(r.value))
    mags = tuple(mags)
    decreasing = all(b < a for a, b in zip(mags, mags[1:]))
    return DecayStudy(kind, f.tag, float(c), values, mags, float(threshold),
                      decreasing, mags[-1] <= threshold)


_ENVELOPE_SIGMA = {
    "gamma_exp": (0.5, 3.0),
    "zeta_left": (-2.0, -0.5),
    "zeta_strip": (0.25, 0.75),
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

    def entry(self, entry_id=None):
        if entry_id is None:
            entry_id = (f"envelope[{self.bound_kind},fit={self.fit_range[0]:g}"
                        f"..{self.fit_range[1]:g},test={self.test_range[0]:g}"
                        f"..{self.test_range[1]:g}]")
        return _entry(entry_id, complex(self.violations), 0j, 0.5)


def _envelope_ratio(bound_kind):
    if bound_kind == "gamma_exp":
        return lambda sig, t: (math.exp(kernels.loggamma(complex(sig, t)).real)
                               / math.exp(-abs(t)))
    if bound_kind == "zeta_left":
        return lambda sig, t: (abs(riemann_zeta(complex(sig, t)))
                               / abs(t) ** (0.5 - sig))
    if bound_kind == "zeta_strip":
        return lambda sig, t: (abs(riemann_zeta(complex(sig, t)))
                               / abs(t) ** 0.75)
    raise DomainViolation(f"unknown envelope kind {bound_kind!r}")


def _grid(lo, hi, n):
    if n < 2:
        raise DomainViolation("grid needs at least 2 points per axis")
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def fit_envelope(bound_kind, fit_range, test_range, grid=(20, 20)):
    """Fit C = max |f| / envelope over the fit |t| range, then count test-range
    grid points exceeding it.

    Zero violations means the envelope shape explains the growth of |f| on the
    held-out range with the fitted constant; any violation is reported, never
    absorbed by refitting.
    """
    if bound_kind not in _ENVELOPE_SIGMA:
        raise DomainViolation(f"unknown envelope kind {bound_kind!r}")
    fit_range = (float(fit_range[0]), float(fit_range[1]))
    test_range = (float(test_range[0]), float(test_range[1]))
    for lo, hi in (fit_range, test_range):
        if not 0.0 < lo < hi:
            raise DomainViolation(f"range must satisfy 0 < lo < hi, got {lo, hi}")
    if test_range[0] < fit_range[1]:
        raise DomainViolation("test range must sit above the fit range")
    ratio = _envelope_ratio(bound_kind)
    sig_lo, sig_hi = _ENVELOPE_SIGMA[bound_kind]
    n_sig, n_t = int(grid[0]), int(grid[1])
    sigmas = _grid(sig_lo, sig_hi, n_sig)
    constant = 0.0
    for t in _grid(fit_range[0], fit_range[1], n_t):
        for sig in sigmas:
            constant = max(constant, ratio(sig, t))
    worst = 0.0
    violations = 0
    for t in _grid(test_range[0], test_range[1], n_t):
        for sig in sigmas:
            r = ratio(sig, t)
            worst = max(worst, r)
            if r > constant:
                violations += 1
    return EnvelopeFit(bound_kind, (sig_lo, sig_hi), fit_range, test_range,
                       (n_sig, n_t), constant, worst, violations)


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


_TOL_KEY = {
    "mb_power": "gamma_only", "binomial_series": "gamma_only",
    "two_term": "gamma_only", "double_sum": "zeta_bearing",
    "hurwitz_kernel": "zeta_bearing", "app_integral": "zeta_bearing",
    "coth_expansion": "series", "rectangle": "rectangle",
    "decay": "decay_threshold", "envelope": "indicator",
    "tail_study": "indicator",
}

DEFAULT_TOLERANCES = {
    "gamma_only": 1e-8,
    "zeta_bearing": 1e-6,
    "series": 1e-10,
    "rectangle": 1e-6,
    "decay_threshold": 1e-6,
    "indicator": 0.5,
}

DEFAULT_ENVELOPE_RANGES = {
    "gamma_exp": {"fit": [1.0, 10.0], "test": [10.0, 40.0]},
    "zeta_left": {"fit": [5.0, 50.0], "test": [50.0, 60.0]},
    "zeta_strip": {"fit": [5.0, 20.0], "test": [20.0, 60.0]},
}


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
    return {
        "tolerances": dict(DEFAULT_TOLERANCES),
        "cases": cases,
        "envelope_ranges": {k: {kk: list(v) for kk, v in r.items()}
                            for k, r in DEFAULT_ENVELOPE_RANGES.items()},
        "quadrature": {"pole_guard": POLE_GUARD,
                       "max_evaluations": DEFAULT_MAX_EVALUATIONS},
    }


def _as_complex(v, what="value"):
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, complex):
        return v
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(float(v[0]), float(v[1]))
    if isinstance(v, str):
        parts = v.split(",")
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    raise ConfigError(f"cannot read {what} {v!r} as a complex number")


_FAMILY_BUILDERS = {
    "gamma_power": (gamma_power, ("u",)),
    "zeta_zeta_gamma": (zeta_zeta_gamma, ()),
    "zeta_gamma_power": (zeta_gamma_power, ("a",)),
}


def _family_from_case(case):
    name = case.get("family")
    if name not in _FAMILY_BUILDERS:
        raise ConfigError(f"unknown family {name!r}")
    builder, extra = _FAMILY_BUILDERS[name]
    args = [_as_complex(case.get("s"), "s")]
    for key in extra:
        if key not in case:
            raise ConfigError(f"family {name!r} needs parameter {key!r}")
        args.append(float(case[key]))
    return builder(*args)


_CASE_KINDS = set(IDENTITY_KINDS) | {"rectangle", "decay", "envelope",
                                     "tail_study"}
_TOP_KEYS = {"tolerances", "cases", "envelope_ranges", "quadrature"}

_REQUIRED_PARAMS = {
    "mb_power": ("s", "u", "c"),
    "binomial_series": ("s", "u", "n_terms"),
    "two_term": ("s", "a", "b", "c"),
    "double_sum": ("s",),
    "hurwitz_kernel": ("s", "a"),
    "app_integral": ("s",),
    "coth_expansion": ("x", "n_terms"),
    "rectangle": ("family", "s", "right", "left", "T"),
    "decay": ("study", "family", "s", "c", "values"),
    "envelope": ("bound",),
    "tail_study": ("s",),
}


def _precheck_case(case, index):
    where = f"cases[{index}]"
    kind = case.get("kind")
    if kind not in _CASE_KINDS:
        raise ConfigError(f"{where} has unknown kind {kind!r}")
    missing = [k for k in _REQUIRED_PARAMS[kind] if k not in case]
    if missing:
        raise ConfigError(f"{where} ({kind}) is missing {missing}")
    if "tolerance" in case and not (isinstance(case["tolerance"], (int, float))
                                    and case["tolerance"] > 0.0):
        raise ConfigError(f"{where} tolerance must be a positive number")
    if "s" in case:
        try:
            _as_complex(case["s"], "s")
        except (ConfigError, ValueError, TypeError):
            raise ConfigError(f"{where} has unreadable s {case['s']!r}") from None
    if kind in ("rectangle", "decay") and case["family"] not in _FAMILY_BUILDERS:
        raise ConfigError(f"{where} has unknown family {case['family']!r}")
    if kind == "decay" and case["study"] not in ("vertical_shift", "horizontal"):
        raise ConfigError(f"{where} has unknown decay study {case['study']!r}")
    if kind == "envelope" and case["bound"] not in _ENVELOPE_SIGMA:
        raise ConfigError(f"{where} has unknown envelope bound {case['bound']!r}")


def _validate_config(config):
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(config) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")
    merged = default_config()
    tol = dict(merged["tolerances"])
    for k, v in (config.get("tolerances") or {}).items():
        if k not in DEFAULT_TOLERANCES:
            raise ConfigError(f"unknown tolerance key {k!r}")
        if not (isinstance(v, (int, float)) and v > 0.0):
            raise ConfigError(f"tolerance {k!r} must be a positive number")
        tol[k] = float(v)
    env = {k: {kk: list(map(float, vv)) for kk, vv in v.items()}
           for k, v in merged["envelope_ranges"].items()}
    for k, v in (config.get("envelope_ranges") or {}).items():
        if k not in DEFAULT_ENVELOPE_RANGES:
            raise ConfigError(f"unknown envelope kind {k!r}")
        if (not isinstance(v, dict) or set(v) - {"fit", "test"}
                or not all(isinstance(r, (list, tuple)) and len(r) == 2
                           for r in v.values())):
            raise ConfigError(
                f"envelope_ranges[{k!r}] must map 'fit'/'test' to [lo, hi]")
        env[k].update({kk: [float(x) for x in vv] for kk, vv in v.items()})
    quad = dict(merged["quadrature"])
    for k, v in (config.get("quadrature") or {}).items():
        if k not in quad:
            raise ConfigError(f"unknown quadrature key {k!r}")
        if not (isinstance(v, (int, float)) and v > 0):
            raise ConfigError(f"quadrature {k!r} must be a positive number")
        quad[k] = float(v) if k == "pole_guard" else int(v)
    cases = config.get("cases", merged["cases"])
    if not isinstance(cases, list) or not all(isinstance(c, dict) for c in cases):
        raise ConfigError("cases must be a list of objects")
    for i, c in enumerate(cases):
        _precheck_case(c, i)
    return {"tolerances": tol, "cases": cases, "envelope_ranges": env,
            "quadrature": quad}


def _run_case(case, index, ctx):
    kind = case["kind"]
    # _precheck_case has already validated a case's own tolerance
    tol = float(case.get("tolerance", ctx["tolerances"][_TOL_KEY[kind]]))
    cid = case.get("id", f"{kind}#{index}")
    if kind in IDENTITY_KINDS:
        params = {k: v for k, v in case.items()
                  if k not in ("id", "kind", "tolerance", "method")}
        if "s" in params:
            params["s"] = _as_complex(params["s"], "s")
        ic = IdentityCase(cid, kind, params, tol,
                          case.get("method", "closed_form"))
        return [check_identity(ic, ctx["max_evaluations"])]
    if kind == "rectangle":
        f = _family_from_case(case)
        right, left = float(case["right"]), float(case["left"])
        rect = RectangleSpec(right, right - left, float(case["T"]))
        return [check_rectangle(f, rect, tol, ctx["max_evaluations"],
                                ctx["pole_guard"], entry_id=case.get("id"))]
    if kind == "decay":
        f = _family_from_case(case)
        study = decay_study(case["study"], f, float(case["c"]),
                            case["values"], left=case.get("left"),
                            threshold=tol,
                            max_evaluations=ctx["max_evaluations"])
        return study.entries(case.get("id"))
    if kind == "envelope":
        ranges = ctx["envelope_ranges"][case["bound"]]
        fit = fit_envelope(case["bound"], ranges["fit"], ranges["test"])
        return [fit.entry(case.get("id"))]
    # tail_study: strict-growth violations for m >= 2 witness divergence
    study = asymptotic_tail_terms(_as_complex(case["s"], "s"),
                                  int(case.get("M", 20)))
    mags = [abs(t) for t in study.terms]
    violations = sum(1 for i in range(2, len(mags) - 1)
                     if not mags[i + 1] > mags[i])
    return [_entry(case.get("id", f"tail_study#{index}"),
                   complex(violations), 0j, tol)]


def run_suite(config=None):
    """Run a battery of checks and assemble the deterministic report.

    Malformed configuration raises ConfigError before any case runs; errors
    inside an individual case never abort the suite -- they become failing
    entries carrying the error text, with sentinel errors of 1e308.
    """
    resolved = _validate_config(config if config is not None else {})
    ctx = {
        "tolerances": resolved["tolerances"],
        "envelope_ranges": resolved["envelope_ranges"],
        "pole_guard": resolved["quadrature"]["pole_guard"],
        "max_evaluations": resolved["quadrature"]["max_evaluations"],
    }
    entries = []
    for i, case in enumerate(resolved["cases"]):
        try:
            entries.extend(_run_case(case, i, ctx))
        except ConfigError:
            raise
        except (MBZetaError, ValueError, KeyError, OverflowError,
                ZeroDivisionError) as exc:
            tol = resolved["tolerances"].get(
                _TOL_KEY.get(case.get("kind"), "indicator"), 0.5)
            entries.append(_failed_entry(
                case.get("id", f"{case.get('kind')}#{i}"), tol, exc))
    environment = {
        "package": "mbzeta",
        "version": __version__,
        "backend": BACKEND,
        "float_format": "binary64",
    }
    overall = all(e.passed for e in entries)
    return VerificationReport(tuple(entries), environment, overall)
