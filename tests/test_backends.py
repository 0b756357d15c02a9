"""Pure-Python and compiled kernels must agree in behavior and, to 1e-13
relative, in digits. The compiled ones are built from src/mbzeta/_core.c into
a temporary copy of the package, never into src/; the module skips only when
no C compiler or no Python.h is found."""
import importlib.util
import inspect
import json
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

import mbzeta
from mbzeta import BACKEND, _purepy, errors
from mbzeta.zeta import DEFAULT_CONFIG, ZetaEvalConfig

SRC_ROOT = Path(mbzeta.__file__).resolve().parents[1]
# a sloppy edit to _core.c fails the suite instead of shipping
STRICT_FLAGS = ["-std=c99", "-Wall", "-Wextra", "-Werror", "-Wno-unused-parameter"]
# (em_min, em_per_im, order, reflect_below) as the package passes them: the
# adaptive default, whose corrections stop early, a fixed em_terms, and a low
# cap of 8 that the corrections reach; plus the off-default (24, 1.2)
TERM_ARGS = [cfg._term_args() + (cfg.correction_order, cfg.reflect_below)
             for cfg in (DEFAULT_CONFIG, ZetaEvalConfig(em_terms=30),
                         ZetaEvalConfig(correction_order=8))]
TERM_ARGS.append((24, 1.2, 12, 0.5))


def _missing_toolchain():
    cc = (sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(cc) is None:
        return f"no C compiler: {cc} not found"
    include = Path(sysconfig.get_paths()["include"])
    return None if (include / "Python.h").is_file() else f"no Python.h in {include}"


@pytest.fixture(scope="module")
def compiled_package(tmp_path_factory):
    """Root of a copy of the mbzeta package with _core.c built into it."""
    missing = _missing_toolchain()
    if missing:
        pytest.skip(missing)
    from setuptools import Distribution, Extension

    root = tmp_path_factory.mktemp("compiled")
    shutil.copytree(SRC_ROOT / "mbzeta", root / "mbzeta",
                    ignore=shutil.ignore_patterns("__pycache__", "*.so", "*.pyd"))
    cc = Path(sysconfig.get_config_var("CC").split()[0]).name
    flags = STRICT_FLAGS if "gcc" in cc or "clang" in cc else []
    ext = Extension("mbzeta._core", [str(root / "mbzeta" / "_core.c")],
                    extra_compile_args=flags)
    build = Distribution({"ext_modules": [ext]}).get_command_obj("build_ext")
    build.build_lib = str(root)
    build.build_temp = str(tmp_path_factory.mktemp("build_temp"))
    build.ensure_finalized()
    build.run()
    return root


@pytest.fixture(scope="module")
def compiled(compiled_package):
    path = compiled_package / "mbzeta" / ("_core" + sysconfig.get_config_var("EXT_SUFFIX"))
    spec = importlib.util.spec_from_file_location("mbzeta._core", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_python(root, *argv):
    """`python *argv`, importing mbzeta from root."""
    env = {k: v for k, v in os.environ.items() if k != "MBZETA_CONFIG"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=env, cwd=root, timeout=120)


def _grid(re_lo, re_hi, im_lo, im_hi, n=9):
    for i in range(n):
        for j in range(n):
            yield complex(re_lo + (re_hi - re_lo) * i / (n - 1),
                          im_lo + (im_hi - im_lo) * j / (n - 1))


def _off_gamma_poles(points):
    return [z for z in points if not (abs(z - round(z.real)) < 1e-3 and z.real <= 0.5)]


def test_backend_label():
    assert BACKEND in ("compiled", "python")


def test_compiled_api_matches_the_twin(compiled):
    assert compiled.BACKEND_NAME == "compiled"
    for tag in ("TAG_GAMMA_POWER", "TAG_ZETA_ZETA_GAMMA", "TAG_ZETA_GAMMA_POWER"):
        assert getattr(compiled, tag) == getattr(_purepy, tag)
    for name in ("loggamma", "gamma", "zeta_em", "riemann_zeta", "hurwitz_zeta",
                 "integrand"):
        got = inspect.signature(getattr(compiled, name)).parameters.values()
        want = inspect.signature(getattr(_purepy, name)).parameters.values()
        assert [(p.name, p.default) for p in got] == \
            [(p.name, p.default) for p in want], name
    with pytest.raises(ValueError, match="unknown integrand tag 7"):
        compiled.integrand(7, 4.0, 0.0, 1.5)


def test_loggamma_parity(compiled):
    for z in _off_gamma_poles(_grid(-5.5, 6.5, -8.0, 8.0)):
        a = _purepy.loggamma(z)
        b = compiled.loggamma(z)
        assert abs(a - b) <= 1e-13 * max(1.0, abs(a)), z


def test_gamma_parity(compiled):
    for z in _off_gamma_poles(_grid(-5.5, 30.5, -8.0, 8.0, n=13)):
        a = _purepy.gamma(z)
        b = compiled.gamma(z)
        assert abs(a - b) <= 1e-13 * max(1.0, abs(a)), z


@pytest.mark.parametrize("args", TERM_ARGS)
def test_riemann_zeta_parity(compiled, args):
    # Re s < 1/2 takes the functional equation; |Im s| up to 50
    for z in _grid(-3.0, 5.0, -50.0, 50.0, n=11):
        if abs(z - 1.0) < 1e-2:
            continue
        a = _purepy.riemann_zeta(z, *args)
        b = compiled.riemann_zeta(z, *args)
        assert abs(a - b) <= 1e-13 * max(1.0, abs(a)), z


@pytest.mark.parametrize("args", TERM_ARGS)
def test_hurwitz_zeta_parity(compiled, args):
    for z in _grid(1.2, 8.0, -50.0, 50.0):
        for shift in (1.0, 2.0, 3.5):
            a = _purepy.hurwitz_zeta(z, shift, *args[:3])
            b = compiled.hurwitz_zeta(z, shift, *args[:3])
            assert abs(a - b) <= 1e-13 * max(1.0, abs(a)), (z, shift)


def test_zeta_em_parity(compiled):
    for z in _grid(0.6, 4.0, -20.0, 20.0):
        for shift in (1.0, 2.0):
            a = _purepy.zeta_em(z, shift, 50, 12)
            b = compiled.zeta_em(z, shift, 50, 12)
            assert abs(a - b) <= 1e-13 * max(1.0, abs(a)), (z, shift)


@pytest.mark.parametrize("args", TERM_ARGS)
def test_integrand_parity_all_families(compiled, args):
    cases = [(0, complex(3.0, 0.0), 0.5), (1, complex(4.0, 0.0), 0.0),
             (2, complex(4.0, 0.0), 2.0), (0, complex(3.0, 5.0), 0.7),
             (1, complex(4.0, 20.0), 0.0), (2, complex(4.5, -20.0), 2.5)]
    for tag, s, prm in cases:
        # the line strip, and rectangle left edges out to Re z = -4.3
        for z in [*_grid(1.2, 1.45, -25.0, 25.0, n=7),
                  *_grid(-4.3, 0.45, -25.0, 25.0, n=6)]:
            a = _purepy.integrand(tag, s, prm, z, *args)
            b = compiled.integrand(tag, s, prm, z, *args)
            assert abs(a - b) <= 1e-12 * max(1e-30, abs(a)), (tag, s, z)


@pytest.mark.parametrize("backend", ("python", "compiled"))
def test_integrand_conjugate_symmetry_for_real_s(request, backend):
    # contour integrates only the upper half of a real-s line or rectangle,
    # which holds because integrand(conj z) = conj integrand(z) for real s
    kern = (_purepy if backend == "python"
            else request.getfixturevalue("compiled"))
    args = TERM_ARGS[0]  # DEFAULT_CONFIG's, the ones the package binds
    for tag, s, prm in ((0, 3.0, 0.5), (1, 4.0, 0.0), (2, 4.5, 2.5)):
        for z in [*_grid(1.2, 1.45, 0.5, 25.0, n=7),
                  *_grid(-4.3, 0.45, 0.5, 25.0, n=6)]:
            a = kern.integrand(tag, complex(s), prm, z, *args)
            b = kern.integrand(tag, complex(s), prm, z.conjugate(), *args)
            assert abs(b - a.conjugate()) <= 1e-13 * abs(a), (tag, s, z)


_SELECT = ("from mbzeta import BACKEND; import mbzeta.zeta as z; "
           "print(BACKEND, abs(z.riemann_zeta(2.0) - 1.6449340668482264) < 1e-12)")


def test_backend_follows_importability(compiled_package):
    # src/ holds no built extension; the temporary copy does
    for root, active in ((SRC_ROOT, "python"), (compiled_package, "compiled")):
        out = _run_python(root, "-c", _SELECT)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == [active, "True"]


def test_cli_verify_on_the_compiled_backend(compiled_package):
    out = _run_python(compiled_package, "-m", "mbzeta.cli", "verify")
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert report["overall_pass"] is True
    assert report["environment"]["backend"] == "compiled"


# Non-finite input at the public boundary must raise DomainViolation within a
# second on both backends, and so must a quadrature tol that is not positive;
# one subprocess per backend, so a kernel that kills the interpreter fails the
# test instead of the run.
NON_FINITE_CALLS = (
    "zeta.riemann_zeta(complex(nan, 0))",
    "zeta.riemann_zeta(inf)",
    "zeta.hurwitz_zeta(3, inf)",
    "zeta.hurwitz_zeta(nan, 2)",
    "specfun.gamma(nan)",
    "specfun.log_gamma(inf)",
    "contour.integrand_eval(contour.gamma_power(3, 0.5), complex(nan, 0))",
    "contour.integrand_eval(contour.zeta_zeta_gamma(4), complex(inf, 0))",
    "residues.numerical_residue(contour.gamma_power(3, 0.5), 0.0, radius=nan)",
    "residues.numerical_residue(contour.gamma_power(3, 0.5), complex(0, inf))",
    "contour.VerticalLineSpec(1.5, nan).validate_for(contour.zeta_zeta_gamma(4))",
    "contour.VerticalLineSpec(1.2, inf).validate_for(contour.gamma_power(3, .5))",
    "contour.integrate_real_improper(nan)",
    "contour.integrate_segment(contour.gamma_power(3, .5), 1j, 2+1j, nan)",
    "contour.integrate_segment(contour.gamma_power(3, .5), 1j, 2+1j, 0.0)",
    "contour.integrate_rectangle(contour.gamma_power(3, .5), "
    "contour.RectangleSpec(0.5, 1.0, 1.0), -1e-8)",
    "residues.numerical_residue(contour.gamma_power(3, 0.5), 0.0, tol=nan)",
    "contour.integrate_real_improper(4, nan)",
    "contour.integrate_real_improper(4, inf)",
    "residues.asymptotic_tail_terms(nan)",
    "zeta.double_sum_oracle(nan)",
    "zeta.double_sum_oracle(3, nan)",
    "zeta.double_sum_oracle(3, -1.0)",
    "specfun.bernoulli(nan)",
    "specfun.bernoulli(inf)",
    "zeta.zeta_negative_integer(nan)",
    "contour.integrate_rectangle(contour.gamma_power(3, .5), "
    "contour.RectangleSpec(nan, 1, 1))",
    "residues.enumerate_poles(contour.gamma_power(3, .5), "
    "contour.RectangleSpec(nan, 1, 1))",
    "verify.check_rectangle(contour.gamma_power(3, .5), "
    "contour.RectangleSpec(nan, 1, 1))",
    "contour.RectangleSpec(1, inf, 1)",
    "contour.RectangleSpec(1, 1, inf)",
    "contour.integrate_segment(contour.gamma_power(3, .5), nan, 1+1j)",
    "contour.integrate_segment(contour.gamma_power(3, .5), complex(1, inf), 1+1j)",
    "contour.zeta_gamma_power(4, nan)",
    "contour.zeta_gamma_power(4, inf)",
    "residues.classify_pole(contour.zeta_zeta_gamma(4), nan)",
    "residues.classify_pole(contour.zeta_zeta_gamma(4), inf)",
    "residues.classify_pole(contour.gamma_power(3, .5), -inf)",
    "residues.residue_at(contour.gamma_power(3, .5), nan)",
    "residues.residue_at(contour.zeta_gamma_power(4, 2), inf)",
    "residues.residue_at(contour.zeta_zeta_gamma(4), -inf)",
    "residues.residue_at(contour.gamma_power(3, .5), "
    "residues.PoleLocation(nan, residues.GAMMA_POLE))",
    "contour.gamma_power(3, .5).is_pole(nan)",
    "contour.zeta_zeta_gamma(4).is_pole(inf)",
    "contour.zeta_gamma_power(4, 2).is_pole(-inf)",
    "contour.gamma_power(3, .5).poles(nan, 0)",
    "contour.zeta_zeta_gamma(4).poles(inf, 0)",
    "contour.gamma_power(3, .5).poles(-inf, 0)",
    "contour.zeta_gamma_power(4, 2).poles(0, inf)",
)
# Finite input whose value overflows binary64 must raise OverflowRegime, in
# the same probe.
OVERFLOW_CALLS = (
    "specfun.log_gamma(1e308)",
    "specfun.gamma(200.0)",
    "specfun.gamma(complex(0.5, 1e308))",
    "specfun.beta(1e308, 1.0)",
    "zeta.riemann_zeta(-200.0)",
    "zeta.riemann_zeta(-400.0)",
    "contour.integrand_eval(contour.zeta_zeta_gamma(4), complex(-300, 0.5))",
    "contour.integrate_vertical(contour.gamma_power(3+1e6j, 0.5), "
    "contour.VerticalLineSpec(1.0, 1e-8))",
    "contour.integrate_segment(contour.gamma_power(3, 0.5), 1.5+0.5j, "
    "1e9+0.5j, 1e-8)",
    "contour.integrate_rectangle(contour.zeta_zeta_gamma(4), "
    "contour.RectangleSpec(1.5, 1e9, 1.0), 1e-8)",
    "contour.integrate_real_improper(400.0)",
    "contour.integrate_real_improper(1e6)",
    "residues.residue_at(contour.gamma_power(3, .5), -1e308)",
)
# An index beyond the exact Bernoulli table must raise IndexBeyondTable, in
# the same probe.
INDEX_CALLS = (
    "specfun.bernoulli(10**400)",
    "zeta.zeta_negative_integer(10**400)",
)
# Inputs whose pole scans once grew with their size, until they exhausted
# memory: each must return, or raise a named MBZetaError, within a second.
HUGE_CALLS = (
    "residues.numerical_residue(contour.gamma_power(3, 0.5), 0j, 1e308, 1e-8)",
    "contour.integrate_segment(contour.gamma_power(3, .5), -1e9, -0.5)",
    "contour.integrate_rectangle(contour.gamma_power(3, .5), "
    "contour.RectangleSpec(1.5, 1e9 + 1.5, 1.0))",
    "verify.check_rectangle(contour.gamma_power(3, 0.5), "
    "contour.RectangleSpec(1.5, 1e9, 1.0))",
    "residues.enumerate_poles(contour.gamma_power(3, 0.5), "
    "contour.RectangleSpec(1.5, 1e9, 1.0))",
)
# Real-s and complex-s lines, one per family each, a complex-s line 0.003
# from the pole at 1, and one whose tol is below its rounding floor, in the
# same probe: {call: (tol, outcome)}. Both backends must give the outcome,
# and values within tol of each other.
LINE_CALLS = {
    "contour.integrate_vertical(contour.gamma_power(3, 0.5), "
    "contour.VerticalLineSpec(1.2, 1e-10))": (1e-10, "returned"),
    "contour.integrate_vertical(contour.zeta_zeta_gamma(4), "
    "contour.VerticalLineSpec(1.5, 1e-10))": (1e-10, "returned"),
    "contour.integrate_vertical(contour.zeta_gamma_power(4, 2), "
    "contour.VerticalLineSpec(1.5, 1e-10))": (1e-10, "returned"),
    "contour.integrate_vertical(contour.gamma_power(5.1, 0.009), "
    "contour.VerticalLineSpec(3.9, 2.5e-7))": (2.5e-7, "ToleranceUnreachable"),
    "contour.integrate_vertical(contour.gamma_power(3+1j, 0.7), "
    "contour.VerticalLineSpec(1.2, 1e-10))": (1e-10, "returned"),
    "contour.integrate_vertical(contour.zeta_zeta_gamma(4+2j), "
    "contour.VerticalLineSpec(1.5, 1e-10))": (1e-10, "returned"),
    "contour.integrate_vertical(contour.zeta_gamma_power(4+3j, 2.5), "
    "contour.VerticalLineSpec(1.5, 1e-10))": (1e-10, "returned"),
    "contour.integrate_vertical(contour.zeta_gamma_power(4+3j, 2.5), "
    "contour.VerticalLineSpec(1.003, 1e-10))": (1e-10, "returned"),
}
_PROBE = """
import json, math, resource, signal, sys, time
from mbzeta import contour, residues, specfun, verify, zeta
# a call that allocates or runs without bound ends as MemoryError or
# TimeoutError here, not by taking the machine or the test run with it
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def timeout(signum, frame):
    raise TimeoutError


signal.signal(signal.SIGALRM, timeout)
nan, inf, out = math.nan, math.inf, {}
for call in json.loads(sys.argv[1]):
    t0, kind, value = time.perf_counter(), "returned", None
    signal.alarm(10)
    try:
        value = getattr(eval(call), "value", None)
    except Exception as exc:
        kind = type(exc).__name__
    signal.alarm(0)
    out[call] = [kind, time.perf_counter() - t0,
                 None if value is None else [value.real, value.imag]]
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def probe_runs():
    """{backend: outcomes} of the probes run so far in this module."""
    return {}


def _probe(request, probe_runs, backend):
    """{call: [exception name, seconds, [re, im] of a result's value]} from
    one subprocess on the backend."""
    if backend not in probe_runs:
        root = (SRC_ROOT if backend == "python"
                else request.getfixturevalue("compiled_package"))
        out = _run_python(root, "-c", _PROBE, json.dumps(
            NON_FINITE_CALLS + OVERFLOW_CALLS + INDEX_CALLS + HUGE_CALLS
            + tuple(LINE_CALLS)))
        assert out.returncode == 0, (out.returncode, out.stderr[-2000:])
        probe_runs[backend] = json.loads(out.stdout)
    return probe_runs[backend]


@pytest.fixture(scope="module", params=("python", "compiled"))
def probe_outcomes(request, probe_runs):
    return _probe(request, probe_runs, request.param)


@pytest.mark.parametrize("call", NON_FINITE_CALLS)
def test_non_finite_input_raises_domain_violation(call, probe_outcomes):
    kind, seconds, _ = probe_outcomes[call]
    assert kind == "DomainViolation"
    assert seconds < 1.0


@pytest.mark.parametrize("call", OVERFLOW_CALLS)
def test_overflow_raises_overflow_regime(call, probe_outcomes):
    kind, seconds, _ = probe_outcomes[call]
    assert kind == "OverflowRegime"
    assert seconds < 1.0


@pytest.mark.parametrize("call", INDEX_CALLS)
def test_index_beyond_the_table_raises_index_beyond_table(call, probe_outcomes):
    kind, seconds, _ = probe_outcomes[call]
    assert kind == "IndexBeyondTable"
    assert seconds < 1.0


_NAMED_ERRORS = {name for name, obj in vars(errors).items()
                 if isinstance(obj, type) and issubclass(obj, errors.MBZetaError)}


@pytest.mark.parametrize("call", HUGE_CALLS)
def test_huge_input_scans_stay_bounded(call, probe_outcomes):
    kind, seconds, _ = probe_outcomes[call]
    assert kind in _NAMED_ERRORS | {"returned"}
    assert seconds < 1.0


@pytest.mark.parametrize("call", LINE_CALLS)
def test_lines_agree_across_backends(request, probe_runs, call):
    tol, outcome = LINE_CALLS[call]
    python, _, a = _probe(request, probe_runs, "python")[call]
    compiled, _, b = _probe(request, probe_runs, "compiled")[call]
    assert python == compiled == outcome
    if outcome == "returned":
        assert abs(complex(*a) - complex(*b)) <= tol
