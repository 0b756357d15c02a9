"""Fixed-grid probes of the public point functions and of the kernels, and
the import-time breakdown of `import mbzeta.cli` from `python -X importtime`.

Probe points are fixed (no seed), so their per-call costs compare directly
between commits. Kernels are timed at the package's real term arguments,
DEFAULT_CONFIG._term_args(), correction order and reflection line.
"""
import importlib
import statistics
import time

from mbzeta import contour, specfun, zeta

import harness

REPEATS = 5
IMPORT_ROUNDS = 5


def grid(re_lo, re_hi, im_lo, im_hi, n_re, n_im):
    return [complex(re_lo + (re_hi - re_lo) * i / (n_re - 1),
                    im_lo + (im_hi - im_lo) * j / (n_im - 1))
            for i in range(n_re) for j in range(n_im)]


# riemann_zeta strata as in the plane workload
ZETA_POINTS = {
    "t40": grid(0.6, 5.0, 1.0, 40.0, 6, 10),
    "t390": grid(0.6, 5.0, 40.0, 390.0, 6, 10),
    "reflect": grid(-3.0, 0.4, 1.0, 390.0, 6, 10),
}
HURWITZ_POINTS = [(z, 1.0 + 0.5 * (i % 8)) for i, z in
                  enumerate(grid(1.5, 8.0, -40.0, 40.0, 6, 10))]
LOG_GAMMA_POINTS = grid(-9.7, 19.7, 0.5, 50.0, 6, 10)
GAMMA_POINTS = grid(-9.7, 19.7, 0.5, 10.0, 6, 10)
# the line Re z = 1.5, |Im z| <= 30, for s = 4: inside every family's strip
LINE_POINTS = [complex(1.5, -30.0 + 60.0 * j / 96) for j in range(97)]
FAMILY_PROBES = {
    contour.GAMMA_POWER: contour.gamma_power(4.0, 0.5),
    contour.ZETA_ZETA_GAMMA: contour.zeta_zeta_gamma(4.0),
    contour.ZETA_GAMMA_POWER: contour.zeta_gamma_power(4.0, 2.0),
}
_KERNEL_TAG = {contour.GAMMA_POWER: 0, contour.ZETA_ZETA_GAMMA: 1,
               contour.ZETA_GAMMA_POWER: 2}


def per_call_us(fn, args_list, repeats=REPEATS):
    """Median over repeats of the mean wall time per call, in microseconds."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        for args in args_list:
            fn(*args)
        samples.append((time.perf_counter_ns() - t0) / 1e3 / len(args_list))
    return statistics.median(samples)


def kernel_modules():
    """The pure-Python kernels, plus the compiled ones when importable."""
    mods = {"python": importlib.import_module("mbzeta._purepy")}
    try:
        mods["compiled"] = importlib.import_module("mbzeta._core")
    except ImportError:
        pass
    return mods


def active_backend():
    """The kernel_modules name of the kernels mbzeta uses."""
    from mbzeta._backend import kernels
    return next(name for name, mod in kernel_modules().items() if mod is kernels)


def probe_points():
    """us per call of the public point functions on their fixed grids."""
    out = {}
    for stratum, pts in ZETA_POINTS.items():
        out[f"zeta.riemann_zeta.us_per_call.{stratum}"] = per_call_us(
            zeta.riemann_zeta, [(z,) for z in pts])
    out["zeta.hurwitz_zeta.us_per_call"] = per_call_us(zeta.hurwitz_zeta, HURWITZ_POINTS)
    out["specfun.log_gamma.us_per_call"] = per_call_us(
        specfun.log_gamma, [(z,) for z in LOG_GAMMA_POINTS])
    out["specfun.gamma.us_per_call"] = per_call_us(
        specfun.gamma, [(z,) for z in GAMMA_POINTS])
    for tag, f in FAMILY_PROBES.items():
        out[f"contour.integrand_eval.{tag}.us_per_call"] = per_call_us(
            contour.integrand_eval, [(f, z) for z in LINE_POINTS])
    return out


def probe_kernels():
    """us per call of each backend's kernels at the default term arguments."""
    cfg = zeta.DEFAULT_CONFIG
    em_min, em_per_im = cfg._term_args()
    order, reflect = cfg.correction_order, cfg.reflect_below
    out = {}
    for name, mod in kernel_modules().items():
        out[f"kernels.{name}.loggamma.us_per_call"] = per_call_us(
            mod.loggamma, [(z,) for z in LOG_GAMMA_POINTS])
        out[f"kernels.{name}.riemann_zeta.us_per_call"] = per_call_us(
            mod.riemann_zeta, [(z, em_min, em_per_im, order, reflect)
                               for z in ZETA_POINTS["t40"]])
        for tag, f in FAMILY_PROBES.items():
            out[f"kernels.{name}.integrand.{tag}.us_per_call"] = per_call_us(
                mod.integrand, [(_KERNEL_TAG[tag], f.s, f.param, z, em_min,
                                 em_per_im, order, reflect) for z in LINE_POINTS])
    return out


def parse_importtime(stderr_text):
    """{module: (self_us, cumulative_us)} from `python -X importtime`."""
    out = {}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        out[name.strip()] = (int(self_us), int(cum_us))
    return out


def import_times(rounds=IMPORT_ROUNDS):
    """import.total_ms (cumulative of the mbzeta package, i.e. `import
    mbzeta`) and import.self_ms.<module> for every mbzeta module that
    `import mbzeta.cli` loads, median over rounds of fresh interpreters."""
    env = harness.child_env()
    runs = []
    for _ in range(rounds + 1):
        rc, _, err, _ = harness.run_child(["-X", "importtime", "-c", "import mbzeta.cli"], env)
        if rc != 0:
            raise RuntimeError("import mbzeta.cli failed: " + err.decode(errors="replace")[-400:])
        runs.append(parse_importtime(err.decode()))
    runs = runs[1:]  # the first round may still write bytecode
    out = {"import.total_ms": statistics.median(r["mbzeta"][1] for r in runs) / 1e3}
    names = sorted({n for r in runs for n in r if n == "mbzeta" or n.startswith("mbzeta.")})
    for n in names:
        out[f"import.self_ms.{n}"] = statistics.median(r.get(n, (0, 0))[0] for r in runs) / 1e3
    return out
