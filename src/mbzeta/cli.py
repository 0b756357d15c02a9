"""Command-line front end.

Subcommands: eval, integrate, rect, residues, tail, verify.
Complex flags are written as "re,im" (no parentheses, no trailing i), e.g.
--s 4,0 or --s 3,1.  Exit codes: 0 success/pass, 1 failed check or numerical
error, 2 usage error.
"""
import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

from ._version import __version__
from .contour import (FAMILY_PARAMS, IntegrandFamily, RectangleSpec,
                      VerticalLineSpec, integrate_real_improper,
                      integrate_vertical)
from .errors import ConfigError, MBZetaError, UsageError
from .residues import (_require_finite_residues, asymptotic_tail_terms,
                       classify_pole, residue_at)
from .specfun import beta, bernoulli, gamma, log_gamma
from .verify import check_rectangle, default_config, run_suite
from .zeta import hurwitz_zeta, riemann_zeta

__all__ = ["Command", "parse_args", "execute", "main"]

CONFIG_ENV_VAR = "MBZETA_CONFIG"
EVAL_ACCURACY = 1e-10  # desk-scale accuracy claim for direct evaluations

_FAMILY_ALIASES = {"gammapower": "gamma_power", "zetazeta": "zeta_zeta_gamma",
                   "zetagamma": "zeta_gamma_power", "real_axis": "improper",
                   **{name: name for name in (*FAMILY_PARAMS, "improper")}}

_EVAL_FUNCS = ("zeta", "gamma", "loggamma", "hurwitz", "beta", "bernoulli")
_ALL_FORMATS = ("text", "json", "csv")


@dataclass(frozen=True)
class Command:
    subcommand: str
    params: dict
    format: str
    out: str | None


class _Parser(argparse.ArgumentParser):
    # argparse wants to sys.exit(2); surface a typed error instead so
    # parse_args stays a pure function of argv
    def error(self, message):
        raise UsageError(message)


def _parse_complex(text, flag):
    parts = str(text).split(",")
    try:
        if len(parts) == 1:
            value = complex(float(parts[0]), 0.0)
        elif len(parts) == 2:
            value = complex(float(parts[0]), float(parts[1]))
        else:
            raise ValueError
    except ValueError:
        raise UsageError(
            f"{flag} expects a complex literal written as re,im; got {text!r}"
        ) from None
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise UsageError(f"{flag} must be finite, got {text!r}")
    return value


def _finite(value, flag):
    if not math.isfinite(value):
        raise UsageError(f"{flag} must be finite")
    return value


def _build_parser():
    top = _Parser(prog="mbzeta", description=__doc__)
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")

    def add(name, help_text, default_format="text", formats=("text", "json")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=formats, default=default_format)
        p.add_argument("--out", default=None, help="write output to this path")
        return p

    p = add("eval", "evaluate a special function at a point")
    p.add_argument("func", choices=_EVAL_FUNCS)
    p.add_argument("--s", default=None, help="argument as re,im")
    p.add_argument("--a", type=float, default=None, help="hurwitz shift")
    p.add_argument("--x", type=float, default=None, help="beta first argument")
    p.add_argument("--y", type=float, default=None, help="beta second argument")
    p.add_argument("--n", type=int, default=None, help="bernoulli index")

    p = add("integrate", "vertical-line integral of a kernel family "
                         "(or the real-axis integral with --family improper)")
    p.add_argument("--family", required=True)
    p.add_argument("--s", required=True, help="exponent as re,im")
    p.add_argument("--u", type=float, default=None)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--c", type=float, default=None, help="line abscissa")
    p.add_argument("--tol", type=float, default=1e-8)

    p = add("rect", "rectangle contour integral against the residue sum")
    p.add_argument("--family", required=True)
    p.add_argument("--s", required=True)
    p.add_argument("--u", type=float, default=None)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--right", type=float, required=True)
    p.add_argument("--left", type=float, required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-6)

    p = add("residues", "closed-form residues at the poles in a range",
            formats=_ALL_FORMATS)
    p.add_argument("--family", required=True)
    p.add_argument("--s", required=True)
    p.add_argument("--u", type=float, default=None)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--min", dest="lo", type=int, default=-5)
    p.add_argument("--max", dest="hi", type=int, default=1)

    p = add("tail", "terms of the asymptotic residue tail", formats=_ALL_FORMATS)
    p.add_argument("--s", required=True)
    p.add_argument("--M", type=int, default=20)

    p = add("verify", "run the verification suite", default_format="json",
            formats=_ALL_FORMATS)
    p.add_argument("--config", default=None,
                   help="config JSON path, or 'default' for the built-in "
                        f"battery; falls back to ${CONFIG_ENV_VAR}")
    return top


def _family_from_flags(ns, allow_improper=False):
    name = _FAMILY_ALIASES.get(str(ns.family).lower())
    if name is None or (name == "improper" and not allow_improper):
        raise UsageError(f"unknown family {ns.family!r}")
    s = _parse_complex(ns.s, "--s")
    if name == "improper":
        if s.real <= 2.0:
            raise UsageError("--family improper needs Re(s) > 2")
        return "improper"
    missing = [f"--{k}" for k in FAMILY_PARAMS[name] if getattr(ns, k) is None]
    if missing:
        raise UsageError(f"family {ns.family} needs {', '.join(missing)}")
    params = {k: _finite(getattr(ns, k), f"--{k}") for k in FAMILY_PARAMS[name]}
    try:
        return IntegrandFamily(name, s, **params)
    except MBZetaError as exc:
        raise UsageError(str(exc)) from None


def parse_args(argv):
    """Parse argv into a validated Command or raise UsageError."""
    ns = _build_parser().parse_args(list(argv))
    if ns.subcommand is None:
        raise UsageError("a subcommand is required (see mbzeta --help)")
    params = {}
    if ns.subcommand in ("integrate", "rect"):
        params["tol"] = _finite(ns.tol, "--tol")
        if not params["tol"] > 0.0:
            raise UsageError("--tol must be positive")
    if ns.subcommand == "eval":
        params["func"] = ns.func
        if ns.func == "bernoulli":
            if ns.n is None:
                raise UsageError("eval bernoulli needs --n")
            params["n"] = ns.n
        elif ns.func == "beta":
            if ns.x is None or ns.y is None:
                raise UsageError("eval beta needs --x and --y")
            params["x"] = _finite(ns.x, "--x")
            params["y"] = _finite(ns.y, "--y")
        else:
            if ns.s is None:
                raise UsageError(f"eval {ns.func} needs --s")
            params["s"] = _parse_complex(ns.s, "--s")
            if ns.func == "hurwitz":
                if ns.a is None:
                    raise UsageError("eval hurwitz needs --a")
                params["a"] = _finite(ns.a, "--a")
    elif ns.subcommand == "integrate":
        params["family"] = f = _family_from_flags(ns, allow_improper=True)
        params["s"] = _parse_complex(ns.s, "--s")
        if f != "improper":
            if ns.c is None:
                raise UsageError("integrate needs --c")
            try:
                line = VerticalLineSpec(_finite(ns.c, "--c"), params["tol"])
                line.validate_for(f)
            except MBZetaError as exc:
                raise UsageError(str(exc)) from None
            params["line"] = line
    elif ns.subcommand == "rect":
        params["family"] = _family_from_flags(ns)
        if not ns.left < ns.right:
            raise UsageError("--left must lie left of --right")
        try:
            params["rect"] = RectangleSpec(_finite(ns.right, "--right"),
                                           ns.right - ns.left,
                                           _finite(ns.T, "--T"))
        except MBZetaError as exc:
            raise UsageError(str(exc)) from None
    elif ns.subcommand == "residues":
        params["family"] = _family_from_flags(ns)
        if ns.hi < ns.lo:
            raise UsageError("--max must be >= --min")
        params["lo"], params["hi"] = ns.lo, ns.hi
    elif ns.subcommand == "tail":
        params["s"] = _parse_complex(ns.s, "--s")
        params["M"] = ns.M
    else:  # verify
        params["config"] = ns.config
    return Command(ns.subcommand, params, ns.format, ns.out)


def _fmt_complex(z):
    z = complex(z)
    if z.imag == 0.0:
        return f"{z.real:.10f}"
    return f"{z.real:.10f}{z.imag:+.10f}i"


def _emit(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _json_text(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


def _complex_fields(prefix, z):
    z = complex(z)
    return {f"{prefix}_re": z.real, f"{prefix}_im": z.imag}


def _execute_eval(cmd):
    p = cmd.params
    func = p["func"]
    if func == "bernoulli":
        value = bernoulli(p["n"])
        text = str(value)
        payload = {"value": str(value), "numerator": value.numerator,
                   "denominator": value.denominator}
    else:
        if func == "zeta":
            value = riemann_zeta(p["s"])
        elif func == "gamma":
            value = gamma(p["s"])
        elif func == "loggamma":
            value = log_gamma(p["s"])
        elif func == "hurwitz":
            value = hurwitz_zeta(p["s"], p["a"])
        else:
            value = beta(p["x"], p["y"])
        text = f"{_fmt_complex(value)} (±{EVAL_ACCURACY:g})"
        payload = {**_complex_fields("value", value),
                   "accuracy": EVAL_ACCURACY}
    _emit(_json_text(payload) if cmd.format == "json" else text, cmd.out)
    return 0


def _execute_integrate(cmd):
    p = cmd.params
    if p["family"] == "improper":
        r = integrate_real_improper(p["s"], p["tol"])
    else:
        r = integrate_vertical(p["family"], p["line"])
    payload = {
        **_complex_fields("value", r.value),
        "err_estimate": r.err_estimate,
        "tail_bound": r.tail_bound,
        "evaluations": r.evaluations,
    }
    text = "\n".join([
        f"value = {_fmt_complex(r.value)}",
        f"err_estimate = {r.err_estimate:.3e}",
        f"tail_bound = {r.tail_bound:.3e}",
        f"evaluations = {r.evaluations}",
    ])
    _emit(_json_text(payload) if cmd.format == "json" else text, cmd.out)
    return 0


def _execute_rect(cmd):
    p = cmd.params
    entry = check_rectangle(p["family"], p["rect"], p["tol"])
    match = entry.passed
    payload = entry.to_dict()
    text = "\n".join([
        f"contour = {_fmt_complex(entry.lhs)}",
        f"residues = {_fmt_complex(entry.rhs)}",
        f"abs_err = {entry.abs_err:.3e}",
        f"match={'true' if match else 'false'}",
    ])
    _emit(_json_text(payload) if cmd.format == "json" else text, cmd.out)
    return 0 if match else 1


def _execute_residues(cmd):
    p = cmd.params
    f = p["family"]
    _require_finite_residues(f, p["lo"], p["hi"])
    rows = []
    for n in f.poles(p["lo"], p["hi"]):
        loc = classify_pole(f, n)
        rows.append((loc, residue_at(f, loc).value))
    payload = [{"position": loc.position, "kind": loc.kind,
                **_complex_fields("residue", v)} for loc, v in rows]
    lines = [f"n={loc.position:+d} kind={loc.kind} residue={_fmt_complex(v)}"
             for loc, v in rows]
    if cmd.format == "csv":
        out = ["position,kind,residue_re,residue_im"]
        out += [f"{loc.position},{loc.kind},{v.real!r},{v.imag!r}"
                for loc, v in rows]
        _emit("\n".join(out), cmd.out)
    else:
        _emit(_json_text(payload) if cmd.format == "json"
              else "\n".join(lines) if lines else "no poles in range",
              cmd.out)
    return 0


def _execute_tail(cmd):
    p = cmd.params
    study = asymptotic_tail_terms(p["s"], p["M"])
    payload = {
        **_complex_fields("s", study.s),
        "terms": [{"m": m, **_complex_fields("t", t), "abs": abs(t)}
                  for m, t in enumerate(study.terms)],
        "min_index": study.min_index,
        "growth_onset": study.growth_onset,
    }
    lines = [f"m={m:2d} |t_m|={abs(t):.10e} t_m={_fmt_complex(t)}"
             for m, t in enumerate(study.terms)]
    lines.append(f"min_index={study.min_index}")
    lines.append(f"growth_onset={study.growth_onset}")
    if cmd.format == "csv":
        out = ["m,t_re,t_im,abs"]
        out += [f"{m},{t.real!r},{t.imag!r},{abs(t)!r}"
                for m, t in enumerate(study.terms)]
        _emit("\n".join(out), cmd.out)
    else:
        _emit(_json_text(payload) if cmd.format == "json" else "\n".join(lines),
              cmd.out)
    return 0


def _load_config(spec_text):
    if spec_text is None:
        spec_text = os.environ.get(CONFIG_ENV_VAR) or "default"
    if spec_text == "default":
        return default_config()
    try:
        with open(spec_text, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config {spec_text!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {spec_text!r} is not valid JSON: {exc}") from None


def _execute_verify(cmd):
    config = _load_config(cmd.params["config"])
    report = run_suite(config)
    if cmd.format == "csv":
        _emit(report.to_csv(), cmd.out)
    elif cmd.format == "text":
        _emit(report.to_text(), cmd.out)
    else:
        _emit(_json_text(report.to_dict()), cmd.out)
    return 0 if report.overall_pass else 1


def execute(cmd):
    """Run a parsed Command; returns the process exit code."""
    runner = {
        "eval": _execute_eval,
        "integrate": _execute_integrate,
        "rect": _execute_rect,
        "residues": _execute_residues,
        "tail": _execute_tail,
        "verify": _execute_verify,
    }[cmd.subcommand]
    return runner(cmd)


def main(argv=None):
    try:
        cmd = parse_args(sys.argv[1:] if argv is None else argv)
        return execute(cmd)
    except (UsageError, ConfigError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except MBZetaError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
