"""The traced run (--trace 1): per-layer metrics and the tracing overhead.

1. The workload's ops run for --seconds with spans around every public
   function of mbzeta's layers (cli-verify runs `cli.main` in process, since
   spans are recorded in this process).
2. The first ops, up to a quarter of --seconds, run again in pairs, traced
   and untraced back to back, alternating which goes first; the tracing
   overhead is the traced minus the untraced time of the pairs.
3. A fixed tour (one in-process `verify` and one `numerical_residue`) gives
   numbers for the functions the workload does not call; each function's
   numbers come from the workload's spans when there are any. On `lines`,
   the probe ops of lines.probe_ops (edge and floor strata, near and below
   the cancellation floor) run once each; they give
   contour.integrate_vertical.error_ratio.ToleranceUnreachable and
   evals_per_call.{edge,floor}, and are not counted in attempted/failed.
   A probe op may raise ToleranceUnreachable; a wrong value or any other
   exception turns `correct` false.
4. Fixed-grid probes time the public point functions and the kernels, and
   `python -X importtime` breaks down the import.
   contour.integrate_vertical.overhead_us_per_eval is the Python time
   between the quadrature and the kernel: the span's us per evaluation
   minus the active backend's `integrand` cost on the probe line, weighted
   by each family's share of evaluations.
5. Three cold `python -m mbzeta.cli verify` runs count runs that print to
   stderr.

Time per layer is reported per call (busy: the span's whole duration;
self: minus its child spans), so that a faster layer shows a lower number
whatever the run's length; `.calls` counts calls in the run.

Spans and metrics are written to .bench_build/perfbench/.
"""
import contextlib
import io
import json
from collections import Counter

from mbzeta import contour, residues

import cli_verify
import harness
import probes
from lines import PROBE as LINES_PROBE, STRATA, probe_ops
from spans import ERROR, EVALS, NAME, OP, PAIRED, PROBE, TOUR, Tracer, by_source

VERIFY_FUNCS = ("run_suite", "check_identity", "check_rectangle",
                "decay_study", "fit_envelope")
CONTOUR_FUNCS = ("integrate_vertical", "integrate_rectangle",
                 "integrate_segment", "integrate_real_improper")
RESIDUE_FUNCS = ("residue_at", "enumerate_poles", "numerical_residue",
                 "asymptotic_tail_terms")
IMPORT_MODULES = ("mbzeta", "mbzeta._backend", "mbzeta._kernel_constants",
                  "mbzeta._purepy", "mbzeta._version", "mbzeta.cli",
                  "mbzeta.contour", "mbzeta.errors", "mbzeta.residues",
                  "mbzeta.specfun", "mbzeta.verify", "mbzeta.zeta")
COLD_CLI_RUNS = 3
SPAN_FUNCS = ({"cli.main"} | {f"verify.{f}" for f in VERIFY_FUNCS}
              | {f"contour.{f}" for f in CONTOUR_FUNCS}
              | {f"residues.{f}" for f in RESIDUE_FUNCS})


# Which end-to-end metric each layer should move:
#   import.*                       setup_s everywhere; op_p50_ms on cli-verify
#   cli.*, verify.*                op_p50_ms on cli-verify
#   contour.integrate_vertical.*,
#   kernels.*                      op_p50_ms and ops_per_s on lines
#   contour (other integrators),
#   residues.*, zeta.*, specfun.*  op_p50_ms on plane (zeta also on lines)


def _units():
    """Every per-layer metric reported in the result line, with its unit."""
    u = {"import.total_ms": "ms"}
    u.update({f"import.self_ms.{m}": "ms" for m in IMPORT_MODULES})
    u.update({"cli.main.self_ms_per_call": "ms", "cli.stderr_runs": "count"})
    for fn in VERIFY_FUNCS:
        u.update({f"verify.{fn}.calls": "count", f"verify.{fn}.busy_ms_per_call": "ms",
                  f"verify.{fn}.self_ms_per_call": "ms"})
    for fn in CONTOUR_FUNCS:
        u.update({f"contour.{fn}.calls": "count", f"contour.{fn}.busy_ms_per_call": "ms",
                  f"contour.{fn}.self_ms_per_call": "ms",
                  f"contour.{fn}.evals_per_call": "count",
                  f"contour.{fn}.us_per_eval": "us"})
    u["contour.integrate_vertical.error_ratio.ToleranceUnreachable"] = "ratio"
    u.update({f"contour.integrate_vertical.evals_per_call.{st}": "count"
              for st in STRATA})
    u.update({f"contour.integrand_eval.{tag}.us_per_call": "us"
              for tag in probes.FAMILY_PROBES})
    u["contour.integrate_vertical.overhead_us_per_eval"] = "us"
    for fn in RESIDUE_FUNCS:
        u.update({f"residues.{fn}.calls": "count",
                  f"residues.{fn}.busy_ms_per_call": "ms"})
    u.update({f"zeta.riemann_zeta.us_per_call.{st}": "us" for st in probes.ZETA_POINTS})
    u["zeta.hurwitz_zeta.us_per_call"] = "us"
    u.update({"specfun.log_gamma.us_per_call": "us", "specfun.gamma.us_per_call": "us"})
    u["kernels.python.loggamma.us_per_call"] = "us"
    u["kernels.python.riemann_zeta.us_per_call"] = "us"
    u.update({f"kernels.python.integrand.{tag}.us_per_call": "us"
              for tag in probes.FAMILY_PROBES})
    u.update({"trace.overhead_ms_per_op": "ms", "trace.overhead_pct": "%"})
    return u


PER_LAYER_UNITS = _units()
PROBE_METRICS = {"contour.integrate_vertical.error_ratio.ToleranceUnreachable"} | {
    f"contour.integrate_vertical.evals_per_call.{st}" for st in LINES_PROBE}


def _tour(tracer):
    """Fixed calls covering the layers a workload may not reach."""
    from mbzeta import cli
    with tracer.recording(TOUR), contextlib.redirect_stdout(io.StringIO()):
        cli.main(cli_verify.argv("json"))
        residues.numerical_residue(contour.zeta_zeta_gamma(4.0), complex(-1.0),
                                   0.3, 1e-10)


def _probe(tracer, workload, seed):
    """Outcomes of the lines probe ops, each recorded as PROBE + its stratum."""
    if workload != "lines":
        return []
    out = []
    for op in probe_ops(seed):
        with tracer.recording(PROBE + op.stratum):
            out.append(harness.run_op(op))
    return out


def _cold_stderr_runs():
    judge = cli_verify.Judge()
    for _ in range(COLD_CLI_RUNS):
        cold = cli_verify.ColdRun("json", judge)
        cold.judge(cold.call())
    return judge.stderr_runs


def _overhead(tracer, outcomes, seconds):
    """Rerun the first ops, up to seconds/4 of traced time, as pairs of a
    traced and an untraced run, alternating which goes first. Returns
    (traced minus untraced ms per op, the same in %, pairs)."""
    budget = seconds * 0.25e9
    prefix, spent = [], 0
    for o in outcomes:
        if prefix and spent + o.ns > budget:
            break
        prefix.append(o.op)
        spent += o.ns
    traced_ns = plain_ns = 0
    for i, op in enumerate(prefix):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                with tracer.recording(PAIRED):
                    traced_ns += harness.run_op(op).ns
            else:
                plain_ns += harness.run_op(op).ns
    return ((traced_ns - plain_ns) / 1e6 / len(prefix),
            100.0 * (traced_ns / plain_ns - 1.0), len(prefix))


def _per_call_ms(ns, calls):
    return ns / 1e6 / calls if calls else 0.0


def _layer_metrics(spans, outcomes, points, kernels, backend):
    agg, source = by_source(spans)
    none = {"calls": 0, "busy_ns": 0, "self_ns": 0, "evals": 0}
    m = {}
    main = agg.get("cli.main", none)
    cli_self = sum(a["self_ns"] for n, a in agg.items() if n.startswith("cli."))
    m["cli.main.self_ms_per_call"] = _per_call_ms(cli_self, main["calls"])
    for fn in VERIFY_FUNCS:
        a = agg.get(f"verify.{fn}", none)
        m[f"verify.{fn}.calls"] = a["calls"]
        m[f"verify.{fn}.busy_ms_per_call"] = _per_call_ms(a["busy_ns"], a["calls"])
        m[f"verify.{fn}.self_ms_per_call"] = _per_call_ms(a["self_ns"], a["calls"])
    for fn in CONTOUR_FUNCS:
        a = agg.get(f"contour.{fn}", none)
        p = f"contour.{fn}"
        m[p + ".calls"] = a["calls"]
        m[p + ".busy_ms_per_call"] = _per_call_ms(a["busy_ns"], a["calls"])
        m[p + ".self_ms_per_call"] = _per_call_ms(a["self_ns"], a["calls"])
        m[p + ".evals_per_call"] = a["evals"] / a["calls"] if a["calls"] else 0.0
        m[p + ".us_per_eval"] = a["busy_ns"] / 1e3 / a["evals"] if a["evals"] else 0.0
    vert = agg.get("contour.integrate_vertical")
    # evaluations per call by the lines stratum of the op; raises in the probe
    strata = {}
    probed = unreachable = 0
    for sp in spans:
        if sp[NAME] != "contour.integrate_vertical":
            continue
        if isinstance(sp[OP], int):
            stratum = outcomes[sp[OP]].stratum
        elif sp[OP].startswith(PROBE):
            stratum = sp[OP][len(PROBE):]
            probed += 1
            unreachable += sp[ERROR] == "ToleranceUnreachable"
        else:
            continue
        acc = strata.setdefault(stratum, [0, 0])
        acc[0] += 1
        acc[1] += sp[EVALS]
    m["contour.integrate_vertical.error_ratio.ToleranceUnreachable"] = (
        unreachable / probed if probed else 0.0)
    for st in STRATA:
        calls, evals = strata.get(st, (0, 0))
        m[f"contour.integrate_vertical.evals_per_call.{st}"] = evals / calls if calls else 0.0
    # Python time between quadrature and kernel, per evaluation
    overhead = 0.0
    if vert and vert["evals"]:
        fam = vert["family_evals"]
        overhead = m["contour.integrate_vertical.us_per_eval"] - sum(
            n * kernels[f"kernels.{backend}.integrand.{tag}.us_per_call"]
            for tag, n in fam.items()) / sum(fam.values())
    m["contour.integrate_vertical.overhead_us_per_eval"] = overhead
    for fn in RESIDUE_FUNCS:
        a = agg.get(f"residues.{fn}", none)
        m[f"residues.{fn}.calls"] = a["calls"]
        m[f"residues.{fn}.busy_ms_per_call"] = _per_call_ms(a["busy_ns"], a["calls"])
    m.update(points)
    m.update(kernels)
    return m, source


def run(args, env, op_stream, self_check, correct, share_lines):
    """Returns (human-readable lines, result) of the traced run."""
    imports = probes.import_times()
    tracer = Tracer()
    tracer.install()
    try:
        outcomes = harness.closed_loop(
            op_stream(args.workload, args.seed, in_process=True), args.seconds,
            tracer.recording, keep_ops=True)
        _tour(tracer)
        probe = _probe(tracer, args.workload, args.seed)
        overhead_ms, overhead_pct, replayed = _overhead(tracer, outcomes, args.seconds)
    finally:
        tracer.uninstall()
    ok_check = self_check(outcomes)
    points, kernels = probes.probe_points(), probes.probe_kernels()
    m, source = _layer_metrics(tracer.spans, outcomes, points, kernels,
                               probes.active_backend())
    m.update(imports)
    m["cli.stderr_runs"] = _cold_stderr_runs()
    m["trace.overhead_ms_per_op"] = overhead_ms
    m["trace.overhead_pct"] = overhead_pct
    lines = [f"env {json.dumps(env, sort_keys=True)}",
             f"traced workload {args.workload} seed={args.seed} "
             f"seconds={args.seconds} ops={len(outcomes)} "
             f"failed={sum(not o.ok for o in outcomes)} "
             f"spans={len(tracer.spans)} self_check={'pass' if ok_check else 'FAIL'}",
             f"tracing overhead: {overhead_ms:.4f} ms/op = {overhead_pct:.2f}%, "
             f"traced minus untraced, over {replayed} paired reruns"]
    lines += share_lines(args.workload, outcomes)
    lines += harness.failure_lines(outcomes)
    lines += [f"untimed probe, {line}" for line in
              harness.share_lines("stratum", lambda o: o.stratum, probe)]
    lines += [f"probe {line}" for line in harness.failure_lines(probe)]
    for name in sorted(m):
        fn = ".".join(name.split(".")[:2])
        origin = f" [from {source[fn]}]" if fn in SPAN_FUNCS and fn in source else ""
        if name in PROBE_METRICS and probe:
            origin = " [from probe]"
        unit = PER_LAYER_UNITS.get(name, "ms" if "_ms" in name else "us")
        lines.append(f"{name} = {m[name]!r} {unit}{origin}")
    for name, a in sorted(tracer_errors(tracer.spans).items()):
        lines.append(f"errors {name}: {dict(a)}")
    path = harness.BUILD / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.dump(path, {"env": env, "metrics": m, "sources": source,
                       "ops": [o.op.describe() for o in outcomes]})
    lines.append(f"spans written to {path.relative_to(harness.ROOT)}")
    probe_ok = all(o.ok or o.error == "ToleranceUnreachable" for o in probe)
    res = harness.result(correct(outcomes, ok_check) and probe_ok, outcomes,
                         {k: (m.get(k, 0.0), u) for k, u in PER_LAYER_UNITS.items()})
    return lines, res


def tracer_errors(spans):
    """Errors raised per span name, by class."""
    out = {}
    for sp in spans:
        if sp[ERROR] and sp[OP] != PAIRED:
            out.setdefault(sp[NAME], Counter())[sp[ERROR]] += 1
    return out
