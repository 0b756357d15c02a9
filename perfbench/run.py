#!/usr/bin/env python3
"""mbzeta benchmark.

    python3 perfbench/run.py --workload {cli-verify,lines,plane} --seed N \\
        --seconds S --trace {0,1}

    for w in cli-verify lines plane; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 30 --trace 0
    done

Run from the root of a checkout. The package is imported from src/ (as the
tier-1 tests load it); bytecode caches and trace files go to .bench_build/.
Workloads: cli_verify.py, lines.py, plane.py. Self-tests:
`python3 -m pytest perfbench -q`.

Each workload is a single-process closed loop: one client, one op in
flight, ops run until their summed wall time reaches --seconds. Latencies
are the CPU time each op used (see harness.py). Inputs are a pure function
of --seed. Every op's output is checked against a reference computed
before timing, or for cli-verify against the run's first output of the
same format.

--trace 0 prints the end-to-end metrics by name with their units, the same
op statistics from wall time, the op count, failed_ratio, and the op and
time share and failures of each lines stratum and kappa band, plane op kind
or CLI format; --trace 1 runs the same ops with spans around every public
function of mbzeta's layers and prints the per-layer metrics and the
tracing overhead (see traced.py). The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics. Every failed
op counts in `failed`; `correct` is false if any op failed or if the
failure counter's self-check fails.
"""
import argparse
import dataclasses
import json
import resource
import sys

import harness

WORKLOADS = ("cli-verify", "lines", "plane")
PERTURB = 1.0 + 1e-6  # larger than every op's rtol

END_TO_END = ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb")
# how each workload's ops are grouped in the report
GROUPS = {"lines": (("stratum", lambda o: o.stratum), ("kappa band", lambda o: o.band)),
          "plane": (("kind", lambda o: o.kind),),
          "cli-verify": (("format", lambda o: o.stratum),)}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def op_stream(workload, seed, in_process=False):
    if workload == "lines":
        import lines
        return lines.stream(seed)
    if workload == "plane":
        import plane
        return plane.stream(seed)
    import cli_verify
    return cli_verify.stream(seed, cli_verify.InProcessRun if in_process
                             else cli_verify.ColdRun)


def perturb(out):
    """The output with one number moved by PERTURB - 1 relative (or, for CLI
    output, one byte appended)."""
    if hasattr(out, "evaluations"):
        return dataclasses.replace(out, value=out.value * PERTURB)
    if hasattr(out, "terms"):
        return dataclasses.replace(out, terms=(out.terms[0] * PERTURB,) + out.terms[1:])
    if isinstance(out, complex):
        return out * PERTURB
    if isinstance(out, list):
        return [out[0] * PERTURB] + out[1:]
    if isinstance(out[0], int):  # (returncode, stdout, stderr)
        return (out[0], out[1] + b"x", out[2])
    return (perturb(out[0]),) + tuple(out[1:])


class _Replay:
    """An op whose call returns a fixed output, judged by the original op."""

    def __init__(self, op, out):
        self.kind, self.stratum, self.judge = op.kind, op.stratum, op.judge
        self._out = out

    def call(self):
        return self._out


def self_check(outcomes):
    """The failure counter must count a deliberately perturbed result as
    failed, and the unperturbed one as passed."""
    op = next((o.op for o in outcomes if o.ok and o.op is not None), None)
    if op is None:
        return False
    out = op.call()
    return harness.run_op(_Replay(op, out)).ok and not harness.run_op(
        _Replay(op, perturb(out))).ok


def correct(outcomes, ok_check):
    return ok_check and all(o.ok for o in outcomes)


def share_lines(workload, outcomes):
    return [line for title, key in GROUPS[workload]
            for line in harness.share_lines(title, key, outcomes)]


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli-verify" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def run_untraced(args, env):
    setup = harness.SetupSampler(args.seconds)
    outcomes = harness.closed_loop(op_stream(args.workload, args.seed), args.seconds,
                                   between=setup)
    setup_s = setup.median()
    stderr_counts = None
    if args.workload == "cli-verify":
        judge = outcomes[0].op.judge_fn
        stderr_counts = (judge.stderr_runs, judge.runs)
    ok_check = self_check(outcomes)
    metrics, tail_info = harness.summarize(outcomes, setup_s, peak_rss_mb(args.workload))
    lines = [f"env {json.dumps(env, sort_keys=True)}",
             f"workload {args.workload} seed={args.seed} seconds={args.seconds} "
             f"ops={len(outcomes)} failed={sum(not o.ok for o in outcomes)} "
             f"self_check={'pass' if ok_check else 'FAIL'}",
             f"op_tail_ms is p{tail_info['tail_percentile']:.2f} of "
             f"{tail_info['samples']} samples (10 beyond it)",
             f"from wall time: ops_per_s = {tail_info['wall_ops_per_s']!r} 1/s, "
             f"op_p50_ms = {tail_info['wall_op_p50_ms']!r} ms, "
             f"op_tail_ms = {tail_info['wall_op_tail_ms']!r} ms"]
    lines += [f"{k} = {v!r} {u}" for k, (v, u) in metrics.items()]
    lines += share_lines(args.workload, outcomes)
    if stderr_counts is not None:
        lines.append("cli runs with non-empty stderr: %d of %d" % stderr_counts)
    lines += harness.failure_lines(outcomes)
    e2e = {k: metrics[k] for k in END_TO_END}
    return lines, harness.result(correct(outcomes, ok_check), outcomes, e2e)


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not harness.package_present():
        print(f"error: no mbzeta package under {harness.SRC}", file=sys.stderr)
        return 2
    harness.use_src_in_process()
    env = harness.environment(args.seed)
    if args.trace:
        import traced
        lines, res = traced.run(args, env, op_stream, self_check, correct,
                                share_lines)
    else:
        lines, res = run_untraced(args, env)
    harness.emit(lines, res)
    return 0


if __name__ == "__main__":
    sys.exit(main())
