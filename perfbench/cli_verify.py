"""`cli-verify` workload: repeated cold runs of
`python -m mbzeta.cli verify --config default` on the default battery.

The output format cycles through json, csv and text in an order shuffled by
the seed. A run fails if it exits non-zero, reports overall_pass=false, or
its output bytes differ from the first output of the same format in the run.

Why: this is what users run. Interpreter start and the eager import of the
whole package are a large part of each run, so import and start-up work
shows here; quadrature changes show only in part.
"""
import contextlib
import io
import json
import random

import harness

FORMATS = ("json", "csv", "text")


def argv(fmt):
    return ["verify", "--config", "default", "--format", fmt]


def overall_pass(fmt, out):
    text = out.decode("utf-8")
    if fmt == "json":
        return json.loads(text)["overall_pass"] is True
    lines = text.splitlines()
    if fmt == "csv":
        return len(lines) > 1 and all(line.endswith(",true") for line in lines[1:])
    return bool(lines) and lines[-1] == "overall_pass=true"


class Judge:
    """Holds the first output of each format; later outputs must match it."""

    def __init__(self):
        self.first = {}
        self.runs = 0
        self.stderr_runs = 0

    def __call__(self, fmt, rc, out, err=b""):
        self.runs += 1
        self.stderr_runs += bool(err.strip())
        try:
            passed = rc == 0 and overall_pass(fmt, out)
        except (ValueError, KeyError):
            passed = False
        return passed and self.first.setdefault(fmt, out) == out


class ColdRun:
    """One fresh interpreter running the CLI; call() returns (rc, stdout, stderr)."""
    kind = "verify"
    __slots__ = ("stratum", "judge_fn")

    def __init__(self, fmt, judge_fn):
        self.stratum = fmt
        self.judge_fn = judge_fn

    def call(self):
        rc, out, err, _ = harness.run_child(["-m", "mbzeta.cli"] + argv(self.stratum))
        return rc, out, err

    def judge(self, result):
        rc, out, err = result
        return self.judge_fn(self.stratum, rc, out, err)

    def describe(self):
        return f"python -m mbzeta.cli {' '.join(argv(self.stratum))}"


class InProcessRun(ColdRun):
    """cli.main in this process, stdout captured; for the traced run."""
    __slots__ = ()

    def call(self):
        from mbzeta import cli
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv(self.stratum))
        return rc, buf.getvalue().encode("utf-8"), b""

    def describe(self):
        return f"cli.main({argv(self.stratum)})"


def stream(seed, cls=ColdRun):
    order = list(FORMATS)
    random.Random(f"cli-verify:{seed}").shuffle(order)
    judge = Judge()
    i = 0
    while True:
        yield cls(order[i % len(order)], judge)
        i += 1
