"""Spans around the public functions of mbzeta's layers, recorded from the
benchmark's own files.

`install` wraps every public function of specfun, zeta, contour, residues,
verify and cli, and rebinds each name wherever an mbzeta module imported it
(so `mbzeta.verify.integrate_vertical` is traced too). Wrappers record only
inside `recording(op)`, so input generation between ops leaves no spans.
Spans live in memory until `dump`. A span is [name, start_ns, end_ns, parent
index, op id, evaluations, error class, family tag].
An op id is the op's index in the run, TOUR, PROBE + a lines stratum, or
PAIRED for the ops rerun to measure the tracing overhead; only integer ids
count as the workload's.
"""
import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("specfun", "zeta", "contour", "residues", "verify", "cli")
TOUR = "tour"
PAIRED = "paired"
PROBE = "probe:"

NAME, START, END, PARENT, OP, EVALS, ERROR, FAMILY = range(8)
FIELDS = ("name", "start_ns", "end_ns", "parent", "op", "evals", "error", "family")


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None  # the op being recorded, or None: wrappers pass through
        self._restore = []

    @contextlib.contextmanager
    def recording(self, op):
        self.op = op
        try:
            yield
        finally:
            self.op = None

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = [name, 0, 0, stack[-1] if stack else -1, self.op, 0, "",
                    getattr(args[0], "tag", "") if args else ""]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = clock()
                span[ERROR] = type(exc).__name__
                span[EVALS] = getattr(exc, "evaluations", 0) or 0
                raise
            finally:
                stack.pop()
            span[END] = clock()
            span[EVALS] = getattr(out, "evaluations", 0) or 0
            return out
        return traced

    def install(self):
        """Wrap the layers' public functions and rebind every reference."""
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"mbzeta.{layer}")
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrapped[fn] = self.wrap(f"{layer}.{attr}", fn)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "mbzeta" or modname.startswith("mbzeta.")):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrapped:
                    setattr(mod, attr, wrapped[val])
                    self._restore.append((mod, attr, val))
        return len(wrapped)

    def uninstall(self):
        for mod, attr, val in reversed(self._restore):
            setattr(mod, attr, val)
        self._restore.clear()

    def dump(self, path, extra):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(extra, span_fields=FIELDS,
                           spans=self.spans), fh)


def aggregate(spans, keep):
    """Per span name: calls, busy/self ns, evaluations, errors, and
    evaluations per family, over the spans for which keep(span) holds."""
    child_ns = [0] * len(spans)
    for sp in spans:
        if sp[PARENT] >= 0:
            child_ns[sp[PARENT]] += sp[END] - sp[START]
    out = {}
    for i, sp in enumerate(spans):
        if not keep(sp):
            continue
        a = out.setdefault(sp[NAME], {"calls": 0, "busy_ns": 0, "self_ns": 0,
                                      "evals": 0, "errors": Counter(),
                                      "family_evals": Counter()})
        dur = sp[END] - sp[START]
        a["calls"] += 1
        a["busy_ns"] += dur
        a["self_ns"] += dur - child_ns[i]
        a["evals"] += sp[EVALS]
        a["family_evals"][sp[FAMILY]] += sp[EVALS]
        if sp[ERROR]:
            a["errors"][sp[ERROR]] += 1
    return out


def by_source(spans):
    """Aggregates from the workload's own ops, falling back per function to
    the fixed tour for functions the workload never called. Returns the
    aggregates and the source of each."""
    work = aggregate(spans, lambda sp: isinstance(sp[OP], int))
    tour = aggregate(spans, lambda sp: sp[OP] == TOUR)
    merged, source = {}, {}
    for name in set(work) | set(tour):
        if name in work:
            merged[name], source[name] = work[name], "workload"
        else:
            merged[name], source[name] = tour[name], TOUR
    return merged, source
