"""Shared plumbing for the mbzeta benchmark: paths, child processes, the
closed loop, latency statistics, the environment record and the result line.

An op's latency is the CPU time it used: this process's threads plus the
child processes it waited for (`cpu_ns`). The ops are CPU-bound and do no
I/O, so on an idle machine this equals their wall time; on a shared VM,
wall time also counts the stretches in which the host runs someone else,
which made the same seed's median latency differ by a third between two
runs minutes apart. Wall figures are printed beside the metrics, so a
change that makes ops wait instead of compute still shows.

The package under test is always imported from ``<checkout>/src``, the way
the tier-1 tests load it. Bytecode is cached, whatever PYTHONDONTWRITEBYTECODE
says, under ``.bench_build/perfbench/pycache``, so that every interpreter
starts from warm bytecode as an installed package would, and nothing is
written into ``src/``.
"""
import hashlib
import itertools
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"
PYCACHE = BUILD / "pycache"

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")
CHILD_TIMEOUT_S = 60.0


def package_present():
    return (SRC / "mbzeta" / "__init__.py").is_file()


def use_src_in_process():
    """Import mbzeta from src/ in this process, caching bytecode outside src/."""
    PYCACHE.mkdir(parents=True, exist_ok=True)
    sys.pycache_prefix = str(PYCACHE)
    sys.dont_write_bytecode = False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("MBZETA_CONFIG", None)
    return env


def cpu_ns():
    """CPU time used so far by this process and the children it waited for."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time_ns() + int((ru.ru_utime + ru.ru_stime) * 1e9)


def run_child(args, env=None, timeout=CHILD_TIMEOUT_S):
    """Run one fresh interpreter from the checkout root; returns
    (returncode, stdout bytes, stderr bytes, seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable] + list(args), cwd=ROOT,
                          env=env or child_env(), capture_output=True,
                          timeout=timeout, check=False)
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - t0


_SETUP_CODE = "import time, mbzeta; print(repr(time.process_time()))"


class SetupSampler:
    """setup_s: the CPU time a fresh interpreter spends from its start until
    `import mbzeta` returns, as the child reads it. One untimed spawn fills
    the bytecode cache; then `samples` spawns are spread evenly over the
    run's op time (see closed_loop's `between`), so that a slow spell of a
    shared machine shifts few of them; the median is reported."""

    def __init__(self, seconds, samples=11):
        self.env = child_env()
        self.step_ns = seconds * 1e9 / (samples - 1)
        self.samples = samples
        self.values = []
        rc, _, err, _ = run_child(["-c", _SETUP_CODE], self.env)
        if rc != 0:
            raise RuntimeError("cannot import mbzeta from src/: "
                               + err.decode(errors="replace").strip()[-400:])

    def sample(self):
        rc, out, err, _ = run_child(["-c", _SETUP_CODE], self.env)
        if rc != 0:
            raise RuntimeError("import mbzeta failed: " + err.decode(errors="replace")[-400:])
        self.values.append(float(out.decode().strip()))

    def __call__(self, spent_ns):
        """Between ops: take the samples due by `spent_ns` of op time."""
        while (len(self.values) < self.samples - 1
               and spent_ns >= len(self.values) * self.step_ns):
            self.sample()

    def median(self):
        while len(self.values) < self.samples:
            self.sample()
        return statistics.median(self.values)


class Outcome:
    """One op as run: latency (CPU ns) and wall ns, verdict, and how it
    failed if it did. `op` is dropped by closed_loop unless needed later, so
    that memory does not grow with the number of ops run."""
    __slots__ = ("op", "kind", "stratum", "band", "ns", "wall_ns", "ok", "error")

    def __init__(self, op, ns, wall_ns, ok, error):
        self.op = op
        self.kind = op.kind
        self.stratum = op.stratum
        self.band = getattr(op, "band", "")
        self.ns = ns
        self.wall_ns = wall_ns
        self.ok = ok
        self.error = error      # exception class name, or "" if it returned


def run_op(op):
    """Time one op and judge its output. Any exception is a failed op; the
    closed loop keeps going."""
    w0, c0 = time.perf_counter_ns(), cpu_ns()
    try:
        out = op.call()
    except Exception as exc:  # noqa: BLE001 - a raising op is a counted failure
        c1, w1 = cpu_ns(), time.perf_counter_ns()
        return Outcome(op, c1 - c0, w1 - w0, False, type(exc).__name__)
    c1, w1 = cpu_ns(), time.perf_counter_ns()
    return Outcome(op, c1 - c0, w1 - w0, bool(op.judge(out)), "")


def closed_loop(ops, seconds, around_op=None, between=None, keep_ops=False):
    """One client, one op in flight: run ops in order until their summed
    wall time reaches `seconds`. The first op runs once untimed before, so
    that lazy set-up and caches are warm. Input generation between ops is
    untimed. around_op(i), if given, returns a context manager entered around
    op i; between(spent_ns), if given, runs before each op, untimed. Outcomes
    keep their op if keep_ops, if the op failed, or if it is the first that
    passed."""
    budget = int(seconds * 1e9)
    spent = 0
    outcomes = []
    kept_ok = False
    ops = iter(ops)
    first = next(ops)
    try:
        first.call()
    except Exception:  # noqa: BLE001 - its timed run counts the failure
        pass
    for i, op in enumerate(itertools.chain((first,), ops)):
        if between is not None:
            between(spent)
        if around_op is None:
            res = run_op(op)
        else:
            with around_op(i):
                res = run_op(op)
        if res.ok and not keep_ops:
            if kept_ok:
                res.op = None
            kept_ok = True
        outcomes.append(res)
        spent += res.wall_ns
        if spent >= budget:
            break
    return outcomes


def tail(latencies_ms):
    """Highest percentile with at least ten samples beyond it: the 11th
    largest sample. Returns (value, percentile, sample count)."""
    n = len(latencies_ms)
    ordered = sorted(latencies_ms)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def summarize(outcomes, setup_s, peak_rss_mb):
    """End-to-end metrics of one untraced run, and the same op statistics
    from wall time."""
    lat = [o.ns / 1e6 for o in outcomes]
    busy_s = sum(o.ns for o in outcomes) / 1e9
    tail_ms, tail_pct, n = tail(lat)
    failed = sum(1 for o in outcomes if not o.ok)
    wall = [o.wall_ns / 1e6 for o in outcomes]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(outcomes) / busy_s, "1/s"),
        "op_p50_ms": (statistics.median(lat), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "failed_ratio": (failed / len(outcomes), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }, {"tail_percentile": tail_pct, "samples": n,
        "wall_ops_per_s": len(outcomes) / (sum(wall) / 1e3),
        "wall_op_p50_ms": statistics.median(wall), "wall_op_tail_ms": tail(wall)[0]}


def share_lines(title, key, outcomes):
    """One line per group of ops (e.g. by kind): count, share of ops, share
    of time, failures."""
    total = sum(o.ns for o in outcomes) or 1
    groups = {}
    for o in outcomes:
        g = groups.setdefault(key(o), [0, 0, 0])
        g[0] += 1
        g[1] += o.ns
        g[2] += 0 if o.ok else 1
    return [f"{title} {k}: ops={n} op_share={n / len(outcomes):.4f} "
            f"time_share={ns / total:.4f} failed={failed}"
            for k, (n, ns, failed) in sorted(groups.items())]


def failure_lines(outcomes, limit=5):
    out = []
    for o in outcomes:
        if not o.ok and len(out) < limit:
            out.append(f"failed op [{o.error or 'wrong value'}]: {o.op.describe()}")
    return out


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unavailable (not a git checkout)"


def source_digest():
    """sha256 over the package sources, which identifies the code under test
    where no git metadata exists."""
    h = hashlib.sha256()
    for p in sorted((SRC / "mbzeta").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(SRC)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def environment(seed):
    """Which code and which kernels produced the numbers. Imports mbzeta."""
    import mbzeta
    from mbzeta._backend import kernels
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    kfile = Path(kernels.__file__).resolve()
    try:
        kfile = kfile.relative_to(ROOT)
    except ValueError:
        pass
    return {
        "backend": mbzeta.BACKEND,
        "kernel_module": str(kfile),
        "mbzeta_file": str(Path(mbzeta.__file__).resolve().relative_to(ROOT)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": nproc,
        "machine": platform.machine(),
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": source_digest(),
    }


def check_metric_names(names):
    bad = [n for n in names if not METRIC_NAME.fullmatch(n) or len(n) > 64]
    if bad:
        raise ValueError(f"bad metric names: {bad}")


def emit(lines, result):
    """Human-readable lines first, the machine-readable result line last."""
    for line in lines:
        print(line)
    check_metric_names(result["metrics"])
    sys.stdout.flush()
    print(json.dumps(result, sort_keys=True))
    sys.stdout.flush()


def result(correct, outcomes, metrics):
    """The result line: metrics maps name -> (value, unit)."""
    return {"correct": bool(correct), "attempted": len(outcomes),
            "failed": sum(1 for o in outcomes if not o.ok),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
