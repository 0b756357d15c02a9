"""Self-tests of the benchmark: seeded inputs, input validity, the failure
counter, and metric names. Run from the checkout root:

    python3 -m pytest perfbench -q
"""
import json
import math
import subprocess
from collections import Counter

import harness

harness.use_src_in_process()

from mbzeta import contour, errors, residues  # noqa: E402
from mbzeta.specfun import POLE_GUARD  # noqa: E402

import cli_verify  # noqa: E402
import lines  # noqa: E402
import plane  # noqa: E402
import run  # noqa: E402
import traced  # noqa: E402

BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def _describe(ops):
    return [op.describe() for op in ops]


def test_same_seed_same_inputs_and_different_seeds_differ():
    for mod in (lines, plane):
        a = _describe(mod.make_block(3, 0))
        assert a == _describe(mod.make_block(3, 0))
        assert a != _describe(mod.make_block(4, 0))
        assert a != _describe(mod.make_block(3, 1))

    def formats(seed, n=6):
        stream = cli_verify.stream(seed)
        return [next(stream).stratum for _ in range(n)]
    assert formats(5) == formats(5)
    assert len({tuple(formats(seed)) for seed in range(10)}) > 1


def test_lines_mix_is_the_same_for_every_seed():
    for seed in (0, 1):
        strata, cells = Counter(), Counter()
        for op in lines.make_block(seed, 0):
            assert op.stratum == lines.stratum_of(op.kappa, op.margin)
            strata[op.stratum] += 1
            if op.stratum == "k_lo":
                cells[op.f.tag, op.f.s.imag == 0.0] += 1
        assert strata == {"k_lo": 6 * lines.K_LO_PER_CELL,
                          "k_mid": lines.K_MID_PER_BLOCK}
        assert cells == dict.fromkeys(lines.CELLS, lines.K_LO_PER_CELL)
        probe = Counter(op.stratum for op in lines.probe_ops(seed))
        assert probe == lines.PROBE


def test_timed_lines_ops_converge_within_the_budget():
    for seed in (5, 6):
        for op in lines.make_block(seed, 0):
            res = harness.run_op(op)
            assert res.ok, (res.error, op.describe())


def _distance_to_poles(f, z0, z1):
    poles = plane.GAMMA_POLES if f.tag == contour.GAMMA_POWER else plane.ZETA_POLES
    best = math.inf
    for n in poles + tuple(range(poles[-1] - 1, poles[-1] - 20, -1)):
        if not f.is_pole(n):
            continue
        d = z1 - z0
        t = max(0.0, min(1.0, ((n - z0) * d.conjugate()).real / abs(d) ** 2))
        best = min(best, abs(n - (z0 + t * d)))
    return best


def test_generated_inputs_pass_the_package_validation():
    for op in lines.make_block(7, 0) + lines.probe_ops(7):
        op.line.validate_for(op.f)
        assert op.line.tol > 0.0
    for op in plane.make_block(7, 0):
        args = op.args
        if op.kind == "rect":
            f, rect = args
            assert len(residues.enumerate_poles(f, rect)) >= 1
            c1, c2, c3, c4 = rect.corners()
            for a, b in ((c1, c2), (c2, c3), (c3, c4), (c4, c1)):
                assert _distance_to_poles(f, a, b) > POLE_GUARD
        elif op.kind == "lid":
            f, z0, z1 = args
            assert _distance_to_poles(f, z0, z1) > POLE_GUARD
        elif op.kind == "numres":
            f, z0, radius = args
            residues.classify_pole(f, int(z0.real))
            for n in range(int(z0.real) - 3, int(z0.real) + 4):
                if f.is_pole(n) and n != int(z0.real):
                    assert abs(n - z0) > radius + POLE_GUARD
        elif op.kind in ("improper", "tail"):
            assert args[0].real > 2.0


def test_failure_counter_counts_a_perturbed_result():
    block = lines.make_block(2, 0)
    op = next(o for o in block if o.stratum == "k_lo")
    out = op.call()
    assert harness.run_op(run._Replay(op, out)).ok
    assert not harness.run_op(run._Replay(op, run.perturb(out))).ok
    seen = set()
    for op in plane.make_block(2, 0):
        if op.kind in seen:
            continue
        seen.add(op.kind)
        out = op.call()
        assert harness.run_op(run._Replay(op, out)).ok, op.describe()
        assert not harness.run_op(run._Replay(op, run.perturb(out))).ok, op.describe()
        assert run.self_check([harness.run_op(op)])
    assert seen == set(plane.BLOCK)


class _Raise:
    """An op that raises `exc` instead of calling mbzeta, judged as `op`."""

    def __init__(self, op, exc):
        self.kind, self.stratum, self.judge = op.kind, op.stratum, op.judge
        self.exc = exc

    def call(self):
        raise self.exc


def test_an_op_that_raises_makes_the_run_incorrect():
    by_stratum = {op.stratum: op for op in lines.make_block(2, 0)}
    rect = next(op for op in plane.make_block(2, 0) if op.kind == "rect")
    good = harness.run_op(by_stratum["k_lo"])
    assert good.ok and run.correct([good], True)

    def verdict(op, exc):
        res = harness.run_op(_Raise(op, exc))
        assert not res.ok
        return run.correct([good, res], True)
    unreachable = errors.ToleranceUnreachable("budget spent")
    assert not verdict(rect, errors.PoleOnPath("pole on edge"))
    assert not verdict(by_stratum["k_lo"], unreachable)
    assert not verdict(by_stratum["k_mid"], unreachable)
    cold = next(cli_verify.stream(2))
    assert not verdict(cold, subprocess.TimeoutExpired("python", 60.0))
    assert not run.correct([good], False)


def test_cli_judge_rejects_changed_bytes_and_failed_reports():
    judge = cli_verify.Judge()
    out = b'{\n  "overall_pass": true\n}\n'
    assert judge("json", 0, out)
    assert not judge("json", 0, out + b"x")
    assert not judge("json", 1, out)
    assert not judge("text", 0, b"PASS a\noverall_pass=false\n")


def test_tail_is_the_eleventh_largest():
    value, pct, n = harness.tail([float(i) for i in range(100)])
    assert (value, n) == (89.0, 100) and pct == 90.0


def test_metric_names_and_benchmark_file_agree():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in BENCHMARK[key]]
    harness.check_metric_names(names)
    assert len(names) == len(set(names))
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == traced.PER_LAYER_UNITS
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
