"""Identity battery, rectangle checks, decay studies, envelope fits, suite runs."""
import json
import math

import pytest

import oracles
from mbzeta import verify
from mbzeta.contour import (RectangleSpec, gamma_power, zeta_gamma_power,
                            zeta_zeta_gamma)
from mbzeta.errors import ConfigError, DomainViolation, UnknownCaseKind
from mbzeta.verify import (DEFAULT_TOLERANCES, IDENTITY_KINDS, IdentityCase,
                           check_identity, check_rectangle, decay_study,
                           default_config, fit_envelope, run_suite)
from mbzeta.zeta import riemann_zeta


def _entry_invariants(e):
    assert e.abs_err == abs(e.lhs - e.rhs)
    assert e.passed == (e.abs_err <= e.tolerance or e.rel_err <= e.tolerance)


def test_identity_case_validation():
    with pytest.raises(UnknownCaseKind):
        IdentityCase("x", "mystery", {"s": 3.0}, 1e-8)
    with pytest.raises(DomainViolation):
        IdentityCase("x", "mb_power", {"s": 3.0}, -1e-8)
    assert set(IDENTITY_KINDS) >= {"mb_power", "two_term", "double_sum",
                                   "app_integral", "coth_expansion"}


def test_two_term_against_oracle():
    # Gamma(3.5)/(2+3)^3.5 via the rescaled line integral
    e = check_identity(IdentityCase(
        "t", "two_term", {"s": 3.5, "a": 2.0, "b": 3.0, "c": 1.2}, 1e-8))
    expect = oracles.gamma_product(3.5).real * 5.0 ** -3.5
    assert abs(e.lhs - expect) < 1e-10
    assert abs(e.rhs - expect) < 1e-12
    assert abs(expect - 0.011889981892818) < 1e-14
    assert e.passed
    _entry_invariants(e)


def test_mb_power_entry():
    e = check_identity(IdentityCase(
        "t", "mb_power", {"s": 3.0, "u": 0.5, "c": 1.2}, 1e-8))
    assert abs(e.rhs - 16.0 / 27.0) < 1e-14
    assert e.passed


def test_binomial_series_entry_matches_partial_sum_oracle():
    e = check_identity(IdentityCase(
        "t", "binomial_series", {"s": 3.0, "u": 0.5, "n_terms": 60}, 1e-8))
    expect = oracles.binomial_partial(3.0, 0.5, 60)
    assert abs(e.lhs - expect) < 1e-12
    assert e.passed


def test_double_sum_routes_agree():
    closed = check_identity(IdentityCase(
        "t", "double_sum", {"s": 4.0, "c": 1.5}, 1e-6))
    oracle = check_identity(IdentityCase(
        "t", "double_sum", {"s": 4.0, "c": 1.5}, 1e-6, method="oracle"))
    assert closed.passed and oracle.passed
    # both rhs routes target Gamma(4)(zeta(3) - zeta(4))
    expect = 6.0 * (riemann_zeta(3.0).real - riemann_zeta(4.0).real)
    assert abs(closed.rhs - expect) < 1e-12
    assert abs(oracle.rhs - expect) < 1e-9
    assert abs(complex(oracle.rhs) - complex(closed.rhs)) > 0.0  # distinct routes


def test_hurwitz_kernel_entry():
    e = check_identity(IdentityCase(
        "t", "hurwitz_kernel", {"s": 4.0, "a": 2.0, "c": 1.5}, 1e-6))
    expect = 6.0 * (math.pi ** 4 / 90.0 - 1.0)  # Gamma(4) zeta(4,2)
    assert abs(e.rhs - expect) < 1e-12
    assert e.passed


def test_app_integral_entry():
    e = check_identity(IdentityCase("t", "app_integral", {"s": 3.0}, 1e-6))
    assert abs(e.rhs - 0.8857543273772657) < 1e-12
    assert e.passed


def test_coth_expansion_against_oracle():
    e = check_identity(IdentityCase(
        "t", "coth_expansion", {"x": 1.0, "n_terms": 10}, 1e-10))
    assert abs(e.rhs - oracles.coth_half(1.0)) < 1e-15
    assert e.passed
    with pytest.raises(DomainViolation):
        check_identity(IdentityCase(
            "t", "coth_expansion", {"x": 0.0, "n_terms": 10}, 1e-10))
    with pytest.raises(DomainViolation):
        check_identity(IdentityCase(
            "t", "coth_expansion", {"x": 7.0, "n_terms": 10}, 1e-10))
    with pytest.raises(DomainViolation):
        check_identity(IdentityCase(
            "t", "coth_expansion", {"x": 1.0, "n_terms": 18}, 1e-10))


def test_rectangle_entries():
    r = check_rectangle(zeta_zeta_gamma(4.0), RectangleSpec(1.5, 6.0, 30.0))
    assert r.passed and r.abs_err < 1e-12
    z = (riemann_zeta(3.0) - 1.5 * riemann_zeta(4.0)
         + riemann_zeta(5.0)).real * 2.0 - riemann_zeta(7.0).real
    assert abs(r.rhs - z) < 1e-12  # sum of the four closed-form residues
    r2 = check_rectangle(gamma_power(3.0, 0.5), RectangleSpec(0.8, 4.3, 20.0))
    assert r2.passed
    r3 = check_rectangle(zeta_zeta_gamma(4.0), RectangleSpec(1.4, 0.2, 5.0))
    assert r3.passed
    assert r3.rhs == 0j  # pole-free: empty residue sum
    assert abs(r3.lhs) < 1e-10


def test_decay_vertical_magnitudes_match_binomial_remainders():
    d = decay_study("vertical_shift", gamma_power(3.0, 0.5), 0.5, [2, 5, 9])
    closed = oracles.power_closed(3.0, 0.5)
    for k, mag in zip((2, 5, 9), d.magnitudes):
        remainder = abs(closed - oracles.binomial_partial(3.0, 0.5, k))
        assert abs(mag - remainder) < 1e-12
    assert d.strictly_decreasing
    assert not d.final_below  # |remainder| at k=9 is ~ 2.7e-2, above 1e-6


def test_decay_vertical_rejects_zeta_families():
    with pytest.raises(DomainViolation):
        decay_study("vertical_shift", zeta_zeta_gamma(4.0), 1.5, [10, 20])
    with pytest.raises(DomainViolation):
        decay_study("vertical_shift", zeta_gamma_power(4.0, 2.0), 1.5, [10, 20])
    with pytest.raises(DomainViolation):
        decay_study("vertical_shift", gamma_power(3.0, 0.5), 0.5, [])
    with pytest.raises(DomainViolation):
        decay_study("vertical_shift", gamma_power(3.0, 0.5), 0.5, [3, 2])
    with pytest.raises(DomainViolation):
        decay_study("mystery", gamma_power(3.0, 0.5), 0.5, [1, 2])


def test_decay_vertical_default_battery_case():
    d = decay_study("vertical_shift", gamma_power(3.0, 0.5), 0.5, [10, 20, 30])
    assert d.strictly_decreasing
    assert d.final_below
    rows = d.entries("decay_vertical_shift[gamma_power]")
    assert [r.id for r in rows] == ["decay_vertical_shift[gamma_power].final",
                                    "decay_vertical_shift[gamma_power].monotone"]
    assert all(r.passed for r in rows)
    assert rows[1].lhs == 0j  # zero monotonicity violations


def test_decay_horizontal_strictly_decreasing():
    d = decay_study("horizontal", zeta_zeta_gamma(4.0), 1.5, [10, 20, 30],
                    left=-4.5)
    assert d.strictly_decreasing
    assert d.final_below
    assert d.magnitudes[0] > d.magnitudes[1] > d.magnitudes[2]
    assert d.magnitudes[2] < 1e-20  # exponential kill from the Gamma factor


def test_envelope_default_ranges_hold():
    for bound, ranges in (("gamma_exp", ((1.0, 10.0), (10.0, 40.0))),
                          ("zeta_left", ((5.0, 50.0), (50.0, 60.0))),
                          ("zeta_strip", ((5.0, 20.0), (20.0, 60.0)))):
        fit = fit_envelope(bound, *ranges)
        assert fit.violations == 0, bound
        assert fit.constant > 0.0
        assert fit.worst_test_ratio <= fit.constant
        entry = fit.entry()
        assert entry.passed
        assert entry.lhs == 0j


def test_envelope_zeta_left_narrow_fit_window_fails():
    # fitting C on t within 5..20 undershoots the true growth by ~12% out at
    # t = 60: the polynomial-envelope hypothesis is genuinely false for this
    # bound on that window, and the fit reports it rather than papering over
    fit = fit_envelope("zeta_left", (5.0, 20.0), (20.0, 60.0))
    assert fit.violations > 0
    assert fit.worst_test_ratio > 1.05 * fit.constant
    assert not fit.entry().passed


def test_envelope_determinism_and_validation():
    a = fit_envelope("gamma_exp", (1.0, 10.0), (10.0, 40.0))
    b = fit_envelope("gamma_exp", (1.0, 10.0), (10.0, 40.0))
    assert a == b
    with pytest.raises(DomainViolation):
        fit_envelope("mystery", (1.0, 10.0), (10.0, 40.0))
    with pytest.raises(DomainViolation):
        fit_envelope("gamma_exp", (10.0, 1.0), (10.0, 40.0))
    with pytest.raises(DomainViolation):
        fit_envelope("gamma_exp", (1.0, 10.0), (5.0, 40.0))
    with pytest.raises(DomainViolation):
        fit_envelope("gamma_exp", (-1.0, 10.0), (10.0, 40.0))


def test_default_suite_passes_and_is_deterministic():
    r1 = run_suite()
    r2 = run_suite()
    assert r1.overall_pass
    assert len(r1.entries) >= 25
    assert r1.to_dict() == r2.to_dict()
    for e in r1.entries:
        _entry_invariants(e)
    env = r1.environment
    assert env["package"] == "mbzeta"
    assert env["float_format"] == "binary64"
    assert env["backend"] in ("compiled", "python")


def test_suite_empty_cases_vacuously_true():
    r = run_suite({"cases": []})
    assert r.overall_pass
    assert r.entries == ()


def test_suite_impossible_tolerance_fails_honestly():
    r = run_suite({"cases": [{"id": "imp", "kind": "mb_power",
                              "s": 4.5, "u": 0.25, "c": 1.5,
                              "tolerance": 1e-30}]})
    assert not r.overall_pass
    assert len(r.entries) == 1
    e = r.entries[0]
    assert not e.passed
    assert 0.0 < e.abs_err < 1e-12  # accurate, just not 1e-30 accurate


def test_suite_config_errors_precede_execution():
    with pytest.raises(ConfigError):
        run_suite({"cases": [{"kind": "mystery", "s": 3.0}]})
    with pytest.raises(ConfigError):
        run_suite({"cases": [{"kind": "mb_power", "s": 3.0}]})  # missing u, c
    with pytest.raises(ConfigError):
        run_suite({"cases": [], "tolerances": {"bogus": 1e-6}})
    with pytest.raises(ConfigError):
        run_suite({"cases": [], "bogus_section": {}})
    with pytest.raises(ConfigError):
        run_suite({"cases": [{"kind": "mb_power", "s": 3.0, "u": 0.5,
                              "c": 1.2, "tolerance": -1.0}]})
    with pytest.raises(ConfigError):
        run_suite({"cases": [], "envelope_ranges": {"gamma_exp": {"fit": [1.0]}}})


def test_suite_runtime_error_becomes_failing_entry():
    # a = 0.5 violates the Hurwitz-kernel domain at runtime, after prechecks
    r = run_suite({"cases": [
        {"id": "bad", "kind": "hurwitz_kernel", "s": 4.0, "a": 0.5, "c": 1.5},
        {"id": "good", "kind": "mb_power", "s": 3.0, "u": 0.5, "c": 1.2},
    ]})
    assert not r.overall_pass
    by_id = {e.id: e for e in r.entries}
    assert not by_id["bad"].passed
    assert by_id["bad"].error != ""
    assert by_id["good"].passed  # the suite carried on past the failure


def test_suite_tolerance_overrides():
    r = run_suite({"cases": [{"id": "t", "kind": "double_sum", "s": 4.0,
                              "c": 1.5}],
                   "tolerances": {"zeta_bearing": 1e-30}})
    assert not r.overall_pass  # override propagated into the case


def test_report_serialization():
    r = run_suite({"cases": [
        {"id": "with,comma", "kind": "mb_power", "s": 3.0, "u": 0.5, "c": 1.2}]})
    d = r.to_dict()
    assert set(d) == {"version", "environment", "entries", "overall_pass"}
    assert d["entries"][0]["id"] == "with,comma"
    assert "error" not in d["entries"][0]
    json.dumps(d)  # round-trippable
    csv_text = r.to_csv()
    lines = csv_text.splitlines()
    assert lines[0] == "id,lhs_re,lhs_im,rhs_re,rhs_im,abs_err,rel_err,tolerance,pass"
    assert lines[1].startswith("with;comma,")
    assert lines[1].endswith(",true")
    assert len(lines[1].split(",")) == 9
    e = r.entries[0]
    assert r.to_text() == (f"PASS with,comma abs_err={e.abs_err:.3e} "
                           f"rel_err={e.rel_err:.3e} tol=1e-08\n"
                           "overall_pass=true\n")


def test_default_config_covers_every_kind():
    kinds = {c["kind"] for c in default_config()["cases"]}
    assert kinds == set(verify._KINDS)
    assert set(IDENTITY_KINDS) < kinds
    assert {row[1] for row in verify._KINDS.values()} == set(DEFAULT_TOLERANCES)
    assert DEFAULT_TOLERANCES["indicator"] == 0.5


def test_identity_case_reads_its_params():
    case = IdentityCase("t", "binomial_series",
                        {"s": [3, 1], "u": 1, "n_terms": 60.0}, 1e-8)
    assert case.params == {"s": 3 + 1j, "u": 1.0, "n_terms": 60}
    assert type(case.params["n_terms"]) is int
    with pytest.raises(ConfigError):
        IdentityCase("t", "mb_power", {"s": 3.0, "u": 0.5}, 1e-8)  # no c
    with pytest.raises(ConfigError):
        IdentityCase("t", "mb_power", {"s": 3.0, "u": "0.5", "c": 1.2}, 1e-8)
    with pytest.raises(ConfigError):
        IdentityCase("t", "double_sum", {"s": 4.0}, 1e-6, method="bogus")
    with pytest.raises(DomainViolation):
        IdentityCase("t", "mb_power", {"s": 3.0, "u": 0.5, "c": 1.2}, math.inf)


@pytest.fixture
def ran(monkeypatch):
    """The check functions the suite called, each of which now raises."""
    calls = []

    def fake(name):
        def check(*args, **kwargs):
            calls.append(name)
            raise DomainViolation("ran")
        return check

    for name in ("check_identity", "check_rectangle", "decay_study",
                 "fit_envelope", "asymptotic_tail_terms"):
        monkeypatch.setattr(verify, name, fake(name))
    return calls


_GOOD = {"id": "good", "kind": "mb_power", "s": 3, "u": 0.5, "c": 1.2}


def test_ran_fixture_sees_every_runner(ran):
    r = run_suite()
    assert set(ran) == {"check_identity", "check_rectangle", "decay_study",
                        "fit_envelope", "asymptotic_tail_terms"}
    assert not any(e.passed for e in r.entries)


@pytest.mark.parametrize("config", [
    {"cases": [_GOOD, dict(_GOOD, u=[1])]},
    {"cases": [_GOOD], "quadrature": {"max_evaluations": math.inf}},
    {"cases": [_GOOD], "quadrature": {"pole_guard": math.nan}},
    {"cases": [_GOOD, dict(_GOOD, id=5)]},
    {"cases": [_GOOD], "envelope_ranges": {"gamma_exp": {"fit": ["a", "b"]}}},
    {"cases": [_GOOD, {"kind": "decay", "study": "horizontal",
                       "family": "zeta_zeta_gamma", "s": 4, "c": 1.5,
                       "left": -4.5, "values": 5}]},
    {"cases": [_GOOD, {"kind": "rectangle", "family": "zeta_gamma_power",
                       "s": 4, "right": 1.5, "left": -4.5, "T": 30}]},
    {"cases": [_GOOD, {"kind": "binomial_series", "s": 3, "u": 0.5,
                       "n_terms": 1}], "tolerances": {"gamma_only": math.inf}},
    {"cases": [_GOOD, dict(_GOOD, tolerance=math.inf)]},
    {"cases": [_GOOD, {"kind": "double_sum", "s": 4, "method": "bogus"}]},
    {"cases": [_GOOD, {"kind": "tail_study", "s": 4, "M": 20.5}]},
    {"cases": [_GOOD, 5]},
    {"cases": [_GOOD], "tolerances": [1e-6]},
    {"cases": [_GOOD, {"kind": "decay", "study": "horizontal",
                       "family": "zeta_zeta_gamma", "s": 4, "c": 1.5,
                       "values": [10, 20, 30]}]},
], ids=["u-list", "max-evaluations-inf", "pole-guard-nan", "id-int",
        "envelope-range-strings", "decay-values-int", "family-param-missing",
        "class-tolerance-inf", "case-tolerance-inf", "method-bogus",
        "M-fraction", "case-not-object", "tolerances-not-object",
        "study-param-missing"])
def test_malformed_config_rejected_before_any_case_runs(config, ran):
    with pytest.raises(ConfigError):
        run_suite(config)
    assert ran == []


def test_failing_entry_reports_its_case_tolerance():
    r = run_suite({"cases": [{"id": "bad", "kind": "hurwitz_kernel", "s": 4.0,
                              "a": 0.5, "c": 1.5, "tolerance": 1e-3}]})
    assert r.entries[0].error != ""
    assert r.entries[0].tolerance == 1e-3


def test_counting_rows_take_the_indicator_tolerance():
    # an envelope row takes its case's tolerance, else tolerances.indicator;
    # a decay study's .final row takes the threshold and .monotone the
    # indicator
    r = run_suite({"tolerances": {"indicator": 0.25, "decay_threshold": 1e-5},
                   "cases": [
                       {"kind": "envelope", "bound": "gamma_exp",
                        "tolerance": 0.1},
                       {"kind": "envelope", "bound": "gamma_exp"},
                       {"kind": "decay", "study": "horizontal",
                        "family": "zeta_zeta_gamma", "s": 4, "c": 1.5,
                        "left": -4.5, "values": [10, 20, 30]}]})
    assert [e.tolerance for e in r.entries] == [0.1, 0.25, 1e-5, 0.25]
    assert r.overall_pass
