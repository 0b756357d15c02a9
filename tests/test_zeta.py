"""Riemann/Hurwitz zeta evaluation, exact negative-integer values, and the
truncated double-sum oracle."""
import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from mbzeta._backend import kernels
from mbzeta.errors import (DomainViolation, IndexBeyondTable, OverflowRegime,
                           PoleProximity)
from mbzeta.zeta import (DEFAULT_CONFIG, ZetaEvalConfig, double_sum_oracle,
                         hurwitz_zeta, riemann_zeta, zeta_negative_integer)


def test_even_closed_forms():
    assert abs(riemann_zeta(2.0) - math.pi ** 2 / 6.0) < 1e-13
    assert abs(riemann_zeta(4.0) - math.pi ** 4 / 90.0) < 1e-13
    assert abs(riemann_zeta(6.0) - math.pi ** 6 / 945.0) < 1e-13


def test_matches_truncated_sum_oracle():
    for s in (1.5, 2.0, 2.5, 3.0, 4.0, 6.5, 7.5):
        value, halfwidth = oracles.zeta_bracket(s, n=200_000)
        assert abs(riemann_zeta(s) - value) <= halfwidth + 1e-12


def test_special_values():
    assert riemann_zeta(0.0) == -0.5
    assert abs(riemann_zeta(-1.0) - (-1.0 / 12.0)) < 1e-13
    assert abs(riemann_zeta(-3.0) - (1.0 / 120.0)) < 1e-13
    assert abs(riemann_zeta(-2.0)) < 1e-13  # trivial zero
    assert abs(riemann_zeta(3.0) - 1.2020569031595943) < 1e-12


def test_first_nontrivial_zero_region():
    z = riemann_zeta(complex(0.5, 14.134725141734694))
    assert abs(z) < 1e-6


def test_conjugate_symmetry():
    for s in (complex(3.0, 2.0), complex(0.7, 11.0), complex(-1.3, 4.0)):
        assert abs(riemann_zeta(s.conjugate()) - riemann_zeta(s).conjugate()) \
            < 1e-12 * max(1.0, abs(riemann_zeta(s)))


def test_reflection_selfconsistency_left_of_strip():
    # evaluate at Re(s) in [-3, -1] (internal reflection), then re-derive the
    # same value from the functional equation using the plain sum side
    for s in (complex(-1.5, 0.8), complex(-2.25, 3.0), complex(-3.0, 7.5)):
        direct = riemann_zeta(s)
        w = 1.0 - s
        pref = (2.0 * (2.0 * math.pi) ** (s - 1.0)
                * cmath.sin(0.5 * math.pi * s))
        rebuilt = pref * cmath.exp(kernels.loggamma(w)) * riemann_zeta(w)
        assert abs(direct - rebuilt) <= 1e-9 * max(1.0, abs(direct))


def test_em_direct_agrees_with_reflection_route():
    # dual route at s = -0.5: Euler-Maclaurin remains asymptotically valid
    # there, while riemann_zeta goes through the reflection formula
    em = kernels.zeta_em(complex(-0.5), 1.0, 50, 12)
    assert abs(em - riemann_zeta(-0.5)) < 1e-12


def test_em_term_count_consistency():
    # raising the truncation point must not move desk-scale values
    heavy = ZetaEvalConfig(em_terms=80)
    for s in (2.0, complex(0.6, 35.0), complex(1.5, -12.0)):
        assert abs(riemann_zeta(s, heavy) - riemann_zeta(s)) < 1e-12


def test_pole_and_overflow_guards():
    with pytest.raises(PoleProximity):
        riemann_zeta(1.0 + 1e-9)
    with pytest.raises(OverflowRegime):
        riemann_zeta(complex(0.2, 500.0))  # reflection would need Gamma there
    with pytest.raises(OverflowRegime):
        riemann_zeta(complex(2.0, 2e5))
    riemann_zeta(complex(2.0, 500.0))  # no reflection needed: fine


def test_config_validation():
    with pytest.raises(DomainViolation):
        ZetaEvalConfig(correction_order=13)  # odd order
    with pytest.raises(DomainViolation):
        ZetaEvalConfig(correction_order=40)  # beyond the coefficient table
    with pytest.raises(DomainViolation):
        ZetaEvalConfig(em_terms=0)
    with pytest.raises(DomainViolation):
        ZetaEvalConfig(correction_order=2)  # adaptive count would be ~3e7 terms
    ZetaEvalConfig(em_terms=50, correction_order=2)
    # the full table as the cap, and N = max(16, ceil(|Im s| / 2))
    assert DEFAULT_CONFIG.correction_order == 32
    assert DEFAULT_CONFIG._term_args() == (16, 0.5)


def test_a_lower_cap_sums_more_terms():
    # N = ceil(f * max(|Im s|, order)), f = 2^(53/order - 53/32) / 2: order 12
    # sums more terms than the old fixed rule max(20, ceil(2|Im s|)) at every
    # height
    em_min, em_per_im = ZetaEvalConfig(correction_order=12)._term_args()
    assert em_min == 41 and 3.38 < em_per_im < 3.39


def test_fixed_em_terms_that_cannot_converge_is_refused():
    # 30 terms at |Im s| = 390 once returned 125.69+104.73i for 5.0023-0.7840i,
    # and 63 terms 5.0415-0.7065i, 1.7% off: the first correction beyond the
    # cap is 3.3e-3 of zeta there, and 7.3e-16 at 150 terms
    for n in (30, 63, 150):
        with pytest.raises(DomainViolation, match=f"em_terms={n} is too few"):
            riemann_zeta(complex(0.6, 390.0), ZetaEvalConfig(em_terms=n))
    riemann_zeta(complex(0.6, 390.0), ZetaEvalConfig(em_terms=175))
    # on the reflection path the sum runs at 1 - s: 6.9e-7 at 20 terms
    for n in (10, 20):
        with pytest.raises(DomainViolation, match=f"em_terms={n} is too few"):
            riemann_zeta(complex(-1.0, 100.0), ZetaEvalConfig(em_terms=n))
    riemann_zeta(complex(-1.0, 100.0), ZetaEvalConfig(em_terms=40))
    # at s = 0 the kernel sums nothing, so no count is too few
    assert riemann_zeta(0.0, ZetaEvalConfig(em_terms=1)) == -0.5


def test_fixed_em_terms_in_use_are_accepted():
    # the configs the contour tests, test_em_term_count_consistency and the
    # plane benchmark's reference pass
    riemann_zeta(complex(0.5, 14.0),
                 ZetaEvalConfig(em_terms=30, correction_order=16))
    riemann_zeta(complex(0.6, 35.0), ZetaEvalConfig(em_terms=80))
    for s in (complex(-3.0, 390.0), complex(5.0, -390.0), complex(0.49, 0.0)):
        riemann_zeta(s, _heavy(s))


def _heavy(s):
    # the plane benchmark's reference truncation: about four times the terms
    # DEFAULT_CONFIG sums, and 10 corrections every time
    return ZetaEvalConfig(em_terms=math.ceil(2.0 * abs(s.imag)) + 40,
                          correction_order=20)


_HEIGHTS = (0.0, 0.5, 3.0, 10.0, 25.0, 60.0, 130.0, 250.0, 390.0)


def test_default_matches_a_heavy_truncation_up_to_height_390():
    # sigma in [-3, 5] runs the reflection path left of 1/2 and the direct
    # sum right of it
    for i in range(17):
        for t in _HEIGHTS:
            for s in (complex(-3.0 + 0.5 * i, t), complex(-3.0 + 0.5 * i, -t)):
                if abs(s - 1.0) < 0.1:
                    continue
                want = riemann_zeta(s, _heavy(s))
                assert abs(riemann_zeta(s) - want) <= 1e-12 * abs(want), s


def test_hurwitz_matches_a_heavy_truncation_up_to_height_390():
    for sigma in (1.25, 2.0, 3.5, 5.0):
        for t in _HEIGHTS:
            s = complex(sigma, t)
            for a in (1.0, 1.5, 3.25, 10.0):
                want = kernels.zeta_em(s, a, math.ceil(2.0 * t) + 40, 20)
                assert abs(hurwitz_zeta(s, a) - want) <= 1e-12 * abs(want), (s, a)


def test_hurwitz_reduces_to_riemann():
    for s in (2.5, 4.0, complex(3.0, 2.0)):
        assert abs(hurwitz_zeta(s, 1.0) - riemann_zeta(s)) < 1e-12


def test_hurwitz_shift_by_one():
    # zeta(s, 2) = zeta(s) - 1
    assert abs(hurwitz_zeta(3.0, 2.0) - (riemann_zeta(3.0) - 1.0)) < 1e-13
    assert abs(hurwitz_zeta(3.0, 2.0) - 0.2020569031595943) < 1e-12
    assert abs(hurwitz_zeta(4.0, 2.0) - (math.pi ** 4 / 90.0 - 1.0)) < 1e-13


def test_hurwitz_matches_direct_sum_oracle():
    for s, a in ((3.5, 2.5), (2.2, 4.0), (5.0, 1.5)):
        value, halfwidth = oracles.hurwitz_bracket(s, a, n=200_000)
        assert abs(hurwitz_zeta(s, a) - value) <= halfwidth + 1e-12


def test_hurwitz_domain():
    with pytest.raises(DomainViolation):
        hurwitz_zeta(0.5, 2.0)
    with pytest.raises(DomainViolation):
        hurwitz_zeta(3.0, 0.5)


def test_zeta_negative_integer_exact():
    assert zeta_negative_integer(1) == Fraction(-1, 12)
    assert zeta_negative_integer(3) == Fraction(1, 120)
    assert zeta_negative_integer(5) == Fraction(-1, 252)
    assert all(zeta_negative_integer(n) == 0 for n in range(2, 60, 2))
    with pytest.raises(IndexBeyondTable):
        zeta_negative_integer(64)  # needs B_65
    with pytest.raises(DomainViolation):
        zeta_negative_integer(0)


def test_zeta_negative_integer_matches_float_eval():
    for n in range(1, 12):
        exact = float(zeta_negative_integer(n))
        assert abs(riemann_zeta(-float(n)) - exact) < 1e-12 * max(1.0, abs(exact))


@given(st.integers(1, 31))
@settings(max_examples=31, deadline=None)
def test_zeta_negative_integer_bernoulli_relation(n):
    # zeta(-n) = -B_{n+1}/(n+1) against the independent Bernoulli oracle
    assert zeta_negative_integer(n) == -oracles.bernoulli_at(n + 1) / (n + 1)


def test_double_sum_oracle_matches_closed_form():
    for s in (3.0, 4.0, 6.5, complex(4.0, 2.0), complex(3.5, -1.0)):
        oracle = double_sum_oracle(s, tol=1e-13)
        closed = riemann_zeta(s - 1.0) - riemann_zeta(s)
        assert abs(oracle - closed) < 5e-13, f"mismatch at s={s}"


def test_double_sum_oracle_brackets_raw_truncation():
    # raw partial sums approach the oracle value from below, with the
    # remaining gap of order 1/K (tail of sum k^{1-s} at s = 3)
    target = double_sum_oracle(3.0, tol=1e-13).real
    lo = oracles.double_sum_direct(3.0, 2_000).real
    hi = oracles.double_sum_direct(3.0, 200_000).real
    assert lo < hi < target
    assert target - hi < 2.0 / 200_000
    assert target - lo > target - hi


def test_double_sum_oracle_small_tail_value():
    # at s = 30 the whole sum collapses toward the k = 2 term; a short raw
    # truncation is already exact to far beyond binary64
    value = double_sum_oracle(30.0)
    direct = oracles.double_sum_direct(30.0, 1_000)
    assert abs(value - direct) < 1e-23
    assert value.real > 2.0 ** (-30.0)


def test_double_sum_oracle_domain():
    with pytest.raises(DomainViolation):
        double_sum_oracle(2.0)
    with pytest.raises(DomainViolation):
        double_sum_oracle(complex(1.5, 40.0))


def test_double_sum_oracle_underflows_to_zero_at_huge_s():
    # 2^-s underflows, and from s ~ 1.05e28 on the EM tails' Pochhammer
    # factors overflow while the powers they multiply underflow to 0
    for s in (1e4, 1.05e28, 1e30, complex(1e300, 1.0)):
        assert double_sum_oracle(s) == 0.0
