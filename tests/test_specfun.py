"""Gamma, Bernoulli, and beta behavior.

Expected values are tagged by provenance: closed forms asserted directly,
derived values cross-checked against the independent oracles in oracles.py
(Euler-product gamma, Akiyama-Tanigawa Bernoulli numbers).
"""
import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from mbzeta.errors import DomainViolation, IndexBeyondTable, PoleProximity
from mbzeta.specfun import bernoulli, beta, gamma, log_gamma

HALF_LOG_PI = 0.5 * math.log(math.pi)


def test_log_gamma_classic_points():
    # Gamma(1/2)^2 = pi via reflection at z = 1/2
    assert abs(log_gamma(0.5) - HALF_LOG_PI) < 1e-14
    assert abs(log_gamma(1.0)) < 1e-14
    assert abs(log_gamma(2.0)) < 1e-14
    # ln Gamma(5) = ln 24
    assert abs(log_gamma(5.0) - math.log(24.0)) < 1e-13


def test_log_gamma_matches_stdlib_on_positive_axis():
    for x in (0.1, 0.37, 1.5, 2.5, 9.25, 40.0, 140.5):
        assert abs(log_gamma(x).real - math.lgamma(x)) <= 4e-14 * max(
            1.0, abs(math.lgamma(x)))
        assert log_gamma(x).imag == 0.0


def test_log_gamma_matches_product_oracle_complex():
    # independent Euler-product evaluation, accurate to ~1e-13
    for z in (3 + 1j, 0.8 + 2.4j, -2.3 + 0.7j, 1.2 - 5j):
        expect = oracles.loggamma_product(complex(z), n0=100_000, levels=3)
        assert abs(log_gamma(z) - expect) < 5e-12


def test_gamma_small_integers_and_half():
    assert abs(gamma(5.0) - 24.0) < 1e-12
    assert abs(gamma(2.5) - 0.75 * math.sqrt(math.pi)) < 1e-13
    assert abs(gamma(0.5) - math.sqrt(math.pi)) < 1e-13


def test_gamma_recurrence_random_sample():
    # 10^4 points with |z| <= 50, kept clear of the pole line
    rng = random.Random(20260815)
    checked = 0
    while checked < 10_000:
        z = complex(rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0))
        if abs(z) > 50.0:
            continue
        if abs(z.imag) < 0.5 and z.real < 1.0 and abs(z.real - round(z.real)) < 0.1:
            continue
        g1 = gamma(z + 1.0)
        g2 = z * gamma(z)
        if not abs(g1) < 1e300 or abs(g1) == 0.0:
            continue
        assert abs(g1 - g2) / abs(g1) < 1e-11, f"recurrence failed at {z}"
        checked += 1


def test_gamma_reflection_grid():
    for x10 in range(-29, 30, 3):
        for y10 in range(-30, 31, 4):
            z = complex(x10 / 10.0 + 0.05, y10 / 10.0 + 0.03)
            v = gamma(z) * gamma(1.0 - z) * cmath.sin(math.pi * z) / math.pi
            assert abs(v - 1.0) < 1e-10, f"reflection failed at {z}"


def test_gamma_duplication_grid():
    for x4 in range(-10, 21, 3):
        for y4 in range(-8, 9, 3):
            z = complex(x4 / 4.0 + 0.07, y4 / 4.0 + 0.11)
            lhs = gamma(2.0 * z)
            rhs = (2.0 ** (2.0 * z - 1.0) / math.sqrt(math.pi)
                   * gamma(z) * gamma(z + 0.5))
            assert abs(lhs - rhs) / abs(lhs) < 1e-10, f"duplication failed at {z}"


def test_gamma_conjugation():
    for z in (3 + 1j, 0.3 - 2.7j, -1.4 + 9j):
        assert gamma(z.conjugate()) == gamma(z).conjugate() or (
            abs(gamma(z.conjugate()) - gamma(z).conjugate())
            <= 1e-15 * abs(gamma(z)))


@given(st.complex_numbers(min_magnitude=0.3, max_magnitude=20.0,
                          allow_infinity=False, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_log_gamma_recurrence_property(z):
    # residual of log Gamma(z+1) - log Gamma(z) - log z is a multiple of 2*pi*i
    if abs(z.imag) < 0.2 and z.real < 0.5:
        return
    residual = log_gamma(z + 1.0) - log_gamma(z) - cmath.log(z)
    winding = residual.imag / (2.0 * math.pi)
    assert abs(residual.real) < 1e-10 * max(1.0, abs(log_gamma(z + 1.0).real))
    assert abs(winding - round(winding)) < 1e-9


def test_log_gamma_is_continuous_lift_near_negative_axis():
    # imaginary part varies continuously along a path just above the cut
    prev = log_gamma(complex(-4.5, 0.25))
    for step in range(1, 40):
        z = complex(-4.5 + step * 0.2, 0.25)
        cur = log_gamma(z)
        assert abs(cur - prev) < 2.0, f"branch jump near {z}"
        prev = cur


def test_pole_guard_raises_with_location():
    with pytest.raises(PoleProximity) as info:
        gamma(-3.0 + 1e-9)
    assert info.value.nearest_pole == -3.0 + 0j
    with pytest.raises(PoleProximity):
        log_gamma(1e-12)
    gamma(-3.0 + 1e-3)  # outside the guard: fine


def test_bernoulli_against_akiyama_tanigawa():
    # independent exact recomputation for every table index
    for n in range(0, 65):
        assert bernoulli(n) == oracles.bernoulli_at(n), f"B_{n} mismatch"


def test_bernoulli_conventions_and_errors():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(12) == Fraction(-691, 2730)
    assert all(bernoulli(n) == 0 for n in range(3, 64, 2))
    with pytest.raises(IndexBeyondTable):
        bernoulli(65)
    with pytest.raises(IndexBeyondTable):
        bernoulli(-1)
    with pytest.raises(DomainViolation):
        bernoulli(0.5)


def test_bernoulli_table_is_exact_closure():
    table = [bernoulli(n) for n in range(65)]
    # recurrence sum binom(n+1, j) B_j = 0 holds exactly in rationals
    for n in range(1, 65):
        total = sum(Fraction(math.comb(n + 1, j)) * table[j]
                    for j in range(n + 1))
        assert total == 0, f"recurrence open at n={n}"


def test_beta_exact_points():
    assert abs(beta(1.0, 1.0) - 1.0) < 1e-14
    assert abs(beta(0.5, 0.5) - math.pi) < 1e-13
    assert abs(beta(2.0, 3.0) - 1.0 / 12.0) < 1e-14
    # Gamma(2.5)Gamma(3.5)/Gamma(6) = 3*pi/256 by duplication arithmetic
    assert abs(beta(2.5, 3.5) - 3.0 * math.pi / 256.0) < 1e-14


@given(st.floats(0.2, 8.0), st.floats(0.2, 8.0))
@settings(max_examples=100, deadline=None)
def test_beta_symmetry_property(x, y):
    assert abs(beta(x, y) - beta(y, x)) <= 1e-13 * abs(beta(x, y))


def test_beta_pole_guard():
    with pytest.raises(PoleProximity):
        beta(1e-9, 2.0)
    with pytest.raises(PoleProximity):
        beta(3.0, -2.0 + 1e-9)
    with pytest.raises(PoleProximity):
        beta(2.0, -2.0 - 1e-9)  # x + y lands on a pole
