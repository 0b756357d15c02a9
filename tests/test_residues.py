"""Pole bookkeeping, closed-form residues, and circle quadrature cross-checks."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from mbzeta._backend import kernels
from mbzeta.contour import (RectangleSpec, gamma_power, zeta_gamma_power,
                            zeta_zeta_gamma)
from mbzeta.errors import (DomainViolation, NotAPole, OverflowRegime,
                           PoleOnBoundary, PoleOnCircle, ToleranceUnreachable)
from mbzeta.residues import (GAMMA_POLE, ODD_COMBINED, ZETA_POLE, PoleLocation,
                             asymptotic_tail_terms, classify_pole,
                             enumerate_poles, numerical_residue, residue_at)
from mbzeta.zeta import riemann_zeta


def test_classification_table():
    zz = zeta_zeta_gamma(4.0)
    assert classify_pole(zz, 1).kind == ZETA_POLE
    assert classify_pole(zz, 0).kind == GAMMA_POLE
    assert classify_pole(zz, -1).kind == ODD_COMBINED
    assert classify_pole(zz, -3).kind == ODD_COMBINED
    with pytest.raises(NotAPole):
        classify_pole(zz, -2)  # trivial zero cancels the gamma pole
    with pytest.raises(NotAPole):
        classify_pole(zz, 2)
    gp = gamma_power(3.0, 0.5)
    for n in (0, -1, -2, -5):
        assert classify_pole(gp, n).kind == GAMMA_POLE
    with pytest.raises(NotAPole):
        classify_pole(gp, 1)
    zg = zeta_gamma_power(4.0, 2.0)
    assert classify_pole(zg, 1).kind == ZETA_POLE
    assert classify_pole(zg, 0).kind == GAMMA_POLE
    assert classify_pole(zg, -1).kind == ODD_COMBINED
    with pytest.raises(NotAPole):
        classify_pole(zg, -2)  # same trivial-zero cancellation as above


def test_enumerate_inside_rectangle():
    zz = zeta_zeta_gamma(4.0)
    poles = enumerate_poles(zz, RectangleSpec(1.5, 6.0, 30.0))
    assert [p.position for p in poles] == [-3, -1, 0, 1]
    assert [p.kind for p in poles] == [ODD_COMBINED, ODD_COMBINED,
                                       GAMMA_POLE, ZETA_POLE]
    gp = gamma_power(3.0, 0.5)
    poles = enumerate_poles(gp, RectangleSpec(0.8, 4.3, 20.0))
    assert [p.position for p in poles] == [-3, -2, -1, 0]
    assert all(p.kind == GAMMA_POLE for p in poles)


def test_enumerate_refuses_overflowing_residues():
    # the residue at n is a multiple of Gamma(3 - n): finite down to
    # n = -167, beyond binary64 from n = -168 on
    gp = gamma_power(3.0, 0.5)
    assert enumerate_poles(gp, RectangleSpec(1.5, 169.0, 1.0))[0].position == -167
    with pytest.raises(OverflowRegime):
        enumerate_poles(gp, RectangleSpec(1.5, 200.0, 1.0))


def test_enumerate_boundary_guard():
    zz = zeta_zeta_gamma(4.0)
    with pytest.raises(PoleOnBoundary):
        enumerate_poles(zz, RectangleSpec(1.5, 4.5, 30.0))  # left edge on -3
    with pytest.raises(PoleOnBoundary):
        enumerate_poles(zz, RectangleSpec(1.0, 3.0, 30.0))  # right edge on 1
    with pytest.raises(PoleOnBoundary):
        enumerate_poles(zz, RectangleSpec(1.5, 6.0, 1e-10))  # degenerate T


def test_residue_closed_forms_zeta_zeta():
    zz = zeta_zeta_gamma(4.0)
    z3, z4, z5, z7 = (riemann_zeta(float(k)).real for k in (3, 4, 5, 7))
    want = {1: 2.0 * z3, 0: -3.0 * z4, -1: 2.0 * z5, -3: -z7}
    for n, expect in want.items():
        term = residue_at(zz, classify_pole(zz, n))
        assert term.location.position == n
        assert abs(term.value - expect) < 1e-12 * abs(expect)
    assert abs(want[1] - 2.4041138063) < 1e-9
    assert abs(want[0] + 3.2469697011) < 1e-9
    assert abs(want[-1] - 2.0738555103) < 1e-9
    assert abs(want[-3] + 1.0083492774) < 1e-9


def test_residue_closed_forms_gamma_power():
    gp = gamma_power(3.0, 0.5)
    for n in range(0, 6):
        expect = ((-0.5) ** n / math.factorial(n)) * oracles.gamma_product(3.0 + n)
        got = residue_at(gp, classify_pole(gp, -n)).value
        assert abs(got - expect) < 1e-11 * abs(expect)


def test_residue_closed_forms_hurwitz():
    zg = zeta_gamma_power(4.0, 2.0)
    # a = 2 makes every (a-1) power equal 1: residues collapse to bare
    # Gamma values at 1 and 0 and the odd-row products below
    got = residue_at(zg, classify_pole(zg, 1)).value
    assert abs(got - 2.0) < 1e-12 * 2.0  # Gamma(3)
    got0 = residue_at(zg, classify_pole(zg, 0)).value
    assert abs(got0 + 3.0) < 1e-12 * 3.0  # -Gamma(4)/2
    got1 = residue_at(zg, classify_pole(zg, -1)).value
    expect1 = (1.0 / 12.0) * math.factorial(4)  # -zeta(-1) Gamma(5) / 1!
    assert abs(got1 - expect1) < 1e-12 * abs(expect1)


def test_residue_kind_mismatch_rejected():
    zz = zeta_zeta_gamma(4.0)
    with pytest.raises(NotAPole):
        residue_at(zz, PoleLocation(1, GAMMA_POLE))
    # a float position names the same pole as its integer
    assert (residue_at(zz, PoleLocation(-3.0, ODD_COMBINED)).value
            == residue_at(zz, -3).value)


def test_numerical_residue_matches_closed_forms():
    zz = zeta_zeta_gamma(4.0)
    for n in (1, 0, -1, -3):
        closed = residue_at(zz, classify_pole(zz, n)).value
        circle = numerical_residue(zz, complex(n, 0.0))
        assert abs(circle - closed) < 1e-9 * max(1.0, abs(closed))
    gp = gamma_power(3.0, 0.5)
    for n in (0, -2):
        closed = residue_at(gp, classify_pole(gp, n)).value
        circle = numerical_residue(gp, complex(n, 0.0))
        assert abs(circle - closed) < 1e-9 * max(1.0, abs(closed))


def test_numerical_residue_trivial_zero_vanishes():
    zz = zeta_zeta_gamma(4.0)
    for n in (-2.0, -4.0):
        assert abs(numerical_residue(zz, complex(n, 0.0))) < 1e-9


def test_numerical_residue_regular_point_vanishes():
    zz = zeta_zeta_gamma(4.0)
    assert abs(numerical_residue(zz, complex(0.5, 0.5), radius=0.2)) < 1e-9


def test_numerical_residue_evaluates_each_node_once(monkeypatch):
    # a doubling keeps the earlier nodes and evaluates only the new ones, so
    # stopping on the 64-node grid (after 16 and 32) costs 64 calls
    points = []
    orig = kernels.integrand

    def recorder(tag, s, p, z, *rest):
        points.append(z)
        return orig(tag, s, p, z, *rest)

    monkeypatch.setattr(kernels, "integrand", recorder)
    numerical_residue(gamma_power(3.0, 0.5), 0.0, tol=1e-10)
    assert len(points) == len(set(points)) == 64


def test_numerical_residue_circle_guards():
    zz = zeta_zeta_gamma(4.0)
    with pytest.raises(PoleOnCircle):
        numerical_residue(zz, complex(-0.5, 0.0), radius=0.6)  # encloses 0, -1
    with pytest.raises(PoleOnCircle):
        numerical_residue(zz, complex(0.7, 0.0), radius=0.3)  # touches 1
    with pytest.raises(ToleranceUnreachable) as info:
        numerical_residue(zz, complex(0.0, 0.0), tol=1e-300)
    assert info.value.evaluations == 16384  # every node of the finest grid
    assert abs(info.value.partial_value + 3.2469697011) < 1e-8


def test_tail_terms_reference_magnitudes():
    study = asymptotic_tail_terms(4.0, 20)
    mags = [abs(t) for t in study.terms]
    assert abs(mags[0] - 2.0738555103) < 1e-9
    assert abs(mags[1] - 1.0083492774) < 1e-9
    assert abs(mags[2] - 1.3360111904) < 1e-9
    assert study.min_index == 1
    assert study.growth_onset == 1
    assert mags[2] > mags[1]
    assert all(mags[i + 1] > mags[i] for i in range(study.growth_onset,
                                                    len(mags) - 1))


def test_tail_terms_match_residue_values():
    # t_m is minus the residue of the integrand at -(2m+1)
    zz = zeta_zeta_gamma(4.0)
    study = asymptotic_tail_terms(4.0, 3)
    for m, term in enumerate(study.terms):
        res = residue_at(zz, classify_pole(zz, -(2 * m + 1))).value
        assert abs(term + res) < 1e-12 * abs(res)


@given(st.floats(2.5, 40.0), st.integers(3, 12))
@settings(max_examples=30, deadline=None)
def test_tail_growth_onset_dominates_min(s, M):
    study = asymptotic_tail_terms(s, M)
    mags = [abs(t) for t in study.terms]
    assert study.min_index <= study.growth_onset
    assert mags[study.min_index] == min(mags)
    for i in range(study.growth_onset, len(mags) - 1):
        assert mags[i + 1] > mags[i]


def test_tail_terms_domain():
    with pytest.raises(DomainViolation):
        asymptotic_tail_terms(1.5, 5)
    with pytest.raises(DomainViolation):
        asymptotic_tail_terms(4.0, 31)
    with pytest.raises(DomainViolation):
        asymptotic_tail_terms(4.0, -1)
    with pytest.raises(OverflowRegime):
        asymptotic_tail_terms(120.0, 30)
