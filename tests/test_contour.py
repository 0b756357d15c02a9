"""Line, rectangle, and real-axis quadrature against closed forms."""
import cmath
import dataclasses
import inspect
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import mbzeta
from mbzeta import cli, contour, residues, specfun, verify, zeta
from mbzeta._backend import kernels
from mbzeta.contour import (ZETA_ZETA_GAMMA, RectangleSpec, VerticalLineSpec,
                            _nearest_point, _path_poles,
                            gamma_power, integrand_eval,
                            integrate_real_improper, integrate_rectangle,
                            integrate_segment, integrate_vertical,
                            zeta_gamma_power, zeta_zeta_gamma)
from mbzeta.errors import (DomainViolation, PoleOnCircle, PoleOnPath,
                           PoleProximity, ToleranceUnreachable)
from mbzeta.residues import (asymptotic_tail_terms, numerical_residue,
                             residue_at)
from mbzeta.zeta import DEFAULT_CONFIG, ZetaEvalConfig, riemann_zeta


def test_family_validation():
    gamma_power(3.0, 1.0)  # u = 1 allowed
    with pytest.raises(DomainViolation):
        gamma_power(3.0, 0.0)
    with pytest.raises(DomainViolation):
        gamma_power(3.0, 1.2)
    with pytest.raises(DomainViolation):
        zeta_zeta_gamma(2.0)  # needs Re s > 2
    with pytest.raises(DomainViolation):
        zeta_gamma_power(4.0, 1.5)  # needs a >= 2
    zeta_gamma_power(4.0, 2.0)
    for family in (lambda: contour.IntegrandFamily("zeta_zeta_gamma", 4.0, u=0.5),
                   lambda: contour.IntegrandFamily("zeta_zeta_gamma", 4.0, a=2.0),
                   lambda: contour.IntegrandFamily("zeta_gamma_power", 4.0,
                                                   u=0.5, a=2.0),
                   lambda: contour.IntegrandFamily("gamma_power", 3.0, u=0.5,
                                                   a=2.0),
                   lambda: contour.IntegrandFamily("gamma_power", 3.0),
                   lambda: contour.IntegrandFamily("zeta_gamma_power", 4.0),
                   lambda: contour.IntegrandFamily("gamma_zeta", 4.0),
                   lambda: contour.IntegrandFamily(0, 4.0),
                   lambda: gamma_power(3.0, math.nan),
                   lambda: gamma_power(3.0, math.inf),
                   lambda: zeta_gamma_power(4.0, math.nan),
                   lambda: zeta_gamma_power(4.0, math.inf)):
        with pytest.raises(DomainViolation):
            family()


def _shape_value(shape, b, s, z):
    """Gamma(z) Gamma(s-z) zeta(z)^i zeta(s-z)^j b^(alpha z + beta s) from
    the public gamma and zeta, for shape (i, j, alpha, beta)."""
    i, j, alpha, beta = shape
    return (specfun.gamma(z) * specfun.gamma(s - z) * riemann_zeta(z) ** i
            * riemann_zeta(s - z) ** j * b ** (alpha * z + beta * s))


@pytest.mark.parametrize("f", [
    gamma_power(3.0, 0.5), gamma_power(3.5 + 2.0j, 0.3),
    zeta_zeta_gamma(4.0), zeta_zeta_gamma(4.5 - 1.5j),
    zeta_gamma_power(4.0, 2.5), zeta_gamma_power(5.0 + 3.0j, 3.0)],
    ids=lambda f: f"{f.tag}-{f.s}")
def test_shape_matches_the_kernel_integrand(f):
    # the table's shape and the kernel's tag share no code: the kernel
    # integrand must be the shape at z, and the mirrored shape
    # (j, i, -alpha, alpha + beta) at s - z
    i, j, alpha, beta = f.shape
    mirrored = (j, i, -alpha, alpha + beta)
    for z in (1.5 + 0.7j, 1.3 - 2.0j, 2.2 + 5.0j, 0.5 - 0.5j, -1.5 + 0.25j):
        value = integrand_eval(f, z)
        for expected in (_shape_value(f.shape, f.base, f.s, z),
                         _shape_value(mirrored, f.base, f.s, f.s - z)):
            assert abs(value - expected) <= 1e-12 * abs(expected), (z, value,
                                                                   expected)


def test_pole_predicates():
    gp = gamma_power(3.0, 0.5)
    zz = zeta_zeta_gamma(4.0)
    assert [n for n in range(-6, 3) if gp.is_pole(n)] == [-6, -5, -4, -3, -2, -1, 0]
    assert [n for n in range(-6, 3) if zz.is_pole(n)] == [-5, -3, -1, 0, 1]
    assert zz.nearest_pole(complex(0.9, 0.0)) == 1.0 + 0j
    assert gp.nearest_pole(complex(-2.2, 0.1)) == -2.0 + 0j


_FAMILIES = (gamma_power(3.0, 0.5), zeta_zeta_gamma(4.0),
             zeta_gamma_power(4.0, 2.0))
# real parts with the integers and half-integers drawn often, where rounding
# and ties decide which poles a scan sees
_REAL = st.one_of(st.floats(-100.0, 100.0),
                  st.integers(-200, 200).map(lambda k: k / 2))
_POINT = st.builds(complex, _REAL, st.one_of(st.just(0.0), st.floats(-3.0, 3.0)))


def _all_poles(f):
    return [n for n in range(-250, 3) if f.is_pole(n)]


def _right_poles(f):
    # Gamma(s-z) has poles at s + n, n >= 0; zeta(s-z) Gamma(s-z) also at
    # s - 1, and its trivial zeros cancel s + n for even n >= 2
    if f.tag == ZETA_ZETA_GAMMA:
        return [f.s + n for n in range(-1, 250) if n <= 0 or n % 2]
    return [f.s + n for n in range(0, 250)]


@given(st.sampled_from(_FAMILIES), _REAL, _REAL, _POINT, _POINT)
@settings(max_examples=300, deadline=None)
def test_pole_walk_matches_brute_force(f, lo, hi, z0, z1):
    brute = _all_poles(f)
    right = _right_poles(f)
    assert f.poles(lo, hi) == [n for n in brute if lo <= n <= hi]
    both = [complex(n) for n in brute] + right
    near = f.nearest_pole(z0)
    assert near in both and abs(z0 - near) == min(abs(z0 - p) for p in both)

    def distance(p):
        return abs(p - _nearest_point(p, z0, z1))

    # the scan reads a few poles around where the segment comes closest to
    # each field, so it may pick a different pole among those whose
    # distances differ only by the rounding of the coordinates
    assert min(map(distance, _path_poles(f, z0, z1))) == pytest.approx(
        min(map(distance, both)),
        rel=0.0, abs=1e-12 * (1.0 + abs(z0) + abs(z1)))
    # the disk check of numerical_residue reads the two nearest poles
    left, right = f.poles_around(z0.real, z0.real)
    near = sorted(abs(z0 - p) for p in left + right)[:2]
    assert near == sorted(abs(z0 - p) for p in both)[:2]


@pytest.mark.parametrize("f", _FAMILIES + (
    gamma_power(complex(3.5, 2.0), 0.5), zeta_zeta_gamma(complex(4.5, -1.0))),
    ids=lambda f: f"{f.tag}-{f.s}")
def test_nearest_pole_is_the_brute_force_minimum(f):
    # every quarter from -60 to 10, the half-integer ties included: the
    # nearest member of each field, the lower one on ties (for the right
    # field s - q, the lower q), and the left pole on a tie between fields
    for x in (k / 4 for k in range(-240, 41)):
        for y in (0.0, 0.3, f.s.imag, -2.5):
            z = complex(x, y)
            left = min((complex(n) for n in f.poles(min(x, 0.0) - 3.0, x + 3.0)),
                       key=lambda p: (abs(z - p), p.real))
            right = min(_right_poles(f), key=lambda p: (abs(z - p), -p.real))
            expect = left if abs(z - left) <= abs(z - right) else right
            assert f.nearest_pole(z) == expect, z


def test_line_spec_validation():
    line = VerticalLineSpec(1.2, 1e-9)
    line.validate_for(gamma_power(3.0, 0.5))
    with pytest.raises(DomainViolation):
        VerticalLineSpec(0.4, 1e-9).validate_for(gamma_power(3.0, 0.5))
    with pytest.raises(DomainViolation):
        VerticalLineSpec(2.8, 1e-9).validate_for(gamma_power(3.0, 0.5))
    with pytest.raises(DomainViolation):
        VerticalLineSpec(1.0, 1e-9).validate_for(zeta_zeta_gamma(4.0))
    with pytest.raises(DomainViolation):
        VerticalLineSpec(3.0, 1e-9).validate_for(zeta_zeta_gamma(4.0))
    with pytest.raises(DomainViolation):
        VerticalLineSpec(1.5, 0.0).validate_for(zeta_zeta_gamma(4.0))


def test_rectangle_spec():
    rect = RectangleSpec(1.5, 6.0, 30.0)
    assert rect.left == -4.5
    c1, c2, c3, c4 = rect.corners()
    assert c1 == complex(1.5, -30.0)
    assert c2 == complex(1.5, 30.0)
    assert c3 == complex(-4.5, 30.0)
    assert c4 == complex(-4.5, -30.0)
    with pytest.raises(DomainViolation):
        RectangleSpec(1.5, -1.0, 30.0)
    with pytest.raises(DomainViolation):
        RectangleSpec(1.5, 6.0, 0.0)


def test_integrand_point_value_against_oracle():
    # Gamma(z) Gamma(s-z) u^{-z} at z = 1.2 for s = 3, u = 0.5
    f = gamma_power(3.0, 0.5)
    expect = (oracles.gamma_product(1.2) * oracles.gamma_product(1.8)
              * 0.5 ** (-1.2))
    got = integrand_eval(f, complex(1.2, 0.0))
    assert abs(got - expect) < 1e-11 * abs(expect)


def test_integrand_pole_guard():
    f = gamma_power(3.0, 0.5)
    with pytest.raises(PoleProximity) as info:
        integrand_eval(f, complex(-2.0 + 1e-9, 0.0))
    assert info.value.nearest_pole == -2.0 + 0j
    zz = zeta_zeta_gamma(4.0)
    with pytest.raises(PoleProximity):
        integrand_eval(zz, complex(1.0, 1e-9))
    integrand_eval(zz, complex(-2.0, 0.0))  # trivial zero kills the pole


def test_right_field_poles_are_guarded():
    # Gamma(s - z) has a pole at z = s = 3
    f = gamma_power(3.0, 0.5)
    with pytest.raises(PoleProximity) as info:
        integrand_eval(f, 3.0)
    assert info.value.nearest_pole == 3.0 + 0j
    with pytest.raises(PoleOnPath):
        integrate_segment(f, 3 - 1j, 3 + 1j, 1e-8)
    with pytest.raises(PoleOnCircle):
        numerical_residue(f, 3.3, radius=0.3)
    # zeta(s - z) adds s - 1 = 3 for zeta_zeta_gamma(4); s + 2 = 6 is cancelled
    zz = zeta_zeta_gamma(complex(4.0, 1.0))
    with pytest.raises(PoleProximity):
        integrand_eval(zz, complex(3.0, 1.0))
    integrand_eval(zz, complex(6.0, 1.0))


def test_vertical_line_power_identity():
    # closed form Gamma(3) (1.5)^{-3} = 16/27
    f = gamma_power(3.0, 0.5)
    r = integrate_vertical(f, VerticalLineSpec(1.2, 1e-9))
    assert abs(r.value - 16.0 / 27.0) < 1e-9
    assert r.err_estimate <= 1e-9
    assert r.tail_bound <= 1e-9
    assert r.total_error >= r.err_estimate
    assert r.evaluations > 0


def test_vertical_line_zeta_zeta_value():
    # Gamma(4)(zeta(3) - zeta(4)) = 6 (zeta(3) - pi^4/90)
    r = integrate_vertical(zeta_zeta_gamma(4.0), VerticalLineSpec(1.5, 1e-8))
    expect = 6.0 * (riemann_zeta(3.0) - math.pi ** 4 / 90.0)
    assert abs(r.value - expect) < 1e-8
    assert abs(r.value - 0.7184020167) < 2e-9


def test_vertical_line_hurwitz_value():
    # Gamma(4) zeta(4, 2) = 6 (pi^4/90 - 1)
    r = integrate_vertical(zeta_gamma_power(4.0, 2.0), VerticalLineSpec(1.5, 1e-8))
    expect = 6.0 * (math.pi ** 4 / 90.0 - 1.0)
    assert abs(r.value - expect) < 1e-8
    assert abs(r.value - 0.4939394022) < 2e-9


def test_vertical_line_independent_of_abscissa():
    # holomorphic strip: the value cannot depend on c
    f = gamma_power(3.5, 0.6)
    values = [integrate_vertical(f, VerticalLineSpec(c, 1e-10)).value
              for c in (0.9, 1.2, 1.8, 2.5)]
    for v in values[1:]:
        assert abs(v - values[0]) < 1e-9


def test_vertical_line_complex_s():
    s = complex(3.0, 1.0)
    f = gamma_power(s, 0.7)
    r = integrate_vertical(f, VerticalLineSpec(1.2, 1e-9))
    expect = oracles.power_closed(s, 0.7)
    assert abs(r.value - expect) / abs(expect) < 1e-8


def test_vertical_line_value_is_real_for_real_parameters():
    r = integrate_vertical(gamma_power(4.5, 0.25), VerticalLineSpec(1.5, 1e-10))
    assert abs(r.value.imag) < 1e-12


def _record_integrand(monkeypatch):
    """Record the z of every kernel integrand call."""
    points = []
    orig = kernels.integrand

    def recorder(tag, s, p, z, *rest):
        points.append(z)
        return orig(tag, s, p, z, *rest)

    monkeypatch.setattr(kernels, "integrand", recorder)
    return points


@pytest.mark.parametrize("f, c, tol, expect, tail", [
    (gamma_power(3.0, 0.5), 1.2, 1e-10, 16.0 / 27.0, 1.837841085328497e-18),
    (zeta_zeta_gamma(4.0), 1.5, 1e-10,
     6.0 * (riemann_zeta(3.0).real - math.pi ** 4 / 90.0), 4.300491440480665e-17),
    (zeta_gamma_power(4.0, 2.0), 1.5, 1e-10, 6.0 * (math.pi ** 4 / 90.0 - 1.0),
     3.205763914070698e-17),
], ids=["gamma_power", "zeta_zeta_gamma", "zeta_gamma_power"])
def test_real_s_line_runs_the_sinh_trapezoid(monkeypatch, f, c, tol, expect,
                                             tail):
    points = _record_integrand(monkeypatch)
    r = integrate_vertical(f, VerticalLineSpec(c, tol))
    assert r.value.imag == 0.0
    assert abs(r.value - expect) < tol
    assert r.err_estimate <= tol / 2
    # the truncation height, and with it the tail bound, of the GK line
    assert r.tail_bound == tail
    assert r.evaluations == len(points) <= 129
    # the upper half only, from the real axis up
    assert min(z.imag for z in points) == 0.0
    assert all(z.real == c for z in points)


def test_real_s_line_near_a_pole():
    # c = 1.001 lies 0.001 from the zeta pole at 1; the sinh map spreads the
    # peak over the u grid
    f = zeta_zeta_gamma(4.0)
    expect = 6.0 * (riemann_zeta(3.0).real - math.pi ** 4 / 90.0)
    r = integrate_vertical(f, VerticalLineSpec(1.001, 1e-12 * expect))
    assert abs(r.value - expect) < 1e-12 * expect
    assert r.evaluations <= 129


def test_real_s_line_below_the_rounding_floor_raises_early():
    # u = 0.009 at c = 3.9: int |f| along the line is ~6e6 times the value,
    # so rtol 1e-8 is below the rounding floor of any sum of its samples
    f = gamma_power(5.1, 0.009)
    expect = math.gamma(5.1) * 1.009 ** -5.1
    with pytest.raises(ToleranceUnreachable, match="rounding floor") as info:
        integrate_vertical(f, VerticalLineSpec(3.9, 1e-8 * expect))
    assert 0 < info.value.evaluations <= 64
    assert f"tol {1e-8 * expect:.3g}" in str(info.value)


def test_real_s_line_through_a_pole_is_rejected():
    # the shifted line Re z = 1.2 - 1.2 runs through the pole at 0, where
    # GK once spent the whole budget
    with pytest.raises(PoleOnPath):
        verify.decay_study("vertical_shift", gamma_power(3.0, 0.5), 1.2,
                           [0.2, 1.2])


def _line_family(rng):
    """A real-s family with the cancellation of its lines far above the
    rounding floor (u >= 0.1), and an abscissa anywhere in its strip."""
    s = rng.uniform(3.2, 8.0)
    tag = rng.randrange(3)
    if tag == 0:
        return gamma_power(s, rng.uniform(0.1, 1.0)), rng.uniform(0.5, s - 0.5)
    c = rng.uniform(1.0, s - 1.0)
    if tag == 1:
        return zeta_zeta_gamma(s), c
    return zeta_gamma_power(s, rng.uniform(2.0, 5.0)), c


def _closed_form(f):
    s = f.s.real
    if f.tag == contour.GAMMA_POWER:
        return math.gamma(s) * (1.0 + f.u) ** -s
    if f.tag == ZETA_ZETA_GAMMA:
        return math.gamma(s) * (riemann_zeta(s - 1.0) - riemann_zeta(s)).real
    return math.gamma(s) * zeta.hurwitz_zeta(s, f.a).real


@pytest.mark.parametrize("seed", range(4))
def test_real_s_line_sweep_against_closed_forms_and_gk(monkeypatch, seed):
    rng = random.Random(seed)
    for _ in range(8):
        f, c = _line_family(rng)
        closed = _closed_form(f)
        tol = 10.0 ** rng.uniform(-12.0, -8.0) * abs(closed)
        points = _record_integrand(monkeypatch)
        r = integrate_vertical(f, VerticalLineSpec(c, tol))
        monkeypatch.undo()
        assert r.value.imag == 0.0
        assert abs(r.value - closed) <= tol
        assert r.err_estimate <= tol / 2 and r.tail_bound <= tol / 2
        # GK on the same half line [c, c + iT] at tol/4, mirrored the way
        # the trapezoid is: the whole line is 2 Re of the half's value
        T = max(z.imag for z in points)
        half = integrate_segment(f, complex(c), complex(c, T), 0.25 * tol)
        assert abs(r.value.real - 2.0 * half.value.real) <= tol


def _complex_closed_form(f):
    s = f.s
    g = cmath.exp(specfun.log_gamma(s))
    if f.tag == contour.GAMMA_POWER:
        return g * (1.0 + f.u) ** -s
    if f.tag == ZETA_ZETA_GAMMA:
        return g * (riemann_zeta(s - 1.0) - riemann_zeta(s))
    return g * zeta.hurwitz_zeta(s, f.a)


def _record_kernel_calls(monkeypatch):
    """Record the outermost kernel calls (integrand, loggamma, riemann_zeta)
    as (name, z), leaving out those of the line's tail-bound constant."""
    calls = []
    depth = [0]

    def nested(name, orig):
        def recorder(*args):
            if depth[0] == 0 and name:
                calls.append((name, args[3] if name == "integrand" else args[0]))
            depth[0] += 1
            try:
                return orig(*args)
            finally:
                depth[0] -= 1
        return recorder

    for name in ("integrand", "loggamma", "riemann_zeta"):
        monkeypatch.setattr(kernels, name, nested(name, getattr(kernels, name)))
    monkeypatch.setattr(contour, "_line_extra_const",
                        nested(None, contour._line_extra_const))
    return calls


def _gk_truncation(f, c, tol):
    """The height T and tail bound that the GK line used: the least
    max(|Im s| + 10, 15) + 2k whose tail bound is at most tol/2."""
    extra = contour._line_extra_const(f, c)
    T = max(abs(f.s.imag) + 10.0, 15.0)
    while contour._pair_tail_bound(c, f.s, T, extra) > 0.5 * tol:
        T += 2.0
    return T, contour._pair_tail_bound(c, f.s, T, extra)


@pytest.mark.parametrize("f, c, tail", [
    (gamma_power(complex(3.0, 1.0), 0.7), 1.2, 6.6988235619712805e-18),
    (zeta_zeta_gamma(complex(4.0, 2.0)), 1.5, 1.4371674881522433e-15),
    (zeta_gamma_power(complex(4.0, 3.0), 2.5), 1.5, 2.2126770127066126e-15),
], ids=["gamma_power", "zeta_zeta_gamma", "zeta_gamma_power"])
def test_complex_s_line_runs_the_two_row_trapezoid(monkeypatch, f, c, tail):
    tol = 1e-10
    calls = _record_kernel_calls(monkeypatch)
    r = integrate_vertical(f, VerticalLineSpec(c, tol))
    monkeypatch.undo()
    assert abs(r.value - _complex_closed_form(f)) < tol
    assert r.err_estimate <= tol / 2
    # the truncation height, and with it the tail bound, of the GK line
    assert r.tail_bound == tail
    # levels of 17, 33 and 65 nodes, every one an integrand call on the
    # line, from exactly -T to exactly T
    assert r.evaluations == len(calls) == 65
    assert {name for name, _ in calls} == {"integrand"}
    points = [z for _, z in calls]
    assert all(z.real == c for z in points)
    T, _ = _gk_truncation(f, c, tol)
    assert min(z.imag for z in points) == -T and max(z.imag for z in points) == T


def _complex_line_draw(rng):
    """A complex-s family with 0 < |Im s| <= 50, and an abscissa in its strip:
    for the zeta families, a third of the time within 0.05 of the left pole
    at 1, and a third of the time within 0.05 of the right pole at s - 1
    (zeta_zeta_gamma) or anywhere (zeta_gamma_power)."""
    s = complex(rng.uniform(3.2, 8.0), rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 50.0))
    tag = rng.randrange(3)
    if tag == 0:
        return gamma_power(s, rng.uniform(0.1, 1.0)), rng.uniform(0.5, s.real - 0.5)
    f = zeta_zeta_gamma(s) if tag == 1 else zeta_gamma_power(s, rng.uniform(2.0, 5.0))
    near = rng.uniform(1e-3, 0.05)
    where = rng.randrange(3)
    if where == 0:
        return f, 1.0 + near
    if where == 1 and tag == 1:
        return f, s.real - 1.0 - near
    return f, rng.uniform(1.0 + near, s.real - 1.0 - near)


@pytest.mark.parametrize("seed", range(4))
def test_complex_s_line_sweep_against_closed_forms(monkeypatch, seed):
    rng = random.Random(seed)
    for _ in range(8):
        f, c = _complex_line_draw(rng)
        closed = _complex_closed_form(f)
        tol = 10.0 ** rng.uniform(-12.0, -8.0) * abs(closed)
        calls = _record_kernel_calls(monkeypatch)
        r = integrate_vertical(f, VerticalLineSpec(c, tol))
        monkeypatch.undo()
        assert abs(r.value - closed) <= tol, (f, c)
        T, tail = _gk_truncation(f, c, tol)
        assert r.tail_bound == tail
        points = [z for name, z in calls if name == "integrand"]
        assert min(z.imag for z in points) == pytest.approx(-T, rel=1e-12)
        assert max(z.imag for z in points) == pytest.approx(T, rel=1e-12)
        assert r.evaluations == len(calls)


# the summed evaluations of the 24 lines of test_line_evaluations_stay_put
# on the two-row map; one more trapezoid level on every line doubles it, and
# the pole-subtracting trapezoid the map replaced spent 11,188 on them
LINE_EVALUATIONS = 5016


def test_line_evaluations_stay_put():
    rng = random.Random(2026)
    total = 0
    for _ in range(24):
        f, c = _complex_line_draw(rng)
        closed = _complex_closed_form(f)
        tol = 10.0 ** rng.uniform(-12.0, -8.0) * abs(closed)
        r = integrate_vertical(f, VerticalLineSpec(c, tol))
        assert abs(r.value - closed) <= tol, (f, c)
        total += r.evaluations
    assert total <= 2 * LINE_EVALUATIONS, total


def test_complex_s_line_between_two_near_poles(monkeypatch):
    # the line Re z = 0.75 passes 0.75 from the left pole at 0 and from the
    # right pole at s: the map takes both distances from the nearest pole
    # of each row
    f = gamma_power(complex(1.5, 2.0), 0.5)
    closed = _complex_closed_form(f)
    tol = 1e-10 * abs(closed)
    maps = []

    def recorded(a, b, t, orig=contour._two_row_map):
        maps.append((a, b, t))
        return orig(a, b, t)

    monkeypatch.setattr(contour, "_two_row_map", recorded)
    r = integrate_vertical(f, VerticalLineSpec(0.75, tol))
    assert maps == [(0.75, 0.75, 2.0)]
    assert abs(r.value - closed) <= tol


@pytest.mark.parametrize("t", [-60.0, -41.2, -7.3, -0.5, 0.0, 0.05, 3.0, 60.0])
def test_two_row_map_inverts_itself(t):
    # y(u(y)) returns y to within a few ulps of |y| + min(a, b), plus the
    # rounding of u itself, eps (|asinh(y/a)| + |asinh((y-t)/b)|), carried
    # by dy/du; written as an atanh, phi would be 4e8 times further off
    grid = (0.01, 0.02, 0.05, 0.1, 0.3, 0.7, 1.0, 2.5, 5.0, 8.0)
    heights = (0.0, 1e-3, 0.007, 0.03, 0.4, 1.0, 2.0, 7.5, 40.0, 41.2, 59.9,
               60.0, 60.01, 120.0, 500.0)
    eps = sys.float_info.epsilon
    for a in grid:
        for b in grid:
            u_of, y_of = contour._two_row_map(a, b, t)
            for y in heights + tuple(-h for h in heights):
                A, B = math.asinh(y / a), math.asinh((y - t) / b)
                slope = 1.0 / (1.0 / math.hypot(y, a) + 1.0 / math.hypot(y - t, b))
                scale = abs(y) + min(a, b) + slope * (abs(A) + abs(B))
                assert abs(y_of(u_of(y)) - y) <= 4.0 * eps * scale, (a, b, y)


def test_complex_s_line_edge_probe_returns_within_tol():
    # a lines-workload edge probe: the line passes 0.0133 from the pole at
    # 1, at rtol 6.01e-12
    f = zeta_gamma_power(complex(4.461880560898904, 41.20135100312635), 3.33078)
    closed = _complex_closed_form(f)
    tol = 6.01e-12 * abs(closed)
    r = integrate_vertical(f, VerticalLineSpec(1.01334, tol))
    assert abs(r.value - closed) <= tol


def test_complex_s_line_keeps_a_pole_the_integrand_hides():
    # the line passes 0.95 from the pole at s, where the regular part
    # cancels most of the pole part (|r|/d is 286 times |f|): a reachable
    # tol that subtracting the pole put below its rounding floor
    f = gamma_power(complex(4.692522975588679, -35.7037296185118),
                    0.09758557437348248)
    closed = _complex_closed_form(f)
    tol = 3.586e-10 * abs(closed)
    r = integrate_vertical(f, VerticalLineSpec(3.73801522427797, tol))
    assert abs(r.value - closed) <= tol


def test_complex_s_line_below_the_rounding_floor_raises_early():
    # the complex-s twin of the real-s floor case: rtol 1e-8 is below the
    # rounding floor of any sum of its samples
    f = gamma_power(complex(5.1, 2.0), 0.009)
    tol = 1e-8 * abs(_complex_closed_form(f))
    with pytest.raises(ToleranceUnreachable, match="rounding floor") as info:
        integrate_vertical(f, VerticalLineSpec(3.9, tol))
    assert 0 < info.value.evaluations <= 65
    assert f"tol {tol:.3g}" in str(info.value)


@pytest.mark.parametrize("seed", range(2))
def test_err_estimate_covers_kernel_rounding(seed):
    # against math.gamma (within 16 ulps here) for real s, and the product
    # oracle (within 1e-13 relative for |Im s| <= 10) for complex s; tol is
    # loose enough that the floor never raises, so total_error alone must
    # hold the kernels' rounding
    rng = random.Random(seed)
    for real in (True,) * 8 + (False,) * 2:
        s = complex(rng.uniform(3.2, 8.0), 0.0 if real else rng.uniform(-10.0, 10.0))
        u = rng.uniform(0.1, 1.0)
        f = gamma_power(s, u)
        if real:
            closed = math.gamma(s.real) * (1.0 + u) ** -s.real
            oracle_err = 16 * sys.float_info.epsilon * abs(closed)
        else:
            closed = oracles.power_closed(s, u, 20_000)
            oracle_err = 1e-13 * abs(closed)
        tol = 10.0 ** rng.uniform(-12.0, -8.0) * abs(closed)
        r = integrate_vertical(f, VerticalLineSpec(rng.uniform(0.5, s.real - 0.5), tol))
        assert abs(r.value - closed) <= r.total_error + oracle_err, (s, u)


def test_rectangle_budget_raise_counts_every_leg(monkeypatch):
    # the budget runs out before the last bisection, which is not started:
    # the raise counts every evaluation spent, on every edge
    f = zeta_zeta_gamma(4.0)
    rect = RectangleSpec(1.5, 2.0, 10.0)
    full = integrate_rectangle(f, rect, 1e-9)
    points = _record_integrand(monkeypatch)
    with pytest.raises(ToleranceUnreachable) as info:
        integrate_rectangle(f, rect, 1e-9, max_evaluations=full.evaluations - 15)
    assert info.value.evaluations == len(points) == full.evaluations - 30
    assert {z.real for z in points} >= {rect.c, rect.left}


def test_real_axis_budget_raise_carries_the_head_and_finished_segments():
    # the budget runs out before the last bisection: the partial value holds
    # the analytic head on (0, 1e-3], about 5e-7 at s = 4, and every panel
    # of the three pieces, and the count all the evaluations spent
    full = integrate_real_improper(4.0, 1e-10)
    with pytest.raises(ToleranceUnreachable) as info:
        integrate_real_improper(4.0, 1e-10, max_evaluations=full.evaluations - 15)
    assert info.value.evaluations == full.evaluations - 30
    assert abs(info.value.partial_value - full.value) < 1e-8


def test_real_s_rectangle_integrates_the_upper_half(monkeypatch):
    f = gamma_power(3.0, 0.5)
    rect = RectangleSpec(0.8, 4.3, 20.0)
    points = _record_integrand(monkeypatch)
    r = integrate_rectangle(f, rect, 1e-9)
    monkeypatch.undo()
    expect = sum((residue_at(f, p).value
                  for p in residues.enumerate_poles(f, rect)), start=0j)
    assert abs(r.value - expect) < 1e-9
    assert r.value.imag == 0.0
    # the upper half only, in fewer evaluations than the whole boundary
    assert min(z.imag for z in points) >= 0.0
    c1, c2, c3, c4 = rect.corners()
    _, _, full = contour._walk(f, ((c1, c2), (c2, c3), (c3, c4), (c4, c1)),
                               1e-9, contour.DEFAULT_MAX_EVALUATIONS)
    assert r.evaluations == len(points) < full


def test_complex_s_integrates_the_whole_path(monkeypatch):
    # the mirror needs real s; complex s keeps the four-edge walk, each edge
    # at the tolerance share it always had, and its line runs the trapezoid
    # over the whole line, from -T to T
    f = zeta_gamma_power(complex(4.0, 3.0), 2.5)
    points = _record_integrand(monkeypatch)
    integrate_vertical(f, VerticalLineSpec(1.5, 1e-10))
    assert min(z.imag for z in points) == -max(z.imag for z in points) < 0.0
    assert all(z.real == 1.5 for z in points)
    points.clear()
    rect = RectangleSpec(1.5, 2.0, 10.0)
    r = integrate_rectangle(f, rect, 1e-9)
    assert r.evaluations == len(points)
    # every point lies on the boundary, and each of the four edges has some
    right = [z for z in points if z.real == rect.c]
    left = [z for z in points if z.real == rect.left]
    top = [z for z in points if z.imag == rect.T]
    bottom = [z for z in points if z.imag == -rect.T]
    assert left and right and top and bottom
    assert len(set(left + right + top + bottom)) == len(set(points))
    assert min(z.imag for z in right) < 0.0 < max(z.imag for z in right)
    assert min(z.imag for z in left) < 0.0 < max(z.imag for z in left)
    expect = sum((residue_at(f, p).value
                  for p in residues.enumerate_poles(f, rect)), start=0j)
    assert abs(r.value - expect) < 1e-9


def test_segment_additivity_and_conjugation():
    f = zeta_zeta_gamma(4.0)
    a, m, b = complex(1.5, 2.0), complex(0.2, 5.0), complex(-1.2, 8.0)
    whole = integrate_segment(f, a, b, 1e-11)
    parts = integrate_segment(f, a, m, 1e-11).value + \
        integrate_segment(f, m, b, 1e-11).value
    assert abs(whole.value - parts) < 1e-10
    # Schwarz reflection: conjugate path gives (minus) conjugate integral for
    # real parameters, including the 1/(2 pi i) normalization flip
    mirrored = integrate_segment(f, a.conjugate(), b.conjugate(), 1e-11)
    assert abs(mirrored.value + whole.value.conjugate()) < 1e-10


def test_segment_reversal_negates():
    f = gamma_power(3.0, 0.5)
    fwd = integrate_segment(f, complex(1.2, -3.0), complex(1.2, 3.0), 1e-11)
    rev = integrate_segment(f, complex(1.2, 3.0), complex(1.2, -3.0), 1e-11)
    assert abs(fwd.value + rev.value) < 1e-12


def test_segment_pole_on_path():
    f = gamma_power(3.0, 0.5)
    with pytest.raises(PoleOnPath):
        integrate_segment(f, complex(-1.0, -1.0), complex(-1.0, 1.0))
    with pytest.raises(PoleOnPath):
        integrate_segment(f, complex(-2.0, 0.0), complex(2.0, 0.0))
    # passing near but not through is fine
    integrate_segment(f, complex(-0.5, 0.3), complex(0.5, 0.4), 1e-9)


def test_rectangle_matches_residue_theorem_closed_forms():
    # gamma_power s=3, u=0.5 around poles 0..-3: residues
    # Gamma(3)=2, -Gamma(4)/2 * ... known alternating binomial pattern
    f = gamma_power(3.0, 0.5)
    rect = RectangleSpec(0.8, 4.3, 20.0)
    r = integrate_rectangle(f, rect, 1e-9)
    expect = sum(((-0.5) ** n / math.factorial(n)) * oracles.gamma_product(3.0 + n).real
                 for n in range(0, 4))
    assert abs(r.value - expect) < 1e-8


def test_rectangle_pole_free_is_zero():
    f = zeta_zeta_gamma(4.0)
    r = integrate_rectangle(f, RectangleSpec(1.4, 0.2, 5.0), 1e-10)
    assert abs(r.value) < 1e-10


def test_rectangle_edge_through_pole():
    f = zeta_zeta_gamma(4.0)
    with pytest.raises(PoleOnPath):
        integrate_rectangle(f, RectangleSpec(1.0, 2.0, 10.0))


def _residue_sum(f, rect):
    return sum((residue_at(f, p).value
                for p in residues.enumerate_poles(f, rect)), start=0j)


@pytest.mark.parametrize("z0, z1", [(complex(-1e9, 0.5), complex(1.0, 0.5)),
                                     (complex(-1e9, 0.5), complex(-5.0, 0.5)),
                                     (complex(-5.0, 0.5), complex(-1e9, 0.5))])
def test_long_segment_is_graded_toward_its_poles(z0, z1):
    # the first panel of a segment 1e9 long once held its 15 nodes ~1e8
    # apart, where the integrand is 0, so Kronrod and Gauss agreed on 0j;
    # the cuts at 4, 8, 16, ... from the poles next to the strip, whichever
    # end the segment starts from, find the mass. Left of -80 the integrand
    # is below 1e-20.
    f = gamma_power(3.0, 0.5)
    tol = 1e-8
    r = integrate_segment(f, z0, z1, tol)
    short = integrate_segment(f, complex(max(z0.real, -80.0), 0.5),
                              complex(max(z1.real, -80.0), 0.5), 1e-12)
    assert abs(short.value) > 1e3 * tol
    assert abs(r.value - short.value) <= tol


def test_long_rectangle_matches_its_residues():
    # every left pole of gamma_power(3, 0.5) lies inside; their residues
    # sum to Gamma(3) 1.5^-3, where the parent walker returned 0.5108
    f = gamma_power(3.0, 0.5)
    tol = 1e-8
    r = integrate_rectangle(f, RectangleSpec(1.5, 1e9, 1.0), tol)
    assert abs(r.value - 2.0 * 1.5 ** -3) <= tol


@pytest.mark.parametrize("s, rect, rtol", [
    (complex(6.9083641074308595, 8.84014978066711),
     RectangleSpec(3.8374801598604655, 19.50069030790153, 57.96410434601462),
     1.5e-8),
    (complex(7.0738302060023095, 9.187865595863315),
     RectangleSpec(5.083371959591527, 20.485957161166173, 54.4996802059902),
     4.34e-9),
], ids=["plane-seed-9", "plane-seed-13"])
def test_tall_rectangles_around_ten_poles_match_their_residues(s, rect, rtol):
    # two rectangles of perfbench's plane workload that the walker with
    # per-panel tolerance shares got 1.16 and 2.34 tol wrong
    f = zeta_zeta_gamma(s)
    expect = _residue_sum(f, rect)
    tol = rtol * abs(expect)
    r = integrate_rectangle(f, rect, tol)
    assert abs(r.value - expect) <= tol
    assert r.err_estimate <= tol


def test_gk_path_below_its_rounding_floor_raises_early():
    # the path's rounding floor, eps int |f| |dz| / 2 pi, is about 2e-16:
    # tol 1e-15 is below 8 floors, and the walker says so after its first
    # panels instead of spending the budget
    f = zeta_zeta_gamma(4.0)
    with pytest.raises(ToleranceUnreachable, match="rounding floor") as info:
        integrate_segment(f, complex(1.5, -30.0), complex(1.5, 30.0), 1e-15,
                          max_evaluations=100_000)
    assert 0 < info.value.evaluations < 1000
    assert "tol 1e-15" in str(info.value)


def test_budget_exhaustion_carries_partial_state():
    # GK on a segment starts no panel past the budget: below the 225
    # evaluations of its first panels, cut at the poles' breakpoints, it
    # raises before evaluating any
    f = zeta_zeta_gamma(complex(4.0, 0.5))
    z0, z1 = complex(1.5, -30.0), complex(1.5, 30.0)
    with pytest.raises(ToleranceUnreachable) as info:
        integrate_segment(f, z0, z1, 1e-13, max_evaluations=60)
    assert info.value.evaluations == 0
    assert info.value.partial_value == 0j
    # one bisection short of the whole segment, the partial value is the sum
    # of all its current panels, in the value's 1/(2 pi i) units
    full = integrate_segment(f, z0, z1, 1e-10)
    with pytest.raises(ToleranceUnreachable) as info:
        integrate_segment(f, z0, z1, 1e-10,
                          max_evaluations=full.evaluations - 15)
    assert info.value.evaluations == full.evaluations - 30
    assert abs(info.value.partial_value - full.value) < 1e-10
    # the trapezoid on a real-s line does not start a level past the budget:
    # of its levels of 9, 17 and 33 nodes, it stops at the 17-node level,
    # which the 33-node one accepts
    f = zeta_zeta_gamma(4.0)
    full = integrate_vertical(f, VerticalLineSpec(1.5, 1e-10))
    assert full.evaluations == 33
    with pytest.raises(ToleranceUnreachable) as info:
        integrate_vertical(f, VerticalLineSpec(1.5, 1e-10), max_evaluations=20)
    assert info.value.evaluations == 17
    assert info.value.partial_value.imag == 0.0
    assert abs(info.value.partial_value - full.value) <= full.err_estimate
    # nor on a complex-s line: of its levels of 17, 33 and 65 nodes, one
    # evaluation short, it stops at the 33-node level
    f = zeta_zeta_gamma(complex(4.0, 0.5))
    full = integrate_vertical(f, VerticalLineSpec(1.5, 1e-10))
    assert full.evaluations == 65
    with pytest.raises(ToleranceUnreachable) as info:
        integrate_vertical(f, VerticalLineSpec(1.5, 1e-10),
                           max_evaluations=full.evaluations - 1)
    assert info.value.evaluations == 33
    assert abs(info.value.partial_value - full.value) < 0.5e-10


@pytest.mark.parametrize("s", [4.0, complex(4.0, 0.5)], ids=["real", "complex"])
def test_rectangle_budget_partial_counts_the_finished_legs(s):
    # a budget that runs out before the last bisection leaves every panel of
    # every leg, in value's units and, for real s, mirrored: 2i Im of the
    # upper half's raw integral, a real value
    f = zeta_zeta_gamma(s)
    rect = RectangleSpec(1.5, 2.0, 10.0)
    tol = 1e-9
    full = integrate_rectangle(f, rect, tol)
    with pytest.raises(ToleranceUnreachable) as info:
        integrate_rectangle(f, rect, tol, max_evaluations=full.evaluations - 1)
    if s.imag == 0.0:
        assert info.value.partial_value.imag == 0.0
    assert abs(info.value.partial_value - full.value) < tol


def test_improper_integral_values():
    # integral_0^inf t^{s-1}/(e^t - 1)^2 dt = Gamma(s)(zeta(s-1) - zeta(s))
    for s, digits in ((3.0, 0.8857543273772657), (4.0, 0.7184020166907326),
                      (10.0, 367.89416634609154)):
        r = integrate_real_improper(s, 1e-10)
        expect = (oracles.gamma_product(s).real
                  * (riemann_zeta(s - 1.0).real - riemann_zeta(s).real))
        assert abs(r.value - expect) / abs(expect) < 1e-9
        assert abs(r.value - digits) / digits < 1e-9
        assert r.tail_bound < 1e-10


def test_improper_integral_complex_s():
    s = complex(3.0, 1.0)
    r = integrate_real_improper(s, 1e-10)
    expect = cmath.exp(oracles.loggamma_product(s)) * (
        riemann_zeta(s - 1.0) - riemann_zeta(s))
    assert abs(r.value - expect) / abs(expect) < 1e-9


@pytest.mark.parametrize("s", [122.0, 150.0, 170.0])
def test_improper_integral_at_large_s(s):
    # t^(s-1) overflows binary64 at the cut, ~2s, though the value does not;
    # Gamma(s)(zeta(s-1) - zeta(s)) cancels to 0 here, so the oracle is
    # Gamma(s) sum_k (k-1) k^-s
    expect = math.gamma(s) * zeta.double_sum_oracle(s).real
    tol = 1e-10 * expect
    r = integrate_real_improper(s, tol)
    assert abs(r.value - expect) <= tol


def test_improper_integral_at_large_s_below_its_floor_raises_named():
    # at s = 122 the value is ~1e163 and the default tol 1e-10 lies far below
    # its rounding floor; the cut that tol asks for, ~370, once overflowed
    # t^(s-1) as a raw OverflowError
    with pytest.raises(ToleranceUnreachable, match="rounding floor"):
        integrate_real_improper(122.0)


def test_improper_integral_domain():
    with pytest.raises(DomainViolation):
        integrate_real_improper(2.0)
    with pytest.raises(DomainViolation):
        integrate_real_improper(complex(1.5, 3.0))


@given(st.floats(2.5, 8.0), st.floats(0.1, 1.0))
@settings(max_examples=25, deadline=None)
def test_power_identity_property(s, u):
    # Mellin-style line integral equals Gamma(s)(1+u)^{-s} across the domain
    c = min(1.5, s - 1.0)
    r = integrate_vertical(gamma_power(s, u), VerticalLineSpec(c, 1e-9))
    expect = math.exp(math.lgamma(s)) * (1.0 + u) ** (-s)
    assert abs(r.value - expect) / abs(expect) < 1e-7


# The integrators and residue paths bind DEFAULT_CONFIG's term arguments
# themselves instead of leaning on the kernels' defaults, so the recorded call
# carries all four. riemann_zeta alone takes a config; its case passes a
# non-default one to show that it reaches the kernel.
_DEFAULT_ARGS = DEFAULT_CONFIG._term_args() + (DEFAULT_CONFIG.correction_order,
                                               DEFAULT_CONFIG.reflect_below)
_BIND_CFG = ZetaEvalConfig(em_terms=30, correction_order=16)
_ZZG = zeta_zeta_gamma(4.0)


@pytest.mark.parametrize("kernel, run, want", [
    ("integrand", lambda: integrand_eval(_ZZG, complex(1.5, 2.0)), _DEFAULT_ARGS),
    ("integrand", lambda: integrate_segment(
        _ZZG, complex(1.5, -2.0), complex(1.5, 2.0), 1e-6), _DEFAULT_ARGS),
    ("integrand", lambda: integrate_vertical(
        _ZZG, VerticalLineSpec(1.5, 1e-6)), _DEFAULT_ARGS),
    ("riemann_zeta", lambda: integrate_vertical(
        _ZZG, VerticalLineSpec(1.5, 1e-6)), _DEFAULT_ARGS),
    ("integrand", lambda: integrate_rectangle(
        _ZZG, RectangleSpec(1.5, 2.0, 10.0), 1e-6), _DEFAULT_ARGS),
    ("integrand", lambda: numerical_residue(_ZZG, 0.0, tol=1e-6), _DEFAULT_ARGS),
    ("riemann_zeta", lambda: residue_at(_ZZG, -3), _DEFAULT_ARGS),
    ("riemann_zeta", lambda: asymptotic_tail_terms(4.0, 5), _DEFAULT_ARGS),
    ("riemann_zeta", lambda: riemann_zeta(complex(0.5, 14.0), _BIND_CFG),
     (30, 0.0, 16, 0.5)),
], ids=["integrand_eval", "integrate_segment", "integrate_vertical",
        "integrate_vertical_bound", "integrate_rectangle", "numerical_residue",
        "residue_at", "asymptotic_tail_terms", "riemann_zeta"])
def test_config_reaches_the_kernel(monkeypatch, kernel, run, want):
    calls = []
    orig = getattr(kernels, kernel)

    def recorder(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(kernels, kernel, recorder)
    run()
    assert calls
    assert all(c[-4:] == want for c in calls)


# Every module's __all__, sorted: adding or removing a public name edits
# this table on purpose.
_PUBLIC_NAMES = {
    mbzeta: [
        "BACKEND", "CheckEntry", "ConfigError", "DecayStudy", "DomainViolation",
        "EnvelopeFit", "GAMMA_POWER", "IdentityCase", "IndexBeyondTable",
        "IntegrandFamily", "MBZetaError", "NotAPole", "OverflowRegime",
        "PoleLocation", "PoleOnBoundary", "PoleOnCircle", "PoleOnPath",
        "PoleProximity", "QuadratureResult", "RectangleSpec", "ResidueTerm",
        "TailStudy", "ToleranceUnreachable", "UnknownCaseKind", "UsageError",
        "VerificationReport", "VerticalLineSpec", "ZETA_GAMMA_POWER",
        "ZETA_ZETA_GAMMA", "ZetaEvalConfig", "__version__",
        "asymptotic_tail_terms", "bernoulli", "beta", "check_identity",
        "check_rectangle", "classify_pole", "contour", "decay_study",
        "default_config", "double_sum_oracle", "enumerate_poles",
        "fit_envelope", "gamma", "gamma_power", "hurwitz_zeta",
        "integrand_eval", "integrate_real_improper", "integrate_rectangle",
        "integrate_segment", "integrate_vertical", "log_gamma",
        "numerical_residue", "residue_at", "residues", "riemann_zeta",
        "run_suite", "specfun", "verify", "zeta", "zeta_gamma_power",
        "zeta_negative_integer", "zeta_zeta_gamma",
    ],
    cli: ["Command", "execute", "main", "parse_args"],
    contour: [
        "DEFAULT_MAX_EVALUATIONS", "FAMILY_PARAMS", "GAMMA_POWER",
        "IntegrandFamily", "QuadratureResult", "RectangleSpec",
        "VerticalLineSpec", "ZETA_GAMMA_POWER", "ZETA_ZETA_GAMMA",
        "gamma_power", "integrand_eval", "integrate_real_improper",
        "integrate_rectangle", "integrate_segment", "integrate_vertical",
        "zeta_gamma_power", "zeta_zeta_gamma",
    ],
    residues: [
        "GAMMA_POLE", "ODD_COMBINED", "PoleLocation", "ResidueTerm",
        "TailStudy", "ZETA_POLE", "asymptotic_tail_terms", "classify_pole",
        "enumerate_poles", "numerical_residue", "residue_at",
    ],
    specfun: ["BERNOULLI_MAX_INDEX", "POLE_GUARD", "bernoulli", "beta",
              "gamma", "log_gamma"],
    verify: [
        "CheckEntry", "DecayStudy", "EnvelopeFit", "IDENTITY_KINDS",
        "IdentityCase", "VerificationReport", "check_identity",
        "check_rectangle", "decay_study", "default_config", "fit_envelope",
        "run_suite",
    ],
    zeta: ["DEFAULT_CONFIG", "ZetaEvalConfig", "double_sum_oracle",
           "hurwitz_zeta", "riemann_zeta", "zeta_negative_integer"],
}


def test_public_names_are_pinned():
    for module, names in _PUBLIC_NAMES.items():
        assert sorted(module.__all__) == names, module.__name__


# Every setting of the package: the optional parameters of the public
# callables, the fields of ZetaEvalConfig and the top-level keys of a verify
# config. A new setting edits these on purpose.
_OPTIONAL_PARAMS = {
    "mbzeta.cli.main": {"argv"},
    "mbzeta.contour.IntegrandFamily": {"u", "a"},
    "mbzeta.contour.VerticalLineSpec": {"tol"},
    "mbzeta.contour.integrate_real_improper": {"tol", "max_evaluations"},
    "mbzeta.contour.integrate_rectangle": {"tol", "max_evaluations"},
    "mbzeta.contour.integrate_segment": {"tol", "max_evaluations"},
    "mbzeta.contour.integrate_vertical": {"max_evaluations"},
    "mbzeta.errors.ToleranceUnreachable": {"partial_value", "evaluations"},
    "mbzeta.residues.asymptotic_tail_terms": {"M"},
    "mbzeta.residues.numerical_residue": {"radius", "tol"},
    "mbzeta.verify.CheckEntry": {"error"},
    "mbzeta.verify.IdentityCase": {"method"},
    "mbzeta.verify.check_rectangle": {"tol", "entry_id"},
    "mbzeta.verify.decay_study": {"left", "threshold"},
    "mbzeta.verify.run_suite": {"config"},
    "mbzeta.zeta.ZetaEvalConfig": {"em_terms", "correction_order"},
    "mbzeta.zeta.double_sum_oracle": {"tol"},
    "mbzeta.zeta.riemann_zeta": {"cfg"},
}


def test_only_riemann_zeta_takes_a_config():
    takers = set()
    optional = {}
    for module in (mbzeta, cli, contour, residues, specfun, verify, zeta):
        for name in module.__all__:
            obj = getattr(module, name)
            try:
                params = inspect.signature(obj).parameters.values()
            except (TypeError, ValueError):  # not callable, or no signature
                continue
            qualname = f"{obj.__module__}.{obj.__qualname__}"
            if any(p.name == "cfg" or isinstance(p.default, ZetaEvalConfig)
                   for p in params):
                takers.add(qualname)
            names = {p.name for p in params if p.default is not p.empty}
            if names:
                optional[qualname] = names
    assert takers == {"mbzeta.zeta.riemann_zeta"}
    assert optional == _OPTIONAL_PARAMS
    assert [f.name for f in dataclasses.fields(ZetaEvalConfig)] == [
        "em_terms", "correction_order"]
    assert sorted(verify.default_config()) == ["cases", "tolerances"]
