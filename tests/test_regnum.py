"""Tests for the dilogarithm and the eta pairing against exact tame symbols."""
import cmath
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from k2sym import regnum
from k2sym.arith import RatFunc, _unchecked
from k2sym.funcfield import PlaceFq, _order_and_units, tame_ff
from k2sym.regnum import (
    CX,
    GaussRat,
    Loop,
    LoopIntegral,
    bloch_wigner,
    gauss,
    loop_integral,
    poly_z,
    ratfunc_z,
    residue_check,
)
from oracles import (
    GaussRatFraction,
    catalan_by_series,
    eta_pullback,
    eta_value,
    loop_integral_by_pullback,
    order_and_unit_by_evaluation,
    tame_symbol_by_evaluation,
)

CATALAN = 0.9159655941772190


def random_gauss(rng, span=4):
    return gauss(
        Fraction(rng.randrange(-span, span + 1), rng.randrange(1, 4)),
        Fraction(rng.randrange(-span, span + 1), rng.randrange(1, 4)),
    )


def random_ratfunc(rng, deg=3):
    while True:
        num = [complex_int(rng) for _ in range(rng.randrange(1, deg + 2))]
        den = [complex_int(rng) for _ in range(rng.randrange(1, deg + 2))]
        f = ratfunc_z(num, den) if any(not c.is_zero() for c in den) else None
        if f is not None and not f.is_zero():
            return f


def complex_int(rng):
    return gauss(rng.randrange(-3, 4), rng.randrange(-3, 4))


def test_gaussrat_field_ops():
    rng = random.Random(3)
    for _ in range(25):
        a = random_gauss(rng)
        b = random_gauss(rng)
        if not b.is_zero():
            assert (a / b) * b == a
            assert (b * b.inverse()) == CX.one
        assert a + (-a) == CX.zero
        a_bar, b_bar, ab = gauss(a.re, -a.im), gauss(b.re, -b.im), a * b
        assert gauss(ab.re, -ab.im) == a_bar * b_bar
        assert a * a_bar == gauss(a.norm2())
    with pytest.raises(ZeroDivisionError):
        CX.zero.inverse()


# Gaussian rationals for the oracle test: zero, purely real and purely
# imaginary values, and pairs drawn over one shared denominator.
_PARTS = st.fractions(min_value=-50, max_value=50, max_denominator=12)
_ZERO = st.just(Fraction(0))


def _over_one_denominator(d):
    part = st.integers(-99, 99).map(lambda n: Fraction(n, d))
    return st.tuples(st.tuples(part, part), st.tuples(part, part))


_GAUSS_PAIRS = st.one_of(
    st.tuples(st.tuples(_PARTS, _PARTS), st.tuples(_PARTS, _PARTS)),
    st.tuples(st.tuples(_PARTS, _ZERO), st.tuples(_ZERO, _PARTS)),
    st.tuples(st.tuples(_ZERO, _ZERO), st.tuples(_PARTS, _PARTS)),
    st.tuples(st.tuples(_PARTS, _PARTS), st.tuples(_ZERO, _ZERO)),
    st.integers(1, 36).flatmap(_over_one_denominator),
)


@settings(max_examples=400, deadline=None)
@given(_GAUSS_PAIRS)
def test_gaussrat_matches_fraction_pair_oracle(pair):
    # (a + b*i)/d on integers against the pair of Fractions it replaced
    (xr, xi), (yr, yi) = pair
    x, y = GaussRat(xr, xi), GaussRat(yr, yi)
    xo, yo = GaussRatFraction(xr, xi), GaussRatFraction.make(yr, yi)

    def same(z, zo):
        assert (z.re, z.im) == (zo.re, zo.im) and type(z.re) is Fraction
        assert repr(z) == repr(zo) and hash(z) == hash(zo)
        assert z.to_complex() == zo.to_complex()
        assert math.gcd(z.a, z.b, z.d) == 1 and z.d > 0

    for z, zo in ((x, xo), (y, yo), (x + y, xo + yo), (x - y, xo - yo), (x * y, xo * yo), (-x, -xo),
                  (x * x, xo * xo), (x - x, xo - xo)):
        same(z, zo)
    assert x.norm2() == xo.norm2() and (x == y) == (xo == yo) and x.is_zero() == xo.is_zero()
    if yo.is_zero():
        for op in (lambda: y.inverse(), lambda: x / y):
            with pytest.raises(ZeroDivisionError, match="inverse of 0"):
                op()
    else:
        same(y.inverse(), yo.inverse())
        same(x / y, xo / yo)
    assert x == GaussRat(xo.re, xo.im) and hash(x) == hash(GaussRat(xr, xi))


def test_ratfunc_over_gauss_cancels():
    # (z^2 - 1)/(z - 1) = z + 1, with a monic denominator
    f = ratfunc_z([-1, 0, 1], [-1, 1])
    assert f == ratfunc_z([1, 1])
    g = ratfunc_z([0, 2], [0, 0, 1])  # 2z / z^2 = 2/z
    assert g == ratfunc_z([2], [0, 1])


def test_bloch_wigner_catalan():
    assert abs(bloch_wigner(1j) - CATALAN) < 1e-9
    assert abs(bloch_wigner(1j) - catalan_by_series()) < 1e-9


def test_bloch_wigner_vanishes_on_reals():
    for x in (0.0, 1.0, 0.25, 0.5, 0.75, -3.0, 17.5):
        assert bloch_wigner(x) == 0.0
    for k in range(1, 40):
        assert bloch_wigner(k / 40) == 0.0
    assert bloch_wigner(gauss(Fraction(1, 3))) == 0.0


def test_bloch_wigner_antisymmetry_under_conjugation():
    rng = random.Random(11)
    for _ in range(40):
        z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if abs(z.imag) < 1e-6:
            continue
        assert abs(bloch_wigner(z) + bloch_wigner(z.conjugate())) < 1e-12


def test_bloch_wigner_six_fold_symmetry():
    rng = random.Random(13)
    for _ in range(30):
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(z.imag) < 1e-3 or abs(z) < 1e-3 or abs(z - 1) < 1e-3:
            continue
        d = bloch_wigner(z)
        assert abs(bloch_wigner(1 / z) + d) < 1e-12
        assert abs(bloch_wigner(1 - z) + d) < 1e-12


def test_bloch_wigner_matches_mpmath():
    def oracle(z):
        zm = mpmath.mpc(z)
        return float(mpmath.im(mpmath.polylog(2, zm)) + mpmath.arg(1 - zm) * mpmath.log(abs(zm)))

    rng = random.Random(17)
    for _ in range(50):
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(z.imag) < 1e-3:
            continue
        assert abs(bloch_wigner(z) - oracle(z)) < 1e-12


def test_bloch_wigner_keeps_its_relative_accuracy_near_zero():
    """|z| log-uniform in [1e-12, 1], where D(z) is about Im z (1 - log|z|):
    every value is within 1e-14 relative of mpmath at 30 digits."""
    rng = random.Random(23)
    worst = 0.0
    with mpmath.workdps(30):
        for _ in range(2000):
            z = cmath.rect(10 ** rng.uniform(-12, 0), rng.uniform(-math.pi, math.pi))
            zm = mpmath.mpc(z)
            ref = mpmath.im(mpmath.polylog(2, zm)) + mpmath.arg(1 - zm) * mpmath.log(abs(zm))
            worst = max(worst, float(abs((bloch_wigner(z) - ref) / ref)))
    assert worst < 1e-14


def test_loop_validation():
    with pytest.raises(ValueError):
        Loop(0j, -1.0)
    with pytest.raises(ValueError):
        Loop(0j, 1.0, orientation=2)


def test_loop_integral_frozen_example():
    f = ratfunc_z([0, 1])
    g = ratfunc_z([0, 2])
    li = loop_integral(f, g, Loop(0j, 0.7))
    assert isinstance(li, LoopIntegral)
    assert abs(li.value - (-math.log(2))) < 1e-9
    assert li.tolerance < 1e-9
    assert li.samples & (li.samples - 1) == 0


def test_loop_integral_homotopy_invariance():
    f = ratfunc_z([0, 1])
    g = ratfunc_z([0, 2])
    a = loop_integral(f, g, Loop(0j, 0.1)).value
    b = loop_integral(f, g, Loop(0j, 0.2)).value
    assert abs(a - b) < 1e-9


def test_loop_orientation_flips_sign():
    f = ratfunc_z([0, 1])
    g = ratfunc_z([1, -1])
    plus = loop_integral(f, g, Loop(0.2 + 0.1j, 0.4, orientation=1)).value
    minus = loop_integral(f, g, Loop(0.2 + 0.1j, 0.4, orientation=-1)).value
    assert abs(plus + minus) < 1e-9


def _assert_matches_pullback_oracle(f, g, loop):
    li, ref = loop_integral(f, g, loop), loop_integral_by_pullback(f, g, loop)
    assert li.samples == ref.samples, (f, g, loop)
    assert abs(li.value - ref.value) <= 1e-12, (f, g, loop)
    assert [n for n, _, _ in li.trajectory] == [n for n, _, _ in ref.trajectory]
    for (_, est, delta), (_, ref_est, ref_delta) in zip(li.trajectory, ref.trajectory):
        assert abs(est - ref_est) <= 1e-12, (f, g, loop)
        assert (delta is None) == (ref_delta is None)
    assert li.trajectory[-1] == (li.samples, li.value, li.tolerance)
    return li


def test_loop_integral_matches_pullback_oracle_on_frozen_loops():
    # the loops of the frozen examples here and in test_acceptance
    z, two_z, one_minus = ratfunc_z([0, 1]), ratfunc_z([0, 2]), ratfunc_z([1, -1])
    cases = [(z, two_z, Loop(0j, r)) for r in (0.1, 0.2, 0.7, 1.0)]
    cases += [(z, one_minus, Loop(0.2 + 0.1j, 0.4, orientation=o)) for o in (1, -1)]
    cases += [(z, one_minus, Loop(c, r)) for c, r in ((0j, 0.5), (1 + 0j, 0.5), (0.3 + 0.8j, 0.25))]
    for f, g, loop in cases:
        _assert_matches_pullback_oracle(f, g, loop)


def test_loop_integral_matches_pullback_oracle_on_random_loops():
    # four distinct points, each a zero or pole of order 1 or 2 of f or g;
    # the loop circles the first, mostly off the origin, in either orientation,
    # at 0.5 or 0.8 of the distance to the next, so levels differ in number
    rng = random.Random(53)
    pool = [gauss(Fraction(a, 2), Fraction(b, 2)) for a in range(-4, 5) for b in range(-4, 5)]
    orientations, orders, sample_counts = set(), set(), set()
    for _ in range(12):
        roots = rng.sample(pool, 4)
        polys = [poly_z([rng.choice((1, 2, -3))]), poly_z([1]), poly_z([1]), poly_z([1])]
        for slot, r in zip(rng.sample(range(4), 4), roots):
            e = rng.choice((1, 2))
            polys[slot] = polys[slot] * poly_z([-r, 1]) ** e
            orders.add(e)
        f, g = RatFunc(polys[0], polys[1]), RatFunc(polys[2], polys[3])
        centre = roots[0].to_complex()
        radius = min(abs(r.to_complex() - centre) for r in roots[1:]) * rng.choice((0.5, 0.8))
        orientation = rng.choice((1, -1))
        orientations.add(orientation)
        li = _assert_matches_pullback_oracle(f, g, Loop(centre, radius, orientation))
        sample_counts.add(li.samples)
    assert orientations == {1, -1} and orders == {1, 2} and len(sample_counts) > 1


def test_eta_antisymmetry_and_bilinearity():
    rng = random.Random(19)
    f1 = ratfunc_z([1, 2], [1, 0, 1])
    f2 = ratfunc_z([0, 0, 3])
    g = ratfunc_z([2, -1])
    for _ in range(20):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        dz = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        try:
            a = eta_value(f1, g, z, dz)
            b = eta_value(g, f1, z, dz)
            lhs = eta_value(f1 * f2, g, z, dz)
            rhs = eta_value(f1, g, z, dz) + eta_value(f2, g, z, dz)
        except ValueError:
            continue
        assert abs(a + b) < 1e-9 * max(1.0, abs(a))
        assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs))


def test_eta_steinberg_integrals_vanish():
    f = ratfunc_z([0, 1])
    one_minus = ratfunc_z([1, -1])
    for center, radius in ((0j, 0.5), (1 + 0j, 0.5), (0.3 + 0.8j, 0.25)):
        li = loop_integral(f, one_minus, Loop(center, radius))
        assert abs(li.value) < 1e-8


def test_eta_closed_over_squares():
    # d(eta) = 0: circulation around small squares away from singularities
    f = ratfunc_z([0, 1], [1, 1])
    g = ratfunc_z([1, -1])

    def simpson_segment(a, b, n=512):
        h = (b - a) / n
        total = eta_value(f, g, a, h) + eta_value(f, g, b, h)
        for k in range(1, n):
            w = 4.0 if k % 2 else 2.0
            total += w * eta_value(f, g, a + k * h, h)
        return total / 3.0

    for corner in (0.4 + 0.4j, -1.2 + 0.7j, 2.0 - 1.5j):
        side = 0.2
        cs = [corner, corner + side, corner + side + side * 1j, corner + side * 1j]
        circulation = sum(simpson_segment(cs[k], cs[(k + 1) % 4]) for k in range(4))
        assert abs(circulation) < 1e-9


def test_eta_rejects_zero_or_pole_on_path():
    f = ratfunc_z([0, 1])
    g = ratfunc_z([0, 2])
    with pytest.raises(ValueError):
        eta_value(f, g, 0j, 1j)
    with pytest.raises(ValueError):
        eta_pullback(f, g, Loop(-1 + 0j, 1.0), 0.0)


def _orders_and_tame(f, g, a):
    """Orders of f and g at the place z - a, from funcfield's strip of z - a
    out of each polynomial, and their exact tame symbol there."""
    place = _unchecked(PlaceFq, pi=poly_z([-a, 1]))
    value = tame_ff(f, g, place).constant_value()
    return _order_and_units(f, place)[0], _order_and_units(g, place)[0], value


def test_order_at():
    f = ratfunc_z([0, 0, -1, 1], [2, 1])  # z^2 (z - 1) / (z + 2)
    for a, order in ((0, 2), (1, 1), (-2, -1), (5, 0)):
        assert _orders_and_tame(f, f, gauss(a))[:2] == (order, order)


def test_tame_symbol_frozen_examples():
    z = ratfunc_z([0, 1])
    two_z = ratfunc_z([0, 2])
    one_minus = ratfunc_z([1, -1])
    z_minus_1 = ratfunc_z([-1, 1])
    frozen = [((z, two_z, gauss(0)), (1, 1, gauss(Fraction(-1, 2)))),
              ((z, one_minus, gauss(0)), (1, 0, gauss(1))),
              ((z_minus_1, z_minus_1, gauss(1)), (1, 1, gauss(-1))),
              # poles of f and of g: an order is the numerator's less the denominator's
              ((ratfunc_z([1], [0, 1]), ratfunc_z([2, 1]), gauss(0)), (-1, 0, gauss(2))),
              ((ratfunc_z([2, 1]), ratfunc_z([0, 1], [-1, 0, 1]), gauss(1)), (0, -1, gauss(Fraction(1, 3))))]
    for args, expected in frozen:
        assert _orders_and_tame(*args) == expected
        # residue_check reads its orders off its own expansions at the point
        rc = residue_check(*args)
        assert (rc.order_f, rc.order_g, rc.tame_value) == expected
    for f, g in ((ratfunc_z([0]), z), (z, ratfunc_z([0]))):
        with pytest.raises(ValueError, match="symbol entries must be nonzero"):
            _orders_and_tame(f, g, gauss(0))
        with pytest.raises(ValueError, match="symbol entries must be nonzero"):
            residue_check(f, g, gauss(0))


def test_loop_integral_refuses_a_zero_function_by_the_entry_rule():
    # a direct call, before any expansion, reads like residue_check
    z = ratfunc_z([0, 1])
    for f, g in ((ratfunc_z([0]), z), (z, ratfunc_z([0]))):
        with pytest.raises(ValueError, match="symbol entries must be nonzero"):
            loop_integral(f, g, Loop(0j, 1.0))


def test_tame_symbol_antisymmetric():
    # the two sign factors coincide, so tame(f,g) * tame(g,f) = 1 always
    rng = random.Random(23)
    for _ in range(10):
        f = random_ratfunc(rng, deg=2)
        g = random_ratfunc(rng, deg=2)
        a = gauss(rng.randrange(-2, 3))
        assert _orders_and_tame(f, g, a)[2] * _orders_and_tame(g, f, a)[2] == CX.one


def _with_order(rng, a, k):
    """A random rational function times (z - a)^k; the random parts may
    vanish at a as well."""
    f = random_ratfunc(rng, deg=2)
    lin = ratfunc_z([-a, gauss(1)])
    return f * lin**k


def test_tame_symbol_and_order_match_evaluation_oracle():
    # every pair of orders -3..3 of (z - a) in f and g, four times each:
    # zeros and poles of multiplicity up to 3 in numerators and denominators,
    # among them a zero of f that is a pole of g
    rng = random.Random(41)
    for m in range(-3, 4):
        for n in range(-3, 4):
            for _ in range(4):
                a = random_gauss(rng, span=2)
                f, g = _with_order(rng, a, m), _with_order(rng, a, n)
                order_f, order_g, value = _orders_and_tame(f, g, a)
                for h, order in ((f, order_f), (g, order_g)):
                    kn, _ = order_and_unit_by_evaluation(h.num, a)
                    kd, _ = order_and_unit_by_evaluation(h.den, a)
                    assert order == kn - kd
                assert value == tame_symbol_by_evaluation(f, g, a), (f, g, a)


def test_residue_check_frozen_and_random():
    z = ratfunc_z([0, 1])
    two_z = ratfunc_z([0, 2])
    rc = residue_check(z, two_z, gauss(0))
    assert rc.holds and abs(rc.expected - (-math.log(2))) < 1e-12
    assert rc.order_f == 1 and rc.order_g == 1

    rng = random.Random(29)
    done = 0
    while done < 6:
        f = random_ratfunc(rng, deg=3)
        g = random_ratfunc(rng, deg=3)
        point = gauss(rng.randrange(-2, 3), rng.randrange(-1, 2))
        rc = residue_check(f, g, point)
        assert rc.holds, (f, g, point, rc)
        done += 1


def test_residue_radius_keeps_the_other_zeros_and_poles_outside_twice_it(monkeypatch):
    """f and g from known Gaussian roots and multiplicities, the point one of
    the roots or none of them.  The radius residue_check reads off the exact
    expansions at the point is at most half the distance to the nearest
    other root, and at least that distance over 4 deg (|rho_j| <=
    C(deg, j) / distance^j), and the check holds."""
    radii = []

    def spy(f, g, loop, *expansions):
        radii.append(loop.radius)
        return loop_integral(f, g, loop, *expansions)

    monkeypatch.setattr(regnum, "loop_integral", spy)
    rng = random.Random(61)
    pool = [gauss(Fraction(a, 3), Fraction(b, 2)) for a in range(-6, 7) for b in range(-3, 4)]
    on_a_root = set()
    for _ in range(24):
        roots = rng.sample(pool, 6)
        polys = [poly_z([rng.choice((1, 2, -3))]), poly_z([1]), poly_z([1]), poly_z([1])]
        for r in roots[1:]:
            polys[rng.randrange(4)] *= poly_z([-r, 1]) ** rng.randint(1, 3)
        point = roots[0] if rng.random() < 0.5 else rng.choice(roots[1:])
        on_a_root.add(point != roots[0])
        f, g = RatFunc(polys[0], polys[1]), RatFunc(polys[2], polys[3])
        rc = residue_check(f, g, point)
        assert rc.holds, (f, g, point)
        nearest = min(abs(r.to_complex() - point.to_complex()) for r in roots[1:] if r != point)
        degree = max(p.degree for p in polys)
        assert nearest / (4 * degree) <= radii[-1] <= nearest / 2, (f, g, point)
    assert on_a_root == {False, True}
