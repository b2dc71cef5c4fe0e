"""Tests for K_2 of rational function fields over finite fields."""
import random
import re
from fractions import Fraction

import pytest

from k2sym import arith, funcfield
from k2sym.arith import Poly, RatFunc, _unchecked, field, generator, irreducibles, is_irreducible, poly_factor
from k2sym.funcfield import (
    CHAR2,
    FFSymbolExpr,
    K2FFClass,
    PlaceFq,
    counting_bound,
    decompose,
    ff_symbol,
    lift_ff,
    residue_norm,
    steinberg_witness,
    tame_ff,
    weil_check,
)

from k2sym.zeta import CurveFq, count_points

import oracles


def random_ratfunc(F, rng, max_deg=3):
    while True:
        num = Poly(F, [rng.randrange(F.q) for _ in range(rng.randint(1, max_deg + 1))])
        den = Poly(F, [rng.randrange(F.q) for _ in range(rng.randint(1, max_deg + 1))])
        if not num.is_zero() and not den.is_zero():
            return RatFunc(num, den)


# -- places and valuations -------------------------------------------------------


def test_place_validation():
    F = field(5)
    with pytest.raises(ValueError):
        PlaceFq(Poly.from_ints(F, [0, 2]))  # 2T is not monic
    with pytest.raises(ValueError):
        PlaceFq(Poly.from_ints(F, [1, 0, 1]))  # T^2+1 = (T+2)(T+3) mod 5
    PlaceFq(Poly.from_ints(F, [2, 0, 1]))  # T^2+2 is irreducible mod 5


def _order(f, place):
    return funcfield._order_and_units(f, place)[0]


def test_ff_valuation():
    F = field(5)
    T = Poly.x(F)
    one = Poly.const(F, 1)
    f = RatFunc(T**3 * (T + one), (T - one) ** 2)
    assert _order(f, PlaceFq(T)) == 3
    assert _order(f, PlaceFq(T - one)) == -2
    assert _order(f, PlaceFq.infinity()) == 2 - 4
    assert _order(f, PlaceFq(T + Poly.const(F, 2))) == 0


def test_valuation_is_additive():
    rng = random.Random(41)
    F = field(7)
    T = Poly.x(F)
    places = [PlaceFq(T), PlaceFq.infinity(), PlaceFq(Poly.from_ints(F, [3, 1]))]
    for _ in range(50):
        f, g = random_ratfunc(F, rng), random_ratfunc(F, rng)
        if f.is_zero() or g.is_zero():
            continue
        for pl in places:
            assert _order(f * g, pl) == _order(f, pl) + _order(g, pl)


# -- tame symbols -----------------------------------------------------------------


def test_tame_ff_spec_triple():
    F = field(5)
    T = Poly.x(F)
    one = Poly.const(F, 1)
    assert tame_ff(T, T - one, PlaceFq(T)).coeffs == (4,)
    assert tame_ff(T, T - one, PlaceFq(T - one)).coeffs == (1,)
    assert tame_ff(T, T - one, PlaceFq.infinity()).coeffs == (4,)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_tame_ff_matches_definition_at_degree_one_places(q):
    """tame_ff at every place T - r against (-1)^(ab) (f/(T-r)^a)^b
    (g/(T-r)^b)^(-a) at r, computed on DigitField elements.  Each of the
    four parts carries a power of T - s for one shared s, so f and g often
    share a place."""
    (p, k), = oracles.naive_factor(q).items()
    F, D, rng = field(q), oracles.DigitField(p, k), random.Random(q)
    for _ in range(25):
        s = rng.randrange(q)
        parts = []
        for _ in range(4):
            m = rng.randint(0, 2)
            c = [rng.randrange(q) for _ in range(rng.randint(0, 4 - m))] + [rng.randrange(1, q)]
            for _ in range(m):
                c = oracles.field_poly_mul(D, c, [D.neg(s), 1])
            parts.append(c)
        f = RatFunc(Poly(F, parts[0]), Poly(F, parts[1]))
        g = RatFunc(Poly(F, parts[2]), Poly(F, parts[3]))
        for r in range(q):
            place = PlaceFq(Poly(F, [D.neg(r), 1]))
            want = oracles.tame_at_root(D, (parts[0], parts[1]), (parts[2], parts[3]), r)
            assert tame_ff(f, g, place) == Poly.const(F, want), (parts, r)


def test_tame_ff_bilinear():
    rng = random.Random(43)
    for q in (3, 4, 5, 9):
        F = field(q)
        T = Poly.x(F)
        places = [PlaceFq(T), PlaceFq.infinity(), PlaceFq(next(iter(irreducibles(F, 2))))]
        for _ in range(30):
            f, g, h = (random_ratfunc(F, rng, 2) for _ in range(3))
            for pl in places:
                pi = Poly.x(F) if pl.is_infinite else pl.pi
                lhs = tame_ff(f * g, h, pl)
                rhs = tame_ff(f, h, pl) * tame_ff(g, h, pl) % pi
                assert lhs == rhs, (q, pl, f, g, h)


def test_tame_ff_steinberg():
    rng = random.Random(44)
    for q in (3, 4, 5, 9):
        F = field(q)
        one = RatFunc.from_poly(Poly.const(F, F.one))
        places = [PlaceFq(Poly.x(F)), PlaceFq.infinity(), PlaceFq(next(iter(irreducibles(F, 2))))]
        for _ in range(30):
            f = random_ratfunc(F, rng, 2)
            g = one - f
            if g.is_zero():
                continue
            for pl in places:
                pi = Poly.x(F) if pl.is_infinite else pl.pi
                assert tame_ff(f, g, pl) == Poly.const(F, F.one) % pi, (q, pl, f)


def test_tame_ff_antisymmetry():
    rng = random.Random(47)
    F = field(7)
    T = Poly.x(F)
    for _ in range(40):
        f, g = random_ratfunc(F, rng), random_ratfunc(F, rng)
        for pl in (PlaceFq(T), PlaceFq.infinity()):
            a = tame_ff(f, g, pl)
            b = tame_ff(g, f, pl)
            pi = Poly.x(F) if pl.is_infinite else pl.pi
            assert a * b % pi == Poly.const(F, F.one) % pi


def _random_for_infinity(F, rng, draw_coeff):
    """num/den of independent degrees 0..4 with nonzero leading
    coefficients: constants, equal degrees and both signs of the order at
    infinity all come up."""
    def poly(d):
        while True:
            c = [draw_coeff() for _ in range(d + 1)]
            if c[-1] != F.zero:
                return Poly(F, c)
    return RatFunc(poly(rng.randint(0, 4)), poly(rng.randint(0, 4)))


def _infinity_cases(pairs):
    """Which kinds of (f, g) the draw covered, by f's order at infinity."""
    kinds = set()
    for f, _ in pairs:
        a = _order(f, PlaceFq.infinity())
        kinds.add("constant" if f.is_constant() else "negative" if a < 0 else
                  "equal degrees" if a == 0 else "positive")
    return kinds


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 25])
def test_tame_ff_at_infinity_matches_chart(q):
    """The closed form (-1)^{ab} c(f)^b c(g)^{-a} at infinity against the
    symbol at U = 0 after the change of chart U = 1/T, on 260 seeded pairs
    per field (2080 in all); a tenth of them have g = f."""
    rng = random.Random(800 + q)
    F = field(q)
    inf = PlaceFq.infinity()
    pairs = []
    for k in range(260):
        f = _random_for_infinity(F, rng, lambda: rng.randrange(q))
        g = f if k % 10 == 0 else _random_for_infinity(F, rng, lambda: rng.randrange(q))
        pairs.append((f, g))
        assert tame_ff(f, g, inf) == oracles.tame_at_infinity_by_chart(f, g), (q, f, g)
    assert _infinity_cases(pairs) == {"constant", "negative", "equal degrees", "positive"}


def test_tame_ff_at_infinity_matches_chart_over_gaussian_rationals():
    """The same comparison over Q(i), where the field has no pow: 200
    seeded pairs with small Gaussian rational coefficients."""
    from k2sym.regnum import CX, gauss

    rng = random.Random(97)
    inf = PlaceFq.infinity()

    def coeff():
        return gauss(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2))

    pairs = []
    for k in range(200):
        f = _random_for_infinity(CX, rng, coeff)
        g = f if k % 10 == 0 else _random_for_infinity(CX, rng, coeff)
        pairs.append((f, g))
        assert tame_ff(f, g, inf) == oracles.tame_at_infinity_by_chart(f, g), (f, g)
    assert _infinity_cases(pairs) == {"constant", "negative", "equal degrees", "positive"}


# -- decomposition ------------------------------------------------------------------


def test_decompose_spec_example():
    F = field(5)
    T = Poly.x(F)
    one = Poly.const(F, 1)
    c = decompose(ff_symbol(T, T - one))
    assert [(pi.coeffs, v.coeffs) for pi, v in c.entries] == [((0, 1), (4,))]
    # repeated pairs merge in first-seen order, and a pair that cancels drops out
    e = FFSymbolExpr.of((T, one + one), (T, T - one), (one, T), (T, T - one), (one, T),
                        multiplicities=[1, 1, 1, 1, -1])
    assert [(f.num, g.num, m) for f, g, m in e.terms] == [(T, one + one, 1), (T, T - one, 2)]


def test_decompose_of_steinberg_symbol_is_zero():
    rng = random.Random(53)
    for q in (2, 3, 5, 9):
        F = field(q)
        one = RatFunc.from_poly(Poly.const(F, F.one))
        for _ in range(20):
            f = random_ratfunc(F, rng, 2)
            g = one - f
            if f.is_zero() or g.is_zero():
                continue
            assert decompose(ff_symbol(f, g)).is_zero(), (q, f)


def test_class_group_ops():
    F = field(5)
    T = Poly.x(F)
    a = K2FFClass.make(F, {T: Poly.const(F, 2)})
    b = K2FFClass.make(F, {T: Poly.const(F, 3)})
    assert (a + b).is_zero()  # 2*3 = 6 = 1 mod 5
    assert (a - a).is_zero()
    assert (-a).entries == ((T, Poly.const(F, 3)),)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9, 25])
def test_class_plus_its_negative_is_zero(q):
    F = field(q)
    rng = random.Random(f"negative {q}")
    irr_by_deg = {d: list(irreducibles(F, d)) for d in (1, 2, 3)}
    for _ in range(20):
        entries = {}
        for d in (1, 1, 2, 3):
            pi = rng.choice(irr_by_deg[d])
            v = Poly(F, [rng.randrange(F.q) for _ in range(d)])
            if not v.is_zero():
                entries[pi] = v
        c = K2FFClass.make(F, entries)
        assert (c + (-c)).is_zero() and ((-c) + c).is_zero(), (q, entries)
        assert -(-c) == c and (c - c).is_zero(), (q, entries)


def _residue_inv_cases(F, rng):
    """(pi, random element) pairs over F_5, F_9, F_25 (places of degree 1 to
    3) or Q(i) (z - a, and z^2 - 2, z^2 - 3, irreducible over Q(i))."""
    from k2sym.regnum import CX, gauss

    if F is CX:
        def coeff():
            return gauss(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2))

        places = [[coeff(), CX.one] for _ in range(3)] + [[gauss(-2), CX.zero, CX.one], [gauss(-3), CX.zero, CX.one]]
    else:
        def coeff():
            return rng.randrange(F.q)

        places = [list(rng.choice(list(irreducibles(F, d))).coeffs) for d in (1, 2, 2, 3)]
    for pi in places:
        for _ in range(10):
            yield pi, [coeff() for _ in range(rng.randint(1, 2 * len(pi)))]


@pytest.mark.parametrize("q", [5, 9, 25, "Q(i)"])
def test_residue_inv_inverts_units_mod_pi(q):
    from k2sym.regnum import CX

    F = CX if q == "Q(i)" else field(q)
    rng = random.Random(f"residue inverse {q}")
    euclid = 0  # units whose residue is not constant: the Euclidean branch
    for pi, a in _residue_inv_cases(F, rng):
        a = F._trim(a)
        r = F.poly_rem(a, pi)
        if r:
            inv = funcfield._residue_inv(F, a, pi)
            assert len(inv) < len(pi) and F.poly_rem(F.poly_mul(a, inv), pi) == [F.one], (pi, a)
            euclid += len(r) > 1
        # a multiple of pi has no inverse; pi times a plus a unit c has 1/c
        h = F.poly_mul(pi, a)
        if h:
            with pytest.raises(ZeroDivisionError):
                funcfield._residue_inv(F, h, pi)
        c = a[-1] if a else F.one
        assert funcfield._residue_inv(F, F.poly_add(h, [c]), pi) == [F.inv(c)], (pi, a)
    assert euclid >= 15


def test_lift_ff_spec_example():
    F = field(5)
    T = Poly.x(F)
    target = K2FFClass.make(F, {T: Poly.const(F, 3)})
    e = lift_ff(F, target)
    assert len(e.terms) == 1
    f, g, m = e.terms[0]
    assert f.num.coeffs == (3,) and g.num.coeffs == (0, 1) and m == 1
    assert decompose(e) == target


def test_lift_ff_roundtrip_random():
    rng = random.Random(59)
    for q in (2, 3, 4, 5, 7, 9):
        F = field(q)
        irr_by_deg = {d: list(irreducibles(F, d)) for d in (1, 2, 3)}
        for _ in range(15):
            entries = {}
            for d in (1, 2, 3):
                if rng.random() < 0.5:
                    pi = rng.choice(irr_by_deg[d])
                    v = Poly(F, [rng.randrange(F.q) for _ in range(d)])
                    if not v.is_zero():
                        entries[pi] = v
            target = K2FFClass.make(F, entries)
            e = lift_ff(F, target)
            assert decompose(e, F) == target, (q, entries)


def test_lift_ff_rejects_keys_that_are_not_places():
    F = field(5)
    T = Poly.x(F)
    for key in (T * T, T * T + T, Poly.const(F, 2) * T):  # reducible, reducible, not monic
        with pytest.raises(ValueError, match="not a monic irreducible"):
            K2FFClass.make(F, {key: Poly.const(F, 3)})
        # a class built past the key check still stops lift_ff's descent
        target = _unchecked(K2FFClass, base=F, entries=((key, Poly.const(F, 3)),))
        with pytest.raises(ValueError, match="not a place"):
            lift_ff(F, target)


def test_k2ff_class_keys_must_be_places():
    F = field(5)
    T = Poly.x(F)
    # refused before the identity value 1 could drop the key
    with pytest.raises(ValueError, match="not a monic irreducible"):
        K2FFClass.make(F, {T * T: Poly.const(F, 1)})
    # refused rather than kept as a class at a reducible key
    with pytest.raises(ValueError, match="not a monic irreducible"):
        K2FFClass.make(F, {T * T: T})
    with pytest.raises(ValueError, match="not a monic irreducible"):
        K2FFClass(F, ((T * T, T),))
    # T mod T is reduced, and it is 0: no unit
    with pytest.raises(ValueError, match=re.escape("value at key [0, 1] is 0, so not a unit")):
        K2FFClass.make(F, {T: T})
    t1 = T + Poly.const(F, 1)
    assert K2FFClass.make(F, {T: Poly.const(F, 1), t1: Poly.const(F, 2)}).support() == (t1,)


def test_a_class_constructor_checks_each_entry_after_its_place():
    F = field(5)
    T = Poly.x(F)
    t1 = T + Poly.const(F, 1)
    two = Poly.const(F, 2)
    with pytest.raises(ValueError, match="duplicate place"):
        K2FFClass(F, ((T, two), (T, two)))
    with pytest.raises(ValueError, match="value not reduced"):
        K2FFClass(F, ((t1, T),))
    with pytest.raises(ValueError, match=re.escape("value at key [1, 1] is 0, so not a unit")):
        K2FFClass(F, ((t1, Poly(F, [])),))
    with pytest.raises(ValueError, match="identity values must be dropped"):
        K2FFClass(F, ((T, Poly.const(F, 1)),))
    assert K2FFClass(F, ((T, two), (t1, two))) == K2FFClass.make(F, {t1: two, T: two})


def test_lift_place_degrees_never_increase():
    # the descent never revisits a degree once cleared at the top
    F = field(7)
    pis3 = list(irreducibles(F, 3))
    target = K2FFClass.make(F, {pis3[0]: Poly.from_ints(F, [2, 1])})
    e = lift_ff(F, target)
    degs = [g.num.degree for _, g, _ in e.terms]
    assert degs == sorted(degs, reverse=True)
    assert decompose(e) == target


# -- weil reciprocity ------------------------------------------------------------------


def test_weil_spec_example():
    F = field(3)
    T = Poly.x(F)
    f = Poly.from_ints(F, [1, 0, 1])
    res = weil_check(f, T)
    assert res.holds
    by_place = {}
    for fac in res.factors:
        key = "inf" if fac.place.is_infinite else fac.place.pi.coeffs
        by_place[key] = (fac.value.coeffs, fac.norm)
    # at T^2+1 the tame value is 2T = -T, the inverse of T, with norm 1
    assert by_place[(1, 0, 1)] == ((0, 2), 1)
    assert by_place[(0, 1)] == ((1,), 1)
    assert by_place["inf"] == ((1,), 1)


def test_weil_random_pairs_all_q():
    rng = random.Random(61)
    for q in (2, 3, 4, 5, 7, 9):
        F = field(q)
        for _ in range(40):
            f = random_ratfunc(F, rng, 4)
            g = random_ratfunc(F, rng, 4)
            assert weil_check(f, g).holds, (q, f, g)


def test_weil_and_decompose_do_not_retest_factors(monkeypatch):
    # their places are factors from poly_factor, already proven irreducible,
    # and the class operations and lift_ff only combine proven places
    rng = random.Random(71)
    for q in (5, 9):
        F = field(q)
        f, g = random_ratfunc(F, rng, 4), random_ratfunc(F, rng, 4)
        expected = weil_check(f, g), decompose(ff_symbol(f, g))
        target = expected[1]
        with monkeypatch.context() as m:
            m.setattr(funcfield, "is_irreducible", lambda pi: pytest.fail(f"re-tested {pi}"))
            assert (weil_check(f, g), decompose(ff_symbol(f, g))) == expected
            assert (target + target - target) == target and (-(-target)) == target
            assert decompose(lift_ff(F, target), F) == target


def test_a_lift_round_trip_factors_representatives_only(monkeypatch):
    # the places of a class built by decompose remember that they are
    # irreducible, so the round trip runs the distinct-degree loop exactly
    # as often as factoring each representative once does
    rng = random.Random(73)
    original = arith._distinct_degree
    loops = 0
    for q in BENCH_FIELDS:
        F = field(q)
        for _ in range(6):
            target = decompose(ff_symbol(random_ratfunc(F, rng, 4), random_ratfunc(F, rng, 4)))
            calls, expected = [], []
            with monkeypatch.context() as m:
                m.setattr(arith, "_distinct_degree", lambda F, f: calls.append(tuple(f)) or original(F, f))
                expr = lift_ff(F, target)
                assert decompose(expr, F) == target
            reps = {id(a.num): a.num for a, _, _ in expr.terms}.values()
            with monkeypatch.context() as m:
                m.setattr(arith, "_distinct_degree", lambda F, f: expected.append(tuple(f)) or original(F, f))
                for a in reps:
                    poly_factor(Poly(F, a.coeffs))
            assert sorted(calls) == sorted(expected), q
            loops += len(calls)
    assert loops  # some representative needed the loop


def test_residue_norm_surjects_onto_units():
    # norms of residue units at a degree-2 place hit every element of F_q^*
    for q in (3, 5):
        F = field(q)
        pi = next(iter(irreducibles(F, 2)))
        place = PlaceFq(pi)
        norms = set()
        for a0 in range(q):
            for a1 in range(q):
                v = Poly(F, [a0, a1])
                if v.is_zero():
                    continue
                norms.add(residue_norm(v, place))
        assert norms == set(range(1, q))


# The fields of the ff-prime and ff-prime-power benchmark workloads.
BENCH_FIELDS = (2, 3, 5, 7, 4, 8, 9, 25)


def random_place(F, degree, rng):
    while True:
        pi = Poly(F, [rng.randrange(F.q) for _ in range(degree)] + [F.one])
        if is_irreducible(pi):
            return PlaceFq(pi)


@pytest.mark.parametrize("q", BENCH_FIELDS)
def test_residue_norm_is_the_exponent_formula(q):
    # the resultant Res(pi, v) against v^((q^d - 1)/(q - 1)) mod pi, on
    # random units of degree below d + 2, reduced or not
    F = field(q)
    rng = random.Random(f"norm {q}")
    places = [PlaceFq.infinity()] + [random_place(F, d, rng) for d in (1, 2, 3, 4)]
    for place in places:
        modulus = Poly.x(F) if place.is_infinite else place.pi
        checked = 0
        while checked < 12:
            v = Poly(F, [rng.randrange(F.q) for _ in range(rng.randint(1, modulus.degree + 2))])
            if (v % modulus).is_zero():
                continue
            assert residue_norm(v, place) == oracles.norm_by_exponent(v, place), (q, place, v)
            checked += 1


def order_agreement_pairs(F, rng):
    """Random pairs, pairs with repeated factors, and (over F_3 and F_9)
    inseparable inputs, which take poly_factor's p-th-root branch."""
    T, one = Poly.x(F), Poly.const(F, F.one)
    pairs = [(random_ratfunc(F, rng, 4), random_ratfunc(F, rng, 4)) for _ in range(8)]
    for _ in range(4):
        h, k = random_ratfunc(F, rng, 2), random_ratfunc(F, rng, 2)
        pairs.append((h * RatFunc.from_poly((T + one) ** 3), k / RatFunc.from_poly((T + one) ** 2)))
        pairs.append((h * RatFunc.from_poly((T + one) ** 3), k))
    if F.q == 3:
        f = RatFunc.from_poly((T**2 + one) ** 3)
        g = RatFunc.from_poly((T**2 + one) * (T + one) ** 2)
        pairs += [(f, RatFunc.from_poly(T)), (f / RatFunc.from_poly(T), g)]
    if F.q == 9:
        f = RatFunc.from_poly(T**9 + T**3 + one)
        pairs += [(f, RatFunc.from_poly(T + one)), (RatFunc.from_poly(T), f * f)]
    return pairs


@pytest.mark.parametrize("q", BENCH_FIELDS)
def test_orders_from_factorizations_match_strip(q):
    # weil_check and decompose read orders off poly_factor's multiplicities;
    # tame_ff at a given place finds them by stripping the place out
    F = field(q)
    one = Poly.const(F, F.one)
    rng = random.Random(f"orders {q}")
    for f, g in order_agreement_pairs(F, rng):
        res = weil_check(f, g)
        assert res.holds, (q, f, g)
        cls = decompose(ff_symbol(f, g))
        finite = [fac for fac in res.factors if not fac.place.is_infinite]
        for fac in res.factors:
            assert fac.value == tame_ff(f, g, fac.place), (q, f, g, fac.place)
        for fac in finite:
            assert _order(f, fac.place) or _order(g, fac.place), (q, f, g, fac.place)
            assert dict(cls.entries).get(fac.place.pi, one) == fac.value, (q, f, g, fac.place)
        assert set(cls.support()) <= {fac.place.pi for fac in finite}


# -- K_2(F_q) = 0 ------------------------------------------------------------------------


def test_steinberg_witness_examples():
    assert steinberg_witness(7, 3) == (1, 2)
    assert steinberg_witness(5, 2) == (2, 2)
    assert steinberg_witness(4) == CHAR2
    assert steinberg_witness(2) == CHAR2


def test_steinberg_witness_validity_all_odd_q():
    for q in (3, 5, 7, 9, 11, 13, 25, 27, 49, 121):
        F = field(q)
        zeta = generator(F)
        w = steinberg_witness(q, zeta)
        x, y = w
        assert x != 0 and y != 0
        lhs = F.add(F.mul(zeta, F.mul(x, x)), F.mul(zeta, F.mul(y, y)))
        assert lhs == F.one, q


def test_steinberg_zeta_outside_the_units_or_square_without_witness():
    for q, zeta in ((5, 0), (5, 7), (9, 30), (9, 9), (4, 4)):
        with pytest.raises(ValueError, match="must encode a unit"):
            steinberg_witness(q, zeta)
        with pytest.raises(ValueError, match="must encode a unit"):
            counting_bound(q, zeta)
    # x^2 + y^2 = 1/zeta has no solution in units there
    for q, zeta in ((3, 1), (5, 1), (5, 4)):
        with pytest.raises(ValueError, match="square"):
            steinberg_witness(q, zeta)
    # 2 = 3^2 is a square mod 7 that still has a witness
    assert steinberg_witness(7, 2) == (3, 3)
    assert steinberg_witness(4, 3) == CHAR2


def test_counting_bound_all_odd_q():
    for q in (3, 5, 7, 9, 11, 13, 25, 121):
        cb = counting_bound(q)
        assert cb.zeta_squares == (q + 1) // 2
        assert cb.one_minus == (q + 1) // 2
        assert cb.exceeds_field


def test_every_scan_of_a_field_shares_one_bound():
    for scan in (lambda: steinberg_witness(1000003), lambda: counting_bound(1000003),
                 lambda: count_points(CurveFq.projective_line(1000003)),
                 lambda: count_points(CurveFq.elliptic(1000003, 1, 1))):
        with pytest.raises(ValueError, match="^F_1000003 is too large to scan: q exceeds the bound 1000000$"):
            scan()


# -- one coefficient field per symbol ---------------------------------------------


def _over(q):
    F = field(q)
    T = Poly.x(F)
    return F, T, T + Poly.const(F, 1)


def test_weil_and_expressions_refuse_mixed_fields():
    _, T5, U5 = _over(5)
    _, T7, U7 = _over(7)
    with pytest.raises(ValueError, match="mixed coefficient fields"):
        weil_check(T5, U7)
    with pytest.raises(ValueError, match="mixed coefficient fields"):
        FFSymbolExpr.of((T5, U5), (T7, U7))


def test_tame_symbols_refuse_mixed_fields():
    _, T5, U5 = _over(5)
    _, T7, _ = _over(7)
    with pytest.raises(ValueError, match="mixed coefficient fields"):
        tame_ff(T5, T7, PlaceFq(T5))
    with pytest.raises(ValueError, match="mixed coefficient fields"):
        tame_ff(T5, U5, PlaceFq(T7))


def test_a_class_refuses_keys_of_another_field():
    F5, T5, _ = _over(5)
    F7, T7, _ = _over(7)
    with pytest.raises(ValueError, match="mixed coefficient fields"):
        K2FFClass.make(F5, {T7: Poly.const(F7, 3)})
    with pytest.raises(ValueError, match="mixed coefficient fields"):
        K2FFClass.make(F5, {T5: Poly.const(F5, 2), T7: Poly.const(F7, 1)})
    assert K2FFClass.make(F5, {T5: Poly.const(F5, 3)}).entries == ((T5, Poly.const(F5, 3)),)


def test_decompose_refuses_a_base_of_another_field():
    _, T5, U5 = _over(5)
    with pytest.raises(ValueError, match="mixed coefficient fields"):
        decompose(ff_symbol(T5, U5), field(7))
    assert decompose(ff_symbol(T5, U5), field(5)) == decompose(ff_symbol(T5, U5))


def test_residue_norm_refuses_a_place_of_another_field():
    F5, T5, _ = _over(5)
    _, T7, _ = _over(7)
    with pytest.raises(ValueError, match="mixed coefficient fields"):
        residue_norm(Poly.const(F5, 2), PlaceFq(T7))
