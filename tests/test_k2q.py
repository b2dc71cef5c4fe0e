"""Tests for the Tate decomposition of K_2(Q), lifting, and reciprocity."""
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from k2sym import arith, k2q, localsym
from k2sym.arith import is_prime, legendre, primes_below
from k2sym.k2q import (
    K2Q_ZERO,
    K2QClass,
    MooreVector,
    QuadRecRecord,
    SymbolExpr,
    hilbert_reciprocity,
    lambda_tate,
    lift,
    moore_lift,
    moore_map,
    moore_sum,
    quadratic_reciprocity,
    symbol,
)
from k2sym.localsym import PlaceQ, h_p, s_2, s_infinity
from k2sym.quadforms import DiagForm, conic_solvable_Q, invariants, quaternion_splits

import oracles


# -- coordinates of symbols -----------------------------------------------------


def test_lambda_tate_2_3():
    c = lambda_tate(symbol(2, 3))
    assert c.two_slot == -1
    assert c.odd == ((3, 2),)


def test_lambda_tate_minus1_minus1():
    c = lambda_tate(symbol(-1, -1))
    assert c.two_slot == -1
    assert c.odd == ()


def test_lambda_tate_kills_antisymmetric_sum():
    e = SymbolExpr.of((2, 3), (3, 2))
    assert lambda_tate(e).is_zero()


def test_lambda_tate_steinberg_symbols_vanish():
    rng = random.Random(17)
    for _ in range(200):
        x = Fraction(rng.randint(-200, 200), rng.randint(1, 200))
        if x in (0, 1):
            continue
        assert lambda_tate(symbol(x, 1 - x)).is_zero(), x


def test_lambda_tate_additive_in_multiplicity():
    x, y = Fraction(6), Fraction(35)
    doubled = SymbolExpr.of((x, y), multiplicities=[2])
    single = lambda_tate(symbol(x, y))
    assert lambda_tate(doubled) == single + single
    # repeated pairs merge in first-seen order, and a pair that cancels drops out
    merged = SymbolExpr.of((5, 7), (x, y), (2, 3), (x, y), (2, 3), multiplicities=[1, 1, 1, 1, -1])
    assert merged.terms == ((5, 7, 1), (x, y, 2))


@st.composite
def symbol_exprs(draw):
    """A SymbolExpr of up to four terms with small nonzero rational entries."""
    entry = st.fractions(min_value=-60, max_value=60, max_denominator=60).filter(bool)
    terms = draw(st.lists(st.tuples(entry, entry, st.integers(-3, 3)), max_size=4))
    return SymbolExpr.of(*[(x, y) for x, y, _ in terms], multiplicities=[m for _, _, m in terms])


@settings(max_examples=100, deadline=None)
@given(symbol_exprs(), symbol_exprs())
def test_lambda_tate_is_a_homomorphism(e1, e2):
    c1, c2 = lambda_tate(e1), lambda_tate(e2)
    assert lambda_tate(e1 + e2) == c1 + c2
    assert lambda_tate(-e1) == -c1
    assert c1 - c2 == c1 + (-c2)
    assert lambda_tate(e1 + -e2) == c1 - c2
    assert (c1 - c2) + c2 == c1


# -- class arithmetic ------------------------------------------------------------


def test_k2qclass_group_ops():
    a = K2QClass.make(-1, {3: 2, 7: 4})
    b = K2QClass.make(-1, {3: 2})
    s = a + b
    assert s.two_slot == 1
    assert s.odd == ((7, 4),)  # 2*2 = 4 = 1 mod 3 drops the place 3
    assert (a + -a).is_zero()
    assert not a.is_zero()


def test_k2qclass_validation():
    with pytest.raises(ValueError):
        K2QClass(0, ())
    with pytest.raises(ValueError):
        K2QClass(1, ((4, 3),))
    with pytest.raises(ValueError):
        K2QClass(1, ((5, 1),))  # trivial coordinate must be dropped


def test_make_tests_each_key_then_the_reduced_range():
    # a key that is no place is refused even with a trivial coordinate
    with pytest.raises(ValueError, match="key 9 is not an odd prime"):
        K2QClass.make(1, {9: 1})
    # 3 = 0 mod 3 is no unit: only the range is left to check after the keys
    with pytest.raises(ValueError, match="coordinate at 3 out of range: 0"):
        K2QClass.make(1, {3: 3})
    with pytest.raises(ValueError, match="coordinate at 3 out of range: 0"):
        MooreVector.make(1, 1, {3: 3})
    with pytest.raises(ValueError, match="two_slot must be"):
        K2QClass.make(0)
    with pytest.raises(ValueError, match="real and dyadic components must be"):
        MooreVector.make(1, 0)
    assert K2QClass.make(-1, {7: 8, 3: 5}) == K2QClass(-1, ((3, 2),))
    assert MooreVector.make(-1, 1, {7: 6, 3: 4}) == MooreVector(-1, 1, ((7, 6),))


# -- lifting ---------------------------------------------------------------------


def test_lift_two_slot_only():
    e = lift(K2QClass.make(-1))
    assert e.pairs() == [(Fraction(-1), Fraction(-1))]


def test_lift_single_odd_coordinate():
    target = K2QClass.make(1, {7: 3})
    e = lift(target)
    assert lambda_tate(e) == target
    # descent starts with the representative symbol {3, 7}
    assert e.pairs()[0] == (Fraction(3), Fraction(7))


def test_lift_roundtrip_random_classes():
    rng = random.Random(23)
    odd_primes = [p for p in primes_below(1000) if p != 2]
    for _ in range(300):
        two = rng.choice([1, -1])
        support = rng.sample(odd_primes, rng.randint(0, 4))
        coords = {p: rng.randint(2, p - 1) for p in support}
        target = K2QClass.make(two, coords)
        e = lift(target)
        assert lambda_tate(e) == target


def test_lift_zero_class_is_empty():
    assert lift(K2Q_ZERO).terms == ()


# -- reciprocity -------------------------------------------------------------------


def test_hilbert_reciprocity_3_5():
    r = hilbert_reciprocity(3, 5)
    vals = {pl.p: v for pl, v in r.factors}
    assert vals[None] == 1
    assert vals[2] == 1
    assert vals[3] == -1
    assert vals[5] == -1
    assert r.product == 1 and r.holds


def test_hilbert_reciprocity_random():
    rng = random.Random(29)
    for _ in range(500):
        x = Fraction(rng.randint(-10**4, 10**4), rng.randint(1, 10**4))
        y = Fraction(rng.randint(-10**4, 10**4), rng.randint(1, 10**4))
        if 0 in (x, y):
            continue
        assert hilbert_reciprocity(x, y).holds, (x, y)


def test_quadratic_reciprocity_3_7():
    r = quadratic_reciprocity(3, 7)
    assert r.legendre_p_q == -1  # (3|7)
    assert r.legendre_q_p == 1   # (7|3)
    assert r.sign_exponent == 1
    assert r.consistent


def test_quadratic_reciprocity_all_pairs_below_100():
    ps = [p for p in primes_below(100) if p != 2]
    for p in ps:
        for q in ps:
            if p == q:
                continue
            r = quadratic_reciprocity(p, q)
            assert r.consistent, (p, q)
            assert r.legendre_p_q == legendre(p, q)
            assert r.legendre_q_p == legendre(q, p)


def test_quadratic_reciprocity_matches_the_public_symbols():
    # the record rebuilt from the single-place functions, each of which
    # checks its own input, for every ordered pair of odd primes below 200
    ps = [p for p in primes_below(200) if p != 2]
    for p in ps:
        for q in ps:
            if p == q:
                continue
            lpq, lqp = legendre(p, q), legendre(q, p)
            s2, sinf = s_2(p, q), s_infinity(p, q)
            hp, hq = h_p(p, q, p), h_p(p, q, q)
            exponent = ((p - 1) // 2) * ((q - 1) // 2) % 2
            consistent = (hq == lpq and hp == lqp and sinf == 1 and s2 == (-1) ** exponent
                          and sinf * s2 * hp * hq == 1 and lpq * lqp == (-1) ** exponent)
            expected = QuadRecRecord(p, q, lpq, lqp, exponent, s2, sinf, hp, hq, consistent)
            assert quadratic_reciprocity(p, q) == expected, (p, q)


def test_quadratic_reciprocity_rejects_bad_input():
    for p, q in ((3, 3), (2, 7), (2, 3), (9, 5)):
        with pytest.raises(ValueError, match="need distinct odd primes"):
            quadratic_reciprocity(p, q)


# -- moore sequence ------------------------------------------------------------------


def test_moore_map_3_5():
    v = moore_map(symbol(3, 5))
    assert v.real == 1
    assert v.two == 1
    assert dict(v.odd) == {3: 2, 5: 3}


def test_moore_sum_single_odd_value():
    v = MooreVector.make(1, 1, {7: 3})
    assert moore_sum(v) == -1  # 3 is not a square mod 7


def test_moore_sum_of_symbols_is_trivial():
    rng = random.Random(31)
    for _ in range(300):
        x = Fraction(rng.randint(-10**3, 10**3), rng.randint(1, 10**3))
        y = Fraction(rng.randint(-10**3, 10**3), rng.randint(1, 10**3))
        if 0 in (x, y):
            continue
        assert moore_sum(moore_map(symbol(x, y))) == 1, (x, y)


def test_moore_lift_real_and_dyadic():
    target = MooreVector.make(-1, -1)
    res = moore_lift(target)
    assert res.verified
    assert res.image == target
    assert res.expr.pairs() == [(Fraction(-1), Fraction(-1))]


def test_moore_lift_kernel_condition():
    bad = MooreVector.make(-1, 1)
    assert moore_sum(bad) == -1
    with pytest.raises(ValueError):
        moore_lift(bad)


def test_moore_lift_random_kernel_vectors():
    # build targets inside the kernel by taking images of random expressions
    rng = random.Random(37)
    for _ in range(100):
        pairs = []
        for _ in range(rng.randint(1, 3)):
            x = Fraction(rng.randint(-300, 300), rng.randint(1, 300))
            y = Fraction(rng.randint(-300, 300), rng.randint(1, 300))
            if 0 in (x, y):
                continue
            pairs.append((x, y))
        if not pairs:
            continue
        target = moore_map(SymbolExpr.of(*pairs))
        res = moore_lift(target)
        assert res.verified
        assert moore_map(res.expr) == target


def test_moore_vector_coordinate_access():
    v = MooreVector.make(-1, 1, {5: 4, 11: 1})
    assert (v.real, v.two, v.odd) == (-1, 1, ((5, 4),))


# -- factor once: proven primes are not tested again -------------------------------


def test_public_constructors_still_check_primes():
    with pytest.raises(ValueError):
        PlaceQ(9)
    with pytest.raises(ValueError):
        K2QClass(1, ((9, 2),))
    with pytest.raises(ValueError):
        MooreVector(1, 1, ((15, 2),))


def test_global_checks_do_not_retest_factored_primes(monkeypatch):
    # every prime these checks meet comes out of factorize, where Miller-Rabin
    # certifies the cofactor of trial division once, or out of a class whose
    # constructor checked it; no later constructor tests it again
    rng = random.Random(4)
    xs = [Fraction(rng.choice((1, -1)) * rng.randint(1, 10**6), rng.randint(1, 10**6)) for _ in range(20)]
    target = K2QClass.make(-1, {101: 7, 997: 500, 999_983: 12})
    e = SymbolExpr.of(*zip(xs[::2], xs[1::2]), multiplicities=list(range(1, 11)))
    form = DiagForm.of(*xs[:6])

    def run():
        return ([hilbert_reciprocity(x, y) for x, y in zip(xs, xs[1:])],
                [conic_solvable_Q(x, y) for x, y in zip(xs, xs[1:])],
                [quaternion_splits(x, y) for x, y in zip(xs, xs[1:])],
                lambda_tate(e), moore_map(e), lift(target), lambda_tate(lift(target)),
                invariants(form))

    def certify_cofactors_only(n):
        caller = sys._getframe(1).f_code.co_name
        if caller != "_factor_positive":
            pytest.fail(f"{caller} re-tested {n}")
        return is_prime(n)

    expected = run()
    with monkeypatch.context() as m:
        for module in (arith, localsym, k2q):
            m.setattr(module, "is_prime", certify_cofactors_only)
        assert run() == expected
