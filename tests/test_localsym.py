"""Tests for the local symbols at the real place, at 2, and at odd primes."""
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from k2sym.arith import primes_below
from k2sym.k2q import K2QClass, MooreVector, SymbolExpr, lambda_tate, moore_map
from k2sym.localsym import (
    REAL,
    TWO,
    PlaceQ,
    _residue,
    _tame,
    h_p,
    hilbert,
    hilbert_factors,
    local_data,
    odd_primes,
    s_2,
    s_infinity,
    support_places,
    tame,
)
from k2sym.quadforms import DiagForm, invariants

import oracles

nonzero_rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=200
).filter(lambda x: x != 0)


# -- real place ----------------------------------------------------------------


def test_s_infinity_examples():
    assert s_infinity(-1, -1) == -1
    assert s_infinity(-2, Fraction(-1, 3)) == -1
    assert s_infinity(2, -3) == 1
    assert s_infinity(5, 7) == 1


@settings(max_examples=150, deadline=None)
@given(nonzero_rationals, nonzero_rationals, nonzero_rationals)
def test_s_infinity_bilinear(x, y, z):
    assert s_infinity(x * y, z) == s_infinity(x, z) * s_infinity(y, z)
    assert s_infinity(x, y * z) == s_infinity(x, y) * s_infinity(x, z)


@settings(max_examples=150, deadline=None)
@given(nonzero_rationals)
def test_s_infinity_steinberg(x):
    if x == 1:
        return
    assert s_infinity(x, 1 - x) == 1


# -- dyadic place ----------------------------------------------------------------


def test_s_2_examples():
    assert s_2(2, 3) == -1          # omega(3) = 1
    assert s_2(3, 2) == -1
    assert s_2(-1, -1) == -1        # eps(-1)^2 = 1
    assert s_2(17, 2) == 1          # 17 = 1 mod 8
    assert s_2(2, 2) == 1           # forced by s(t,t) = s(-1,t)
    assert s_2(-1, 2) == 1
    assert s_2(3, 5) == 1           # eps(5) = 0
    assert s_2(3, 7) == -1          # eps(3) = eps(7) = 1


def test_s_2_on_rational_units():
    # 3/5 = 3 * 5^-1: mod 8 this is 3 * 5 = 15 = 7
    assert s_2(Fraction(3, 5), 2) == 1   # omega(7/8 class) = 0
    assert s_2(Fraction(3, 5), Fraction(3, 5)) == s_2(-1, Fraction(3, 5))


@settings(max_examples=200, deadline=None)
@given(nonzero_rationals, nonzero_rationals, nonzero_rationals)
def test_s_2_bilinear(x, y, z):
    assert s_2(x * y, z) == s_2(x, z) * s_2(y, z)
    assert s_2(x, y * z) == s_2(x, y) * s_2(x, z)


@settings(max_examples=200, deadline=None)
@given(nonzero_rationals)
def test_s_2_steinberg(x):
    if x == 1:
        return
    assert s_2(x, 1 - x) == 1


def test_s_2_steinberg_bulk():
    rng = random.Random(2)
    for _ in range(10**4):
        x = Fraction(rng.randint(-10**4, 10**4), rng.randint(1, 10**4))
        if x == 0 or x == 1:
            continue
        assert s_2(x, 1 - x) == 1


def test_s_2_skew_and_diagonal():
    rng = random.Random(3)
    for _ in range(300):
        x = Fraction(rng.randint(-500, 500), rng.randint(1, 500))
        y = Fraction(rng.randint(-500, 500), rng.randint(1, 500))
        if 0 in (x, y):
            continue
        assert s_2(x, y) * s_2(y, x) == 1
        assert s_2(x, -x) == 1
        assert s_2(x, x) == s_2(-1, x)


# -- tame symbols ----------------------------------------------------------------


def test_tame_examples():
    assert tame(2, 3, 3) == 2
    assert tame(3, 5, 5) == 3
    assert tame(3, 5, 3) == 2     # 5^{-1} = 2 mod 3
    assert tame(-1, -1, 5) == 1
    assert tame(7, 7, 7) == 7 - 1  # (-1)^{1*1} * 1 * 1 = -1 = p-1


def test_tame_on_units_is_trivial():
    for p in (3, 5, 7, 11):
        for x in (1, 2, -4, Fraction(1, 2)):
            for y in (1, 3, Fraction(99, 98)):
                if Fraction(x).numerator % p and Fraction(x).denominator % p and Fraction(y).numerator % p and Fraction(y).denominator % p:
                    assert tame(x, y, p) == 1


@settings(max_examples=200, deadline=None)
@given(nonzero_rationals, nonzero_rationals, nonzero_rationals, st.sampled_from([3, 5, 7, 11, 13]))
def test_tame_bilinear(x, y, z, p):
    assert tame(x * y, z, p) == tame(x, z, p) * tame(y, z, p) % p
    assert tame(x, y * z, p) == tame(x, y, p) * tame(x, z, p) % p


@settings(max_examples=200, deadline=None)
@given(nonzero_rationals, st.sampled_from([3, 5, 7, 11, 13]))
def test_tame_steinberg_and_skew(x, p):
    if x != 1:
        assert tame(x, 1 - x, p) == 1
    assert tame(x, -x, p) == 1
    t_xy = tame(x, 2, p) * tame(2, x, p) % p
    assert t_xy == 1


def test_tame_unit_translation_invariance():
    # multiplying an argument by a unit u with u = 1 mod p leaves tame fixed
    rng = random.Random(5)
    for p in (3, 5, 7, 13):
        for _ in range(50):
            x = Fraction(rng.randint(1, 300), rng.randint(1, 300))
            y = Fraction(rng.randint(1, 300), rng.randint(1, 300))
            u = 1 + p * rng.randint(1, 20)
            assert tame(x * u, y, p) == tame(x, y, p)


# -- h_p and the congruence oracle ----------------------------------------------


def test_h_p_examples():
    assert h_p(3, 5, 5) == -1   # 3 is not a square mod 5
    assert h_p(2, 7, 7) == 1    # 2 is a square mod 7


def test_h_p_matches_congruence_oracle_small_primes():
    # genuine primitive-solution search mod p^k: for p in {2,3,5,7} the dense
    # search is feasible and pins the symbol independently
    cases = [(2, 6), (3, 4), (5, 4), (7, 3)]
    rng = random.Random(11)
    pairs = [(rng.randint(-20, 20), rng.randint(-20, 20)) for _ in range(60)]
    for p, k in cases:
        for x, y in pairs:
            if x == 0 or y == 0:
                continue
            place = PlaceQ(p)
            solvable = oracles.conic_has_primitive_solution_mod(x, y, p, k)
            assert (hilbert(x, y, place) == 1) == solvable, (x, y, p)


def test_hilbert_symbol_values():
    assert hilbert(2, 3, PlaceQ(2)) == -1
    assert hilbert(-1, -1, REAL) == -1
    assert hilbert(-1, -1, PlaceQ(5)) == 1
    assert hilbert(3, 5, PlaceQ(5)) == -1


@settings(max_examples=150, deadline=None)
@given(nonzero_rationals, nonzero_rationals)
def test_hilbert_symmetric(x, y):
    for place in (REAL, PlaceQ(2), PlaceQ(3), PlaceQ(7)):
        assert hilbert(x, y, place) == hilbert(y, x, place)


# -- places ----------------------------------------------------------------------


def test_place_validation():
    assert PlaceQ(None) == REAL and PlaceQ(2) == TWO
    assert (repr(REAL), repr(PlaceQ(7))) == ("PlaceQ(real)", "PlaceQ(7)")
    for p in (0, 6, -3):
        with pytest.raises(ValueError, match=f"^not a prime: {p}$"):
            PlaceQ(p)


def test_places_read_off_records_equal_and_hash_like_checked_places():
    x, y = Fraction(15, 14), Fraction(-21, 11)
    expected = [PlaceQ(p) for p in (None, 2, 3, 5, 7, 11)]
    for places in ([pl for pl, _ in hilbert_factors(local_data(x), local_data(y))], list(support_places(x, y))):
        assert places == expected
        assert [hash(pl) for pl in places] == [hash(pl) for pl in expected]


def test_support_places():
    places = support_places(Fraction(12), Fraction(-5, 7))
    assert places[0] == REAL
    assert [pl.p for pl in places[1:]] == [2, 3, 5, 7]


# -- cross-place consistency -------------------------------------------------------


def test_product_over_all_places_spot_checks():
    # the full reciprocity machinery lives in the k2q module; these are raw
    # sanity products computed from the local symbols alone
    for x, y in [(3, 5), (2, 3), (-1, -1), (Fraction(3, 4), Fraction(-7, 5))]:
        prod = 1
        for place in support_places(x, y):
            prod *= hilbert(x, y, place)
        assert prod == 1, (x, y)


# -- record evaluators against the Fraction oracle ----------------------------------


def _oracle_rational(rng: random.Random, shared: int) -> Fraction:
    """A 6-digit-part rational, sometimes times powers of 2 and of the
    shared odd prime, kept inside the factorization bound."""
    x = Fraction(rng.choice((1, -1)) * rng.randint(1, 999_999), rng.randint(1, 999_999))
    scaled = x * Fraction(2) ** rng.randint(-6, 6) * Fraction(shared) ** rng.randint(-4, 4)
    if max(abs(scaled.numerator), scaled.denominator) <= 10**12:
        x = scaled
    return x


def test_record_evaluators_match_fraction_oracle():
    rng = random.Random(20240611)
    odd = [p for p in primes_below(200) if p > 2] + [999_983]
    for _ in range(300):
        shared = rng.choice(odd)
        x, y = _oracle_rational(rng, shared), _oracle_rational(rng, shared)
        rx, ry = local_data(x), local_data(y)
        primes = oracles.odd_support_naive(x, y)
        assert odd_primes(rx, ry) == primes
        expected = [(REAL, oracles.hilbert_fraction(x, y, None)),
                    (PlaceQ(2), oracles.s_2_fraction(x, y))]
        expected += [(PlaceQ(p), oracles.hilbert_fraction(x, y, p)) for p in primes]
        assert list(hilbert_factors(rx, ry)) == expected, (x, y)
        assert s_2(x, y) == oracles.s_2_fraction(x, y)
        for place, value in expected:
            assert hilbert(x, y, place) == value, (x, y, place)
        for p in primes:
            t = oracles.tame_fraction(x, y, p)
            assert _tame(*_residue(rx, p), *_residue(ry, p), p) == t, (x, y, p)
            assert tame(x, y, p) == t
    # symbol expressions with multiplicities: Tate's map and the real slot
    for _ in range(60):
        shared = rng.choice(odd[:10])
        terms = [(_oracle_rational(rng, shared), _oracle_rational(rng, shared), rng.randint(-4, 4) or 1)
                 for _ in range(rng.randint(1, 3))]
        e = SymbolExpr.of(*[(x, y) for x, y, _ in terms], multiplicities=[m for _, _, m in terms])
        real, two, odd_map = oracles.moore_by_definition(e.terms)
        assert lambda_tate(e) == K2QClass.make(two, odd_map)
        assert moore_map(e) == MooreVector.make(real, two, odd_map)
    # Hasse invariants and discriminant of diagonal forms of rank 2..6
    for rank in range(2, 7):
        for _ in range(25):
            shared = rng.choice(odd[:10])
            entries = [_oracle_rational(rng, shared) if rng.random() < 0.3
                       else Fraction(rng.choice((1, -1)) * rng.randint(1, 50) * shared ** rng.randint(0, 2))
                       for _ in range(rank)]
            inv = invariants(DiagForm.of(*entries))
            hasse = oracles.hasse_by_definition(entries)
            assert [(v.p, s) for v, s in inv.hasse] == list(hasse.items()), entries
            square = math.prod(entries) * inv.disc  # a positive rational square
            assert square > 0 and all(math.isqrt(n) ** 2 == n for n in (square.numerator, square.denominator))
