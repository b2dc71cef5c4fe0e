"""Tests for quadratic form invariants and conic/quaternion decisions."""
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k2sym import arith
from k2sym.arith import FACTOR_BOUND
from k2sym.localsym import REAL, PlaceQ, hilbert, support_places
from k2sym.quadforms import (
    ConicCertificate,
    DiagForm,
    GramMatrix,
    conic_point_search,
    conic_solvable_Q,
    diagonalize,
    diagonalize_with_basis,
    equivalent_over_Q,
    invariants,
    pfister_hasse_identity,
    quaternion_splits,
    square_class,
)

import oracles


# -- diagonalization ---------------------------------------------------------------


def test_diagonalize_identity():
    assert diagonalize(GramMatrix.of([[1, 0], [0, 1]])).entries == (1, 1)


def test_diagonalize_hyperbolic_plane():
    # both diagonal entries vanish, so the sum/difference repair kicks in
    assert diagonalize(GramMatrix.of([[0, 1], [1, 0]])).entries == (2, -2)


def test_diagonalize_complete_square():
    assert diagonalize(GramMatrix.of([[1, 1], [1, 2]])).entries == (1, 1)


def test_diagonalize_congruence_relation():
    rng = random.Random(71)
    for _ in range(150):
        n = rng.randint(1, 4)
        M = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                M[i][j] = M[j][i] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        g = GramMatrix(tuple(tuple(row) for row in M))
        det = oracles.fraction_det([list(r) for r in g.rows])
        if det == 0:
            with pytest.raises(ValueError):
                diagonalize(g)
            continue
        form, U = diagonalize_with_basis(g)
        # recompute U^T g U from scratch
        n_ = g.n
        prod = [
            [
                sum(U[a][i] * g.rows[a][b] * U[b][j] for a in range(n_) for b in range(n_))
                for j in range(n_)
            ]
            for i in range(n_)
        ]
        for i in range(n_):
            for j in range(n_):
                assert prod[i][j] == (form.entries[i] if i == j else 0)


def test_diagonalize_matches_the_elementary_matrix_oracle():
    """The in-place substitutions give exactly the (form, U) of the former
    elementary-matrix steps: on zero pivots, on an all-zero trailing
    diagonal (the hyperbolic repair), and on singular matrices, which
    both refuse."""
    rng = random.Random(90)
    regular = singular = hyperbolic = 0
    for trial in range(450):
        n = rng.randint(1, 6)
        M = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if rng.random() < 0.7:
                    M[i][j] = M[j][i] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        if trial % 3 == 0:
            for i in range(rng.randrange(n), n):
                M[i][i] = Fraction(0)
        g = GramMatrix(tuple(tuple(row) for row in M))
        try:
            expected = oracles.diagonalize_by_elementary_matrices(g.rows)
        except ValueError:
            singular += 1
            with pytest.raises(ValueError, match="singular matrix"):
                diagonalize_with_basis(g)
            continue
        form, U = diagonalize_with_basis(g)
        assert (form.entries, U) == expected
        regular += 1
        hyperbolic += all(M[i][i] == 0 for i in range(n))
    assert regular >= 300 and singular >= 50 and hyperbolic >= 30


def test_diagonalize_rejects_singular():
    with pytest.raises(ValueError):
        diagonalize(GramMatrix.of([[1, 1], [1, 1]]))
    with pytest.raises(ValueError):
        diagonalize(GramMatrix.of([[0, 0], [0, 3]]))


def test_gram_matrix_validation():
    with pytest.raises(ValueError):
        GramMatrix.of([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        GramMatrix.of([[1, 2, 3], [2, 1, 1]])


# -- square classes and invariants ------------------------------------------------


def test_square_class_examples():
    assert square_class(12) == 3
    assert square_class(8) == 2
    assert square_class(1) == 1
    assert square_class(-1) == -1
    assert square_class(Fraction(-9, 10)) == -10
    assert square_class(Fraction(4, 9)) == 1


@given(st.integers(-300, 300).filter(lambda n: n != 0), st.integers(1, 17))
def test_square_class_invariance(n, t):
    assert square_class(Fraction(n) * t * t) == square_class(n)
    assert square_class(Fraction(n, t * t)) == square_class(n)


def test_square_class_matches_the_factor_loop():
    rng = random.Random(91)
    for _ in range(600):
        parts = [rng.randint(1, 10 ** rng.randint(1, 12)) for _ in range(2)]
        if rng.random() < 0.3:
            t = rng.randint(2, 999)
            parts = [min(p * t * t, FACTOR_BOUND) for p in parts]
        r = Fraction(rng.choice((1, -1)) * parts[0], parts[1])
        assert square_class(r) == oracles.square_class_by_factoring(r), r
    with pytest.raises(ValueError, match="zero has no square class"):
        square_class(0)


def test_invariants_hyperbolic():
    inv = invariants(DiagForm.of(1, -1))
    assert inv.rank == 2
    assert inv.disc == -1
    assert inv.signature == (1, 1)
    assert inv.hasse_minus_set() == frozenset()


def test_invariants_sum_of_two_negative_squares():
    inv = invariants(DiagForm.of(-1, -1))
    assert inv.hasse_at(REAL) == -1
    assert inv.signature == (0, 2)


def test_invariants_rank_one_empty_product():
    inv = invariants(DiagForm.of(Fraction(3, 7)))
    assert inv.hasse_minus_set() == frozenset()
    assert inv.disc == 21  # 3/7 ~ 21


def test_invariants_of_large_prime_entries():
    # the product of the entries is beyond the factorization bound
    inv = invariants(DiagForm.of(999983, 999979, 999961))
    assert inv.disc == 999983 * 999979 * 999961
    assert inv.signature == (3, 0)
    assert math.prod(s for _, s in inv.hasse) == 1
    for entries in [(-2, Fraction(3, 8), 6), (-1, -5, Fraction(-7, 5)), (12, Fraction(1, 3))]:
        assert invariants(DiagForm.of(*entries)).disc == square_class(math.prod(entries))


def test_hasse_product_formula():
    rng = random.Random(73)
    for _ in range(60):
        entries = []
        for _ in range(rng.randint(1, 4)):
            a = Fraction(rng.choice([n for n in range(-30, 31) if n]), rng.randint(1, 6))
            entries.append(a)
        inv = invariants(DiagForm(tuple(entries)))
        prod = 1
        for _, s in inv.hasse:
            prod *= s
        assert prod == 1


def test_equivalence_examples():
    assert equivalent_over_Q(DiagForm.of(1, -1), DiagForm.of(2, -2))
    assert not equivalent_over_Q(DiagForm.of(1, 1), DiagForm.of(1, -1))


def test_equivalence_square_scaling_and_permutation():
    rng = random.Random(79)
    for _ in range(40):
        entries = tuple(
            Fraction(rng.choice([n for n in range(-20, 21) if n]), rng.randint(1, 5))
            for _ in range(rng.randint(2, 4))
        )
        f = DiagForm(entries)
        scaled = DiagForm(tuple(a * rng.randint(1, 7) ** 2 for a in entries))
        shuffled = list(entries)
        rng.shuffle(shuffled)
        assert equivalent_over_Q(f, scaled)
        assert equivalent_over_Q(f, DiagForm(tuple(shuffled)))


def test_diagonalizations_of_same_matrix_are_equivalent():
    g = GramMatrix.of([[0, 1], [1, 0]])
    assert equivalent_over_Q(diagonalize(g), DiagForm.of(1, -1))


# -- conics ------------------------------------------------------------------------


def test_conic_2_3_fails_at_2_and_3():
    ok, cert = conic_solvable_Q(2, 3)
    assert not ok
    assert {v.p for v in cert.failing} == {2, 3}
    tested_places = {v for v, _ in cert.tested}
    assert tested_places == set(support_places(Fraction(2), Fraction(3)))


def test_conic_negative_definite_fails_at_real_and_2():
    ok, cert = conic_solvable_Q(-1, -1)
    assert not ok
    assert REAL in cert.failing and PlaceQ(2) in cert.failing


def test_conic_trivial_coefficient():
    ok, _ = conic_solvable_Q(1, Fraction(17, 5))
    assert ok


def test_conic_rejects_zero():
    with pytest.raises(ValueError):
        conic_solvable_Q(0, 3)


def test_point_search_finds_unit_point():
    assert conic_point_search(1, 1, 10**4) == (1, 0)


def test_every_entry_point_refuses_zero_with_one_message():
    # the symbols' own message, and before the height bound is read
    for x, y in ((0, 1), (1, 0)):
        for call in (lambda: conic_solvable_Q(x, y), lambda: conic_point_search(x, y, 0),
                     lambda: quaternion_splits(x, y), lambda: quaternion_splits(x, y, PlaceQ(3)),
                     lambda: pfister_hasse_identity(x, y, REAL)):
            with pytest.raises(ValueError, match="symbols are defined on nonzero arguments only"):
                call()


def test_point_search_refuses_a_height_bound_below_1():
    # checked before the symbols, so a solvable conic with no search rounds
    # does not answer None
    with pytest.raises(ValueError, match="height bound"):
        conic_point_search(1, 1, 0)


def test_point_search_pell_like():
    pt = conic_point_search(5, -1, 10**4)
    assert pt is not None
    R, S = pt
    assert 5 * R * R - S * S == 1


def test_point_search_obstructed():
    assert conic_point_search(2, 3, 10**4) is None
    assert conic_point_search(-8, -9, 10**4) is None


def test_point_search_fractional_coefficients():
    # square factors and odd negative exponents in the coefficients
    for x, y in [(Fraction(5, 4), Fraction(-1, 9)), (Fraction(12, 25), Fraction(-18, 49)),
                 (Fraction(45, 8), Fraction(-5, 27)), (Fraction(1, 8), Fraction(-18, 49)),
                 (Fraction(45, 8), Fraction(45, 8)), (Fraction(1, 8), Fraction(1, 8))]:
        pt = conic_point_search(x, y, 10**4)
        assert pt is not None and x * pt[0] ** 2 + y * pt[1] ** 2 == 1, (x, y)


def test_point_search_agrees_with_symbols_small_range():
    # the full |x|,|y| <= 30 sweep lives in the acceptance suite
    for x in range(-12, 13):
        for y in range(-12, 13):
            if x == 0 or y == 0:
                continue
            solvable, _ = conic_solvable_Q(x, y)
            pt = conic_point_search(x, y, 10**4)
            assert solvable == (pt is not None), (x, y, pt)
            if pt is not None:
                R, S = pt
                assert x * R * R + y * S * S == 1


def test_conic_symbols_match_the_congruence_oracle():
    # the Hilbert symbols decide the conic; a conic is blocked exactly when
    # some p of its squarefree parts (2 included) admits no primitive
    # solution mod p^4, or both coefficients are negative.  The fractions
    # have square factors and odd negative exponents, which the integer
    # grid of the acceptance suite does not cover; n/d has the square class
    # of n d
    rng = random.Random(83)
    pairs = [(rng.choice([n for n in range(-30, 31) if n]), rng.choice([n for n in range(-30, 31) if n]))
             for _ in range(50)]
    fractions = [Fraction(12, 25), Fraction(-18, 49), Fraction(45, 8), Fraction(1, 8),
                 Fraction(7, 3), Fraction(-5, 27), Fraction(-2, 7), Fraction(20, 3)]
    pairs += [(x, y) for x in fractions for y in fractions]
    for x, y in pairs:
        xi, yi = (Fraction(c).numerator * Fraction(c).denominator for c in (x, y))
        xs, ys = oracles.squarefree_part(xi), oracles.squarefree_part(yi)
        oracle_blocked = (xs < 0 and ys < 0) or any(
            oracles.conic_primitive_count(xi, yi, p, 4) == 0
            for p in sorted({2, *oracles.naive_factor(abs(xs * ys))})
        )
        assert conic_solvable_Q(x, y)[0] == (not oracle_blocked), (x, y)


def test_point_search_factors_each_coefficient_once(monkeypatch):
    # the decision and the square scales read the same two records
    calls, factorize = [], arith.factorize

    def counted(x):
        calls.append(x)
        return factorize(x)

    for name, module in list(sys.modules.items()):
        if name.startswith("k2sym") and getattr(module, "factorize", None) is factorize:
            monkeypatch.setattr(module, "factorize", counted)
    assert conic_point_search(5, -1, 10**4) is not None
    assert len(calls) == 2
    calls.clear()
    assert conic_point_search(2, 3, 10**4) is None
    assert len(calls) == 2


def test_never_exactly_one_failing_place():
    rng = random.Random(89)
    for _ in range(500):
        x = Fraction(rng.randint(-200, 200) or 1, rng.randint(1, 40))
        y = Fraction(rng.randint(-200, 200) or 1, rng.randint(1, 40))
        _, cert = conic_solvable_Q(x, y)  # raises RuntimeError on violation
        assert len(cert.failing) != 1


# -- quaternions and the rank-4 identity --------------------------------------------


def test_hamilton_quaternions_ramified_at_real():
    assert not quaternion_splits(-1, -1, REAL)
    assert not quaternion_splits(-1, -1)


def test_split_quaternion():
    assert quaternion_splits(1, 17)
    assert quaternion_splits(1, 17, PlaceQ(17))
    assert not quaternion_splits(2, 3)


def test_quaternion_matches_conic_locally():
    rng = random.Random(97)
    for _ in range(60):
        x = rng.choice([n for n in range(-25, 26) if n])
        y = rng.choice([n for n in range(-25, 26) if n])
        solvable, cert = conic_solvable_Q(x, y)
        assert quaternion_splits(x, y) == solvable
        for v, s in cert.tested:
            assert quaternion_splits(x, y, v) == (s == 1)


def test_pfister_identity_hand_values():
    # at the real place with x = y = -1: hasse(<1,1,1,1>) = +1, and
    # +1 * (-1,-1)_Real = -1 = (x,y)_Real
    assert pfister_hasse_identity(-1, -1, REAL)
    assert pfister_hasse_identity(2, 3, PlaceQ(2))


def test_pfister_identity_steinberg_pairs():
    for x in [Fraction(n, 7) for n in range(-20, 21) if n not in (0, 7)]:
        for v in support_places(x, 1 - x):
            assert pfister_hasse_identity(x, 1 - x, v)


def test_pfister_identity_sweep():
    # |x|,|y| <= 20 here; the acceptance suite pushes to 50
    for x in range(-20, 21):
        for y in range(-20, 21):
            if x == 0 or y == 0:
                continue
            for v in support_places(Fraction(x), Fraction(y)):
                assert pfister_hasse_identity(x, y, v), (x, y, v)


@settings(max_examples=60)
@given(
    st.fractions(min_value=-50, max_value=50, max_denominator=60).filter(lambda q: q != 0),
    st.fractions(min_value=-50, max_value=50, max_denominator=60).filter(lambda q: q != 0),
)
def test_pfister_identity_fractions(x, y):
    for v in support_places(x, y):
        assert pfister_hasse_identity(x, y, v)
