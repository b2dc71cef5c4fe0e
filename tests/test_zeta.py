"""Tests for curve zeta values and the w2 product over Q."""
import random
import time
from fractions import Fraction
from math import gcd

import pytest

from k2sym.zeta import (
    BirchTate,
    CurveFq,
    LPoly,
    birch_tate_Q,
    count_points,
    l_polynomial,
    tate_identity,
    w2_of_Q,
    w2_witness,
    zeta_minus1,
)
from oracles import bernoulli_table


def naive_count_prime_field(p, a, b):
    """Projective point count over F_p by direct congruence testing."""
    n = 1
    for x in range(p):
        rhs = (x * x * x + a * x + b) % p
        for y in range(p):
            if y * y % p == rhs:
                n += 1
    return n


def naive_count_quadratic_ext(p, a, b):
    """Count over F_{p^2} modeled as F_p[w]/(w^2 - d), d a nonresidue.

    Independent of the package's field tower: the count is an isomorphism
    invariant, so any concrete model of F_{p^2} must agree.
    """
    d = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)

    def mul(u, v):
        return ((u[0] * v[0] + d * u[1] * v[1]) % p, (u[0] * v[1] + u[1] * v[0]) % p)

    def add(u, v):
        return ((u[0] + v[0]) % p, (u[1] + v[1]) % p)

    elems = [(i, j) for i in range(p) for j in range(p)]
    squares: dict = {}
    for y in elems:
        s = mul(y, y)
        squares[s] = squares.get(s, 0) + 1
    av, bv = (a % p, 0), (b % p, 0)
    n = 1
    for x in elems:
        rhs = add(add(mul(mul(x, x), x), mul(av, x)), bv)
        n += squares.get(rhs, 0)
    return n


def some_curves(p, how_many, seed=7):
    rng = random.Random(seed)
    out = []
    while len(out) < how_many:
        a, b = rng.randrange(p), rng.randrange(p)
        try:
            out.append(CurveFq.elliptic(p, a, b))
        except ValueError:
            continue
    return out


def test_curve_validation():
    with pytest.raises(ValueError):
        CurveFq.elliptic(5, 0, 0)  # singular
    with pytest.raises(ValueError):
        CurveFq.elliptic(5, 3, 1)  # 4*27 + 27 = 135 = 0 mod 5
    with pytest.raises(ValueError):
        CurveFq.elliptic(3, 1, 1)  # p too small
    with pytest.raises(ValueError):
        CurveFq.elliptic(9, 1, 1)  # not prime
    with pytest.raises(ValueError):
        CurveFq.projective_line(6)
    with pytest.raises(ValueError):
        CurveFq(5, "hyperelliptic")
    assert CurveFq.projective_line(9).genus == 0
    assert CurveFq.elliptic(5, 1, 1).genus == 1


def test_projective_line_counts():
    line = CurveFq.projective_line(5)
    assert [count_points(line, n) for n in (1, 2, 3)] == [6, 26, 126]
    assert count_points(CurveFq.projective_line(9)) == 10
    assert count_points(CurveFq.projective_line(4), 2) == 17


def test_count_refuses_oversized_extension():
    with pytest.raises(ValueError):
        count_points(CurveFq.projective_line(101), 3)
    with pytest.raises(ValueError):
        count_points(CurveFq.elliptic(1009, 1, 1), 2)
    with pytest.raises(ValueError):
        count_points(CurveFq.projective_line(5), 0)


def test_count_refuses_a_huge_extension_before_building_it():
    # 5^(10^7) alone takes seconds to build, and has no decimal string
    start = time.perf_counter()
    with pytest.raises(ValueError, match="too large to scan: q exceeds the bound"):
        count_points(CurveFq.projective_line(5), 10**7)
    assert time.perf_counter() - start < 0.1
    # the smallest degree refused for q = 2: 2^20 > FIELD_LIMIT >= 2^19
    with pytest.raises(ValueError, match="too large to scan"):
        count_points(CurveFq.projective_line(2), 20)


def test_elliptic_count_matches_naive_oracle():
    for p in (5, 7, 11, 13):
        for c in some_curves(p, 4, seed=p):
            assert count_points(c, 1) == naive_count_prime_field(p, c.a, c.b)
            assert count_points(c, 2) == naive_count_quadratic_ext(p, c.a, c.b)


def test_l_polynomial_frozen_example():
    L = l_polynomial(CurveFq.elliptic(5, 1, 1))
    assert L.coeffs == (1, 3, 5)
    assert L.trace == -3
    assert L.evaluate(1) == 9  # N1 = P(1)


def test_supersingular_curve_exists_over_f5():
    found = None
    for a in range(5):
        for b in range(5):
            try:
                c = CurveFq.elliptic(5, a, b)
            except ValueError:
                continue
            if l_polynomial(c).trace == 0:
                found = l_polynomial(c)
                break
        if found:
            break
    assert found is not None
    assert found.coeffs == (1, 0, 5)


def test_hasse_bound_all_curves_over_f7():
    for a in range(7):
        for b in range(7):
            try:
                c = CurveFq.elliptic(7, a, b)
            except ValueError:
                continue
            t = l_polynomial(c).trace
            assert t * t <= 4 * 7


def test_zeta_value_frozen():
    assert zeta_minus1(CurveFq.elliptic(5, 1, 1)) == Fraction(141, 96)
    assert zeta_minus1(CurveFq.projective_line(2)) == Fraction(1, 3)


def test_genus_zero_identity_all_q():
    for q in (2, 3, 4, 5, 7, 9):
        t = tate_identity(CurveFq.projective_line(q))
        assert t.holds
        assert t.lhs == 1 == t.rhs
        assert t.genus == 0


def test_genus_one_identity_sample():
    for p in (5, 7, 11, 13):
        for c in some_curves(p, 5, seed=100 + p):
            t = tate_identity(c)
            assert t.holds
            # both routes: trace formula and zeta evaluation
            assert t.lhs == 1 - p * t.trace + p**3
            assert t.rhs == (p * p - 1) * t.zeta_value * (p - 1)


def test_lpoly_evaluate_and_degree():
    L = LPoly((1, -2, 7))
    assert L.degree == 2
    assert L.evaluate(3) == 1 - 6 + 63
    assert LPoly((1,)).trace == 0


def test_w2_value_and_witnesses():
    assert w2_of_Q() == 24
    assert w2_witness(48) == 5
    assert w2_witness(24) is None
    for m in range(1, 201):
        wit = w2_witness(m)
        if 24 % m == 0:
            assert wit is None, m
        else:
            assert wit is not None, m
            assert gcd(wit, m) == 1 and wit * wit % m != 1


def test_birch_tate_record():
    bt = birch_tate_Q()
    assert isinstance(bt, BirchTate)
    assert bt.w2 == 24
    assert bt.zeta_value == Fraction(-1, 12)
    assert bt.zeta_value == -bernoulli_table()[2] / 2
    assert bt.product == 2
    assert bt.known_order == 2
    assert bt.consistent
