"""Tests for the exact-arithmetic substrate."""
import ast
import operator
import random
import re
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from k2sym import arith, charpforms
from k2sym.arith import (
    FACTOR_BOUND,
    FACTOR_BUDGET,
    NEG_INF,
    PRIME_BOUND,
    Poly,
    PolyKernels,
    RatFunc,
    _factor_positive,
    _split,
    bernoulli,
    factorize,
    field,
    generator,
    is_irreducible,
    is_prime,
    irreducibles,
    legendre,
    poly_factor,
    primes_below,
)
from k2sym.charpforms import BiPoly, MultiRatFunc
from k2sym.regnum import CX, GaussRat

import oracles


# -- primality and factorization ---------------------------------------------


def test_is_prime_matches_naive_oracle_below_2000():
    for n in range(2000):
        assert is_prime(n) == oracles.naive_is_prime(n), n


def test_is_prime_at_the_witness_division_bound():
    # below 43^2 the division by 2..41 decides; 2021 = 43 * 47 reaches Miller-Rabin
    assert 43 * 43 == 1849
    assert is_prime(1847) and is_prime(1861)
    assert not is_prime(1849) and not is_prime(2021)


# psi_k, the least strong pseudoprime to the first k prime bases (OEIS A014233)
PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 341550071728321, 3825123056546413051,
       3825123056546413051, 3825123056546413051)


def test_is_prime_refuses_the_least_strong_pseudoprimes_psi_1_to_psi_11():
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for k, psi in enumerate(PSI, 1):
        # psi_k passes the first k bases, and a later one proves it composite
        assert all(oracles.strong_probable_prime(psi, a) for a in bases[:k]), k
        assert not all(oracles.strong_probable_prime(psi, a) for a in bases), k
        assert not is_prime(psi), k


def test_is_prime_sees_through_the_least_strong_pseudoprime_to_bases_below_41():
    # psi_12 passes Miller-Rabin to every base 2..37; base 41 exposes it
    psi12 = 318665857834031151167461
    assert psi12 == 399165290221 * 798330580441
    assert not is_prime(psi12)


def test_is_prime_refuses_inputs_from_its_bound():
    # psi_13 is a strong pseudoprime to every base 2..41: the witnesses stop there
    psi13 = 3317044064679887385961981
    assert psi13 == 1287836182261 * 2575672364521 == PRIME_BOUND
    with pytest.raises(ValueError):
        is_prime(psi13)
    assert not is_prime(psi13 - 4)  # below the bound, and divisible by 3


def test_is_prime_refuses_a_huge_integer_by_its_size():
    # str() of an integer past 4300 digits raises, so the refusal names the
    # bit length rather than the number
    huge = 7**6000
    with pytest.raises(ValueError, match=f"primality beyond the bound {PRIME_BOUND}: an integer of "
                                         f"{huge.bit_length()} bits"):
        is_prime(huge)


def test_primes_below_agrees_with_sieve_oracle():
    ps = primes_below(500)
    assert ps == tuple(n for n in range(500) if oracles.naive_is_prime(n))


def test_factorize_12():
    sign, fac = factorize(12)
    assert sign == 1
    assert fac == ((2, 2), (3, 1))


def test_factorize_negative_rational():
    sign, fac = factorize(Fraction(-9, 10))
    assert sign == -1
    assert fac == ((2, -1), (3, 2), (5, -1))


def test_factorize_large_prime():
    # 999983 is prime by the naive oracle
    assert oracles.naive_is_prime(999983)
    sign, fac = factorize(999983)
    assert sign == 1 and fac == ((999983, 1),)


def test_factorize_zero_rejected():
    with pytest.raises(ValueError):
        factorize(0)


def test_trial_division_holds_the_one_factorization_bound():
    assert _factor_positive(FACTOR_BOUND) == {2: 12, 5: 12}
    # 10^12 + 39 is prime, so each call below would otherwise certify it
    for beyond in (lambda: _factor_positive(FACTOR_BOUND + 1),
                   lambda: factorize(Fraction(1, 10**12 + 39)),
                   lambda: field(10**12 + 39)):
        with pytest.raises(ValueError, match="beyond factorization bound"):
            beyond()


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=10**9), st.integers(min_value=1, max_value=10**6))
def test_factorize_roundtrip(n, d):
    x = Fraction(n, d)
    sign, fac = factorize(x)
    value = Fraction(sign)
    for p, e in fac:
        assert e != 0 and is_prime(p)
        value *= Fraction(p) ** e
    assert value == x
    ps = [p for p, _ in fac]
    assert ps == sorted(set(ps))


def test_factorize_matches_naive_oracle_small():
    for n in range(1, 400):
        _, fac = factorize(n)
        assert dict(fac) == oracles.naive_factor(n)


def test_valuation():
    assert _split(Fraction(12), 2) == (2, 3, 1)
    assert _split(Fraction(9, 10), 5) == (-1, 9, 2)
    assert _split(Fraction(-7), 3) == (0, -7, 1)


# -- legendre symbol ----------------------------------------------------------


def test_legendre_matches_exhaustion_for_p_below_100():
    for p in primes_below(100):
        if p == 2:
            continue
        for a in range(1, p):
            assert legendre(a, p) == oracles.legendre_by_exhaustion(a, p), (a, p)


def test_legendre_of_multiple_of_p():
    assert legendre(14, 7) == 0


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=10**6))
def test_legendre_multiplicative(a, b):
    p = 101
    if a % p == 0 or b % p == 0:
        return
    assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


# -- finite fields ------------------------------------------------------------


def test_field_rejects_non_prime_power():
    with pytest.raises(ValueError):
        field(12)


def test_f4_modulus_is_smallest_irreducible():
    # over F_2 the monic quadratics are T^2, T^2+1, T^2+T, T^2+T+1 and only
    # the last is irreducible
    assert field(4).modulus_coeffs == (1, 1, 1)


def test_f9_modulus():
    assert field(9).modulus_coeffs == (1, 0, 1)  # T^2 + 1, irreducible mod 3


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 25, 27, 49, 121])
def test_field_axioms_sampled(q):
    F = field(q)
    els = list(F.elements())
    for a in els[: min(len(els), 8)]:
        for b in els[: min(len(els), 8)]:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            if b != 0:
                assert F.mul(F.div(a, b), b) == a
    # distributivity spot check
    for a, b, c in [(1, 2 % q, 3 % q), (els[-1], els[1], els[-1])]:
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_generator_examples():
    assert generator(7) == 3  # 2 has order 3 mod 7; 3 is the first generator
    assert generator(2) == 1


def test_generator_has_full_order():
    for q in [3, 4, 5, 7, 9, 11, 13, 25, 27, 121]:
        F = field(q)
        g = generator(q)
        order = oracles.multiplicative_order(g, F.mul, F.one, F.q)
        assert order == F.q - 1, q


def test_generator_is_smallest():
    for q in [5, 7, 9, 11, 13]:
        F = field(q)
        g = generator(q)
        for a in range(1, g):
            order = oracles.multiplicative_order(a, F.mul, F.one, F.q)
            assert order < F.q - 1, (q, a)


PRIME_POWERS_TO_243 = [q for q in range(4, 244) if len(oracles.naive_factor(q)) == 1
                       and not oracles.naive_is_prime(q)]


@pytest.mark.parametrize("q", PRIME_POWERS_TO_243)
def test_tables_match_digit_arithmetic(q):
    (p, k), = oracles.naive_factor(q).items()
    F, D = field(q), oracles.DigitField(p, k)
    assert F.modulus_coeffs == tuple(D.modulus)
    g = generator(F)
    assert oracles.multiplicative_order(g, D.mul, 1, q) == q - 1
    assert all(oracles.multiplicative_order(a, D.mul, 1, q) < q - 1 for a in range(1, g))
    inverses = [None] + [D.inv(b) for b in F.units()]
    log = F._tables[1]
    for a in F.elements():
        assert F.neg(a) == D.neg(a)
        assert D.pow(F.frobenius_root(a), p) == a
        for e in (0, 1, 2, p, q - 2, q - 1, q + 3):
            assert F.pow(a, e) == D.pow(a, e), (a, e)
        if a:
            assert F.inv(a) == inverses[a]
            assert F.pow(a, -3) == D.pow(a, -3)
            assert D.pow(g, log[a]) == a
        for b in F.elements():
            assert F.add(a, b) == D.add(a, b), (a, b)
            assert F.sub(a, b) == D.sub(a, b), (a, b)
            assert F.mul(a, b) == D.mul(a, b), (a, b)
            if b:
                assert F.div(a, b) == D.mul(a, inverses[b]), (a, b)


@pytest.mark.parametrize("q", [2**7, 2**10, 2**16, 3**7, 5**4, 7**3, 31**2, 101**2])
def test_tables_match_doubling_reference(q):
    # p = 2 and odd p, even and odd k, up to 2^16 elements: the packed-digit
    # walk against the numpy matrix-doubling build it replaced
    assert field(q)._tables == oracles.zech_tables_by_doubling(field(q))


@pytest.mark.parametrize("q", [2, 3, 7, 13, 4, 9, 25])
def test_pow_negative_exponents_and_zero_base(q):
    (p, k), = oracles.naive_factor(q).items()
    F, D = field(q), oracles.DigitField(p, k)
    for e in range(-2 * q, 2 * q + 1):
        for a in F.units():
            assert F.pow(a, e) == D.pow(a, e), (a, e)
        if e < 0:
            with pytest.raises(ZeroDivisionError):
                F.pow(0, e)
        else:
            assert F.pow(0, e) == (1 if e == 0 else 0)


def test_prime_power_fields_are_bounded():
    with pytest.raises(ValueError, match="exceeds the bound"):
        field(2**20)
    with pytest.raises(ValueError, match="exceeds the bound"):
        field(1009**2)
    assert field(1000003).mul(2, 500002) == 1  # prime fields have no bound


def test_scanning_a_field_is_bounded():
    F = field(1000003)
    for scan in (F.elements, F.units):
        with pytest.raises(ValueError, match="F_1000003 is too large to scan"):
            scan()
    assert generator(1000003) == 2  # found without a scan of the field
    assert list(field(4).units()) == [1, 2, 3]


# -- polynomials --------------------------------------------------------------


def test_zero_poly_degree_marker():
    F = field(5)
    z = Poly(F, [])
    assert z.degree == NEG_INF
    assert z.degree != -1
    assert (z * Poly.x(F)).degree == NEG_INF


def test_polynomials_over_different_fields_do_not_mix():
    # field(q) is the one object for q, so Poly compares fields by identity
    for q in (5, 25, 1000003):
        assert field(q) is field(q)
    f, g = Poly(field(5), [1, 1]), Poly(field(25), [1, 1])
    for op in (operator.add, operator.mul, operator.mod, Poly.gcd):
        with pytest.raises(ValueError, match="mixed coefficient fields"):
            op(f, g)
    assert Poly(field(5), [1, 1]) != Poly(field(7), [1, 1])
    # equal polynomials hash alike, however they were built
    for F in (field(5), field(25), CX):
        one = Poly.const(F, F.one)
        x = Poly.x(F)
        built = (x + one) * (x - one)
        direct = Poly(F, [F.neg(F.one), F.zero, F.one, F.zero])
        assert built == direct and hash(built) == hash(direct)
        assert len({built, direct, x * x - one}) == 1


def test_poly_divmod_over_gaussian_rationals():
    f = Poly(CX, [GaussRat(1), GaussRat(0), GaussRat(1)])
    g = Poly(CX, [GaussRat(1), GaussRat(1)])
    q, r = f.divmod(g)
    assert q * g + r == f
    assert r.degree < g.degree


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(0, 4), min_size=0, max_size=6),
    st.lists(st.integers(0, 4), min_size=1, max_size=5),
)
def test_poly_divmod_invariant_f5(a, b):
    F = field(5)
    f, g = Poly(F, a), Poly(F, b)
    if g.is_zero():
        return
    q, r = f.divmod(g)
    assert q * g + r == f
    assert r.is_zero() or r.degree < g.degree


FIELDS_TO_81 = [q for q in range(2, 82) if len(oracles.naive_factor(q)) == 1]


@pytest.mark.parametrize("q", FIELDS_TO_81)
def test_poly_kernels_match_schoolbook(q):
    """Poly *, //, %, divmod, pow_mod and gcd over F_q against schoolbook
    arithmetic: on ints mod p for prime q, on DigitField elements for prime
    powers."""
    (p, k), = oracles.naive_factor(q).items()
    F, rng = field(q), random.Random(q)
    if k == 1:
        add, mul, mod, powmod, gcd = (lambda *args, op=op: op(*args, p)
                                      for op in (oracles._poly_add, oracles._poly_mul, oracles._poly_mod,
                                                 oracles._poly_powmod, oracles._poly_gcd))
    else:
        D = oracles.DigitField(p, k)
        add, mul, mod, powmod, gcd = (lambda *args, op=op: op(D, *args)
                                      for op in (oracles.field_poly_add, oracles.field_poly_mul,
                                                 oracles.field_poly_mod, oracles.field_poly_powmod,
                                                 oracles.field_poly_gcd))

    def rand(degree):
        return [rng.randrange(q) for _ in range(degree)] + [rng.randrange(1, q)]

    cases = [(rand(rng.randint(0, 8)), rand(rng.randint(0, 8))) for _ in range(12)]
    cases += [(rand(rng.randint(0, 8)), rand(0)) for _ in range(3)]             # constant divisor
    cases += [(mul(rand(rng.randint(0, 4)), b), b) for b in (rand(rng.randint(1, 4)) for _ in range(3))]
    cases += [(rand(rng.randint(0, 3)), rand(rng.randint(4, 8))) for _ in range(3)]  # lower degree
    cases += [([], rand(rng.randint(0, 8))), ([1, 1], [1, 1])]
    for a, b in cases:
        f, g = Poly(F, a), Poly(F, b)
        assert list((f * g).coeffs) == mul(a, b), (a, b)
        quo, rem = f.divmod(g)
        assert (f // g, f % g) == (quo, rem)
        assert list(rem.coeffs) == mod(a, b), (a, b)
        assert add(mul(list(quo.coeffs), b), list(rem.coeffs)) == a, (a, b)
        for e in (0, 1, rng.randrange(2, 64)):
            assert list(f.pow_mod(e, g).coeffs) == powmod(a, e, b), (a, e, b)
        assert list(f.gcd(g).coeffs) == gcd(a, b), (a, b)
        assert list(g.gcd(f).coeffs) == gcd(b, a), (a, b)   # zero on the other side too
    zero, unit = Poly(F, []), Poly(F, rand(0))
    assert zero.gcd(zero) == zero
    for a in (rand(3), []):
        for e in (0, 5):
            assert Poly(F, a).pow_mod(e, unit) == zero       # everything is 0 mod a unit


@pytest.mark.parametrize("F", [field(5), field(1000003), field(9), field(25), field(8), CX],
                         ids=["5", "1000003", "9", "25", "8", "Q(i)"])
def test_poly_scale_is_coefficientwise_mul(F):
    """poly_scale, inline mod p for prime q and one log addition on the Zech
    tables for prime powers, is F.mul on each coefficient; Poly.scale,
    Poly.monic and the monic gcd run on it."""
    rng = random.Random(f"scale {F}")
    if F is CX:
        elements = _gauss_elements()
    else:
        elements = [rng.randrange(F.q) for _ in range(40)] + [0, F.one, F.q - 1]
    units = [c for c in elements if c != F.zero]
    for _ in range(60):
        a = [rng.choice(elements) for _ in range(rng.randint(0, 6))] + [rng.choice(units)]
        for c in (rng.choice(units), rng.choice(elements), F.one, F.zero):
            expected = F._trim([F.mul(c, x) for x in a])
            assert F.poly_scale(a, c) == expected, (a, c)
            assert Poly(F, a).scale(c).coeffs == tuple(expected)
        monic = Poly(F, a).monic()
        assert monic.is_monic() and monic.scale(a[-1]) == Poly(F, a)
        assert Poly(F, a).gcd(Poly(F, [])) == monic
    assert F.poly_scale([], rng.choice(units)) == []
    assert Poly(F, []).monic() == Poly(F, [])


@pytest.mark.parametrize("F", [field(5), field(9), CX], ids=["F5", "F9", "Q(i)"])
def test_pow_mod_refuses_a_negative_exponent(F):
    m = Poly(F, [F.one, F.zero, F.one])
    with pytest.raises(ValueError, match="negative polynomial power"):
        Poly.x(F).pow_mod(-1, m)


class _BoundedProduct:
    """A multiplicand that fails after a few products, so a power loop that
    never ends on a negative exponent fails fast instead."""

    def __init__(self):
        self.products = 0

    def __mul__(self, other):
        self.products += 1
        assert self.products < 64, "square_and_multiply looped on a negative exponent"
        return self


def test_a_negative_power_is_refused_by_square_and_multiply():
    with pytest.raises(ValueError, match="negative polynomial power"):
        arith.square_and_multiply(_BoundedProduct(), -1, _BoundedProduct())
    # Poly and BiPoly powers run through it and state no check of their own
    for x in (Poly.x(field(5)), Poly.x(field(9)), Poly.x(CX), BiPoly.var_s(3)):
        with pytest.raises(ValueError, match="negative polynomial power"):
            x ** -1


def _gauss_poly(rng, degree):
    """A random polynomial of the given degree over Q(i), small parts."""
    elements = _gauss_elements()
    units = [c for c in elements if c != CX.zero]
    return Poly(CX, [rng.choice(elements) for _ in range(degree)] + [rng.choice(units)])


def test_poly_kernels_over_gaussian_rationals():
    """divmod, pow_mod and gcd over Q(i) on the generic kernels: the
    division identity, pow_mod against a power and one remainder, and a
    monic gcd that divides both inputs, on random pairs and on products
    sharing a factor h."""
    rng = random.Random("Q(i) kernels")
    one = Poly.const(CX, CX.one)
    cases = [(_gauss_poly(rng, rng.randint(0, 5)), _gauss_poly(rng, rng.randint(0, 4)), one) for _ in range(8)]
    for _ in range(6):
        h = _gauss_poly(rng, rng.randint(1, 2))
        cases.append((h * _gauss_poly(rng, rng.randint(0, 3)), h * _gauss_poly(rng, rng.randint(0, 2)), h))
    cases += [(Poly(CX, []), _gauss_poly(rng, 2), one), (_gauss_poly(rng, 1), _gauss_poly(rng, 3), one)]
    for f, g, h in cases:
        q, r = f.divmod(g)
        assert q * g + r == f and r.degree < g.degree, (f, g)
        assert (f // g, f % g) == (q, r)
        for e in (0, 1, rng.randrange(2, 41)):
            assert f.pow_mod(e, g) == (f**e) % g, (f, e, g)
        for d in (f.gcd(g), g.gcd(f)):
            assert d.is_monic() and d.degree >= h.degree, (f, g, d)
            assert (f % d).is_zero() and (g % d).is_zero(), (f, g, d)
    zero = Poly(CX, [])
    assert zero.gcd(zero) == zero


@pytest.mark.parametrize("F", [field(5), field(9), CX], ids=["5", "9", "Q(i)"])
def test_remainder_paths_build_no_quotient(F, monkeypatch):
    """%, pow_mod and gcd over F_q and over Q(i) run on the remainder
    kernel alone; only // and divmod reach the quotient-building division.
    Over F_q the answers are the schoolbook oracle's; over Q(i), those of
    the quotient path taken before it is refused."""
    rng, e = random.Random(repr(F)), 13
    if F is CX:
        h, a, b = (_gauss_poly(rng, d) for d in (2, 5, 3))
        f, g = h * a, h * b
        rem, power, common = f.divmod(g)[1], (f**e).divmod(g)[1], h.monic()
    else:
        D = oracles.DigitField(F.p, F.k)
        h, a, b = ([rng.randrange(F.q) for _ in range(d)] + [1] for d in (2, 5, 3))
        a, b = oracles.field_poly_mul(D, h, a), oracles.field_poly_mul(D, h, b)
        f, g = Poly(F, a), Poly(F, b)
        rem, power, common = (Poly(F, c) for c in (oracles.field_poly_mod(D, a, b),
                                                    oracles.field_poly_powmod(D, a, e, b),
                                                    oracles.field_poly_gcd(D, a, b)))

    def refuse(*args):
        raise AssertionError("quotient built")

    monkeypatch.setattr(PolyKernels, "poly_divmod", refuse)
    monkeypatch.setattr(arith, "_fp_divmod", refuse)
    assert f % g == rem
    assert f.pow_mod(e, g) == power
    assert f.gcd(g) == common
    assert common.degree >= 2                                     # h divides both
    for quotient_path in (lambda: f // g, lambda: f.divmod(g)):
        with pytest.raises(AssertionError, match="quotient built"):
            quotient_path()


def test_irreducibility_examples():
    F2, F3 = field(2), field(3)
    assert is_irreducible(Poly.from_ints(F2, [1, 1, 1]))      # T^2+T+1 over F_2
    assert is_irreducible(Poly.from_ints(F3, [1, 0, 1]))      # T^2+1 over F_3
    assert not is_irreducible(Poly.from_ints(F3, [2, 0, 1]))  # T^2+2 = (T+1)(T+2)


def test_irreducible_matches_trial_division_oracle():
    # brute force: f of degree n is irreducible iff no monic divisor of
    # degree 1..n-1 divides it.  Degree 4 includes the squares of degree-2
    # irreducibles, whose factor sits exactly at the distinct-degree bound n/2.
    for q, degree in [(2, 3), (3, 3), (5, 3), (2, 4), (3, 4), (4, 3), (4, 4)]:
        F = field(q)
        divisors = [Poly(F, [(m // q**i) % q for i in range(d)] + [1])
                    for d in range(1, degree) for m in range(q**d)]
        for n in range(q**degree):
            coeffs = [(n // q**i) % q for i in range(degree)]
            f = Poly(F, coeffs + [1])
            has_divisor = any((f % g).is_zero() for g in divisors)
            assert is_irreducible(f) == (not has_divisor), (q, f)


def test_poly_factor_t2_plus_1_over_f5():
    F = field(5)
    lead, fac = poly_factor(Poly.from_ints(F, [1, 0, 1]))
    assert lead == 1
    assert [(g.coeffs, e) for g, e in fac] == [((2, 1), 1), ((3, 1), 1)]


def test_poly_factor_reconstructs_and_factors_irreducible():
    rng = random.Random(7)
    inputs = []
    for q in [2, 3, 4, 5, 9]:
        F = field(q)
        for _ in range(40):
            f = Poly(F, [rng.randrange(q) for _ in range(rng.randint(1, 7))])
            if not f.is_zero():
                inputs.append(f)
    # non-monic c g^p h^2 over F_4 and F_9: the p-th-root branch and the
    # repeated-factor loop, on factors that arrive monic
    for q in [4, 9]:
        F = field(q)
        irr = [g for d in (1, 2) for g in irreducibles(F, d)]
        for _ in range(12):
            g, h = rng.sample(irr, 2)
            inputs.append(Poly.const(F, rng.randrange(2, q)) * g**F.p * h**2)
    for f in inputs:
        F = f.field
        lead, fac = poly_factor(f)
        prod = Poly.const(F, lead)
        for g, e in fac:
            # a fresh copy, so that the test runs the loop and reads no memo
            assert is_irreducible(Poly(F, g.coeffs)), (F.q, g)
            assert g.is_monic()
            prod = prod * g**e
        assert prod == f, (F.q, f)


def test_poly_factor_with_multiplicity_char2():
    F = field(2)
    f = Poly.from_ints(F, [1, 1, 1]) ** 2 * Poly.from_ints(F, [0, 1]) ** 3
    lead, fac = poly_factor(f)
    assert lead == 1
    assert [(g.coeffs, e) for g, e in fac] == [((0, 1), 3), ((1, 1, 1), 2)]


# -- the factorization memo ---------------------------------------------------

MEMO_FIELDS = (2, 3, 4, 5, 7, 8, 9, 25)


@st.composite
def factor_inputs(draw):
    """A nonzero polynomial of degree 0..12 over one of MEMO_FIELDS."""
    F = field(draw(st.sampled_from(MEMO_FIELDS)))
    coeffs = draw(st.lists(st.integers(0, F.q - 1), min_size=1, max_size=13).filter(any))
    return Poly(F, coeffs)


def memo_objects(f):
    """Every tuple and Poly reachable from f's memo."""
    stack = [f._factors]
    while stack:
        x = stack.pop()
        yield x
        if isinstance(x, tuple):
            stack.extend(x)
        elif isinstance(x, Poly):
            stack.append(x._factors)


@settings(max_examples=200, deadline=None)
@given(factor_inputs())
def test_a_remembered_factorization_is_the_computed_one(f):
    F = f.field
    computed = poly_factor(f)
    assert f.is_constant() or f._factors is not None
    assert poly_factor(f) == computed == poly_factor(Poly(F, f.coeffs))
    lead, fac = computed
    prod = Poly.const(F, lead)
    for g, e in fac:
        prod = prod * g**e
    assert prod == f


@settings(max_examples=200, deadline=None)
@given(factor_inputs())
def test_factors_answer_irreducibility_from_their_memo(f):
    F = f.field
    expected = is_irreducible(Poly(F, f.coeffs))
    _, fac = poly_factor(f)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(arith, "_distinct_degree", lambda *a: pytest.fail("distinct-degree loop ran"))
        assert all(is_irreducible(g) for g, _ in fac)
        assert f.is_constant() or is_irreducible(f) == expected


@settings(max_examples=200, deadline=None)
@given(factor_inputs(), st.booleans())
def test_a_memo_never_refers_to_its_own_poly(f, proven_first):
    if proven_first:
        is_irreducible(f)
    _, fac = poly_factor(f)
    for h in (f, *(g for g, _ in fac)):
        assert all(x is not h for x in memo_objects(h))


def test_a_proof_is_recorded_for_a_monic_input_only():
    F = field(3)
    monic, scaled = Poly.from_ints(F, [1, 0, 1]), Poly.from_ints(F, [2, 0, 2])   # T^2+1, 2(T^2+1)
    assert is_irreducible(monic) and is_irreducible(scaled)
    assert monic._factors is arith._IRREDUCIBLE and scaled._factors is None
    assert poly_factor(monic) == (1, ((monic, 1),))
    assert poly_factor(scaled) == (2, ((monic, 1),))
    assert poly_factor(scaled)[1][0][0].is_monic()


def test_a_linear_input_is_its_own_factorization(monkeypatch):
    # no derivative, gcd or splitting; the fields are built first, since
    # building one tests its modulus for irreducibility
    fields = [field(q) for q in MEMO_FIELDS]
    for name in ("poly_derivative", "poly_gcd"):
        monkeypatch.setattr(arith.PolyKernels, name, lambda *a: pytest.fail(f"{name} ran"))
    monkeypatch.setattr(arith, "_distinct_degree", lambda *a: pytest.fail("distinct-degree loop ran"))
    for F in fields:
        for c in range(F.q):
            assert arith._factor_monic(F, [c, F.one]) == {(c, F.one): 1}


@pytest.mark.parametrize("q", [q for q in FIELDS_TO_81 if q <= 25] + [997])
def test_frobenius_start_is_x_to_the_q(q):
    # degrees n with 2n <= q (from q = 4 on), with n <= q < 2n, and with q < n
    F = field(q)
    rng = random.Random(f"frobenius {q}")
    for n in sorted({2, 3, q // 2 + 1, q + 1}):
        for _ in range(3):
            f = [rng.randrange(q) for _ in range(n)] + [F.one]
            assert arith._frobenius_x(F, f) == F.poly_pow_mod([F.zero, F.one], q, f), (q, n)


@pytest.mark.parametrize("q", [2, 3, 9, 997, 999999999989])
def test_factoring_budget_is_a_degree_per_field(q):
    # the largest degree is FACTOR_BUDGET // q.bit_length(); one degree more
    # is refused by both entry points before any factoring starts
    F = field(q)
    top = FACTOR_BUDGET // q.bit_length()
    assert poly_factor(Poly.x(F) ** top)[1] == ((Poly.x(F), top),)
    assert not is_irreducible(Poly.x(F) ** top)
    over = Poly.x(F) ** (top + 1) + Poly.const(F, 1)
    for entry in (poly_factor, is_irreducible):
        with pytest.raises(ValueError, match=f"^degree {top + 1} is beyond the factoring budget: "
                                             f"over F_{q} at most {top}$"):
            entry(over)


def test_irreducibles_enumeration_counts():
    # number of monic irreducibles of degree 2 over F_q is (q^2 - q)/2
    for q in [2, 3, 5, 7]:
        F = field(q)
        count = sum(1 for _ in irreducibles(F, 2))
        assert count == (q * q - q) // 2


# -- rational functions --------------------------------------------------------


def test_ratfunc_canonical_form():
    F = field(5)
    r = RatFunc(Poly.from_ints(F, [1, 0, 1]), Poly.from_ints(F, [0, 2]))
    assert r.num.coeffs == (3, 0, 3)
    assert r.den.coeffs == (0, 1)
    assert r.den.is_monic()


def test_ratfunc_cancellation():
    F = field(7)
    t = Poly.x(F)
    one = Poly.const(F, 1)
    r = RatFunc((t + one) * (t - one), t + one)
    assert r.num == t - one and r.den == one


def _gauss_elements():
    return [GaussRat(Fraction(a, b), Fraction(c, b)) for a in range(-2, 3) for c in range(-2, 3) for b in (1, 3)]


def test_ratfunc_canonical_form_matches_gcd_path():
    # RatFunc skips the gcd when num or den is constant; the pair must be
    # the one the gcd path gives, over F_2, F_9 and Q(i), with zero and
    # constant numerators and (non-monic) constant denominators among them
    rng = random.Random(71)
    for F, elements in ((field(2), list(range(2))), (field(9), list(range(9))), (CX, _gauss_elements())):
        units = [c for c in elements if c != F.zero]
        shapes = {"zero num": 0, "constant num": 0, "constant den": 0, "non-monic constant den": 0}
        for _ in range(150):
            degrees = [rng.choice((-1, 0, 0, 1, 2, 3)), rng.choice((0, 0, 1, 2, 3))]
            num, den = (Poly(F, [rng.choice(elements) for _ in range(d)] + [rng.choice(units)] * (d >= 0))
                        for d in degrees)
            if rng.random() < 0.3 and not num.is_constant() and not den.is_constant():
                common = Poly(F, [rng.choice(elements), rng.choice(units)])
                num, den = num * common, den * common
            r = RatFunc(num, den)
            assert (r.num, r.den) == oracles.canonical_pair_by_gcd(num, den), (F, num, den)
            shapes["zero num"] += num.is_zero()
            shapes["constant num"] += num.degree == 0
            shapes["constant den"] += den.is_constant()
            shapes["non-monic constant den"] += den.is_constant() and den.lc() != F.one
        if len(units) == 1:  # F_2 has no non-monic constant
            del shapes["non-monic constant den"]
        assert all(shapes.values()), (F, shapes)


def _ratfunc_cases(rng, F, elements):
    """RatFuncs over F: polynomials (den 1), and quotients by a den of
    degree 1 or 2 before canonical form."""
    units = [c for c in elements if c != F.zero]

    def poly(degree):
        return Poly(F, [rng.choice(elements) for _ in range(degree)] + [rng.choice(units)])

    return [RatFunc.from_poly(poly(rng.randint(0, 2))) if k % 2 else
            RatFunc(poly(rng.randint(0, 2)), poly(rng.randint(1, 2))) for k in range(16)]


def _multiratfunc_cases(rng, p):
    def bipoly(degree):
        terms = {(i, j): rng.randrange(p) for i in range(degree + 1) for j in range(degree + 1 - i)}
        terms[(degree, 0)] = rng.randrange(1, p)
        return BiPoly.make(p, terms)

    return [MultiRatFunc.from_poly(bipoly(rng.randint(0, 2))) if k % 2 else
            MultiRatFunc(bipoly(rng.randint(0, 2)), bipoly(rng.randint(1, 2))) for k in range(16)]


def _fraction_domains():
    rng = random.Random(83)
    for q in (5, 9):
        F = field(q)
        yield f"F_{q}(T)", _ratfunc_cases(rng, F, list(range(q))), oracles.canonical_pair_by_gcd
    yield "Q(i)(z)", _ratfunc_cases(rng, CX, _gauss_elements()), oracles.canonical_pair_by_gcd
    for p in (2, 3, 5):
        yield f"F_{p}(s, t)", _multiratfunc_cases(rng, p), oracles.bipoly_pair_by_gcd


FRACTION_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
FRACTION_DOMAINS = ("F_5(T)", "F_9(T)", "Q(i)(z)", "F_2(s, t)", "F_3(s, t)", "F_5(s, t)")


@pytest.mark.parametrize("name", FRACTION_DOMAINS)
def test_fraction_operations_match_cross_products(name):
    # the fast paths for constant denominators and the trusted results of
    # -x and x^e give the pairs of the generic cross-product formula
    # followed by a gcd, whichever side has den 1.  The cases are built
    # here, not at import, so that a fault in a field's tables fails these
    # tests instead of the collection of the whole module
    cases, canonical = next((c, k) for n, c, k in _fraction_domains() if n == name)
    shapes = set()
    for x in cases:
        assert (-x).num == -x.num and (-x).den == x.den
        for e in (0, 1, 2, -1, -2):
            if e < 0 and x.is_zero():
                continue
            pair = (x.num**e, x.den**e) if e >= 0 else (x.den ** -e, x.num ** -e)
            assert ((x**e).num, (x**e).den) == canonical(*pair), (name, x, e)
        for y in cases:
            shapes.add((x.den.is_constant(), y.den.is_constant()))
            for op, apply in FRACTION_OPS.items():
                if op == "/" and y.is_zero():
                    continue
                z = apply(x, y)
                assert (z.num, z.den) == oracles.fraction_op_by_cross_products(op, x, y, canonical), (name, x, op, y)
    assert shapes == {(True, True), (True, False), (False, True), (False, False)}


def test_no_gcd_against_a_constant(monkeypatch):
    # a nonzero constant is coprime to everything: PolyFraction takes no
    # gcd when num or den is constant, for RatFunc and MultiRatFunc alike
    def refuse(*args):
        raise AssertionError("gcd against a constant")

    F, p = field(9), 3
    T = Poly.x(F)
    s, t = BiPoly.var_s(p), BiPoly.var_t(p)
    f = T * T + Poly.const(F, 2) * T + Poly.const(F, 3)
    h = s * t + s * s + BiPoly.const(p, 2)  # irreducible
    monkeypatch.setattr(Poly, "gcd", refuse)
    monkeypatch.setattr(charpforms, "bipoly_gcd", refuse)
    for num, den, one, cls in ((f, Poly.const(F, 4), Poly.const(F, 1), RatFunc),
                               (h, BiPoly.const(p, 2), BiPoly.const(p, 1), MultiRatFunc)):
        with pytest.raises(AssertionError):  # the patches are live
            cls(num, num)
        x = cls(num, den)  # constant den
        y = cls(den, num)  # constant num
        z = cls.from_poly(num * num)
        assert x.den == one and not y.den.is_constant()
        for w in (x + z, x - z, x * z, x / y, -y, y**3, z**-1, cls(num - num, num), x / cls.from_poly(den)):
            assert w.num.is_constant() or w.den.is_constant()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 6), min_size=1, max_size=4),
    st.lists(st.integers(0, 6), min_size=1, max_size=4),
    st.lists(st.integers(0, 6), min_size=1, max_size=4),
)
def test_ratfunc_field_ops(a, b, c):
    F = field(7)
    pa, pb, pc = Poly(F, a), Poly(F, b), Poly(F, c)
    if pb.is_zero() or pc.is_zero():
        return
    x = RatFunc(pa, pb)
    y = RatFunc(pb, pc)
    assert (x + y) - y == x
    if not y.is_zero():
        assert (x / y) * y == x


# -- bernoulli -----------------------------------------------------------------


def test_bernoulli_examples():
    assert bernoulli(0) == 1
    assert bernoulli(2) == Fraction(1, 6)
    assert -bernoulli(2) / 2 == Fraction(-1, 12)


def test_bernoulli_against_literature_table():
    for n, v in oracles.bernoulli_table().items():
        assert bernoulli(n) == v, n


def test_bernoulli_defining_sum():
    # sum_{j=0}^{n} C(n+1, j) B_j = 0 for n >= 1
    for n in range(1, 33):
        s = sum(comb(n + 1, j) * bernoulli(j) for j in range(n + 1))
        assert s == 0, n


def test_bernoulli_odd_vanishing():
    for n in range(3, 33, 2):
        assert bernoulli(n) == 0


# -- source hygiene --------------------------------------------------------------


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads (pyflakes' check, by ast)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_no_unused_imports():
    assert unused_imports("import os\nfrom math import comb, gcd\nprint(gcd)\n") == [
        "os (line 1)", "comb (line 2)"]
    package = Path(__file__).resolve().parent.parent / "src" / "k2sym"
    modules = sorted(path for path in package.glob("*.py") if path.name != "__init__.py")
    assert modules
    unused = {path.name: unused_imports(path.read_text()) for path in modules}
    assert {name: names for name, names in unused.items() if names} == {}


DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _names(node) -> list[str]:
    """The identifiers node itself names: as a variable, an attribute or an
    import, or inside a dotted-name string such as the benchmark tracer's
    "Fq.mul"."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.alias):
        return [node.name.split(".")[-1]]
    if isinstance(node, ast.Constant) and isinstance(node.value, str) and DOTTED_NAME.fullmatch(node.value):
        return node.value.split(".")
    return []


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _bodies(node, owner: set, out: list) -> None:
    """Add to owner the names that node's own code mentions, and to out a
    (definition, names) pair for each function, class and method under it.
    A dunder method is code of its class, not a definition of its own."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            continue  # not a use: test_no_unused_imports sees each import read
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)) and not _is_dunder(child.name):
            names: set = set()
            out.append((child.name, names))
            _bodies(child, names, out)
        else:
            owner.update(_names(child))
            _bodies(child, owner, out)


def unreachable_definitions(defining: dict[str, ast.AST], others: list[ast.AST]) -> list[tuple[str, str]]:
    """(module, name) of each function, class and method of the defining
    modules (dunders aside) that the roots do not reach.  The roots are
    main (cli.main, the console script), every name module-level code
    mentions, and every name in others.  Reaching a name reaches each
    definition of it, and with it every name that definition's body
    mentions."""
    reached, todo, found = set(), ["main"], []
    for module, tree in defining.items():
        top: set = set()
        definitions: list = []
        _bodies(tree, top, definitions)
        todo += top
        found += [(module, name, names) for name, names in definitions]
    for tree in others:
        todo += [name for node in ast.walk(tree) for name in _names(node)]
    bodies: dict[str, list] = {}
    for _, name, names in found:
        bodies.setdefault(name, []).append(names)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for names in bodies.get(name, ()):
                todo += names
    return [(module, name) for module, name, _ in found if name not in reached]


# Definitions that only tests reach, each with a test function that needs it.
TEST_ONLY = {
    # d on functions, the test vocabulary for exact forms: B1 is its image
    "d0": "test_charpforms.py::test_d1_after_d0_is_zero",
    # the tests' spelling of a polynomial over F_q by integer coefficients
    "from_ints": "test_arith.py::test_irreducibility_examples",
    # the monomial bound of the linear-algebra oracles for B1 and B2
    "total_degree": "test_charpforms.py::oracle_in_B2",
}


def test_no_unused_definitions():
    toy = ast.parse("def used(): pass\ndef dead(n): return dead(n - 1)\n"
                    "class A:\n    def __init__(self): pass\n    def m(self): return A\n"
                    "def a(): return b()\ndef b(): return a()\n"
                    "TABLE = ('A.m',)\nused()\n")
    assert unreachable_definitions({"toy": toy}, []) == [("toy", "dead"), ("toy", "a"), ("toy", "b")]
    root = Path(__file__).resolve().parent.parent
    package = root / "src" / "k2sym"
    defining = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))
                if path.name != "__init__.py"}
    sources = [package / "__init__.py", *sorted(root.glob("scripts/*.py")), *sorted(root.glob("benchmarks/*.py"))]
    others = [ast.parse(path.read_text()) for path in sources]
    assert len(defining) > 1 and others
    names = {name for _, name in unreachable_definitions(defining, others)}
    assert sorted(names) == sorted(TEST_ONLY)
    for name, where in TEST_ONLY.items():
        test_file, function = where.split("::")
        tree = ast.parse((root / "tests" / test_file).read_text())
        node = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == function)
        assert name in {n for sub in ast.walk(node) for n in _names(sub)}, where
