"""Tests for differential forms and the Cartier operator over F_p(s, t)."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k2sym.charpforms import (
    BiPoly,
    Form0,
    Form1,
    Form2,
    MultiRatFunc,
    bipoly_gcd,
    cartier1,
    cartier2,
    d0,
    d1,
    dlog1,
    dlog2,
    in_B1,
    in_B2,
    nu_member,
)
from oracles import exact_div_greedy, in_span_mod_p


def mk(p, coeffs):
    return BiPoly.make(p, coeffs)


def sv(p):
    return MultiRatFunc.from_poly(BiPoly.var_s(p))


def tv(p):
    return MultiRatFunc.from_poly(BiPoly.var_t(p))


def const(p, c):
    return MultiRatFunc.from_poly(BiPoly.const(p, c))


def one(p):
    return const(p, 1)


def random_bipoly(rng, p, deg, allow_zero=False):
    while True:
        coeffs = {}
        for i in range(deg + 1):
            for j in range(deg + 1 - i):
                coeffs[(i, j)] = rng.randrange(p)
        f = BiPoly.make(p, coeffs)
        if allow_zero or not f.is_zero():
            return f


def random_mrf(rng, p, deg, allow_zero=False):
    num = random_bipoly(rng, p, deg, allow_zero=allow_zero)
    den = random_bipoly(rng, p, deg)
    return MultiRatFunc(num, den)


# -- antiderivative oracle: exactness by linear algebra over F_p ----------------
#
# For polynomial forms, exactness with a rational antiderivative forces a
# polynomial antiderivative of degree at most one higher (integrate monomial
# by monomial; the obstructions are exactly the monomials the Cartier rule
# keeps).  That makes exactness a finite F_p linear system.


def _monomials(bound):
    return [(i, j) for i in range(bound + 1) for j in range(bound + 1 - i)]


def _vec(f: BiPoly, basis_index):
    v = [0] * len(basis_index)
    for ij, c in f.terms:
        v[basis_index[ij]] = c
    return v


def oracle_in_B2(h: BiPoly) -> bool:
    """Is h ds^dt = d1(f ds + g dt) solvable with f, g polynomials?"""
    p = h.p
    d = max(h.total_degree(), 0)
    target_basis = {ij: k for k, ij in enumerate(_monomials(d))}
    rows = []
    for i, j in _monomials(d + 1):
        m = mk(p, {(i, j): 1})
        rows.append(_vec(m.derivative_s(), target_basis))   # g contribution
        rows.append(_vec(-m.derivative_t(), target_basis))  # f contribution
    return in_span_mod_p(rows, _vec(h, target_basis), p)


def oracle_in_B1(f: BiPoly, g: BiPoly) -> bool:
    """Is f ds + g dt = d0(h) solvable with h polynomial?"""
    p = f.p
    d = max(f.total_degree(), g.total_degree(), 0)
    basis = {ij: k for k, ij in enumerate(_monomials(d))}
    n = len(basis)
    rows = []
    for i, j in _monomials(d + 1):
        m = mk(p, {(i, j): 1})
        rows.append(_vec(m.derivative_s(), basis) + _vec(m.derivative_t(), basis))
    target = _vec(f, basis) + _vec(g, basis)
    assert len(target) == 2 * n
    return in_span_mod_p(rows, target, p)


# -- polynomial ring and rational functions -------------------------------------


def test_bipoly_ring_ops():
    rng = random.Random(11)
    for p in (2, 3, 5, 13):
        for _ in range(10):
            a = random_bipoly(rng, p, 3, allow_zero=True)
            b = random_bipoly(rng, p, 3, allow_zero=True)
            c = random_bipoly(rng, p, 2, allow_zero=True)
            assert a + b == b + a
            assert hash(a + b) == hash(b + a)  # equal maps, whatever their order
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert (a - a).is_zero()
            assert a * (b * c) == (a * b) * c


def test_bipoly_pow_matches_repeated_mul():
    p = 5
    f = mk(p, {(1, 0): 1, (0, 1): 2, (0, 0): 3})
    acc = BiPoly.const(p, 1)
    for e in range(6):
        assert f**e == acc
        acc = acc * f


def test_bipoly_validation():
    with pytest.raises(ValueError):
        BiPoly(4, {})
    with pytest.raises(ValueError):
        BiPoly(3, {(0, 0): 5})
    with pytest.raises(ValueError):
        BiPoly(3, {(1, 0): 1, (0, 0): 0})  # a stored coefficient is never 0
    with pytest.raises(ValueError):
        BiPoly.make(3, {(-1, 0): 1})


def test_exact_div_roundtrip():
    rng = random.Random(23)
    for p in (2, 3, 7):
        for _ in range(15):
            a = random_bipoly(rng, p, 3)
            b = random_bipoly(rng, p, 3)
            assert (a * b).exact_div(b) == a
    with pytest.raises(ValueError):
        mk(3, {(1, 0): 1, (0, 0): 1}).exact_div(mk(3, {(0, 1): 1}))
    with pytest.raises(ValueError):  # (s + 1) t / s: the leading row s + 1 leaves 1
        mk(3, {(1, 1): 1, (0, 1): 1}).exact_div(mk(3, {(1, 0): 1}))


@st.composite
def bipolys(draw, p, deg=2):
    """A BiPoly over F_p of total degree at most deg, maybe zero."""
    cells = [(i, j) for i in range(deg + 1) for j in range(deg + 1 - i)]
    return mk(p, {ij: draw(st.integers(0, p - 1)) for ij in cells})


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((2, 3, 5)).flatmap(lambda p: st.tuples(bipolys(p), bipolys(p), bipolys(p, 1))))
def test_exact_div_matches_greedy_reference(polys):
    a, b, c = polys
    if b.is_zero():
        return
    # a product: both return a
    assert (a * b).exact_div(b) == exact_div_greedy(a * b, b) == a
    # a product plus c: a multiple of b exactly when c is, and then both
    # give the same quotient; otherwise both raise
    f = a * b + c
    try:
        expected = exact_div_greedy(f, b)
    except ValueError:
        with pytest.raises(ValueError):
            f.exact_div(b)
    else:
        assert f.exact_div(b) == expected


@st.composite
def forms(draw, p):
    """(w, h): the 1-form f ds + g dt with f and g polynomials over F_p of
    total degree at most 2, and the 2-form h ds^dt with h a quotient of two
    such polynomials."""
    poly = bipolys(p).map(MultiRatFunc.from_poly)
    den = bipolys(p).filter(lambda b: not b.is_zero())
    return Form1(draw(poly), draw(poly)), Form2(MultiRatFunc(draw(bipolys(p)), draw(den)))


def _closed(w: Form1) -> Form1:
    """A closed 1-form made from w: dlog of its ds coefficient (d of it
    when that is 0) plus d of its dt coefficient."""
    f, g = w.ds, w.dt
    return (d0(Form0(f)) if f.is_zero() else dlog1(f)) + d0(Form0(g))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((2, 3, 5)).flatmap(lambda p: st.tuples(forms(p), forms(p))))
def test_d1_and_cartier_are_additive_on_differences(pairs):
    (w1, h1), (w2, h2) = pairs
    assert d1(w1 - w2) == d1(w1) - d1(w2)
    assert d1(-w1) == -d1(w1)
    assert cartier2(h1 - h2) == cartier2(h1) - cartier2(h2)
    z1, z2 = _closed(w1), _closed(w2)
    assert cartier1(z1 - z2) == cartier1(z1) - cartier1(z2)
    assert cartier1(-z1) == -cartier1(z1)


def test_gcd_divides_and_contains_common_factor():
    rng = random.Random(31)
    for p in (2, 3, 5):
        for _ in range(12):
            g = random_bipoly(rng, p, 2)
            a = random_bipoly(rng, p, 2) * g
            b = random_bipoly(rng, p, 2) * g
            d = bipoly_gcd(a, b)
            # d divides both inputs and the common factor divides d
            a.exact_div(d)
            b.exact_div(d)
            lc = g.leading()[1]
            d.exact_div(g.scale(pow(lc, -1, p)))


def test_gcd_coprime_inputs():
    p = 5
    assert bipoly_gcd(mk(p, {(1, 0): 1}), mk(p, {(0, 1): 1})) == BiPoly.const(p, 1)
    f = mk(p, {(2, 0): 1, (0, 0): 1})
    assert bipoly_gcd(f, f) == f  # already grlex-monic


def test_multiratfunc_cancellation():
    p = 7
    s, t = BiPoly.var_s(p), BiPoly.var_t(p)
    # (s^2 - t^2)/(s - t) = s + t
    h = MultiRatFunc(s * s - t * t, s - t)
    assert h == MultiRatFunc.from_poly(s + t)
    assert h.den == BiPoly.const(p, 1)


def test_multiratfunc_field_ops():
    rng = random.Random(47)
    for p in (2, 3, 13):
        for _ in range(8):
            a = random_mrf(rng, p, 2)
            b = random_mrf(rng, p, 2)
            assert (a / b) * b == a
            assert (a + b) - b == a
            assert (a * b).den.leading()[1] == 1
            assert bipoly_gcd((a * b).num, (a * b).den).is_constant()
            assert a ** (-1) == one(p) / a
            assert (a + (-a)).is_zero()


def test_multiratfunc_derivative_quotient_rule():
    rng = random.Random(53)
    for p in (3, 5):
        for _ in range(6):
            a = random_mrf(rng, p, 2)
            b = random_mrf(rng, p, 2)
            lhs = (a * b).derivative_s()
            assert lhs == a.derivative_s() * b + a * b.derivative_s()
            lhs = (a * b).derivative_t()
            assert lhs == a.derivative_t() * b + a * b.derivative_t()


# -- the chain d0, d1 ------------------------------------------------------------


def test_d1_after_d0_is_zero():
    rng = random.Random(61)
    for p in (2, 3, 5, 13):
        for _ in range(8):
            f = random_mrf(rng, p, 2, allow_zero=True)
            assert d1(d0(Form0(f))).is_zero()


def test_d1_leibniz_rule():
    # d1(f w) = d0(f) ^ w + f d1(w)
    rng = random.Random(67)
    for p in (3, 5):
        for _ in range(6):
            f = random_mrf(rng, p, 2)
            w = Form1(random_mrf(rng, p, 2), random_mrf(rng, p, 2))
            lhs = d1(Form1(f * w.ds, f * w.dt))
            wedge = f.derivative_s() * w.dt - f.derivative_t() * w.ds
            rhs = Form2(wedge + f * d1(w).h)
            assert lhs == rhs


def test_dlog_multiplicativity_and_steinberg():
    rng = random.Random(71)
    for p in (2, 3, 5):
        for _ in range(8):
            f = random_mrf(rng, p, 2)
            g = random_mrf(rng, p, 2)
            assert dlog1(f * g) == dlog1(f) + dlog1(g)
            assert dlog2(f * g, f) == dlog2(f, f) + dlog2(g, f)
            assert dlog2(f, g) == -dlog2(g, f)
            if not (one(p) - f).is_zero():
                assert dlog2(f, one(p) - f).is_zero()


def test_dlog2_of_unit_times_pth_power_drops_power():
    p = 3
    s, t = sv(p), tv(p)
    # dlog kills p-th powers: dlog2(f^p g, h) = dlog2(g, h)
    f = s + one(p)
    g = t
    h = s * t + one(p)
    assert dlog2((f**p) * g, h) == dlog2(g, h)


def test_dlog2_orientation_and_wedge_reference():
    for p in (3, 5, 7):
        s, t = sv(p), tv(p)
        # ds/s ^ dt/t = ds^dt / (s t); odd p, where the sign is visible
        assert dlog2(s, t) == Form2(one(p) / (s * t))
    rng = random.Random(73)
    for p in (2, 3, 5):
        for _ in range(8):
            f = random_mrf(rng, p, 2)
            g = random_mrf(rng, p, 2)
            # reference: the wedge of two dlog1 forms
            a, b = dlog1(f), dlog1(g)
            assert dlog2(f, g) == Form2(a.ds * b.dt - a.dt * b.ds)


# -- Cartier operator -------------------------------------------------------------


def test_cartier2_monomial_examples():
    p = 3
    s, t = sv(p), tv(p)
    assert cartier2(Form2(s * s * t * t)) == Form2(one(p))
    assert cartier2(Form2(s * t)).is_zero()
    w = Form2(one(p) / (s * t))
    assert cartier2(w) == w


def test_exact_form_has_explicit_antiderivative():
    # st ds^dt = d1(2 s^2 t dt) over F_3
    p = 3
    s, t = sv(p), tv(p)
    zero = s - s
    assert d1(Form1(zero, const(p, 2) * s * s * t)) == Form2(s * t)
    assert in_B2(Form2(s * t))


def test_cartier2_agrees_with_antiderivative_oracle():
    rng = random.Random(83)
    for p in (2, 3, 5):
        for _ in range(20):
            h = random_bipoly(rng, p, 4, allow_zero=True)
            assert in_B2(Form2(MultiRatFunc.from_poly(h))) == oracle_in_B2(h)


def test_cartier2_oracle_on_all_monomials():
    for p in (2, 3, 5):
        for i in range(7):
            for j in range(7 - i):
                h = mk(p, {(i, j): 1})
                got = in_B2(Form2(MultiRatFunc.from_poly(h)))
                assert got == oracle_in_B2(h)
                # the monomial rule in closed form
                assert got == (not ((i + 1) % p == 0 and (j + 1) % p == 0))


def test_cartier1_requires_closed_input():
    p = 3
    s, t = sv(p), tv(p)
    with pytest.raises(ValueError):
        cartier1(Form1(t, s - s))
    with pytest.raises(ValueError):
        in_B1(Form1(t, s - s))


def test_cartier1_examples():
    p = 5
    s, t = sv(p), tv(p)
    zero = s - s
    assert cartier1(Form1(s**4, zero)) == Form1(one(p), zero)
    assert cartier1(Form1(s, zero)).is_zero()
    w = dlog1(s * t + one(p))
    assert d1(w).is_zero()
    # dlog images are nu members in every degree
    assert cartier1(w) == w


def test_cartier1_kills_exact_forms():
    rng = random.Random(89)
    for p in (2, 3, 5):
        for _ in range(10):
            f = random_mrf(rng, p, 2)
            assert cartier1(d0(Form0(f))).is_zero()
            assert in_B1(d0(Form0(f)))


def test_cartier1_agrees_with_antiderivative_oracle():
    rng = random.Random(97)
    for p in (2, 3, 5):
        for _ in range(20):
            # closed polynomial form: exact part + Cartier-fixed monomials
            h = random_bipoly(rng, p, 4, allow_zero=True)
            f, g = h.derivative_s(), h.derivative_t()
            for _ in range(rng.randrange(3)):
                i, j = rng.randrange(2), rng.randrange(2)
                c = rng.randrange(1, p)
                if rng.random() < 0.5:
                    f = f + mk(p, {(p * i + p - 1, p * j): c})
                else:
                    g = g + mk(p, {(p * i, p * j + p - 1): c})
            w = Form1(MultiRatFunc.from_poly(f), MultiRatFunc.from_poly(g))
            assert d1(w).is_zero()
            assert in_B1(w) == oracle_in_B1(f, g)


def test_cartier_semilinearity():
    rng = random.Random(101)
    for p in (2, 3, 5):
        for _ in range(6):
            u = random_mrf(rng, p, 1)
            h = random_mrf(rng, p, 2, allow_zero=True)
            lhs = cartier2(Form2((u**p) * h))
            rhs = Form2(u * cartier2(Form2(h)).h)
            assert lhs == rhs
    # closed 1-forms u^p dlog(y) + d(h) with y = (s + c) b: the two
    # components have different denominators with the common factor b, and
    # C gives u dlog(y)
    for p in (2, 3, 5):
        found = 0
        while found < 4:
            u, h = random_mrf(rng, p, 1), random_mrf(rng, p, 1, allow_zero=True)
            b = random_bipoly(rng, p, 2)
            y = MultiRatFunc.from_poly(mk(p, {(1, 0): 1, (0, 0): rng.randrange(p)}) * b)
            dy, dh = dlog1(y), d0(Form0(h))
            w = Form1(u**p * dy.ds + dh.ds, u**p * dy.dt + dh.dt)
            if w.ds.den == w.dt.den or bipoly_gcd(w.ds.den, w.dt.den).is_constant():
                continue
            found += 1
            assert cartier1(w) == Form1(u * dy.ds, u * dy.dt)


def test_cartier_inverts_gamma_on_symbols():
    # C(x^p dlog(y1) ^ dlog(y2)) = x dlog(y1) ^ dlog(y2)
    rng = random.Random(103)
    for p in (2, 3, 5, 7):
        for _ in range(8):
            x = random_mrf(rng, p, 1)
            y1 = random_mrf(rng, p, 1)
            y2 = random_mrf(rng, p, 1)
            w = dlog2(y1, y2)
            assert cartier2(Form2((x**p) * w.h)) == Form2(x * w.h)


def test_dlog2_images_are_cartier_fixed():
    rng = random.Random(107)
    for p in (2, 3, 5, 13):
        for _ in range(8):
            y1 = random_mrf(rng, p, 1)
            y2 = random_mrf(rng, p, 1)
            w = dlog2(y1, y2)
            assert cartier2(w) == w
            assert nu_member(w)


def test_nu_degree_zero():
    p = 3
    s = sv(p)
    for c in range(p):
        assert nu_member(Form0(const(p, c)))
    assert not nu_member(Form0(s))
    assert not nu_member(Form0(one(p) / s))
    # x in the prime field iff x^p = x
    rng = random.Random(109)
    for _ in range(10):
        x = random_mrf(rng, p, 1, allow_zero=True)
        assert nu_member(Form0(x)) == (x**p - x).is_zero()


def test_nu_degree_one_and_two():
    p = 3
    s, t = sv(p), tv(p)
    assert nu_member(dlog1(s))
    assert not nu_member(Form1(s, s - s))  # d(s^2/2) is exact, not fixed
    assert nu_member(Form2(one(p) / (s * t)))
    assert not nu_member(Form2(s * t))
    with pytest.raises(TypeError):
        nu_member("ds")


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([2, 3, 5]),
    st.integers(min_value=0, max_value=10**6),
)
def test_cartier2_kernel_matches_oracle_hypothesis(p, seed):
    rng = random.Random(seed)
    h = random_bipoly(rng, p, 3, allow_zero=True)
    assert in_B2(Form2(MultiRatFunc.from_poly(h))) == oracle_in_B2(h)
