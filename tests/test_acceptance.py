"""End-to-end acceptance suite: ten independent checks, one test each.

Every check prints a single verdict line (visible with -s; pytest -v adds
its own PASSED/FAILED line per check).  Runtime budgets and numerical
tolerances are asserted inside the tests, not just observed.
"""
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from k2sym.arith import Poly, RatFunc, field, generator, primes_below
from k2sym.charpforms import (
    BiPoly,
    Form2,
    MultiRatFunc,
    cartier2,
    dlog2,
    in_B2,
)
from k2sym.funcfield import CHAR2, counting_bound, steinberg_witness, weil_check
from k2sym.k2q import (
    K2QClass,
    MooreVector,
    hilbert_reciprocity,
    lambda_tate,
    lift,
    moore_lift,
    moore_map,
    moore_sum,
    quadratic_reciprocity,
)
from k2sym.localsym import support_places
from k2sym.quadforms import (
    conic_point_search,
    conic_solvable_Q,
    pfister_hasse_identity,
)
from k2sym.regnum import (
    Loop,
    bloch_wigner,
    gauss,
    loop_integral,
    poly_z,
    ratfunc_z,
    residue_check,
)
from k2sym.zeta import (
    CurveFq,
    birch_tate_Q,
    count_points,
    l_polynomial,
    tate_identity,
    w2_of_Q,
    zeta_minus1,
)
from oracles import conic_primitive_count, in_span_mod_p, naive_factor, squarefree_part

CATALAN = 0.9159655941772190


def _verdict(n, label, detail=""):
    line = f"acceptance {n:02d} PASS: {label}"
    if detail:
        line += f" ({detail})"
    print("\n" + line)


def test_01_hilbert_product_formula_on_random_rationals():
    rng = random.Random(101)

    def rand_rational():
        n = 0
        while n == 0:
            n = rng.randint(-(10**6), 10**6)
        return Fraction(n, rng.randint(1, 10**6))

    start = time.perf_counter()
    for _ in range(10_000):
        rec = hilbert_reciprocity(rand_rational(), rand_rational())
        assert rec.product == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _verdict(1, "product of local symbols is +1 on 10000 random pairs", f"{elapsed:.1f}s")


def test_02_quadratic_reciprocity_all_odd_prime_pairs_below_500():
    odd_primes = [p for p in primes_below(500) if p > 2]
    start = time.perf_counter()
    pairs = 0
    for p in odd_primes:
        for q in odd_primes:
            if p == q:
                continue
            rec = quadratic_reciprocity(p, q)
            assert rec.consistent
            # Euler's criterion, computed here rather than through the package
            direct_pq = 1 if pow(p, (q - 1) // 2, q) == 1 else -1
            direct_qp = 1 if pow(q, (p - 1) // 2, p) == 1 else -1
            assert rec.legendre_p_q == direct_pq
            assert rec.legendre_q_p == direct_qp
            assert direct_pq * direct_qp == (-1) ** (((p - 1) // 2) * ((q - 1) // 2))
            pairs += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _verdict(2, f"reciprocity derived from the product formula on {pairs} ordered pairs", f"{elapsed:.1f}s")


def test_03_coordinate_lift_roundtrip_and_moore_sequence():
    rng = random.Random(303)
    odd_primes = [p for p in primes_below(1000) if p > 2]
    for _ in range(1000):
        support = rng.sample(odd_primes, rng.randint(0, 4))
        odd = {p: rng.randint(2, p - 1) for p in support}
        target = K2QClass.make(rng.choice([1, -1]), odd)
        assert lambda_tate(lift(target)) == target
    lifted = 0
    for _ in range(300):
        support = rng.sample(odd_primes, rng.randint(0, 3))
        odd = {p: rng.randint(2, p - 1) for p in support}
        two = rng.choice([1, -1])
        # the real sign is forced: flip it to land in resp. out of the kernel
        forced = moore_sum(MooreVector.make(1, two, odd))
        vec = MooreVector.make(forced, two, odd)
        res = moore_lift(vec)
        assert res.verified and moore_map(res.expr) == vec
        with pytest.raises(ValueError):
            moore_lift(MooreVector.make(-forced, two, odd))
        lifted += 1
    _verdict(3, f"lift roundtrips on 1000 coordinate targets, {lifted} kernel vectors lifted")


def test_04_finite_field_witnesses_and_counting_bound():
    odd_qs = [q for q in range(3, 122, 2) if len(naive_factor(q)) == 1]
    for q in odd_qs:
        F = field(q)
        z = generator(F)
        w = steinberg_witness(q)
        assert w is not CHAR2
        x, y = w
        assert x != F.zero and y != F.zero
        assert F.add(F.mul(z, F.mul(x, x)), F.mul(z, F.mul(y, y))) == F.one
        cb = counting_bound(q)
        s1 = {F.mul(z, F.mul(t, t)) for t in F.elements()}
        s2 = {F.sub(F.one, F.mul(z, F.mul(t, t))) for t in F.elements()}
        assert cb.zeta_squares == len(s1) == (q + 1) // 2
        assert cb.one_minus == len(s2) == (q + 1) // 2
        assert cb.total == len(s1) + len(s2) > q
        assert cb.exceeds_field
    even_qs = [2, 4, 8, 16, 32, 64]
    for q in even_qs:
        assert steinberg_witness(q) is CHAR2
        F = field(q)
        z = generator(F)
        assert F.neg(z) == z  # -zeta = zeta, so the two squaring identities coincide
    _verdict(4, f"witness verified for {len(odd_qs)} odd prime powers <= 121, marker for {len(even_qs)} even")


def test_05_weil_product_formula_on_random_function_pairs():
    start = time.perf_counter()
    checked = 0
    for q in (2, 3, 4, 5, 7, 9):
        F = field(q)
        rng = random.Random(500 + q)

        def rand_poly(max_deg):
            d = rng.randint(0, max_deg)
            return Poly(F, tuple(rng.randrange(q) for _ in range(d)) + (rng.randrange(1, q),))

        for _ in range(1000):
            f = RatFunc(rand_poly(5), rand_poly(5))
            g = RatFunc(rand_poly(5), rand_poly(5))
            assert weil_check(f, g).product == 1
            checked += 1
    elapsed = time.perf_counter() - start
    _verdict(5, f"norm-of-tame-symbol product is 1 on {checked} random pairs", f"{elapsed:.1f}s")


def test_06_conic_solvability_grid_against_congruences_and_search():
    start = time.perf_counter()
    solvable_count = 0
    for x in range(-30, 31):
        if x == 0:
            continue
        for y in range(-30, 31):
            if y == 0:
                continue
            sol, _cert = conic_solvable_Q(x, y)
            relevant = {2}
            relevant.update(naive_factor(abs(squarefree_part(x))))
            relevant.update(naive_factor(abs(squarefree_part(y))))
            lo, hi = sorted((x, y))  # the count is symmetric; sort for cache hits
            blocked = (x < 0 and y < 0) or any(
                conic_primitive_count(lo, hi, p, 4) == 0 for p in sorted(relevant)
            )
            assert sol == (not blocked), (x, y)
            point = conic_point_search(x, y, 10**4)
            if sol:
                assert point is not None, (x, y)
                r, s = point
                assert x * r * r + y * s * s == 1
                solvable_count += 1
            else:
                assert point is None, (x, y)
    rng = random.Random(606)
    for _ in range(10_000):
        a = Fraction(rng.randint(-999, 999) or 7, rng.randint(1, 999))
        b = Fraction(rng.randint(-999, 999) or 5, rng.randint(1, 999))
        conic_solvable_Q(a, b)  # raises RuntimeError if exactly one place fails
    elapsed = time.perf_counter() - start
    _verdict(
        6,
        f"grid |x|,|y| <= 30 agrees with congruences and search ({solvable_count} solvable)"
        ", single-failure impossibility on 10000 random pairs",
        f"{elapsed:.1f}s",
    )


def test_07_four_dim_form_hasse_identity_grid():
    start = time.perf_counter()
    pairs = 0
    for x in range(-50, 51):
        if x == 0:
            continue
        for y in range(-50, 51):
            if y == 0:
                continue
            for place in support_places(Fraction(x), Fraction(y)):
                assert pfister_hasse_identity(x, y, place), (x, y, place)
            pairs += 1
    elapsed = time.perf_counter() - start
    _verdict(7, f"hasse identity for <1,-x,-y,xy> on {pairs} pairs at every relevant place", f"{elapsed:.1f}s")


def _random_bipoly(rng, p, max_deg, max_terms=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        i = rng.randint(0, max_deg)
        j = rng.randint(0, max_deg - i)
        terms[(i, j)] = rng.randrange(1, p)
    return BiPoly.make(p, terms)


def _random_mrf(rng, p, max_deg=2):
    f = MultiRatFunc.from_poly(_random_bipoly(rng, p, max_deg))
    if rng.random() < 0.5:
        f = f / MultiRatFunc.from_poly(_random_bipoly(rng, p, max_deg))
    return f


def _monomials_upto(d):
    return [(i, j) for i in range(d + 1) for j in range(d + 1 - i)]


def _coeff_vector(f, basis):
    t = dict(f.terms)
    return [t.get(m, 0) for m in basis]


def _exact_by_antiderivative(h):
    # an exact polynomial 2-form has a polynomial antiderivative of degree
    # one higher, so exactness is a linear-algebra question over F_p
    p = h.p
    d = max(h.total_degree(), 0)
    basis = _monomials_upto(d)
    rows = []
    for i, j in _monomials_upto(d + 1):
        m = BiPoly.make(p, {(i, j): 1})
        rows.append(_coeff_vector(m.derivative_s(), basis))
        rows.append(_coeff_vector(-m.derivative_t(), basis))
    return in_span_mod_p(rows, _coeff_vector(h, basis), p)


def test_08_cartier_fixed_points_exactness_and_inverse_identity():
    rng = random.Random(808)
    start = time.perf_counter()
    for p in (2, 3, 5):
        for _ in range(60):
            w = dlog2(_random_mrf(rng, p), _random_mrf(rng, p))
            assert cartier2(w) == w
    agreements = 0
    for p in (2, 3, 5):
        for _ in range(150):
            h = _random_bipoly(rng, p, max_deg=6, max_terms=5)
            assert in_B2(Form2(MultiRatFunc.from_poly(h))) == _exact_by_antiderivative(h)
            agreements += 1
    checked = 0
    for p in (2, 3, 5):
        for _ in range(334):
            x = _random_mrf(rng, p, max_deg=1)
            w = dlog2(_random_mrf(rng, p, max_deg=1), _random_mrf(rng, p, max_deg=1))
            assert cartier2(Form2(x**p * w.h)) == Form2(x * w.h)
            checked += 1
    elapsed = time.perf_counter() - start
    _verdict(
        8,
        f"dlog images fixed, exactness matches antiderivatives ({agreements} forms)"
        f", semilinear inverse identity on {checked} images",
        f"{elapsed:.1f}s",
    )


def test_09_zeta_special_value_identities_and_rational_constants():
    for q in (2, 3, 4, 5, 7, 9):
        line = CurveFq.projective_line(q)
        z = zeta_minus1(line)
        assert (q * q - 1) * z * (q - 1) == 1
        assert tate_identity(line).holds
    curve_total = 0
    for p in (5, 7, 11, 13):
        curves = [
            CurveFq.elliptic(p, a, b)
            for a in range(p)
            for b in range(p)
            if (4 * a**3 + 27 * b**2) % p != 0
        ]
        assert len(curves) >= 20
        for c in curves:
            n1 = count_points(c, 1)
            n2 = count_points(c, 2)
            lp = l_polynomial(c)  # raises unless both counts give the same trace
            a_tr = lp.trace
            assert n1 == p + 1 - a_tr
            assert n2 == p * p + 1 - (a_tr * a_tr - 2 * p)
            assert a_tr * a_tr <= 4 * p
            ti = tate_identity(c)
            assert ti.holds
            assert ti.lhs == 1 - p * a_tr + p**3
        curve_total += len(curves)
    assert w2_of_Q() == 24
    bt = birch_tate_Q()
    assert bt.w2 == 24
    assert bt.zeta_value == Fraction(-1, 12)
    assert bt.product == 2
    assert bt.consistent
    _verdict(9, f"genus-0 identity for 6 fields, curve identity for {curve_total} curves, constants 24 and -1/12")


def test_10_loop_integrals_and_dilogarithm():
    start = time.perf_counter()
    # the model pair: both functions vanish simply at the loop's center
    li = loop_integral(ratfunc_z((0, 1)), ratfunc_z((0, 2)), Loop(0j, 1.0))
    assert abs(li.value - (-math.log(2))) < 1e-9

    rng = random.Random(1010)
    pool = [
        gauss(Fraction(a, b), Fraction(c, b))
        for a, c in ((1, 0), (-1, 0), (0, 1), (0, -1), (2, 1), (-1, 2), (1, 1), (-2, -1), (3, 2), (-3, 1), (1, -2), (2, -3))
        for b in (1, 2)
    ]

    def random_ratfunc_with_roots():
        pts = rng.sample(pool, 4)
        num_roots = pts[: rng.randint(1, 2)]
        den_roots = pts[2 : 2 + rng.randint(0, 2)]
        num = poly_z((rng.choice([1, 2, -1]),))
        for a in num_roots:
            num = num * poly_z((-a, 1))
        den = poly_z((1,))
        for a in den_roots:
            den = den * poly_z((-a, 1))
        return RatFunc(num, den), num_roots + den_roots

    for _ in range(10):
        f, f_pts = random_ratfunc_with_roots()
        g, g_pts = random_ratfunc_with_roots()
        point = rng.choice(f_pts + g_pts)
        rc = residue_check(f, g, point)
        assert rc.holds, (f, g, point)

    # pairs (f, 1-f) integrate to zero around every singular point
    steinberg_loops = 0
    for _ in range(10):
        pts = rng.sample(pool, rng.randint(1, 3))
        num = poly_z((rng.choice([2, 1, -1]),))
        for a in pts:
            num = num * poly_z((-a, 1))
        f = RatFunc(num, poly_z((1,)))
        g = ratfunc_z((1,)) - f
        sing = []
        for poly in (f.num, g.num):
            roots = np.roots([c.to_complex() for c in reversed(poly.coeffs)])
            sing.extend(complex(r) for r in roots)
        for s in sing:
            dists = [abs(s - t) for t in sing if abs(s - t) > 1e-9]
            radius = min(dists) / 2 if dists else 0.5
            li = loop_integral(f, g, Loop(s, radius))
            assert abs(li.value) < 1e-8
            steinberg_loops += 1

    assert abs(bloch_wigner(gauss(0, 1)) - CATALAN) < 1e-9
    for k in range(1, 40):
        assert bloch_wigner(gauss(Fraction(k, 40))) == 0.0
        assert bloch_wigner(complex(k / 40, 0.0)) == 0.0
    elapsed = time.perf_counter() - start
    _verdict(
        10,
        f"residue formula on 10 pairs, {steinberg_loops} vanishing loops, special value pinned",
        f"{elapsed:.1f}s",
    )
