"""Independent brute-force oracles used to pin expected values in tests.

Each oracle recomputes a quantity by a method unrelated to the production
implementation: naive trial division, exhaustive residue enumeration,
dense linear algebra, alternating series.  Slow but obviously correct.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np


def naive_factor(n: int) -> dict[int, int]:
    """Trial division by every integer 2..sqrt(n)."""
    assert n >= 1
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def naive_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def strong_probable_prime(n: int, a: int) -> bool:
    """n odd > 2 passes the Miller-Rabin round to base a: a^d = 1 or
    a^(d 2^j) = -1 mod n for some j < r, where n - 1 = d 2^r, d odd."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def squares_mod(p: int) -> set[int]:
    """The set of nonzero quadratic residues mod p, by enumeration."""
    return {x * x % p for x in range(1, p)} - {0}


def legendre_by_exhaustion(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if a in squares_mod(p) else -1


def multiplicative_order(a: int, mul, one, bound: int) -> int:
    """Order of a under the given multiplication, by stepping."""
    x = a
    for k in range(1, bound + 1):
        if x == one:
            return k
        x = mul(x, a)
    raise AssertionError("order exceeds bound")


# -- prime-power fields by digit-list arithmetic ----------------------------------
# Elements of F_p[X]/(m) as little-endian coefficient lists over F_p, every
# product reduced by long division: a reference for the Zech-logarithm
# tables of k2sym.arith.Fq.


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_add(a, b, p):
    n = max(len(a), len(b))
    return _trim([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p for i in range(n)])


def _poly_sub(a, b, p):
    return _poly_add(a, [-c for c in b], p)


def _poly_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _poly_mod(a, b, p):
    a = list(a)
    inv_lead = pow(b[-1], -1, p)
    while len(a) >= len(b):
        c = a[-1] * inv_lead % p
        d = len(a) - len(b)
        for i, bi in enumerate(b):
            a[d + i] = (a[d + i] - c * bi) % p
        _trim(a)
    return a


def _poly_powmod(a, e, mod, p):
    result, base = _poly_mod([1], mod, p), _poly_mod(a, mod, p)
    while e:
        if e & 1:
            result = _poly_mod(_poly_mul(result, base, p), mod, p)
        base = _poly_mod(_poly_mul(base, base, p), mod, p)
        e >>= 1
    return result


def _poly_gcd(a, b, p):
    while b:
        a, b = b, _poly_mod(a, b, p)
    if not a:
        return []
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def rabin_irreducible(f: list[int], p: int) -> bool:
    """Rabin's test over F_p: x^(p^n) = x mod f, and gcd(x^(p^(n/l)) - x, f)
    = 1 for each prime l dividing n = deg f."""
    n = len(f) - 1
    x = [0, 1]
    if _poly_sub(_poly_powmod(x, p**n, f, p), _poly_mod(x, f, p), p):
        return False
    return all(_poly_gcd(_poly_sub(_poly_powmod(x, p ** (n // ell), f, p), x, p), f, p) == [1]
               for ell in naive_factor(n))


class DigitField:
    """F_{p^k} on integer encodings c_0 + c_1 p + ..., with the modulus the
    first monic irreducible of degree k in encoding order (X for k = 1, so
    that DigitField(p, 1) is F_p)."""

    def __init__(self, p: int, k: int):
        self.p, self.k, self.q = p, k, p**k
        self.modulus = next(f for f in (self._digits(n) + [1] for n in range(self.q))
                            if rabin_irreducible(f, p))

    def _digits(self, n: int) -> list[int]:
        return [n // self.p**i % self.p for i in range(self.k)]

    def _encode(self, coeffs: list[int]) -> int:
        return sum(c % self.p * self.p**i for i, c in enumerate(coeffs))

    def add(self, a, b):
        return self._encode(_poly_add(self._digits(a), self._digits(b), self.p))

    def neg(self, a):
        return self._encode([-c for c in self._digits(a)])

    def sub(self, a, b):
        return self._encode(_poly_sub(self._digits(a), self._digits(b), self.p))

    def mul(self, a, b):
        prod = _poly_mul(self._digits(a), self._digits(b), self.p)
        return self._encode(_poly_mod(prod, self.modulus, self.p))

    def pow(self, a, e):
        if e < 0:
            a, e = self.inv(a), -e
        result = 1
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self.pow(a, self.q - 2)


# -- Zech tables by matrix doubling ------------------------------------------------
# The body Fq._tables ran before it walked x <- g x in pure Python: the
# coordinates of g^i for all i at once, by doubling blocks of rows with numpy
# matrix products mod p.


def zech_tables_by_doubling(F):
    """(exp + exp, log, zech, log(-1)) of the prime-power field F, k > 1,
    to the base of the smallest generator, as Fq._tables returns them."""
    from k2sym.arith import Poly, _factor_positive, field

    p, k, n = F.p, F.k, F.q - 1
    Fp = field(p)
    m = Poly(Fp, F.modulus_coeffs)
    one = Poly.const(Fp, Fp.one)
    ells = list(_factor_positive(n))
    for a in range(p, F.q):
        g = Poly(Fp, [a // p**i % p for i in range(k)])
        if all(g.pow_mod(n // ell, m) != one for ell in ells):
            break
    # Row i of mat holds the coordinates of X^i * h, for h = g^filled:
    # a row vector of coordinates times mat is that element times h.
    rows, h = [], g
    for _ in range(k):
        rows.append(list(h.coeffs) + [0] * (k - len(h.coeffs)))
        h = (h * Poly.x(Fp)) % m
    mat = np.array(rows, dtype=np.int64)
    coords = np.zeros((n, k), dtype=np.int64)
    coords[0, 0] = 1
    filled = 1
    while filled < n:
        step = min(filled, n - filled)
        coords[filled : filled + step] = coords[:step] @ mat % p
        mat = mat @ mat % p
        filled += step
    enc = coords @ p ** np.arange(k, dtype=np.int64)
    plus_one = np.where(coords[:, 0] == p - 1, enc - (p - 1), enc + 1).tolist()
    log = np.full(F.q, -1, dtype=np.int64)
    log[enc] = np.arange(n)
    log = log.tolist()
    exp = enc.tolist()
    zech = [log[e] for e in plus_one]
    return exp + exp, log, zech, n // 2 if p > 2 else 0


# -- polynomials over a DigitField, by schoolbook arithmetic on its elements ------


def field_poly_add(D: DigitField, a: list[int], b: list[int]) -> list[int]:
    n = max(len(a), len(b))
    return _trim([D.add(a[i] if i < len(a) else 0, b[i] if i < len(b) else 0) for i in range(n)])


def field_poly_mul(D: DigitField, a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = D.add(out[i + j], D.mul(ai, bj))
    return _trim(out)


def field_poly_mod(D: DigitField, a: list[int], b: list[int]) -> list[int]:
    a = list(a)
    inv_lead = D.inv(b[-1])
    while len(a) >= len(b):
        c = D.mul(a[-1], inv_lead)
        d = len(a) - len(b)
        for i, bi in enumerate(b):
            a[d + i] = D.sub(a[d + i], D.mul(c, bi))
        _trim(a)
    return a


def field_poly_powmod(D: DigitField, a: list[int], e: int, mod: list[int]) -> list[int]:
    result, base = field_poly_mod(D, [1], mod), field_poly_mod(D, a, mod)
    while e:
        if e & 1:
            result = field_poly_mod(D, field_poly_mul(D, result, base), mod)
        base = field_poly_mod(D, field_poly_mul(D, base, base), mod)
        e >>= 1
    return result


def field_poly_gcd(D: DigitField, a: list[int], b: list[int]) -> list[int]:
    while b:
        a, b = b, field_poly_mod(D, a, b)
    if not a:
        return []
    inv = D.inv(a[-1])
    return [D.mul(c, inv) for c in a]


def order_and_unit_at(D: DigitField, coeffs: list[int], r: int) -> tuple[int, int]:
    """(m, u) with P = (T - r)^m * U and u = U(r) != 0, for P nonzero, by
    repeated synthetic division by T - r."""
    m = 0
    while True:
        partial = []
        acc = 0
        for c in reversed(coeffs):
            acc = D.add(D.mul(acc, r), c)
            partial.append(acc)
        if acc:
            return m, acc
        coeffs = partial[-2::-1]  # the quotient, lowest coefficient first
        m += 1


def tame_at_root(D: DigitField, f: tuple[list[int], list[int]], g: tuple[list[int], list[int]],
                 r: int) -> int:
    """The tame symbol of f = f_num/f_den and g = g_num/g_den at the place
    T - r, by its definition (-1)^(ab) (f/(T-r)^a)^b (g/(T-r)^b)^(-a) at
    T = r, where a and b are the orders of f and g at r."""
    (mfn, ufn), (mfd, ufd) = (order_and_unit_at(D, c, r) for c in f)
    (mgn, ugn), (mgd, ugd) = (order_and_unit_at(D, c, r) for c in g)
    a, b = mfn - mfd, mgn - mgd
    u = D.mul(ufn, D.inv(ufd))
    w = D.mul(ugn, D.inv(ugd))
    sign = D.neg(1) if a * b % 2 else 1
    return D.mul(sign, D.mul(D.pow(u, b), D.pow(w, -a)))


# -- Gaussian rationals as a pair of Fractions --------------------------------------
# The GaussRat the regulator module used before it stored (a + b*i)/d on
# integers: every component a Fraction, each normalized on its own.


@dataclass(frozen=True)
class GaussRatFraction:
    """Exact Gaussian rational re + im*i; its repr is the one GaussRat
    prints."""

    re: Fraction
    im: Fraction

    @staticmethod
    def make(re, im=0) -> "GaussRatFraction":
        return GaussRatFraction(Fraction(re), Fraction(im))

    def __add__(self, o):
        return GaussRatFraction(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return GaussRatFraction(self.re - o.re, self.im - o.im)

    def __neg__(self):
        return GaussRatFraction(-self.re, -self.im)

    def __mul__(self, o):
        return GaussRatFraction(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def norm2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussRatFraction":
        n = self.norm2()
        if n == 0:
            raise ZeroDivisionError("inverse of 0")
        return GaussRatFraction(self.re / n, -self.im / n)

    def __truediv__(self, o):
        return self * o.inverse()

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussRat({self.re}, {self.im})"


# -- tame symbols over Q(i) by evaluation ------------------------------------------
# The bodies the regulator module used before it took its tame symbol from
# funcfield: orders by evaluating at the point, units by evaluation.  The
# evaluation is exact Horner on the GaussRat coefficients, written out here
# apart from the library's polynomial kernels.


def _synthetic_division(coeffs, a):
    """(p(a), the coefficients of (p - p(a)) / (z - a)) by Horner's rule,
    for the little-endian coefficients of a nonzero p."""
    acc = coeffs[-1]
    quotient = [acc]
    for c in reversed(coeffs[:-1]):
        acc = acc * a + c
        quotient.append(acc)
    value = quotient.pop()
    return value, quotient[::-1]


def order_and_unit_by_evaluation(p, a):
    """Vanishing order of the Poly p over Q(i) at a, plus the coefficients
    of the cofactor with the root removed."""
    coeffs = list(p.coeffs)
    order = 0
    while coeffs:
        value, quotient = _synthetic_division(coeffs, a)
        if not value.is_zero():
            break
        coeffs = quotient
        order += 1
    return order, coeffs


def _gauss_pow(a, e):
    if e < 0:
        a, e = a.inverse(), -e
    out = type(a)(1)
    for _ in range(e):
        out = out * a
    return out


def tame_symbol_by_evaluation(f, g, a):
    """(-1)^(mn) f^n g^(-m) at a, from the units of f and g evaluated at a."""
    fn, fu = order_and_unit_by_evaluation(f.num, a)
    fd, fv = order_and_unit_by_evaluation(f.den, a)
    gn, gu = order_and_unit_by_evaluation(g.num, a)
    gd, gv = order_and_unit_by_evaluation(g.den, a)
    m, n = fn - fd, gn - gd
    uf = _synthetic_division(fu, a)[0] / _synthetic_division(fv, a)[0]
    ug = _synthetic_division(gu, a)[0] / _synthetic_division(gv, a)[0]
    val = _gauss_pow(uf, n) * _gauss_pow(ug, -m)
    if (m * n) % 2:
        val = -val
    return val


def squarefree_part(n: int) -> int:
    """sign(n) * product of primes dividing n to an odd power (naive)."""
    assert n != 0
    out = -1 if n < 0 else 1
    for p, e in naive_factor(abs(n)).items():
        if e % 2:
            out *= p
    return out


# -- local symbols over Q by Fraction arithmetic -----------------------------------
# The Fraction-based bodies the library used before it factored each argument
# once; they take every valuation afresh and split off unit parts as Fractions.


def fraction_valuation(x: Fraction, p: int) -> int:
    v = 0
    n, d = abs(x.numerator), x.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def _unit_mod8(u: Fraction) -> int:
    return u.numerator % 8 * (u.denominator % 8) % 8


def _eps(u: Fraction) -> int:
    """(u-1)/2 mod 2 for an odd unit."""
    return (_unit_mod8(u) % 4 - 1) // 2


def _omega(u: Fraction) -> int:
    """(u^2-1)/8 mod 2 for an odd unit."""
    return 0 if _unit_mod8(u) in (1, 7) else 1


def s_2_fraction(x, y) -> int:
    """The dyadic symbol through x = 2^a u, y = 2^b w:
    (-1)^{eps(u) eps(w) + omega(u) b + omega(w) a}."""
    x, y = Fraction(x), Fraction(y)
    a, b = fraction_valuation(x, 2), fraction_valuation(y, 2)
    u, w = x / Fraction(2) ** a, y / Fraction(2) ** b
    exponent = _eps(u) * _eps(w) + _omega(u) * b + _omega(w) * a
    return -1 if exponent % 2 else 1


def tame_fraction(x, y, p: int) -> int:
    """(-1)^{v(x)v(y)} x^{v(y)} y^{-v(x)} reduced mod the odd prime p."""
    x, y = Fraction(x), Fraction(y)
    a, b = fraction_valuation(x, p), fraction_valuation(y, p)
    u, w = x / Fraction(p) ** a, y / Fraction(p) ** b
    val = Fraction(-1 if (a * b) % 2 else 1) * u**b * w**(-a)
    return val.numerator * pow(val.denominator, -1, p) % p


def hilbert_fraction(x, y, p: int | None) -> int:
    """The +-1 symbol at the real place (p None), at 2, or at an odd p."""
    if p is None:
        return -1 if Fraction(x) < 0 and Fraction(y) < 0 else 1
    if p == 2:
        return s_2_fraction(x, y)
    return 1 if pow(tame_fraction(x, y, p), (p - 1) // 2, p) == 1 else -1


def odd_support_naive(*values) -> list[int]:
    """Odd primes of any numerator or denominator, by trial division."""
    ps = set()
    for v in map(Fraction, values):
        ps.update(naive_factor(abs(v.numerator)))
        ps.update(naive_factor(v.denominator))
    ps.discard(2)
    return sorted(ps)


def moore_by_definition(terms) -> tuple[int, int, dict[int, int]]:
    """(real, dyadic, {p: tame}) of sum m {x, y}, place by place."""
    real = two = 1
    odd: dict[int, int] = {}
    for x, y, m in terms:
        real *= hilbert_fraction(x, y, None) ** (m % 2)
        two *= s_2_fraction(x, y) ** (m % 2)
        for p in odd_support_naive(x, y):
            t = pow(tame_fraction(x, y, p), m % (p - 1), p) * odd.get(p, 1) % p
            if t == 1:
                odd.pop(p, None)
            else:
                odd[p] = t
    return real, two, odd


def hasse_by_definition(entries) -> dict[int | None, int]:
    """Hasse invariant prod_{i<j} (a_i, a_j)_v at the real place (None), at 2
    and at every odd prime of some entry."""
    out = {}
    for p in [None, 2] + odd_support_naive(*entries):
        s = 1
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                s *= hilbert_fraction(entries[i], entries[j], p)
        out[p] = s
    return out


def conic_has_primitive_solution_mod(x: int, y: int, p: int, k: int) -> bool:
    """Does x*a^2 + y*b^2 = c^2 have a solution mod p^k with not all of
    a, b, c divisible by p?  Dense enumeration over (a, b) with a lookup
    table of squares; vectorized so p^k up to a few thousand is fine.

    x and y are replaced by their squarefree parts first (the conic only
    depends on the square classes).  With that normalization a primitive
    solution mod p^k certifies a p-adic point once k >= 3 for odd p and
    k >= 5 for p = 2 (Hensel bound 2t+1 with derivative valuation t <= 1,
    resp. t <= 2), so the congruence answer at such k IS local solvability.
    """
    x, y = squarefree_part(x), squarefree_part(y)
    m = p**k
    ar = np.arange(m, dtype=np.int64)
    sq = ar * ar % m
    is_sq_any = np.zeros(m, dtype=bool)      # c arbitrary
    is_sq_unit = np.zeros(m, dtype=bool)     # c a unit
    is_sq_any[sq] = True
    is_sq_unit[sq[ar % p != 0]] = True
    a_sq = (x % m) * sq % m
    b_sq = (y % m) * sq % m
    vals = (a_sq[:, None] + b_sq[None, :]) % m
    # some coordinate must be a unit: either a, or b, or c
    a_unit = (ar % p != 0)[:, None]
    b_unit = (ar % p != 0)[None, :]
    ok = (is_sq_unit[vals]) | ((a_unit | b_unit) & is_sq_any[vals])
    return bool(ok.any())


@lru_cache(maxsize=None)
def conic_primitive_count(x: int, y: int, p: int, k: int) -> int:
    """Exact number of (a, b, c) mod p^k with x*a^2 + y*b^2 = c^2, not all
    three divisible by p.

    Counts all solutions by histogram convolution (the dense (a, b) grid is
    infeasible for p^k in the hundreds of thousands): with f, g, h the value
    histograms of x*a^2, y*b^2, c^2 mod m, the total is sum((f*g)[u] h[u])
    over the circular convolution.  Non-primitive triples are p^3 times the
    total count mod p^(k-2), since dividing out p^2 frees the top base-p
    digit of each coordinate.  FFT roundoff at these sizes is ~1e-3 at
    worst; the nearest-integer snap is asserted to be unambiguous.
    """
    x, y = squarefree_part(x), squarefree_part(y)

    def total(kk: int) -> int:
        if kk <= 0:
            return 1
        m = p**kk
        ar = np.arange(m, dtype=np.int64)
        sq = ar * ar % m
        f = np.bincount((x % m) * sq % m, minlength=m)
        g = np.bincount((y % m) * sq % m, minlength=m)
        h = np.bincount(sq, minlength=m)
        conv = np.fft.irfft(np.fft.rfft(f, m) * np.fft.rfft(g, m), m)
        n = float(np.dot(conv, h))
        snapped = round(n)
        assert abs(n - snapped) < 0.1, f"FFT count ambiguous: {n}"
        return snapped

    if k == 1:
        return total(1) - 1
    return total(k) - p**3 * total(k - 2)


def _mat_mul(A, B):
    n, m, k = len(A), len(B[0]), len(B)
    return tuple(
        tuple(sum(A[i][t] * B[t][j] for t in range(k)) for j in range(m)) for i in range(n)
    )


def _transpose(A):
    return tuple(tuple(row[i] for row in A) for i in range(len(A[0])))


def _identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def diagonalize_by_elementary_matrices(rows) -> tuple[tuple[Fraction, ...], tuple]:
    """(diagonal, U) with U^T rows U diagonal: the congruence diagonalization
    the library used before it substituted basis vectors in place.  Every
    step builds the full n x n elementary matrix P and replaces M by
    P^T M P and U by U P."""
    n = len(rows)
    M = [list(row) for row in rows]
    U = _identity(n)

    def apply(P):
        nonlocal M, U
        Pt = _transpose(P)
        M = [list(r) for r in _mat_mul(_mat_mul(Pt, M), P)]
        U = [list(r) for r in _mat_mul(U, P)]

    for k in range(n):
        if M[k][k] == 0:
            j = next((j for j in range(k + 1, n) if M[j][j] != 0), None)
            if j is not None:
                P = _identity(n)
                P[k][k] = P[j][j] = Fraction(0)
                P[k][j] = P[j][k] = Fraction(1)
                apply(P)
            else:
                j = next((j for j in range(k + 1, n) if M[k][j] != 0), None)
                if j is None:
                    raise ValueError("singular matrix")
                P = _identity(n)
                P[j][k] = Fraction(1)   # new e_k = e_k + e_j
                P[j][j] = Fraction(-1)  # new e_j = e_k - e_j
                P[k][j] = Fraction(1)
                apply(P)
        pivot = M[k][k]
        if pivot == 0:
            raise ValueError("singular matrix")
        for j in range(k + 1, n):
            if M[k][j] != 0:
                P = _identity(n)
                P[k][j] = -M[k][j] / pivot
                apply(P)
    return tuple(M[i][i] for i in range(n)), tuple(tuple(row) for row in U)


def square_class_by_factoring(r) -> int:
    """The library's former square_class: the sign of r times every prime
    of factorize(r) with an odd exponent."""
    from k2sym.arith import factorize

    r = Fraction(r)
    if r == 0:
        raise ValueError("zero has no square class")
    sign, fac = factorize(r)
    out = sign
    for p, e in fac:
        if e % 2:
            out *= p
    return out


def fraction_det(rows) -> Fraction:
    """Exact determinant by fraction-free cofactor expansion (small n)."""
    n = len(rows)
    if n == 1:
        return Fraction(rows[0][0])
    out = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[row[t] for t in range(n) if t != j] for row in rows[1:]]
        out += (-1) ** j * Fraction(rows[0][j]) * fraction_det(minor)
    return out


def fp_row_reduce(rows: list[list[int]], p: int) -> list[list[int]]:
    """Gaussian elimination over F_p; returns the reduced rows (RREF)."""
    rows = [[c % p for c in r] for r in rows if any(c % p for c in r)]
    if not rows:
        return []
    ncols = len(rows[0])
    pivot_row = 0
    for col in range(ncols):
        piv = None
        for r in range(pivot_row, len(rows)):
            if rows[r][col] % p:
                piv = r
                break
        if piv is None:
            continue
        rows[pivot_row], rows[piv] = rows[piv], rows[pivot_row]
        inv = pow(rows[pivot_row][col], -1, p)
        rows[pivot_row] = [c * inv % p for c in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col] % p:
                f = rows[r][col]
                rows[r] = [(rows[r][j] - f * rows[pivot_row][j]) % p for j in range(ncols)]
        pivot_row += 1
        if pivot_row == len(rows):
            break
    return [r for r in rows if any(r)]


def in_span_mod_p(rows: list[list[int]], target: list[int], p: int) -> bool:
    """Is target in the F_p row span of rows?  Rank comparison."""
    base = fp_row_reduce(rows, p)
    ext = fp_row_reduce(rows + [target], p)
    return len(ext) == len(base)


def catalan_by_series(terms: int = 200000) -> float:
    """Catalan constant by its defining alternating series."""
    s = 0.0
    for k in range(terms - 1, -1, -1):
        s += (-1.0) ** k / (2 * k + 1) ** 2
    return s


def bernoulli_table() -> dict[int, Fraction]:
    """Frozen literature values of Bernoulli numbers."""
    return {
        0: Fraction(1),
        1: Fraction(-1, 2),
        2: Fraction(1, 6),
        4: Fraction(-1, 30),
        6: Fraction(1, 42),
        8: Fraction(-1, 30),
        10: Fraction(5, 66),
        12: Fraction(-691, 2730),
        14: Fraction(7, 6),
        16: Fraction(-3617, 510),
        32: Fraction(-7709321041217, 510),
    }


# -- rational functions by gcd --------------------------------------------------------


def canonical_pair_by_gcd(num, den):
    """(num, den) in lowest terms with a monic denominator, by dividing out
    their gcd whatever their degrees: the canonical form RatFunc took
    before it skipped the gcd against a constant."""
    g = num.gcd(den)
    if not g.is_constant():
        num, den = num // g, den // g
    inv = den.field.inv(den.lc())
    return num.scale(inv), den.scale(inv)


def bipoly_pair_by_gcd(num, den):
    """The same canonical form for a pair of BiPolys: lowest terms, and a
    denominator whose grlex-leading coefficient is 1."""
    from k2sym.charpforms import bipoly_gcd

    g = bipoly_gcd(num, den)
    if not g.is_constant():
        num, den = num.exact_div(g), den.exact_div(g)
    inv = pow(den.leading()[1], -1, den.p)
    return num.scale(inv), den.scale(inv)


def exact_div_greedy(f, d):
    """f / d for BiPolys by greedy leading-term cancellation under graded
    lex, the library's former BiPoly.exact_div: for a true multiple the
    leading monomial of the remainder is always divisible by that of d, so
    a failure mid-loop proves non-divisibility (ValueError)."""
    from k2sym.charpforms import BiPoly

    p = f.p
    (di, dj), dc = d.leading()
    dc_inv = pow(dc, -1, p)
    rem = f
    q: dict = {}
    while not rem.is_zero():
        (ri, rj), rc = rem.leading()
        mi, mj = ri - di, rj - dj
        if mi < 0 or mj < 0:
            raise ValueError("not an exact division")
        c = rc * dc_inv % p
        q[(mi, mj)] = c
        rem = rem - d * BiPoly.make(p, {(mi, mj): c})
    return BiPoly.make(p, q)


def fraction_op_by_cross_products(op, x, y, canonical):
    """x op y for fractions x, y with num and den, and op one of + - * /:
    the pair from the cross products, whatever the denominators, put in
    canonical form by canonical(num, den)."""
    if op == "+":
        pair = x.num * y.den + y.num * x.den, x.den * y.den
    elif op == "-":
        pair = x.num * y.den - y.num * x.den, x.den * y.den
    elif op == "*":
        pair = x.num * y.num, x.den * y.den
    else:
        pair = x.num * y.den, x.den * y.num
    return canonical(*pair)


# -- loop integrals by scalar samples ------------------------------------------------
# The body the regulator module used before it sampled loops from exact
# expansions at the center: every sample through the pointwise eta below, on
# the unshifted coefficients, and every level re-evaluating all of its nodes.
# eta is written out here again, apart from regnum._eta.


def _horner(p, zc):
    acc = 0j
    for c in reversed(p.coeffs):
        acc = acc * zc + c.to_complex()
    return acc


def _horner_derivative(p, zc):
    acc = 0j
    for j in range(len(p.coeffs) - 1, 0, -1):
        acc = acc * zc + j * p.coeffs[j].to_complex()
    return acc


def _log_abs_and_dlog(f, zc):
    """(log|f(z)|, f'(z)/f(z)) via numerator and denominator separately."""
    n = _horner(f.num, zc)
    d = _horner(f.den, zc)
    if n == 0 or d == 0:
        raise ValueError("evaluation at a zero or pole")
    dlog = _horner_derivative(f.num, zc) / n - _horner_derivative(f.den, zc) / d
    return math.log(abs(n)) - math.log(abs(d)), dlog


def eta_value(f, g, zc, dz):
    """The 1-form eta(f, g) = log|f| d(arg g) - log|g| d(arg f) contracted
    with the tangent vector dz at zc."""
    log_f, dlog_f = _log_abs_and_dlog(f, zc)
    log_g, dlog_g = _log_abs_and_dlog(g, zc)
    return log_f * (dlog_g * dz).imag - log_g * (dlog_f * dz).imag


def eta_pullback(f, g, loop, theta):
    """eta(f, g) pulled back to the loop center + radius e^(i orientation
    theta) at the angle theta."""
    u = cmath.exp(1j * loop.orientation * theta)
    return eta_value(f, g, loop.center + loop.radius * u, loop.radius * loop.orientation * 1j * u)


def loop_integral_by_pullback(f, g, loop):
    """(1/2pi) times the loop integral of eta(f, g) by the periodic
    trapezoid rule, doubling from FIRST_SAMPLES with the same convergence
    test as regnum.loop_integral; returns a LoopIntegral with trajectory."""
    from k2sym.regnum import CONVERGENCE_TARGET, FIRST_SAMPLES, MAX_SAMPLES, LoopIntegral

    def trapezoid(n):
        step = 2 * math.pi / n
        return math.fsum(eta_pullback(f, g, loop, k * step) for k in range(n)) / n

    n = FIRST_SAMPLES
    prev = trapezoid(n)
    trajectory = [(n, prev, None)]
    while n < MAX_SAMPLES:
        n *= 2
        cur = trapezoid(n)
        trajectory.append((n, cur, abs(cur - prev)))
        if abs(cur - prev) < CONVERGENCE_TARGET:
            return LoopIntegral(cur, abs(cur - prev), n, tuple(trajectory))
        prev = cur
    raise RuntimeError(f"no convergence after {MAX_SAMPLES} samples")


# -- the tame symbol at infinity through the chart U = 1/T ---------------------------
# The body funcfield.tame_ff ran at infinity before it read the symbol off
# degrees and leading coefficients: rewrite f and g in U = 1/T, then take
# the tame symbol at the finite place U.


def to_infinity_chart(f):
    """f(T) as a rational function of U = 1/T: N/D becomes
    U^(deg D - deg N) * rev(N)/rev(D), where rev(N) = U^(deg N) N(1/U)
    reverses the coefficients, so rev(N)(0) is the leading coefficient of N."""
    from k2sym.arith import Poly, RatFunc

    F = f.field
    n, d = f.num.degree, f.den.degree
    u = Poly.x(F)
    num = Poly(F, f.num.coeffs[::-1])
    den = Poly(F, f.den.coeffs[::-1])
    if d >= n:
        num = num * u ** (d - n)
    else:
        den = den * u ** (n - d)
    return RatFunc(num, den)


def tame_at_infinity_by_chart(f, g):
    """The tame symbol of f and g at infinity, as the tame symbol of their
    chart images at the place U."""
    from k2sym.arith import Poly, _unchecked
    from k2sym.funcfield import PlaceFq, tame_ff

    place = _unchecked(PlaceFq, pi=Poly.x(f.field))  # U is a place over any field k
    return tame_ff(to_infinity_chart(f), to_infinity_chart(g), place)


# -- norms from residue fields of F_q[T] by the exponent formula ---------------------
# The body funcfield.residue_norm ran before it took the resultant: the norm
# from F_q[T]/(pi) to F_q is x -> x^(1 + q + ... + q^(d-1)), d = deg pi.


def norm_by_exponent(value, place):
    """Norm of v mod pi down to F_q^*, as v^((q^d - 1)/(q - 1)) mod pi,
    with pi = T and d = 1 at infinity."""
    from k2sym.arith import Poly

    F = value.field
    pi = Poly.x(F) if place.is_infinite else place.pi
    e = (F.q**pi.degree - 1) // (F.q - 1)
    norm = value.pow_mod(e, pi)
    assert norm.is_constant(), "the norm lies in F_q"
    return norm.constant_value()
