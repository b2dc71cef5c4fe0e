"""Exact arithmetic substrate: primes, factorization, finite fields, polynomials.

Everything downstream (local symbols, reciprocity, function-field places)
reduces to the primitives in this module.  All arithmetic is exact: Python
ints, fractions.Fraction, and field-element encodings.  Nothing here is
probabilistic except Cantor-Zassenhaus splitting, which is derandomized by
seeding from the input polynomial.
"""
from __future__ import annotations

import functools
import random
from fractions import Fraction
from math import comb, isqrt

# Degree of the zero polynomial.  A distinguished marker, never -1, so that
# accidental integer arithmetic on it is loud (it propagates as -inf).
NEG_INF = float("-inf")

# The primes 2..41 as Miller-Rabin witnesses decide primality exactly below
# psi_13 = 3317044064679887385961981, the least strong pseudoprime to all of
# them (Sorenson and Webster, 2015); is_prime refuses n >= PRIME_BOUND.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981

# Factorization refuses numerators and denominators beyond this bound, so
# trial division up to its square root always completes.
FACTOR_BOUND = 10**12


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for n < PRIME_BOUND;
    ValueError at or above it, naming n by its size: str(n) fails past 4300
    digits."""
    if n < 2:
        return False
    if n >= PRIME_BOUND:
        raise ValueError(f"primality beyond the bound {PRIME_BOUND}: an integer of {n.bit_length()} bits")
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@functools.lru_cache(maxsize=None)
def _prime_list(limit: int) -> tuple[int, ...]:
    """Primes up to limit, by sieve."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return tuple(i for i in range(limit + 1) if sieve[i])


_SIEVE_SIZES = (1 << 10, 1 << 14, 1 << 20)


def _sieve_for(limit: int) -> tuple[int, ...]:
    """The cached sieve at the smallest canonical size >= limit."""
    for size in _SIEVE_SIZES:
        if limit <= size:
            return _prime_list(size)
    return _prime_list(limit)


def primes_below(limit: int) -> tuple[int, ...]:
    """Primes < limit.  Sieve results are cached at a few canonical sizes."""
    out = []
    for p in _sieve_for(limit):
        if p >= limit:
            break
        out.append(p)
    return tuple(out)


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass cls from fields already known to
    be valid, such as primes out of factorize: skips __post_init__."""
    out = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(out, name, value)
    return out


def _factor_positive(n: int) -> dict[int, int]:
    """Trial division by the cached sieve up to isqrt(n), for 0 < n <=
    FACTOR_BOUND; Miller-Rabin certifies the cofactor.  A refused n is
    described by its size: str(n) fails past 4300 digits."""
    if n > FACTOR_BOUND:
        raise ValueError(f"input beyond factorization bound: an integer of {n.bit_length()} bits")
    out: dict[int, int] = {}
    m = n
    for p in _sieve_for(isqrt(n) + 2):
        if p * p > m:
            break
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
    if m > 1:
        if not is_prime(m):
            raise ValueError(f"factorization bound exceeded for {n}")
        out[m] = out.get(m, 0) + 1
    return out


def factorize(x: int | Fraction) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Factor a nonzero rational as sign * prod p^e.

    Returns (sign, ((p, e), ...)) with the primes increasing and each e
    nonzero; denominator primes appear with negative exponent.  Raises
    ValueError on 0 and on inputs beyond the supported factor bound.
    """
    x = Fraction(x)
    if x == 0:
        raise ValueError("cannot factor 0")
    sign = 1 if x > 0 else -1
    fac = _factor_positive(abs(x.numerator))
    for p, e in _factor_positive(x.denominator).items():
        fac[p] = fac.get(p, 0) - e
    return sign, tuple(sorted((p, e) for p, e in fac.items() if e != 0))


def _split(x, p: int) -> tuple[int, int, int]:
    """x = p^a * n / d with n (signed) and d prime to p; returns (a, n, d).

    x is anything with a numerator and a denominator (a Fraction, or a
    localsym.LocalData record).  Takes the valuation at p alone: nothing
    is factored."""
    n, d = x.numerator, x.denominator
    a = 0
    while n % p == 0:
        n //= p
        a += 1
    while d % p == 0:
        d //= p
        a -= 1
    return a, n, d


def _legendre(a: int, p: int) -> int:
    """Euler's criterion a^((p-1)/2) mod p as 0, 1 or -1, for an odd prime
    p that the caller has checked."""
    r = pow(a, (p - 1) // 2, p)
    return r if r <= 1 else -1


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for odd prime p."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    return _legendre(a, p)


# ---------------------------------------------------------------------------
# Coefficient-list arithmetic over F_p: the kernels of Poly over prime
# fields (through Fq.poly_mul and Fq.poly_rem) and of the Cartier operator
# in charpforms.  Lists are little-endian, no trailing zeros.


def _fp_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_sub(a, b, p):
    n = max(len(a), len(b))
    return _fp_trim([((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p for i in range(n)])


def _fp_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _fp_trim(out)


def _fp_rem(a, b, p, quot=None):
    """a mod b, row by row from the top down.  With quot, a list of
    len(a) - deg b zeros, the quotient digits also go into it."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    a = list(a)
    if len(a) <= db:
        return _fp_trim(a)
    inv_lead = pow(b[db], -1, p)
    low = b[:db]
    for k in range(len(a) - 1, db - 1, -1):
        c = a[k] * inv_lead % p
        if c:
            if quot is not None:
                quot[k - db] = c
            for i, bi in enumerate(low, k - db):
                a[i] = (a[i] - c * bi) % p
    del a[db:]
    return _fp_trim(a)


def _fp_divmod(a, b, p):
    q = [0] * (len(a) - len(b) + 1)
    r = _fp_rem(a, b, p, q)
    return _fp_trim(q), r


def _fp_gcd(a, b, p):
    while b:
        a, b = b, _fp_rem(a, b, p)
    if not a:
        return []
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


# ---------------------------------------------------------------------------
# Polynomial kernels on trimmed little-endian coefficient lists, written once
# from the field operations.


class PolyKernels:
    """The list kernels behind Poly, for any coefficient field that supplies
    add, sub, neg, mul, inv, from_int, zero and one (von zur Gathen and
    Gerhard, *Modern Computer Algebra*, ch. 2-3).  A field with faster loops
    overrides poly_mul, poly_rem and poly_scale; divmod, pow_mod and gcd run
    on those.  Trimming compares with self.zero, so elements need only ==."""

    def _trim(self, a: list) -> list:
        zero = self.zero
        while a and a[-1] == zero:
            a.pop()
        return a

    def poly_add(self, a, b) -> list:
        """Sum of two coefficient lists."""
        if len(a) < len(b):
            a, b = b, a
        add = self.add
        return self._trim([add(x, y) for x, y in zip(a, b)] + list(a[len(b):]))

    def poly_sub(self, a, b) -> list:
        """Difference of two coefficient lists."""
        sub, neg = self.sub, self.neg
        n = min(len(a), len(b))
        out = [sub(x, y) for x, y in zip(a, b)]
        out += a[n:] if len(a) > n else [neg(y) for y in b[n:]]
        return self._trim(out)

    def poly_scale(self, a, c) -> list:
        """c times a coefficient list; [] when c is zero."""
        if c == self.zero:
            return []
        mul = self.mul
        return [mul(c, x) for x in a]

    def poly_derivative(self, a) -> list:
        """Formal derivative of a coefficient list."""
        mul, from_int = self.mul, self.from_int
        return self._trim([mul(from_int(i), c) for i, c in enumerate(a) if i])

    def poly_mul(self, a, b) -> list:
        """Product of two coefficient lists."""
        if not a or not b:
            return []
        add, mul, zero = self.add, self.mul, self.zero
        out = [zero] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai != zero:
                for j, bj in enumerate(b, i):
                    out[j] = add(out[j], mul(ai, bj))
        return out  # lc(a) lc(b) is not zero in a field

    def poly_rem(self, a, b, quot=None) -> list:
        """a mod b, row by row from the top down, b nonzero.  With quot, a
        list of len(a) - deg b zeros, the quotient digits also go into it."""
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        db = len(b) - 1
        rem = list(a)
        if len(rem) <= db:
            return rem
        sub, mul, zero = self.sub, self.mul, self.zero
        inv_lead = self.inv(b[db])
        low = b[:db]
        for k in range(len(rem) - 1, db - 1, -1):
            c = mul(rem[k], inv_lead)
            if c != zero:
                if quot is not None:
                    quot[k - db] = c
                for i, bi in enumerate(low, k - db):
                    rem[i] = sub(rem[i], mul(c, bi))
        del rem[db:]
        return self._trim(rem)

    def poly_divmod(self, a, b) -> tuple[list, list]:
        """(quotient, remainder) of two coefficient lists, b nonzero."""
        quot = [self.zero] * (len(a) - len(b) + 1)
        return quot, self.poly_rem(a, b, quot)

    def poly_pow_mod(self, a, e, m) -> list:
        """a^e mod m on coefficient lists, e >= 0 and m nonzero.  The
        product starts from its first factor, not from 1."""
        rem, mul = self.poly_rem, self.poly_mul
        if not e:
            return rem([self.one], m)
        base = rem(a, m)
        while not e & 1:
            base = rem(mul(base, base), m)
            e >>= 1
        result = base
        e >>= 1
        while e:
            base = rem(mul(base, base), m)
            if e & 1:
                result = rem(mul(result, base), m)
            e >>= 1
        return result

    def poly_gcd(self, a, b) -> list:
        """The monic gcd of two coefficient lists; [] when both are zero."""
        rem = self.poly_rem
        while b:
            a, b = b, rem(a, b)
        return self.poly_scale(a, self.inv(a[-1])) if a else []


# ---------------------------------------------------------------------------
# Finite fields F_q, q = p^k.  Elements are encoded as integers in [0, q):
# the element with polynomial-basis coordinates (c_0, ..., c_{k-1}) is
# c_0 + c_1 p + ... + c_{k-1} p^{k-1}.  Integer order on encodings is the
# fixed basis ordering used by generator().

# Largest prime-power field, whose arithmetic reads tables of O(q) entries,
# and largest field whose elements are scanned (Fq.elements).  Arithmetic in
# a prime field computes directly and has no bound.
FIELD_LIMIT = 10**6


class Fq(PolyKernels):
    """The finite field with q = p^k elements.

    For k > 1 the field is F_p[X]/(m) where m is the monic irreducible of
    degree k whose non-leading coefficient vector has the smallest integer
    encoding (a deterministic, lexicographic choice), and q <= FIELD_LIMIT.
    Its arithmetic is table lookup: Zech logarithms to the base
    generator(F), built on the first operation that needs them.  Fields
    come from field(q) alone, one object per q, and compare by identity;
    field(q) has factored q, so p is prime and k >= 1 here.  The package
    does not export this class.
    """

    def __init__(self, p: int, k: int):
        self.p = p
        self.k = k
        self.q = p**k
        self.zero = 0
        self.one = 1 % self.q
        if k == 1:
            self.modulus_coeffs: tuple[int, ...] | None = None
        elif self.q > FIELD_LIMIT:
            raise ValueError(f"prime-power field of size {p}^{k} exceeds the bound {FIELD_LIMIT}")
        else:
            self.modulus_coeffs = next(irreducibles(field(p), k)).coeffs

    def _coords(self, n: int) -> list[int]:
        """The k base-p digits of the encoding n, lowest first."""
        out = []
        for _ in range(self.k):
            n, c = divmod(n, self.p)
            out.append(c)
        return out

    @functools.cached_property
    def _tables(self) -> tuple[list[int], list[int], list[int], int]:
        """(exp, log, zech, log(-1)) to the base g = generator(self), k > 1.

        exp[i] encodes g^i, with length 2(q - 1) so that exp[log a + log b]
        needs no reduction; log[a] is the i in [0, q - 1) with g^i = a, and
        log[0] = -1; zech[i] = log(1 + g^i), so -1 where 1 + g^i = 0.

        Pure Python, at about 1 us per element: exp walks x <- g x with the
        base-p digits of x packed into w-bit slots, and log and zech are one
        pass each over exp.
        """
        p, k, n = self.p, self.k, self.q - 1
        Fp = field(p)
        m = Poly(Fp, self.modulus_coeffs)
        one = Poly.const(Fp, Fp.one)
        ells = list(_factor_positive(n))
        # Encodings below p are the constants F_p^*, whose orders divide
        # p - 1 < q - 1, so the smallest generator is found among the rest.
        for a in range(p, self.q):
            g = Poly(Fp, self._coords(a))
            if all(g.pow_mod(n // ell, m) != one for ell in ells):
                break
        # Digit i of x sits in bits [w i, w i + w).  A sum of two reduced
        # slots is below 2p - 1 < 2^w; adding 2^w1 - p sets bit w1 exactly in
        # the slots that are >= p, and those lose p.  No carry leaves a slot,
        # so the bits from b up pass through: there a table entry carries the
        # encoding of the digits it was built from.
        w1 = p.bit_length()
        w = w1 + 1
        b = k * w
        top = sum(1 << w * i + w1 for i in range(k))
        bias = (top >> w1) * ((1 << w1) - p)
        digits = (1 << b) - 1

        def reduced(s):
            return s - p * (((s + bias) & top) >> w1)

        # rows[i] is X^i g packed: the image of x is the sum of c_i rows[i]
        rows, h = [], g
        for _ in range(k):
            rows.append(sum(c << w * i for i, c in enumerate(h.coeffs)))
            h = (h * Poly.x(Fp)) % m

        def images(first, last):
            """Packed digits i in [first, last), shifted down to slot 0, ->
            their image plus their encoding above bit b."""
            out = {0: 0}
            for i in range(first, last):
                multiples = [0]
                for _ in range(p - 1):
                    multiples.append(reduced(multiples[-1] + rows[i]))
                unit = p**i << b
                out = {key | c << w * (i - first): reduced(v + multiples[c]) + c * unit
                       for key, v in out.items() for c in range(p)}
            return out

        half = k // 2
        low, high = images(0, half), images(half, k)
        shift = w * half
        mask = (1 << shift) - 1
        exp = []
        append = exp.append
        x = 1
        for _ in range(n):
            s = low[x & mask] + high[x >> shift]
            append(s >> b)
            x = (s & digits) - p * (((s + bias) & top) >> w1)  # reduced(s) below bit b
        log = [-1] * self.q
        for i, e in enumerate(exp):
            log[e] = i
        # 1 + a adds 1 to digit 0 of a, so log(1 + a) is log[a + 1], or
        # log[a - (p - 1)] when that digit is p - 1 and wraps to 0
        log_succ = log[1:] + log[:1]
        log_succ[p - 1 :: p] = log[::p]
        zech = list(map(log_succ.__getitem__, exp))  # shares log's int objects
        del log_succ
        exp *= 2
        return exp, log, zech, n // 2 if p > 2 else 0

    # -- field operations on integer encodings --

    def from_int(self, n: int) -> int:
        """Image of the rational integer n under Z -> F_q."""
        return n % self.p

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        if not a:
            return b
        if not b:
            return a
        exp, log, zech, _ = self._tables
        la = log[a]
        # a + b = g^la (1 + g^(lb - la)); a negative index into zech, which
        # has length q - 1, is the difference reduced mod q - 1
        z = zech[log[b] - la]
        return exp[la + z] if z >= 0 else 0

    def neg(self, a: int) -> int:
        if self.k == 1:
            return (-a) % self.p
        if not a:
            return 0
        exp, log, _, log_minus_one = self._tables
        return exp[log[a] + log_minus_one]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return a * b % self.p
        if not a or not b:
            return 0
        exp, log, _, _ = self._tables
        return exp[log[a] + log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F_q")
        if self.k == 1:
            return pow(a, -1, self.p)
        exp, log, _, _ = self._tables
        return exp[self.q - 1 - log[a]]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if not a:
            if e < 0:
                raise ZeroDivisionError("inverse of 0 in F_q")
            return self.zero if e else self.one
        if self.k == 1:
            return pow(a, e, self.p)
        exp, log, _, _ = self._tables
        return exp[log[a] * e % (self.q - 1)]

    def elements(self) -> range:
        """Every encoding, in order: each scan of F_q runs through here, so
        q is refused above FIELD_LIMIT, for prime q too."""
        if self.q > FIELD_LIMIT:
            raise ValueError(f"F_{self.q} is too large to scan: q exceeds the bound {FIELD_LIMIT}")
        return range(self.q)

    def units(self) -> range:
        return self.elements()[1:]

    def frobenius_root(self, a: int) -> int:
        """The unique p-th root of a (inverse Frobenius)."""
        return self.pow(a, self.p ** (self.k - 1)) if self.k > 1 else a

    # -- the list kernels: _fp_* for k = 1, the Zech tables for k > 1 --

    def poly_scale(self, a, c) -> list[int]:
        if not c:
            return []
        if self.k == 1:
            p = self.p
            return [c * x % p for x in a]
        exp, log, _, _ = self._tables
        lc = log[c]
        return [exp[lc + log[x]] if x else 0 for x in a]

    def poly_mul(self, a, b) -> list[int]:
        if self.k == 1:
            return _fp_mul(a, b, self.p)
        if not a or not b:
            return []
        exp, log, zech, _ = self._tables
        n = self.q - 1
        log_b = [log[c] for c in b]
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            la = log[ai]
            for j, lb in enumerate(log_b, i):
                if lb < 0:
                    continue
                t = la + lb
                o = out[j]
                if o:
                    # o + g^t = g^lo (1 + g^(t - lo))
                    lo = log[o]
                    z = zech[(t - lo) % n]
                    out[j] = exp[lo + z] if z >= 0 else 0
                else:
                    out[j] = exp[t]
        return out

    def poly_rem(self, a, b, quot=None) -> list[int]:
        if self.k == 1:
            return _fp_rem(a, b, self.p, quot)
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        db = len(b) - 1
        rem = list(a)
        if len(rem) <= db:
            return rem
        exp, log, zech, log_minus_one = self._tables
        n = self.q - 1
        log_lead = log[b[db]]
        log_b = [log[c] for c in b[:db]]
        for k in range(len(rem) - 1, db - 1, -1):
            r = rem[k]
            if not r:
                continue
            # the quotient digit c = r / lc(b); exp takes its log in (-n, n)
            lc = log[r] - log_lead
            if quot is not None:
                quot[k - db] = exp[lc]
            row = (lc + log_minus_one) % n  # log of -c: the row adds -c * b
            for i, lb in enumerate(log_b, k - db):
                if lb < 0:
                    continue
                t = row + lb
                o = rem[i]
                if o:
                    lo = log[o]
                    z = zech[(t - lo) % n]
                    rem[i] = exp[lo + z] if z >= 0 else 0
                else:
                    rem[i] = exp[t]
        del rem[db:]
        return _fp_trim(rem)

    def __repr__(self):
        return f"Fq({self.p}^{self.k})" if self.k > 1 else f"Fq({self.p})"


@functools.lru_cache(maxsize=None)
def field(q: int) -> Fq:
    """The finite field with q elements; q must be a prime power, at most
    FIELD_LIMIT unless prime."""
    sign, fac = factorize(q)
    if sign < 0 or len(fac) != 1 or fac[0][1] < 1:
        raise ValueError(f"{q} is not a prime power")
    p, k = fac[0]
    return Fq(p, k)


def generator(q_or_field: int | Fq) -> int:
    """Smallest element (in the basis ordering) generating F_q^*."""
    F = field(q_or_field) if isinstance(q_or_field, int) else q_or_field
    if F.k > 1:
        return F._tables[0][1]
    n = F.q - 1
    if n == 1:
        return F.one
    prime_divs = [p for p, _ in _factor_positive(n).items()]
    for a in range(1, F.q):
        if all(F.pow(a, n // ell) != F.one for ell in prime_divs):
            return a
    raise RuntimeError("no generator found")  # unreachable for a field


# ---------------------------------------------------------------------------
# Univariate polynomials over any exact field with the PolyKernels
# interface (Fq, or the Gaussian rationals from the regulator module).


def square_and_multiply(x, e: int, one):
    """x^e for e >= 0, where x needs only * and one is its unit."""
    if e < 0:
        raise ValueError("negative polynomial power")
    result = one
    while e:
        if e & 1:
            result = result * x
        e >>= 1
        if e:
            x = x * x
    return result


class Poly:
    """Univariate polynomial, little-endian coefficient tuple, no trailing
    zeros.  The zero polynomial has degree NEG_INF.

    A Poly over F_q remembers its factorization once it is known, in the
    slot _factors: None until then, the factor tuple poly_factor returns,
    or _IRREDUCIBLE for a monic irreducible, which is its own factor (so the
    memo never refers to the Poly itself).  Equality and hashing read the
    coefficients only."""

    __slots__ = ("field", "coeffs", "_factors")

    def __init__(self, field, coeffs):
        _set_field(self, field)
        _set_coeffs(self, tuple(field._trim(list(coeffs))))
        _set_factors(self, None)

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    @staticmethod
    def _trusted(field, coeffs) -> "Poly":
        """A Poly on coefficients already free of trailing zeros."""
        f = object.__new__(Poly)
        _set_field(f, field)
        _set_coeffs(f, tuple(coeffs))
        _set_factors(f, None)
        return f

    # -- constructors --

    @staticmethod
    def const(field, c) -> "Poly":
        return Poly(field, [c])

    @staticmethod
    def x(field) -> "Poly":
        return Poly(field, [field.zero, field.one])

    @staticmethod
    def from_ints(field, ints) -> "Poly":
        return Poly(field, [field.from_int(n) for n in ints])

    # -- structure --

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def lc(self):
        if not self.coeffs:
            raise ValueError("leading coefficient of 0")
        return self.coeffs[-1]

    def constant_value(self):
        return self.coeffs[0] if self.coeffs else self.field.zero

    def monic(self) -> "Poly":
        return self.scale(self.field.inv(self.lc())) if self.coeffs else self

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.lc() == self.field.one

    # -- arithmetic --

    def _check(self, other):
        if self.field is not other.field:
            raise ValueError("mixed coefficient fields")

    def __add__(self, other):
        self._check(other)
        F = self.field
        return Poly._trusted(F, F.poly_add(self.coeffs, other.coeffs))

    def __sub__(self, other):
        self._check(other)
        F = self.field
        return Poly._trusted(F, F.poly_sub(self.coeffs, other.coeffs))

    def __neg__(self):
        F = self.field
        return Poly(F, [F.neg(c) for c in self.coeffs])

    def __mul__(self, other):
        self._check(other)
        F = self.field
        return Poly._trusted(F, F.poly_mul(self.coeffs, other.coeffs))

    def scale(self, c) -> "Poly":
        F = self.field
        return Poly._trusted(F, F.poly_scale(self.coeffs, c))

    def __pow__(self, e: int):
        return square_and_multiply(self, e, Poly.const(self.field, self.field.one))

    # Each of these is one call to a list kernel of the field; %, gcd and
    # pow_mod build no quotient.

    def divmod(self, other) -> tuple["Poly", "Poly"]:
        self._check(other)
        F = self.field
        q, r = F.poly_divmod(self.coeffs, other.coeffs)
        return Poly._trusted(F, q), Poly._trusted(F, r)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        self._check(other)
        F = self.field
        return Poly._trusted(F, F.poly_rem(self.coeffs, other.coeffs))

    def gcd(self, other) -> "Poly":
        self._check(other)
        F = self.field
        return Poly._trusted(F, F.poly_gcd(self.coeffs, other.coeffs))

    def pow_mod(self, e: int, mod: "Poly") -> "Poly":
        if e < 0:
            raise ValueError("negative polynomial power")
        self._check(mod)
        F = self.field
        return Poly._trusted(F, F.poly_pow_mod(self.coeffs, e, mod.coeffs))

    # -- comparisons --

    def __eq__(self, other):
        return isinstance(other, Poly) and self.field is other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({self.field}, {list(self.coeffs)})"

    def sort_key(self):
        """Deterministic total order key over F_q: (degree, then the int
        coefficient encodings from the top down)."""
        return (len(self.coeffs), self.coeffs[::-1])


# Poly's slot setters, which bypass the __setattr__ that makes it immutable.
_set_field = Poly.field.__set__
_set_coeffs = Poly.coeffs.__set__
_set_factors = Poly._factors.__set__


# Factoring budget: a polynomial over F_q is factored, or tested for
# irreducibility, only up to degree FACTOR_BUDGET // q.bit_length().  The
# distinct-degree loop takes up to n/2 Frobenius powers, each about
# 1.5 log2(q) products mod f, so the cost grows as n^3 log q, and faster
# than that in large prime-power fields, whose arithmetic reads tables.
FACTOR_BUDGET = 160


def factor_degree_budget(F: Fq) -> int:
    """The largest degree that is factored over F."""
    return FACTOR_BUDGET // F.q.bit_length()


def _factoring_field(f: Poly) -> "Fq":
    """The field of f, which must be finite, with the degree of f within
    the factoring budget: the one check before any factoring starts."""
    F = f.field
    if not isinstance(F, Fq):
        raise ValueError("factoring requires coefficients in a finite field")
    top = factor_degree_budget(F)
    if f.degree > top:
        raise ValueError(f"degree {f.degree} is beyond the factoring budget: over F_{F.q} "
                         f"at most {top}")
    return F


# The _factors memo of a monic irreducible Poly: it is its own factorization.
_IRREDUCIBLE = object()


def is_irreducible(f: Poly) -> bool:
    """Irreducibility over F_q, read off the _factors memo when f has one,
    else by the distinct-degree loop (Ben-Or): f of degree n is irreducible
    iff it has no monic factor of degree <= n/2, i.e. the loop finds f
    itself as its only part.  A repeated factor g^2 has deg g <= n/2, so the
    loop also rejects f that is not squarefree.  A monic f found
    irreducible remembers it."""
    F = _factoring_field(f)
    n = f.degree
    if n is NEG_INF or n < 1:
        return False
    known = f._factors
    if known is not None:
        return known is _IRREDUCIBLE or (len(known) == 1 and known[0][1] == 1)
    g = list(f.monic().coeffs)
    if _distinct_degree(F, g) != [(g, n)]:
        return False
    if f.is_monic():
        _set_factors(f, _IRREDUCIBLE)
    return True


def irreducibles(F: Fq, degree: int):
    """Yield monic irreducibles of the given degree, in encoding order."""
    for n in range(F.q**degree):
        coeffs = []
        m = n
        for _ in range(degree):
            coeffs.append(m % F.q)
            m //= F.q
        f = Poly(F, coeffs + [F.one])
        if is_irreducible(f):
            yield f


# -- polynomial factorization over F_q ---------------------------------------
# Every step runs on the field's list kernels, on monic trimmed little-endian
# coefficient lists; poly_factor wraps each irreducible factor once.


def _frobenius_x(F: Fq, f: list[int]) -> list[int]:
    """x^q mod monic f of degree n >= 2: x^e for e the leading bits of q
    with e < n is already reduced, and each further bit of q is a square
    mod f, times x where the bit is set."""
    q, n = F.q, len(f) - 1
    shift = max(q.bit_length() - n.bit_length(), 0)
    if q >> shift >= n:
        shift += 1
    h = [F.zero] * (q >> shift) + [F.one]
    rem, mul = F.poly_rem, F.poly_mul
    for i in range(shift - 1, -1, -1):
        h = rem(mul(h, h), f)
        if q >> i & 1:
            h = rem([F.zero] + h, f)
    return h


def _distinct_degree(F: Fq, f: list[int]) -> list[tuple[list[int], int]]:
    """Split squarefree monic f into products of irreducibles by degree."""
    out = []
    x = [F.zero, F.one]
    h = None
    rest = f
    d = 0
    while len(rest) > 1:
        d += 1
        if 2 * d > len(rest) - 1:
            out.append((rest, len(rest) - 1))
            break
        h = _frobenius_x(F, rest) if h is None else F.poly_pow_mod(h, F.q, rest)
        g = F.poly_gcd(F.poly_sub(h, x), rest)  # deg rest >= 2: x is reduced
        if len(g) > 1:
            out.append((g, d))
            rest = F.poly_divmod(rest, g)[0]
            h = F.poly_rem(h, rest)
    return out


def _equal_degree_split(F: Fq, f: list[int], d: int, rng: random.Random) -> list[int]:
    """A proper monic factor of f, a product of irreducibles of degree d."""
    n = len(f) - 1
    while True:
        r = F._trim([rng.randrange(F.q) for _ in range(n)])
        if len(r) < 2:
            continue
        g = F.poly_gcd(r, f)
        if 1 < len(g) <= n:
            return g
        if F.p == 2:
            # trace map to F_2: sum of 2-power Frobenius images of r mod f
            t = acc = r
            for _ in range(F.k * d - 1):
                t = F.poly_pow_mod(t, 2, f)
                acc = F.poly_add(acc, t)
            g = F.poly_gcd(acc, f)
        else:
            g = F.poly_gcd(F.poly_sub(F.poly_pow_mod(r, (F.q**d - 1) // 2, f), [F.one]), f)
        if 1 < len(g) <= n:
            return g


def _equal_degree(F: Fq, f: list[int], d: int, rng: random.Random | None) -> list[list[int]]:
    if len(f) - 1 == d:
        return [f]
    g = _equal_degree_split(F, f, d, rng)
    return _equal_degree(F, g, d, rng) + _equal_degree(F, F.poly_divmod(f, g)[0], d, rng)


def _factor_monic(F: Fq, f: list[int]) -> dict[tuple[int, ...], int]:
    """The monic irreducible factors of monic f of positive degree, as
    coefficient tuples, with their multiplicities.  The equal-degree
    splitting RNG is seeded from f, when a first part needs splitting.  A
    linear f is its own factorization."""
    if len(f) == 2:
        return {tuple(f): 1}
    rng = None
    exps: dict[tuple[int, ...], int] = {}
    remaining = f
    # Extract multiplicities by dividing out the squarefree radical repeatedly.
    while len(remaining) > 1:
        d = F.poly_derivative(remaining)
        if not d:
            # remaining = h(T^p): factor its p-th root, multiply exponents
            root = [F.frobenius_root(c) for c in remaining[::F.p]]
            for g, e in _factor_monic(F, root).items():
                exps[g] = exps.get(g, 0) + e * F.p
            break
        common = F.poly_gcd(remaining, d)
        # squarefree, the common case, when the monic gcd is 1: no division
        radical = remaining if len(common) == 1 else F.poly_divmod(remaining, common)[0]
        for g, dd in _distinct_degree(F, radical):
            if rng is None and len(g) - 1 > dd:  # g needs splitting
                rng = random.Random(("poly_factor", F.p, F.k, tuple(f)).__repr__())
            for irr in _equal_degree(F, g, dd, rng):
                key = tuple(irr)
                exps[key] = exps.get(key, 0) + 1
        remaining = common  # remaining / radical
    return exps


def poly_factor(f: Poly) -> tuple:
    """Factor f over F_q as (leading_coeff, ((g, e), ...)), g monic
    irreducible, strictly increasing in (degree, encoding) order.

    Derandomized: the equal-degree splitting RNG is seeded from the input.
    The factors are read off f's memo when it has one; else f remembers
    them, and each factor g remembers that it is irreducible.
    """
    F = _factoring_field(f)
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    lead = f.lc()
    if f.degree == 0:
        return lead, ()
    known = f._factors
    if known is None:
        monic = list(f.monic().coeffs)
        factors = sorted(((Poly._trusted(F, g), e) for g, e in _factor_monic(F, monic).items()),
                         key=lambda ge: ge[0].sort_key())
        for g, _ in factors:
            _set_factors(g, _IRREDUCIBLE)
        known = _IRREDUCIBLE if factors == [(f, 1)] else tuple(factors)
        _set_factors(f, known)
    return lead, ((f, 1),) if known is _IRREDUCIBLE else known


# ---------------------------------------------------------------------------
# Rational functions N/D: the shared fraction arithmetic, and the univariate
# case over an exact field with N, D coprime and D monic.


class PolyFraction:
    """A quotient num/den of polynomials, immutable, in canonical form: num
    and den coprime, and den with leading coefficient 1 (1 itself when num
    is 0).  The canonical form and the arithmetic are shared; a subclass
    supplies for its polynomial type only _one, _cancel and _monic, and
    every operation builds its result through type(self).

    A canonical constant denominator is 1, so when both operands have one
    the operations skip the cross products."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        num._check(den)
        if num.is_zero():
            den = self._one(den)
        else:
            if not (num.is_constant() or den.is_constant()):
                # a nonzero constant is coprime to everything: no gcd to take
                num, den = self._cancel(num, den)
            num, den = self._monic(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def _canonical(cls, num, den):
        """A fraction from a pair already in canonical form."""
        out = object.__new__(cls)
        object.__setattr__(out, "num", num)
        object.__setattr__(out, "den", den)
        return out

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def __add__(self, other):
        if self.den.is_constant() and other.den.is_constant():
            return self._canonical(self.num + other.num, self.den)
        return type(self)(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        if self.den.is_constant() and other.den.is_constant():
            return self._canonical(self.num - other.num, self.den)
        return type(self)(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self):
        return self._canonical(-self.num, self.den)

    def __mul__(self, other):
        if self.den.is_constant() and other.den.is_constant():
            return self._canonical(self.num * other.num, self.den)
        return type(self)(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        if self.den.is_constant() and other.den.is_constant():
            return type(self)(self.num, other.num)
        return type(self)(self.num * other.den, self.den * other.num)

    def __pow__(self, e: int):
        if e >= 0:
            # powers of a coprime pair stay coprime, and of a monic den monic
            return self._canonical(self.num**e, self.den**e)
        return type(self)(self.den ** (-e), self.num ** (-e))

    def _quotient_rule(self, dnum, dden):
        """The derivative, given those of num and den."""
        return type(self)(dnum * self.den - self.num * dden, self.den * self.den)

    def __eq__(self, other):
        return isinstance(other, type(self)) and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))


class RatFunc(PolyFraction):
    """Univariate rational function in canonical form (coprime, monic
    denominator)."""

    __slots__ = ()

    @staticmethod
    def _one(f: Poly) -> Poly:
        return Poly._trusted(f.field, (f.field.one,))

    @staticmethod
    def _cancel(num: Poly, den: Poly) -> tuple[Poly, Poly]:
        g = num.gcd(den)
        return (num, den) if g.is_constant() else (num // g, den // g)

    @staticmethod
    def _monic(num: Poly, den: Poly) -> tuple[Poly, Poly]:
        F = den.field
        lead = den.lc()
        if lead == F.one:
            return num, den
        inv = F.inv(lead)
        return num.scale(inv), den.scale(inv)

    @staticmethod
    def from_poly(f: Poly) -> "RatFunc":
        return RatFunc._canonical(f, RatFunc._one(f))

    @property
    def field(self):
        return self.num.field

    def __repr__(self):
        return f"RatFunc({self.num!r} / {self.den!r})"


# ---------------------------------------------------------------------------
# Bernoulli numbers.


@functools.lru_cache(maxsize=None)
def _bernoulli_list(n: int) -> tuple[Fraction, ...]:
    B = [Fraction(0)] * (n + 1)
    B[0] = Fraction(1)
    for m in range(1, n + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += comb(m + 1, j) * B[j]
        B[m] = -acc / (m + 1)
    return tuple(B)


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n (B_1 = -1/2 convention), n <= 64.

    Computed by the defining recurrence sum_{j<=n} C(n+1,j) B_j = 0.
    """
    if n < 0 or n > 64:
        raise ValueError("bernoulli supports 0 <= n <= 64")
    return _bernoulli_list(64)[n]
