"""Differential forms in two variables over F_p(s, t).

The chain Omega^0 -> Omega^1 -> Omega^2 with exterior derivative, dlog, and
the Cartier operator C.  In two variables Omega^2 is top degree, so every
2-form is closed and the classical monomial rule decides everything:

    C(s^i t^j ds^dt) = s^((i+1)/p - 1) t^((j+1)/p - 1) ds^dt
                       when p | i+1 and p | j+1, else 0

with coefficients passing through unchanged (F_p is its own p-th roots).
Rational coefficients reduce to the polynomial case by semilinearity
C(u^p w) = u C(w): C(h w) = C(num den^(p-1) w) / den, one coefficient (and
its own denominator) at a time, by one rule for both degrees.
Ker C on closed forms is exactly the space of exact forms, which turns
B-membership and the fixed-point test for nu = Ker(gamma - Id) into
finite computations.
"""
from __future__ import annotations

from dataclasses import dataclass

from .arith import (PolyFraction, _fp_divmod, _fp_gcd, _fp_mul, _fp_sub, _unchecked, is_prime,
                    square_and_multiply)


def _grlex(term):
    """Sort key of a term ((i, j), c) in graded lex order."""
    (i, j), _ = term
    return (i + j, i, j)


def _kernel(p: int, coeffs: dict) -> "BiPoly":
    """A BiPoly out of this module's own arithmetic: coefficients reduced
    mod p and zeros dropped; p was checked when the operands were built, so
    it skips __post_init__."""
    return _unchecked(BiPoly, p=p, coeffs={ij: r for ij, c in coeffs.items() if (r := c % p)})


@dataclass(frozen=True)
class BiPoly:
    """Sparse bivariate polynomial over F_p: a dict from (i, j) to the
    nonzero coefficient of s^i t^j mod p, in no order.  Graded lex is
    computed where it is read: by terms, the sorted tuple a report prints,
    and by leading.

    BiPoly(p, coeffs) and BiPoly.make check p and the coefficients; the
    results of its own arithmetic are built by _kernel without a second
    check."""

    p: int
    coeffs: dict[tuple[int, int], int]

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"coefficient modulus must be prime, got {self.p}")
        for (i, j), c in self.coeffs.items():
            if i < 0 or j < 0:
                raise ValueError("negative exponent")
            if not 0 < c < self.p:
                raise ValueError("coefficient not reduced")

    def __hash__(self):
        return hash((self.p, frozenset(self.coeffs.items())))

    @staticmethod
    def make(p: int, coeffs: dict) -> "BiPoly":
        return BiPoly(p, {ij: r for ij, c in coeffs.items() if (r := c % p)})

    @staticmethod
    def const(p: int, c: int) -> "BiPoly":
        return BiPoly.make(p, {(0, 0): c})

    @staticmethod
    def var_s(p: int) -> "BiPoly":
        return BiPoly.make(p, {(1, 0): 1})

    @staticmethod
    def var_t(p: int) -> "BiPoly":
        return BiPoly.make(p, {(0, 1): 1})

    @property
    def terms(self) -> tuple[tuple[tuple[int, int], int], ...]:
        """The terms ((i, j), c) sorted by graded lex."""
        return tuple(sorted(self.coeffs.items(), key=_grlex))

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        coeffs = self.coeffs
        return not coeffs or (len(coeffs) == 1 and (0, 0) in coeffs)

    def total_degree(self) -> int:
        return max((i + j for i, j in self.coeffs), default=-1)

    def leading(self) -> tuple[tuple[int, int], int]:
        if self.is_zero():
            raise ValueError("leading term of 0")
        return max(self.coeffs.items(), key=_grlex)

    def _check(self, other):
        if self.p != other.p:
            raise ValueError("mixed characteristics")

    def __add__(self, other: "BiPoly") -> "BiPoly":
        self._check(other)
        out = dict(self.coeffs)
        for ij, c in other.coeffs.items():
            out[ij] = out.get(ij, 0) + c
        return _kernel(self.p, out)

    def __neg__(self) -> "BiPoly":
        return _unchecked(BiPoly, p=self.p, coeffs={ij: self.p - c for ij, c in self.coeffs.items()})

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        return self + (-other)

    def __mul__(self, other: "BiPoly") -> "BiPoly":
        self._check(other)
        out: dict = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                ij = (i1 + i2, j1 + j2)
                out[ij] = out.get(ij, 0) + c1 * c2
        return _kernel(self.p, out)

    def scale(self, c: int) -> "BiPoly":
        return _kernel(self.p, {ij: a * c for ij, a in self.coeffs.items()})

    def __pow__(self, e: int) -> "BiPoly":
        return square_and_multiply(self, e, _kernel(self.p, {(0, 0): 1}))

    def exact_div(self, d: "BiPoly") -> "BiPoly":
        """Quotient self/d when d divides exactly; ValueError otherwise.

        Long division in t over F_p[s] on the t-major rows: each step
        divides the leading row of the remainder by that of d, and a
        multiple of d always passes, so the first row that does not divide
        (or a remainder of t-degree below d's) proves non-divisibility.
        """
        self._check(d)
        if d.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        p = self.p
        R, D = _tmajor(self), _tmajor(d)
        dD = len(D) - 1
        Q: list[list[int]] = [[] for _ in range(len(R) - dD)]
        while _trim_t(R):
            k = len(R) - 1 - dD
            if k < 0:
                raise ValueError("not an exact division")
            q, r = _fp_divmod(R[-1], D[-1], p)
            if r:
                raise ValueError("not an exact division")
            Q[k] = q
            R.pop()  # q t^k D cancels the leading row
            for idx in range(dD):
                R[idx + k] = _fp_sub(R[idx + k], _fp_mul(q, D[idx], p), p)
        return _from_tmajor(p, Q)

    def derivative_s(self) -> "BiPoly":
        return _kernel(self.p, {(i - 1, j): i * c for (i, j), c in self.coeffs.items() if i})

    def derivative_t(self) -> "BiPoly":
        return _kernel(self.p, {(i, j - 1): j * c for (i, j), c in self.coeffs.items() if j})

    def __repr__(self):
        return f"BiPoly({self.p}, {dict(self.terms)})"


# -- gcd via primitive pseudo-remainder sequences in (F_p[s])[t] ----------------


def _tmajor(f: BiPoly) -> list[list[int]]:
    """Coefficients as s-polynomials (int lists) indexed by t-degree."""
    dt = max((j for _, j in f.coeffs), default=-1)
    out: list[list[int]] = [[] for _ in range(dt + 1)]
    for (i, j), c in f.coeffs.items():
        col = out[j]
        while len(col) <= i:
            col.append(0)
        col[i] = c  # each row ends at its highest term, so it is trimmed
    return out


def _from_tmajor(p: int, cols: list[list[int]]) -> BiPoly:
    """The BiPoly of reduced rows."""
    coeffs = {(i, j): c for j, col in enumerate(cols) for i, c in enumerate(col) if c}
    return _unchecked(BiPoly, p=p, coeffs=coeffs)


def _trim_t(cols):
    while cols and not cols[-1]:
        cols.pop()
    return cols


def _content_t(cols, p):
    g: list[int] = []
    for col in cols:
        g = _fp_gcd(g, col, p)
    return g


def _primitive_t(cols, p):
    c = _content_t(cols, p)
    if not c or c == [1]:
        return list(cols), (c or [])
    out = []
    for col in cols:
        q, r = _fp_divmod(col, c, p)
        assert not r
        out.append(q)
    return out, c


def _prem_t(A, B, p):
    """Pseudo-remainder of A by B in (F_p[s])[t]; B nonzero."""
    A = _trim_t(list(A))
    B = _trim_t(list(B))
    dB = len(B) - 1
    lB = B[-1]
    R = [list(col) for col in A]
    while _trim_t(R) and len(R) - 1 >= dB:
        dR = len(R) - 1
        lR = R[-1]
        k = dR - dB
        new = []
        for idx in range(dR):
            term = _fp_mul(lB, R[idx], p)
            if 0 <= idx - k < dB:
                term = _fp_sub(term, _fp_mul(lR, B[idx - k], p), p)
            new.append(term)
        R = _trim_t(new)
    return R


def bipoly_gcd(a: BiPoly, b: BiPoly) -> BiPoly:
    """Gcd normalized to grlex-leading coefficient 1."""
    a._check(b)
    p = a.p
    if a.is_zero():
        return _normalize_lead(b)
    if b.is_zero():
        return _normalize_lead(a)
    A, ca = _primitive_t(_tmajor(a), p)
    B, cb = _primitive_t(_tmajor(b), p)
    c = _fp_gcd(ca, cb, p)
    while _trim_t(B):
        R = _prem_t(A, B, p)
        A, B = B, _primitive_t(R, p)[0] if _trim_t(R) else []
    g = _from_tmajor(p, [_fp_mul(col, c, p) for col in A])
    return _normalize_lead(g)


def _normalize_lead(f: BiPoly) -> BiPoly:
    if f.is_zero():
        return f
    _, c = f.leading()
    return f.scale(pow(c, -1, f.p))


class MultiRatFunc(PolyFraction):
    """Bivariate rational function over F_p in canonical form: numerator and
    denominator coprime, denominator with grlex-leading coefficient 1."""

    __slots__ = ()

    @staticmethod
    def _one(f: BiPoly) -> BiPoly:
        return _unchecked(BiPoly, p=f.p, coeffs={(0, 0): 1})

    @staticmethod
    def _cancel(num: BiPoly, den: BiPoly) -> tuple[BiPoly, BiPoly]:
        g = bipoly_gcd(num, den)
        return (num, den) if g.is_constant() else (num.exact_div(g), den.exact_div(g))

    @staticmethod
    def _monic(num: BiPoly, den: BiPoly) -> tuple[BiPoly, BiPoly]:
        _, lc = den.leading()
        if lc == 1:
            return num, den
        inv = pow(lc, -1, den.p)
        return num.scale(inv), den.scale(inv)

    @staticmethod
    def from_poly(f: BiPoly) -> "MultiRatFunc":
        return MultiRatFunc._canonical(f, MultiRatFunc._one(f))

    @property
    def p(self) -> int:
        return self.num.p

    def derivative_s(self) -> "MultiRatFunc":
        return self._quotient_rule(self.num.derivative_s(), self.den.derivative_s())

    def derivative_t(self) -> "MultiRatFunc":
        return self._quotient_rule(self.num.derivative_t(), self.den.derivative_t())

    def __repr__(self):
        return f"MultiRatFunc({self.num!r}, {self.den!r})"


# -- the de Rham chain in two variables ------------------------------------------


@dataclass(frozen=True)
class Form0:
    f: MultiRatFunc

    def is_zero(self) -> bool:
        return self.f.is_zero()


@dataclass(frozen=True)
class Form1:
    """f ds + g dt."""

    ds: MultiRatFunc
    dt: MultiRatFunc

    def __add__(self, other: "Form1") -> "Form1":
        return Form1(self.ds + other.ds, self.dt + other.dt)

    def __sub__(self, other: "Form1") -> "Form1":
        return Form1(self.ds - other.ds, self.dt - other.dt)

    def __neg__(self) -> "Form1":
        return Form1(-self.ds, -self.dt)

    def is_zero(self) -> bool:
        return self.ds.is_zero() and self.dt.is_zero()


@dataclass(frozen=True)
class Form2:
    """h ds^dt."""

    h: MultiRatFunc

    def __add__(self, other: "Form2") -> "Form2":
        return Form2(self.h + other.h)

    def __sub__(self, other: "Form2") -> "Form2":
        return Form2(self.h - other.h)

    def __neg__(self) -> "Form2":
        return Form2(-self.h)

    def is_zero(self) -> bool:
        return self.h.is_zero()


def d0(x: Form0) -> Form1:
    return Form1(x.f.derivative_s(), x.f.derivative_t())


def d1(w: Form1) -> Form2:
    return Form2(w.dt.derivative_s() - w.ds.derivative_t())


def dlog1(f: MultiRatFunc) -> Form1:
    """d(f)/f."""
    if f.is_zero():
        raise ValueError("dlog of zero")
    return Form1(f.derivative_s() / f, f.derivative_t() / f)


def dlog2(f: MultiRatFunc, g: MultiRatFunc) -> Form2:
    """dlog(f) ^ dlog(g), as the Jacobian quotient (f_s g_t - f_t g_s) / (f g):
    for polynomial f and g one gcd, where the wedge of two dlog1 forms takes
    seven."""
    if f.is_zero() or g.is_zero():
        raise ValueError("dlog of zero")
    return Form2((f.derivative_s() * g.derivative_t() - f.derivative_t() * g.derivative_s()) / (f * g))


def _cartier(h: MultiRatFunc, shift_s: int, shift_t: int) -> MultiRatFunc:
    """C of h ds^dt (shifts 1, 1), h ds (1, 0) or h dt (0, 1), as the new
    coefficient: the monomial rule on P = num den^(p-1), then a division
    by den, since h = P / den^p."""
    p = h.p
    P = h.num * h.den ** (p - 1)
    out = {}
    for (i, j), c in P.coeffs.items():
        if (i + shift_s) % p == 0 and (j + shift_t) % p == 0:
            out[((i + shift_s) // p - shift_s, (j + shift_t) // p - shift_t)] = c
    return MultiRatFunc(_kernel(p, out), h.den)


def cartier2(w: Form2) -> Form2:
    """The Cartier operator on 2-forms (all closed in two variables)."""
    return Form2(_cartier(w.h, 1, 1))


def cartier1(w: Form1) -> Form1:
    """The Cartier operator on closed 1-forms; raises off Z^1.  Each
    component clears its own denominator: C(f ds + g dt) = C(f ds) + C(g dt)."""
    if not d1(w).is_zero():
        raise ValueError("1-form is not closed")
    return Form1(_cartier(w.ds, 1, 0), _cartier(w.dt, 0, 1))


def in_B2(w: Form2) -> bool:
    """Exactness of a 2-form: the kernel of C is the image of d1."""
    return cartier2(w).is_zero()


def in_B1(w: Form1) -> bool:
    """Exactness of a closed 1-form; raises on non-closed input."""
    return cartier1(w).is_zero()


def nu_member(w) -> bool:
    """Membership in nu(n) = Ker(gamma - Id): Cartier fixed points.

    Degree 0 is the prime field (x^p = x); degrees 1 and 2 use C(w) = w,
    which is the fixed-point condition transported through C.
    """
    if isinstance(w, Form0):
        return w.f.is_constant()
    if isinstance(w, Form1):
        return cartier1(w) == w
    if isinstance(w, Form2):
        return cartier2(w) == w
    raise TypeError(f"not a differential form: {w!r}")
