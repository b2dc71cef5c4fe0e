"""Zeta functions of curves over finite fields and the wild-kernel product.

Two families of curves: the projective line over any F_q, and elliptic
curves y^2 = x^3 + ax + b over prime fields p >= 5.  Point counts over
small extensions pin down the numerator L-polynomial, whose value at q
ties the order-related quantity deg(1 - q pi) to the zeta value at -1:

    genus 1:  deg(1 - q pi) = (q^2 - 1) zeta(-1) (q - 1)
    genus 0:  (q^2 - 1) zeta(-1) (q - 1) = 1

The number-field counterpart at the bottom: w2(Q) = 24 located by searching
for moduli where every prime-to-m square is 1, and the product
w2 * |zeta_Q(-1)| = 2.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .arith import FIELD_LIMIT, bernoulli, field, is_prime

# w2_of_Q searches the moduli up to this bound; w2(Q) = 24 lies well inside.
W2_BOUND = 200


@dataclass(frozen=True)
class CurveFq:
    """A smooth projective curve: the line, or an elliptic curve."""

    q: int
    kind: str
    a: int = 0
    b: int = 0

    def __post_init__(self):
        if self.kind == "projective_line":
            field(self.q)  # validates prime power
        elif self.kind == "elliptic":
            if not is_prime(self.q) or self.q < 5:
                raise ValueError("elliptic curves need a prime base field, p >= 5")
            if (4 * pow(self.a, 3, self.q) + 27 * pow(self.b, 2, self.q)) % self.q == 0:
                raise ValueError("singular cubic: 4a^3 + 27b^2 = 0")
        else:
            raise ValueError(f"unknown curve kind {self.kind!r}")

    @staticmethod
    def projective_line(q: int) -> "CurveFq":
        return CurveFq(q, "projective_line")

    @staticmethod
    def elliptic(p: int, a: int, b: int) -> "CurveFq":
        return CurveFq(p, "elliptic", a % p, b % p)

    @property
    def genus(self) -> int:
        return 0 if self.kind == "projective_line" else 1


def count_points(curve: CurveFq, n: int = 1) -> int:
    """Number of projective points over the degree-n extension, by
    enumeration, so the extension is bounded as every scan of a field is
    (arith.FIELD_LIMIT, through Fq.elements).  An n with 2^n beyond that
    bound is refused before q^n is built."""
    if n < 1:
        raise ValueError("extension degree must be positive")
    if n >= FIELD_LIMIT.bit_length():
        raise ValueError(f"F_({curve.q}^{n}) is too large to scan: q exceeds the bound {FIELD_LIMIT}")
    F = field(curve.q**n)
    elements = F.elements()
    if curve.kind == "projective_line":
        return len(elements) + 1
    a, b = F.from_int(curve.a), F.from_int(curve.b)
    sq_count = [0] * F.q
    for y in elements:
        sq_count[F.mul(y, y)] += 1
    total = 1  # the point at infinity
    for x in elements:
        rhs = F.add(F.mul(F.mul(x, x), x), F.add(F.mul(a, x), b))
        total += sq_count[rhs]
    return total


@dataclass(frozen=True)
class LPoly:
    """Numerator of the zeta function, as coefficients in U."""

    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def trace(self) -> int:
        return -self.coeffs[1] if self.degree >= 1 else 0

    def evaluate(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def zeta_at_q(self, q: int) -> Fraction:
        """The zeta value at s = -1 of a curve over F_q with this
        L-polynomial: Z(U) = L(U) / ((1 - U)(1 - qU)) at U = q."""
        return Fraction(self.evaluate(q), (1 - q) * (1 - q * q))


def l_polynomial(curve: CurveFq) -> LPoly:
    """L-polynomial from point counts; the degree-2 case is cross-checked
    against an independent count over the quadratic extension."""
    if curve.genus == 0:
        return LPoly((1,))
    q = curve.q
    n1 = count_points(curve, 1)
    a = q + 1 - n1
    n2 = count_points(curve, 2)
    if n2 != q * q + 1 - (a * a - 2 * q):
        raise RuntimeError(f"inconsistent point counts: N1={n1}, N2={n2}")
    if a * a > 4 * q:
        raise RuntimeError(f"trace {a} violates |a| <= 2 sqrt(q)")
    return LPoly((1, -a, q))


def zeta_minus1(curve: CurveFq) -> Fraction:
    """Value of the curve's zeta function at s = -1, i.e. at U = q."""
    return l_polynomial(curve).zeta_at_q(curve.q)


@dataclass(frozen=True)
class TateIdentity:
    """Both sides of the order formula tying K2 of the curve's function
    field to the zeta value at -1."""

    q: int
    genus: int
    trace: int
    zeta_value: Fraction
    lhs: Fraction
    rhs: Fraction
    holds: bool


def tate_identity(curve: CurveFq) -> TateIdentity:
    q = curve.q
    lp = l_polynomial(curve)
    z, trace = lp.zeta_at_q(q), lp.trace
    if curve.genus == 0:
        # Ker has one element; (q^2-1) zeta(-1) (q-1) must be exactly 1
        lhs = (q * q - 1) * z * (q - 1)
        rhs = Fraction(1)
    else:
        # deg(1 - q pi) for Frobenius pi with trace a and norm q
        lhs = Fraction(1 - q * trace + q**3)
        rhs = (q * q - 1) * z * (q - 1)
    return TateIdentity(q, curve.genus, trace, z, lhs, rhs, lhs == rhs)


def w2_witness(m: int):
    """A unit mod m whose square is not 1, or None when every unit squares
    to 1 (the defining property of divisors of w2)."""
    for a in range(2, m):
        if gcd(a, m) == 1 and a * a % m != 1:
            return a
    return None


def w2_of_Q() -> int:
    """Largest m <= W2_BOUND such that every unit mod m squares to 1."""
    for m in range(W2_BOUND, 0, -1):
        if w2_witness(m) is None:
            return m
    raise RuntimeError("unreachable: m = 1 always qualifies")


@dataclass(frozen=True)
class BirchTate:
    w2: int
    zeta_value: Fraction
    product: Fraction
    known_order: int
    consistent: bool


def birch_tate_Q() -> BirchTate:
    """The rational case of the order formula: w2(Q) times |zeta_Q(-1)|."""
    w2 = w2_of_Q()
    z = -bernoulli(2) / 2
    product = w2 * abs(z)
    return BirchTate(w2, z, product, 2, product == 2)
