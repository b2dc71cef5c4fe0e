"""K_2 of Q: Tate's decomposition, constructive lifting, and reciprocity.

K_2(Q) splits as {+1,-1} + sum over odd primes p of F_p^*, the map being
(s_2, tame_3, tame_5, ...).  A class is represented by its coordinates:
a dyadic sign and finitely many odd-prime residue units.  lambda_tate
computes the coordinates of a symbol expression; lift inverts it by a
descent on the largest supported prime, which is the computational content
of the decomposition (and, at the bottom, of quadratic reciprocity).

The Moore sequence adds the real place: the product of the local values,
each raised to half its mu-order, is +1 for symbols coming from K_2(Q),
and this is the only relation.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import _legendre, _unchecked, is_prime
from .localsym import (
    LocalData,
    PlaceQ,
    _h,
    _residue,
    _residue8,
    _s2,
    _tame,
    hilbert_factors,
    local_data,
    odd_primes,
)


# ---------------------------------------------------------------------------
# Symbol expressions: formal integer combinations of symbols {x, y}.


@dataclass(frozen=True)
class SymbolExpr:
    """Sum of symbols sum_i m_i * {x_i, y_i} with nonzero rational entries.

    Terms are kept in insertion order with zero multiplicities dropped;
    repeated (x, y) pairs are merged.  This is a presentation, not a
    canonical form: equality of the K_2 classes is tested through
    lambda_tate, not through term lists.
    """

    terms: tuple[tuple[Fraction, Fraction, int], ...]

    def __post_init__(self):
        for x, y, m in self.terms:
            if x == 0 or y == 0:
                raise ValueError("symbol entries must be nonzero")

    @staticmethod
    def of(*pairs, multiplicities=None) -> "SymbolExpr":
        ms = multiplicities or [1] * len(pairs)
        merged: dict[tuple[Fraction, Fraction], int] = {}
        for (x, y), m in zip(pairs, ms):
            key = (Fraction(x), Fraction(y))
            merged[key] = merged.get(key, 0) + m
        return SymbolExpr(tuple((x, y, m) for (x, y), m in merged.items() if m))

    def __add__(self, other: "SymbolExpr") -> "SymbolExpr":
        pairs = [(x, y) for x, y, _ in self.terms] + [(x, y) for x, y, _ in other.terms]
        ms = [m for _, _, m in self.terms] + [m for _, _, m in other.terms]
        return SymbolExpr.of(*pairs, multiplicities=ms)

    def __neg__(self) -> "SymbolExpr":
        return SymbolExpr(tuple((x, y, -m) for x, y, m in self.terms))

    def pairs(self):
        return [(x, y) for x, y, _ in self.terms]


def symbol(x, y) -> SymbolExpr:
    """The single symbol {x, y}."""
    return SymbolExpr.of((x, y))


# ---------------------------------------------------------------------------
# Classes in the Tate decomposition.


def _check_odd(odd: tuple[tuple[int, int], ...]) -> None:
    """Odd coordinates as K2QClass and MooreVector store them: their own
    normal form under _odd_coordinates."""
    if odd != _odd_coordinates(dict(odd)):
        raise ValueError(f"bad odd support: {odd}")


def _odd_coordinates(odd_map: dict[int, int] | None) -> tuple[tuple[int, int], ...]:
    """odd_map as K2QClass and MooreVector store it, each key tested for
    primality once.  The key test comes before reduction, so a key that is
    no place is refused even when its coordinate is trivial and would be
    dropped; after it only the range of each reduced coordinate is left."""
    for p in odd_map or ():
        if p == 2 or not is_prime(p):
            raise ValueError(f"key {p} is not an odd prime")
    odd = _normalized(odd_map)
    for p, a in odd:
        if not 2 <= a <= p - 1:
            raise ValueError(f"coordinate at {p} out of range: {a}")
    return odd


@dataclass(frozen=True)
class K2QClass:
    """An element of {+1,-1} + sum_p F_p^*: a dyadic sign and finitely many
    odd-prime coordinates, stored as (p, unit) with unit in [2, p-1]
    (coordinate 1 means trivial and is dropped)."""

    two_slot: int
    odd: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.two_slot not in (1, -1):
            raise ValueError("two_slot must be +-1")
        _check_odd(self.odd)

    @staticmethod
    def make(two_slot: int, odd_map: dict[int, int] | None = None) -> "K2QClass":
        if two_slot not in (1, -1):
            raise ValueError("two_slot must be +-1")
        return _unchecked(K2QClass, two_slot=two_slot, odd=_odd_coordinates(odd_map))

    def __add__(self, other: "K2QClass") -> "K2QClass":
        odd: dict[int, int] = dict(self.odd)
        for p, a in other.odd:
            odd[p] = odd.get(p, 1) * a % p
        return _unchecked(K2QClass, two_slot=self.two_slot * other.two_slot, odd=_normalized(odd))

    def __neg__(self) -> "K2QClass":
        odd = tuple((p, pow(a, -1, p)) for p, a in self.odd)
        return _unchecked(K2QClass, two_slot=self.two_slot, odd=odd)

    def __sub__(self, other: "K2QClass") -> "K2QClass":
        return self + (-other)

    def is_zero(self) -> bool:
        return self.two_slot == 1 and not self.odd


def _normalized(odd_map: dict[int, int] | None) -> tuple[tuple[int, int], ...]:
    """Sorted (p, a mod p) with the trivial coordinates dropped."""
    if not odd_map:
        return ()
    return tuple(sorted((p, a % p) for p, a in odd_map.items() if a % p != 1))


K2Q_ZERO = K2QClass(1, ())


def _accumulate(odd: dict[int, int], x: LocalData, y: LocalData, m: int) -> None:
    """Multiply the tame values of m * {x, y} into odd (prime -> unit),
    dropping coordinates that become 1."""
    for p in odd_primes(x, y):
        t = pow(_tame(*_residue(x, p), *_residue(y, p), p), m, p)
        t = odd.get(p, 1) * t % p
        if t == 1:
            odd.pop(p, None)
        else:
            odd[p] = t


def _local_values(e: SymbolExpr) -> tuple[int, int, tuple[tuple[int, int], ...]]:
    """The real sign, the dyadic sign and the sorted nontrivial odd tame
    coordinates of e."""
    real, two, odd = 1, 1, {}
    for x, y, m in e.terms:
        x, y = local_data(x), local_data(y)
        if m % 2:
            if x.sign < 0 and y.sign < 0:
                real = -real
            two *= _s2(*_residue8(x), *_residue8(y))
        _accumulate(odd, x, y, m)
    return real, two, tuple(sorted(odd.items()))


def lambda_tate(e: SymbolExpr) -> K2QClass:
    """Coordinates of a symbol expression: dyadic sign s_2 and tame values.

    Only primes in the support of some entry can carry a nontrivial value,
    so the computation touches finitely many places.
    """
    _, two, odd = _local_values(e)
    return _unchecked(K2QClass, two_slot=two, odd=odd)


def lift(target: K2QClass) -> SymbolExpr:
    """A symbol expression mapping to the given coordinates under
    lambda_tate.

    Descent on the largest supported odd prime p: if the coordinate there
    is a, the symbol {a~, p} (a~ the least positive residue of a) has tame
    value exactly a at p and support only at strictly smaller primes, so
    subtracting it shrinks the support.  The dyadic slot is cleared at the
    end with {-1, -1}, whose only nontrivial coordinate is s_2 = -1.

    This is one section of lambda_tate; any two differ by relabelings of
    the same descent.
    """
    pairs: list[tuple[Fraction, Fraction]] = []
    two, odd = target.two_slot, dict(target.odd)
    while odd:
        p = max(odd)  # largest supported prime
        a = odd[p]  # least positive residue, 2 <= a <= p-1
        pairs.append((Fraction(a), Fraction(p)))
        rep, prime = local_data(a), LocalData(p, 1, {p: 1})
        two *= _s2(*_residue8(rep), *_residue8(prime))
        _accumulate(odd, rep, prime, -1)
        assert odd.get(p, 1) == 1, "descent failed to clear the largest prime"
    if two == -1:
        pairs.append((Fraction(-1), Fraction(-1)))
    return SymbolExpr.of(*pairs) if pairs else SymbolExpr(())


# ---------------------------------------------------------------------------
# Reciprocity.


@dataclass(frozen=True)
class ReciprocityResult:
    """Product formula certificate: per-place +-1 factors and their product."""

    x: Fraction
    y: Fraction
    factors: tuple[tuple[PlaceQ, int], ...]
    product: int

    @property
    def holds(self) -> bool:
        return self.product == 1


def hilbert_reciprocity(x, y) -> ReciprocityResult:
    """Evaluate every local +-1 symbol of {x, y} and their product.

    The product over all places is +1; the factors away from the support
    are +1 and are not listed.
    """
    x, y = Fraction(x), Fraction(y)
    factors = hilbert_factors(local_data(x), local_data(y))
    prod = 1
    for _, v in factors:
        prod *= v
    return ReciprocityResult(x, y, factors, prod)


@dataclass(frozen=True)
class QuadRecRecord:
    """Quadratic reciprocity derived from the product formula for {p, q}."""

    p: int
    q: int
    legendre_p_q: int   # (p|q)
    legendre_q_p: int   # (q|p)
    sign_exponent: int  # ((p-1)/2) * ((q-1)/2) mod 2
    s2_factor: int
    s_inf_factor: int
    h_p_factor: int
    h_q_factor: int
    consistent: bool


def quadratic_reciprocity(p: int, q: int) -> QuadRecRecord:
    """Derive (p|q)(q|p) = (-1)^{(p-1)(q-1)/4} from the product formula.

    For distinct odd primes the symbol {p, q} has +-1 local factors only at
    the real place (+1), at 2 (the sign (-1)^{eps(p)eps(q)}), at p (equal to
    (q|p) via the tame symbol), and at q (equal to (p|q)).  Their product
    being +1 is exactly the reciprocity law.
    """
    if p == q or p == 2 or q == 2 or not (is_prime(p) and is_prime(q)):
        raise ValueError("need distinct odd primes")
    # p and q are odd primes now: the integer kernels, with no Fractions
    # and no second primality test (ints carry numerator and denominator)
    lpq = _legendre(p, q)
    lqp = _legendre(q, p)
    s2 = _s2(*_residue8(p), *_residue8(q))
    sinf = -1 if p < 0 and q < 0 else 1
    hp = _h(*_residue(p, p), *_residue(q, p), p)
    hq = _h(*_residue(p, q), *_residue(q, q), q)
    exponent = ((p - 1) // 2) * ((q - 1) // 2) % 2
    consistent = (
        hq == lpq
        and hp == lqp
        and sinf == 1
        and s2 == (-1) ** exponent
        and sinf * s2 * hp * hq == 1
        and lpq * lqp == (-1) ** exponent
    )
    return QuadRecRecord(p, q, lpq, lqp, exponent, s2, sinf, hp, hq, consistent)


# ---------------------------------------------------------------------------
# The Moore sequence: adds the real place to the local data.


@dataclass(frozen=True)
class MooreVector:
    """A vector of local root-of-unity values: signs at the real place and
    at 2, units at finitely many odd primes."""

    real: int
    two: int
    odd: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.real not in (1, -1) or self.two not in (1, -1):
            raise ValueError("real and dyadic components must be +-1")
        _check_odd(self.odd)

    @staticmethod
    def make(real: int, two: int, odd_map: dict[int, int] | None = None) -> "MooreVector":
        if real not in (1, -1) or two not in (1, -1):
            raise ValueError("real and dyadic components must be +-1")
        return _unchecked(MooreVector, real=real, two=two, odd=_odd_coordinates(odd_map))


def moore_map(e: SymbolExpr) -> MooreVector:
    """All local symbol values of a symbol expression, real place included:
    lambda_tate's coordinates plus the real sign."""
    real, two, odd = _local_values(e)
    return _unchecked(MooreVector, real=real, two=two, odd=odd)


def moore_sum(v: MooreVector) -> int:
    """The obstruction character: product of each component raised to half
    the order of the local mu.  Values from symbols always give +1."""
    prod = v.real * v.two
    for p, a in v.odd:
        prod *= _legendre(a, p)
    return prod


@dataclass(frozen=True)
class MooreLift:
    """Certificate for a constructive Moore lift."""

    target: MooreVector
    expr: SymbolExpr
    image: MooreVector
    verified: bool


def moore_lift(target: MooreVector) -> MooreLift:
    """Produce a symbol expression with the prescribed local values.

    Only vectors with moore_sum = +1 are in the image (that is the only
    relation); anything else raises ValueError.  The odd and dyadic
    coordinates are hit by the K_2 lift; the real coordinate is then forced
    by the product formula, and is checked rather than constructed.
    """
    if moore_sum(target) != 1:
        raise ValueError("target is not in the image: moore_sum is -1")
    cls = K2QClass.make(target.two, dict(target.odd))
    e = lift(cls)
    image = moore_map(e)
    verified = image == target
    if not verified:
        raise AssertionError("lift failed to match the real component")
    return MooreLift(target, e, image, verified)
