"""K_2 of a rational function field F_q(T), and the tame symbol of any
rational function field k(T).

Places are the monic irreducible polynomials plus a place at infinity with
uniformizer 1/T; the residue field at a finite place pi is k[T]/(pi), and
k itself, as k[T]/(T), at infinity.  The tame symbol at each place takes
values in the residue field units, by one evaluation for every place.  At
infinity it needs no change of chart: f has order a = deg den - deg num
there, its unit part takes the value c(f) = lc(num)/lc(den) (the
leading-coefficient retraction), and the symbol of f and g is
(-1)^{ab} c(f)^b c(g)^{-a}.

K_2(F_q(T)) decomposes as the direct sum of the residue unit groups over
the finite places -- exactly, with no extra summand, because K_2 of a
finite field vanishes (the Steinberg-witness argument implemented at the
bottom of this module).

Valuations and tame symbols run on coefficient lists through the list
kernels of k (arith.PolyKernels: remainder, product, power, scale), and a
Poly is built only for each tame value returned.  They use nothing but
those kernels, so the regulator module takes its exact side from here, at
the places z - a of Q(i)(z).

Weil reciprocity ties the places together: the product over ALL places,
infinity included, of the norms down to F_q^* of the tame values is 1.
The norm of v mod pi is the resultant Res(pi, v), by a Euclidean loop on
remainders.  weil_check and decompose factor each numerator and
denominator once and read every place's orders off the multiplicities.
A Poly remembers its factorization (arith.poly_factor), and each factor
that it is irreducible, so a place found by factoring is never tested or
factored again: lift_ff and the round trip through decompose run the
distinct-degree loop on representatives only.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Final

from .arith import Fq, Poly, RatFunc, _unchecked, field, generator, is_irreducible, poly_factor

# Returned by steinberg_witness over fields of characteristic 2, where the
# relation {zeta, zeta} = {zeta, -zeta} = 0 is immediate and no quadratic
# witness is needed.
CHAR2: Final = "CHAR2"


# ---------------------------------------------------------------------------
# Places.


@dataclass(frozen=True)
class PlaceFq:
    """A place of a rational function field k(T): a monic irreducible
    polynomial, or infinity.

    PlaceFq(pi) runs the irreducibility test, so it needs k finite; the
    test reads pi's factorization memo first, so a Poly already proven is
    not looped over again.  A place whose polynomial is already known to be
    monic irreducible (a factor out of poly_factor, or z - a over Q(i)) is
    built by arith._unchecked(PlaceFq, pi=pi), which skips the test.
    """

    pi: Poly | None  # None encodes the place at infinity

    def __post_init__(self):
        if self.pi is not None:
            _check_place(self.pi)

    @staticmethod
    def infinity() -> "PlaceFq":
        return PlaceFq(None)

    @property
    def is_infinite(self) -> bool:
        return self.pi is None


def _check_place(pi: Poly) -> None:
    """pi must be monic irreducible: the distinct-degree test, run once per
    Poly (arith.is_irreducible remembers a proof)."""
    if not pi.is_monic() or not is_irreducible(pi):
        raise ValueError(f"not a monic irreducible: {pi}")


def _check_field(F, *items) -> None:
    """Every item (a Poly or RatFunc, or None for the place at infinity) has
    its coefficients in the field F."""
    for x in items:
        if x is not None and x.field is not F:
            raise ValueError("mixed coefficient fields")


def as_ratfunc(f) -> RatFunc:
    if isinstance(f, RatFunc):
        return f
    if isinstance(f, Poly):
        return RatFunc.from_poly(f)
    raise TypeError(f"expected Poly or RatFunc, got {type(f)}")


def _strip(F, f, pi) -> tuple[list, int]:
    """f = pi^m * g with pi not dividing g, for a nonzero list f and a
    place's list pi; returns (g, m).  Each step is one remainder pass that
    also writes the quotient, kept only when the remainder is zero.  This
    serves a place the caller gives; weil_check and decompose read their
    orders off the factorizations instead (_orders)."""
    m = 0
    while len(f) >= len(pi):
        quot = [F.zero] * (len(f) - len(pi) + 1)
        if F.poly_rem(f, pi, quot):
            break
        f, m = quot, m + 1
    return f, m


def _order_and_units(f: RatFunc, place: PlaceFq) -> tuple[int, list, list]:
    """(a, n, d) with f = u^a n/d, u a uniformizer at the place and n, d
    units there, for nonzero f; n and d are coefficient lists.  At pi: u =
    pi, and n, d are num and den with pi stripped out.  At infinity: u =
    1/T, a = deg den - deg num, and n, d are the constants lc(num), lc(den),
    the values at u = 0 of the units."""
    if place.pi is None:
        return f.den.degree - f.num.degree, [f.num.lc()], [f.den.lc()]
    F, pi = f.field, place.pi.coeffs
    n, a = _strip(F, f.num.coeffs, pi)
    d, b = _strip(F, f.den.coeffs, pi)
    return a - b, n, d


def _residue_inv(F, a, pi) -> list:
    """Inverse of the list a mod the list pi (pi irreducible, a not
    divisible by pi): by the field inverse when a mod pi is constant, else
    by the extended Euclidean algorithm, tracking only the cofactor of a."""
    r1 = F.poly_rem(a, pi)
    if len(r1) <= 1:
        if not r1:
            raise ZeroDivisionError("element not invertible mod pi")
        return [F.inv(r1[0])]
    # invariant: r_i = s_i * a mod pi
    r0, s0, s1 = pi, [], [F.one]
    while r1:
        q, r = F.poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, F.poly_sub(s0, F.poly_mul(q, s1))
    if len(r0) != 1:
        raise ZeroDivisionError("element not invertible mod pi")
    # deg s0 < deg pi, so the scaled cofactor is already reduced
    return F.poly_scale(s0, F.inv(r0[0]))


def _modulus(place: PlaceFq, F) -> tuple:
    """The coefficients of the polynomial whose quotient of k[T] is the
    residue field: pi, or T at infinity, where the unit parts are
    constants."""
    return (F.zero, F.one) if place.pi is None else place.pi.coeffs


def tame_ff(f, g, place: PlaceFq) -> Poly:
    """Tame symbol at a place of k(T), valued in the residue field: the
    class of (-1)^{v(f)v(g)} f^{v(g)} g^{-v(f)}, returned as the reduced
    representative.  At a finite place pi the residue field is k[T]/(pi).
    Infinity is the place U = 0 of U = 1/T: there f is U^a times a unit
    whose value at U = 0 is c(f), the leading-coefficient retraction, so the
    symbol is (-1)^{ab} c(f)^b c(g)^{-a}, a constant polynomial in k: the
    unit parts are reduced mod pi, or mod T at infinity, where the residue
    field k = k[T]/(T) holds the leading-coefficient constants.
    """
    f, g = as_ratfunc(f), as_ratfunc(g)
    F = f.field
    _check_entries(f, g, F)
    _check_field(F, place.pi)
    a, fn, fd = _order_and_units(f, place)
    b, gn, gd = _order_and_units(g, place)
    return Poly._trusted(F, _symbol(F, a * b, ((fn, b), (fd, -b), (gn, -a), (gd, a)), _modulus(place, F)))


def _mul_mod(F, a, b, pi) -> list:
    """a * b mod pi on coefficient lists, where a None stands for 1."""
    return b if a is None else F.poly_rem(F.poly_mul(a, b), pi)


def _symbol(F, ab: int, powers, pi) -> list:
    """(-1)^ab times the product of unit^e over (unit, e) in powers, reduced
    mod pi, as top / bottom with one inversion; units and pi are lists."""
    top = bottom = None
    for unit, e in powers:
        if e > 0:
            top = _mul_mod(F, top, F.poly_pow_mod(unit, e, pi), pi)
        elif e < 0:
            bottom = _mul_mod(F, bottom, F.poly_pow_mod(unit, -e, pi), pi)
    if bottom is not None:
        top = _mul_mod(F, top, _residue_inv(F, bottom, pi), pi)
    if top is None:
        top = [F.one]
    return F.poly_scale(top, F.neg(F.one)) if ab % 2 else top


def _orders(f: RatFunc) -> dict[Poly, int]:
    """v_pi(f) at every finite place pi where it is not 0, from one
    factorization of the numerator and one of the (coprime) denominator."""
    orders = {}
    for poly, sign in ((f.num, 1), (f.den, -1)):
        if not poly.is_constant():
            orders.update((pi, sign * e) for pi, e in poly_factor(poly)[1])
    return orders


def _units(F, f: RatFunc, pi, a: int) -> tuple:
    """The lists of num and den of f with pi^|a| divided out of the one it
    divides, where a = v_pi(f): |a| exact divisions by the list pi, and no
    power of pi is built."""
    num, den = f.num.coeffs, f.den.coeffs
    for _ in range(a):
        num = F.poly_divmod(num, pi)[0]
    for _ in range(-a):
        den = F.poly_divmod(den, pi)[0]
    return num, den


def _tame_at(f: RatFunc, f_orders: dict[Poly, int], g: RatFunc, g_orders: dict[Poly, int], pi: Poly) -> list:
    """The list of tame_ff at the finite place pi, with the orders of f and
    g read off _orders.  f's units enter with exponent v(g) and g's with
    -v(f), so a function's units are computed only where the other one has
    an order."""
    a, b = f_orders.get(pi, 0), g_orders.get(pi, 0)
    F, m = pi.field, pi.coeffs
    powers = []
    if b:
        fn, fd = _units(F, f, m, a)
        powers += [(fn, b), (fd, -b)]
    if a:
        gn, gd = _units(F, g, m, b)
        powers += [(gn, -a), (gd, a)]
    return _symbol(F, a * b, powers, m)


def _support(orders) -> list[Poly]:
    """The finite places in any of the order maps, in place order."""
    return sorted({pi for o in orders for pi in o}, key=Poly.sort_key)


def residue_norm(value: Poly, place: PlaceFq) -> int:
    """Norm of a residue-field unit down to F_q^*: the resultant Res(pi, v)
    of the monic place polynomial pi (T at infinity) and a representative v,
    the product of v over the roots of pi.  Returns the F_q encoding."""
    F = value.field
    _check_field(F, place.pi)
    return _resultant(F, _modulus(place, F), value.coeffs)


def _resultant(F: Fq, a, b) -> int:
    """Res(a, b) of coefficient lists over F_q, for nonconstant a, by the
    Euclidean loop (von zur Gathen and Gerhard, ch. 6): with r = a mod b,
    Res(a, b) = (-1)^(deg a deg b) lc(b)^(deg a - deg r) Res(b, r), and
    Res(a, c) = c^(deg a) for a constant c; a zero remainder ends at 0."""
    res = F.one
    while len(b) > 1:
        r = F.poly_rem(a, b)
        m, n = len(a) - 1, len(b) - 1
        if m * n % 2:
            res = F.neg(res)
        res = F.mul(res, F.pow(b[-1], m - (len(r) - 1)))
        a, b = b, r
    return F.mul(res, F.pow(b[0], len(a) - 1)) if b else F.zero


# ---------------------------------------------------------------------------
# Symbol expressions and classes.


@dataclass(frozen=True)
class FFSymbolExpr:
    """Formal sum of symbols {f, g} on F_q(T)^*, with multiplicities."""

    terms: tuple[tuple[RatFunc, RatFunc, int], ...]

    def __post_init__(self):
        for f, g, _ in self.terms:
            _check_entries(f, g, self.terms[0][0].field)

    @staticmethod
    def of(*pairs, multiplicities=None) -> "FFSymbolExpr":
        ms = multiplicities or [1] * len(pairs)
        merged: dict[tuple[RatFunc, RatFunc], int] = {}
        for (f, g), m in zip(pairs, ms):
            key = (as_ratfunc(f), as_ratfunc(g))
            merged[key] = merged.get(key, 0) + m
        return FFSymbolExpr(tuple((f, g, m) for (f, g), m in merged.items() if m))


def _check_entries(f: RatFunc, g: RatFunc, F) -> None:
    """f and g are nonzero, with coefficients in F."""
    if f.is_zero() or g.is_zero():
        raise ValueError("symbol entries must be nonzero")
    _check_field(F, f, g)


def ff_symbol(f, g) -> FFSymbolExpr:
    return FFSymbolExpr.of((f, g))


def _check_value(pi: Poly, v) -> None:
    """v, a coefficient sequence, must be a nonzero residue mod pi."""
    if not v:
        raise ValueError(f"value at key {list(pi.coeffs)} is 0, so not a unit")
    if len(v) > len(pi.coeffs) - 1:
        raise ValueError(f"value not reduced mod {pi}")


@dataclass(frozen=True)
class K2FFClass:
    """Element of the direct sum of residue-field unit groups over the
    finite places: finitely many (pi, value) with value a nontrivial unit
    mod pi."""

    base: Fq
    entries: tuple[tuple[Poly, Poly], ...]

    def __post_init__(self):
        seen = set()
        for pi, v in self.entries:
            _check_place(pi)
            if pi in seen:
                raise ValueError("duplicate place")
            seen.add(pi)
            _check_value(pi, v.coeffs)
            if v.coeffs == (self.base.one,):
                raise ValueError("identity values must be dropped")

    @staticmethod
    def make(base: Fq, entries: dict[Poly, Poly]) -> "K2FFClass":
        """The class with value v mod pi at each key pi; identity values are
        dropped.  Every key must be a place (monic irreducible): a key that
        is not raises ValueError, even when its value is the identity, and so
        does a key over another field than base."""
        _check_field(base, *entries)
        for pi in entries:
            _check_place(pi)
        return K2FFClass._at_places(base, {pi: (v % pi).coeffs for pi, v in entries.items()})

    @staticmethod
    def _at_places(base: Fq, values: dict) -> "K2FFClass":
        """make, for keys already known to be places and values already
        reduced mod their key, as coefficient sequences; the key test, the
        distinct-degree one, is skipped (arith._unchecked), and each value
        becomes a Poly here."""
        one = base.one
        items = []
        for pi, v in values.items():
            _check_value(pi, v)
            if len(v) > 1 or v[0] != one:
                items.append((pi, Poly._trusted(base, v)))
        items.sort(key=lambda pv: pv[0].sort_key())
        return _unchecked(K2FFClass, base=base, entries=tuple(items))

    def support(self) -> tuple[Poly, ...]:
        return tuple(pi for pi, _ in self.entries)

    def __add__(self, other: "K2FFClass") -> "K2FFClass":
        if self.base != other.base:
            raise ValueError("mixed base fields")
        F = self.base
        vals = {pi: v.coeffs for pi, v in self.entries}
        for pi, v in other.entries:
            vals[pi] = _mul_mod(F, vals.get(pi), v.coeffs, pi.coeffs)
        return K2FFClass._at_places(F, vals)

    def __neg__(self) -> "K2FFClass":
        F = self.base
        return K2FFClass._at_places(F, {pi: _residue_inv(F, v.coeffs, pi.coeffs) for pi, v in self.entries})

    def __sub__(self, other: "K2FFClass") -> "K2FFClass":
        return self + (-other)

    def is_zero(self) -> bool:
        return not self.entries


def decompose(e: FFSymbolExpr, base: Fq | None = None) -> K2FFClass:
    """Tame values of a symbol expression at every finite place.

    This realizes the isomorphism of K_2(F_q(T)) with the direct sum of the
    residue unit groups: the kernel of all tame symbols is K_2(F_q) = 0.
    """
    if not e.terms:
        if base is None:
            raise ValueError("empty expression needs an explicit base field")
        return K2FFClass._at_places(base, {})
    if base is not None:
        _check_field(base, e.terms[0][0])
    base = e.terms[0][0].field
    terms = [(f, _orders(f), g, _orders(g), m) for f, g, m in e.terms]
    vals: dict[Poly, list] = {}
    for pi in _support(o for _, fo, _, go, _ in terms for o in (fo, go)):
        m_pi, group_order = pi.coeffs, base.q**pi.degree - 1
        acc = None
        for f, fo, g, go, m in terms:
            power = base.poly_pow_mod(_tame_at(f, fo, g, go, pi), m % group_order, m_pi)
            acc = _mul_mod(base, acc, power, m_pi)
        vals[pi] = acc
    return K2FFClass._at_places(base, vals)


@dataclass(frozen=True)
class WeilFactor:
    place: PlaceFq
    value: Poly   # tame value in the residue field
    norm: int     # its norm in F_q^*


@dataclass(frozen=True)
class WeilResult:
    factors: tuple[WeilFactor, ...]
    product: int  # in F_q^*

    @property
    def holds(self) -> bool:
        return self.product == 1


def weil_check(f, g) -> WeilResult:
    """Weil reciprocity: prod over all places of Norm(tame value) = 1.

    Every place outside the support of f and g contributes 1 and is skipped;
    infinity is always listed.
    """
    f, g = as_ratfunc(f), as_ratfunc(g)
    base = f.field
    _check_entries(f, g, base)
    f_orders, g_orders = _orders(f), _orders(g)
    values = [(_unchecked(PlaceFq, pi=pi), Poly._trusted(base, _tame_at(f, f_orders, g, g_orders, pi)))
              for pi in _support((f_orders, g_orders))]
    infinity = PlaceFq.infinity()
    values.append((infinity, tame_ff(f, g, infinity)))
    factors = []
    prod = base.one
    for place, v in values:
        nm = residue_norm(v, place)
        factors.append(WeilFactor(place, v, nm))
        prod = base.mul(prod, nm)
    return WeilResult(tuple(factors), prod)


def lift_ff(base: Fq, target: K2FFClass) -> FFSymbolExpr:
    """A symbol expression whose decomposition is the given class.

    Descent on a place of maximal degree: if the value there is a (a reduced
    polynomial of degree < deg pi), the symbol {a, pi} has tame value a at
    pi and finite support otherwise only at divisors of a, all of strictly
    smaller degree.  Subtract and repeat; the multiset of support degrees
    strictly decreases, so this terminates.
    """
    if base != target.base:
        raise ValueError("base field mismatch")
    pairs = []
    remaining = target
    while not remaining.is_zero():
        pi, a = max(remaining.entries, key=lambda pv: pv[0].sort_key())
        rep = RatFunc.from_poly(a)
        pairs.append((rep, RatFunc.from_poly(pi)))
        remaining = remaining - decompose(ff_symbol(rep, pi))
        # decompose reports only monic irreducibles, so any other key stays
        if pi in remaining.support():
            raise ValueError(f"key {list(pi.coeffs)} is not a place: keys must be monic irreducible")
    return FFSymbolExpr.of(*pairs) if pairs else FFSymbolExpr(())


# ---------------------------------------------------------------------------
# K_2 of the finite field itself is trivial: witnesses and the counting bound.


def _witness_field(q: int, zeta: int | None) -> Fq:
    """F_q for the witness search and the counting bound, where a given
    zeta must encode a unit of F_q, 1..q-1.  Both scan F_q, so q is at most
    arith.FIELD_LIMIT, prime fields included (Fq.elements)."""
    F = field(q)
    if zeta is not None and not 1 <= zeta < F.q:
        raise ValueError(f"zeta must encode a unit of F_{F.q}, 1..{F.q - 1}; got {zeta}")
    return F


def steinberg_witness(q: int, zeta: int | None = None):
    """For odd q: the first pair (x, y) of units with zeta x^2 + zeta y^2 = 1.

    q must be at most FIELD_LIMIT, and zeta defaults to the generator; a
    given zeta must encode a unit (1..q-1), else ValueError.  For a
    non-square zeta such a pair exists by counting: zeta*squares and
    1 - zeta*squares are sets of size (q+1)/2 each, so they intersect;
    x = 0 or y = 0 would make zeta a square.  A square zeta may have no
    witness (q = 5, zeta = 1), which is a ValueError.  For even q returns
    the CHAR2 marker: there -zeta = zeta, so {zeta, zeta} = {zeta, -zeta}
    = 0 with no witness needed.
    """
    F = _witness_field(q, zeta)
    if F.q % 2 == 0:
        return CHAR2
    if zeta is None:
        zeta = generator(F)
    one = F.one
    for x in F.units():
        zx2 = F.mul(zeta, F.mul(x, x))
        for y in F.units():
            if F.add(zx2, F.mul(zeta, F.mul(y, y))) == one:
                return (x, y)
    if F.pow(zeta, (F.q - 1) // 2) == one:
        raise ValueError(f"no witness for zeta = {zeta}: it is a square in F_{F.q}, "
                         "and a witness is guaranteed only for a non-square zeta")
    raise AssertionError("no witness found; counting bound violated")


@dataclass(frozen=True)
class CountingBound:
    """Cardinalities behind the witness existence argument."""

    q: int
    zeta_squares: int       # |{zeta x^2 : x in F}|
    one_minus: int          # |{1 - zeta y^2 : y in F}|
    total: int
    exceeds_field: bool     # total > q forces an intersection


def counting_bound(q: int, zeta: int | None = None) -> CountingBound:
    F = _witness_field(q, zeta)
    if zeta is None:
        zeta = generator(F)
    s1 = {F.mul(zeta, F.mul(x, x)) for x in F.elements()}
    s2 = {F.sub(F.one, F.mul(zeta, F.mul(y, y))) for y in F.elements()}
    return CountingBound(q, len(s1), len(s2), len(s1) + len(s2), len(s1) + len(s2) > q)
