"""Quadratic forms over Q: diagonalization, classical invariants, and the
local-global decisions for conics and quaternion algebras.

Forms are regular (nonzero determinant) throughout.  The Hasse invariant is
the product over i < j of hilbert(a_i, a_j, v); with this convention the
rank-4 form <1, -x, -y, xy> satisfies

    hasse_v * hilbert(-1, -1, v) = hilbert(x, y, v)

at every place, which is the checkable shadow of the fact that the Hasse
invariant inverts the mod-2 symbol on classes of even rank and trivial
discriminant.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .arith import _unchecked
from .localsym import (
    REAL,
    TWO,
    LocalData,
    PlaceQ,
    _as_nonzero_fraction,
    _h,
    _residue,
    _residue8,
    _s2,
    hilbert,
    hilbert_factors,
    local_data,
    odd_primes,
)


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric matrix of rationals in row-major tuples."""

    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        n = len(self.rows)
        for row in self.rows:
            if len(row) != n:
                raise ValueError("matrix must be square")
        for i in range(n):
            for j in range(i):
                if self.rows[i][j] != self.rows[j][i]:
                    raise ValueError("matrix must be symmetric")

    @staticmethod
    def of(rows) -> "GramMatrix":
        return GramMatrix(tuple(tuple(Fraction(x) for x in row) for row in rows))

    @property
    def n(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class DiagForm:
    """Diagonal quadratic form <a_1, ..., a_n>, all entries nonzero."""

    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if any(a == 0 for a in self.entries):
            raise ValueError("diagonal entries must be nonzero")

    @staticmethod
    def of(*entries) -> "DiagForm":
        return DiagForm(tuple(Fraction(a) for a in entries))

    @property
    def rank(self) -> int:
        return len(self.entries)


def _mat_mul(A, B):
    n, m, k = len(A), len(B[0]), len(B)
    return tuple(
        tuple(sum(A[i][t] * B[t][j] for t in range(k)) for j in range(m)) for i in range(n)
    )


def _transpose(A):
    return tuple(tuple(row[i] for row in A) for i in range(len(A[0])))


def _substitute(M, U, k: int, j: int, a, b, c, d) -> None:
    """Replace basis vectors u_k, u_j by a u_k + b u_j and c u_k + d u_j,
    in place: columns k and j of U, then rows and columns k and j of the
    Gram matrix M (its columns first, so that the rows see the new ones)."""
    for rows in (U, M):
        for row in rows:
            row[k], row[j] = a * row[k] + b * row[j], c * row[k] + d * row[j]
    M[k], M[j] = ([a * x + b * y for x, y in zip(M[k], M[j])],
                  [c * x + d * y for x, y in zip(M[k], M[j])])


def diagonalize_with_basis(g: GramMatrix) -> tuple[DiagForm, tuple[tuple[Fraction, ...], ...]]:
    """Diagonalize by congruence; returns (form, U) with U^T g U = diag(form).

    Symmetric elimination, each step one substitution of two basis
    vectors u_k, u_j applied to the columns of U and to the rows and
    columns of the Gram matrix (Lam, Introduction to Quadratic Forms over
    Fields, ch. I):

      * elimination below a nonzero pivot: u_j <- u_j - (B(u_k, u_j) / B(u_k, u_k)) u_k;
      * a zero pivot with a later nonzero diagonal entry: swap u_k and u_j;
      * a zero pivot on an all-zero trailing diagonal:
        (u_k, u_j) <- (u_k + u_j, u_k - u_j) on a nonzero off-diagonal
        pair, which splits off a hyperbolic plane.
    """
    n = g.n
    M = [[Fraction(x) for x in row] for row in g.rows]
    U = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(n):
        if M[k][k] == 0:
            j = next((j for j in range(k + 1, n) if M[j][j] != 0), None)
            if j is not None:
                _substitute(M, U, k, j, 0, 1, 1, 0)
            else:
                j = next((j for j in range(k + 1, n) if M[k][j] != 0), None)
                if j is None:
                    raise ValueError("singular matrix")
                _substitute(M, U, k, j, 1, 1, 1, -1)
        pivot = M[k][k]
        if pivot == 0:
            raise ValueError("singular matrix")
        for j in range(k + 1, n):
            if M[k][j] != 0:
                _substitute(M, U, k, j, 1, 0, -M[k][j] / pivot, 1)

    Ut = tuple(tuple(row) for row in U)
    check = _mat_mul(_mat_mul(_transpose(Ut), g.rows), Ut)
    for i in range(n):
        for j in range(n):
            expect = M[i][i] if i == j else Fraction(0)
            assert check[i][j] == expect, "congruence bookkeeping broke"
    return DiagForm(tuple(M[i][i] for i in range(n))), Ut


def diagonalize(g: GramMatrix) -> DiagForm:
    return diagonalize_with_basis(g)[0]


def square_class(r) -> int:
    """Squarefree integer representative of the square class of r != 0."""
    if Fraction(r) == 0:
        raise ValueError("zero has no square class")
    return _disc_class([local_data(r)])


def _square_scale(r: LocalData) -> tuple[int, Fraction]:
    """Write r = sf * t^2 with sf a squarefree integer and t > 0, from the
    record of r != 0: returns (sf, t), where sf is its square class and
    t = prod p^(e // 2) (negative exponents included)."""
    t = Fraction(1)
    for p, e in r.exps.items():
        t *= Fraction(p) ** (e // 2)
    return _disc_class([r]), t


@dataclass(frozen=True)
class FormInvariants:
    rank: int
    disc: int  # squarefree representative of the discriminant class
    signature: tuple[int, int]  # (positive entries, negative entries)
    hasse: tuple[tuple[PlaceQ, int], ...]  # over the support set, sorted

    def hasse_at(self, place: PlaceQ) -> int:
        for v, s in self.hasse:
            if v == place:
                return s
        return 1

    def hasse_minus_set(self) -> frozenset:
        return frozenset(v for v, s in self.hasse if s == -1)


def invariants(f: DiagForm) -> FormInvariants:
    """Rank, discriminant class, signature, and all local Hasse invariants.

    Each entry is factored once.  The Hasse invariant at a place is the
    product over i < j of the Hilbert symbols of the entries, and only the
    real place, 2 and the odd primes of some entry can give -1.
    """
    records = [local_data(a) for a in f.entries]
    n = len(records)
    neg = sum(1 for r in records if r.sign < 0)
    return FormInvariants(
        rank=n,
        disc=_disc_class(records),
        signature=(n - neg, neg),
        hasse=_hasse(records) if records else (),
    )


def _hasse(records: list[LocalData]) -> tuple[tuple[PlaceQ, int], ...]:
    """The Hasse invariant at the real place, at 2 and at each odd prime of
    some entry; everywhere else every entry is a unit and it is +1."""
    places = [REAL, TWO] + [_unchecked(PlaceQ, p=p) for p in odd_primes(*records)]
    return tuple((v, _hasse_at(v, records)) for v in places)


def _hasse_at(place: PlaceQ, entries) -> int:
    """The product over i < j of hilbert(a_i, a_j, place), for entries given
    as Fractions or LocalData records: at the real place (-1) to the number
    of pairs of negative entries, elsewhere the pairwise product of the
    local symbols on each entry's valuation and unit residue."""
    if place.p is None:
        neg = sum(1 for a in entries if a.numerator < 0)
        return -1 if neg * (neg - 1) // 2 % 2 else 1
    if place.p == 2:
        return _pairwise(_s2, [_residue8(a) for a in entries])
    return _pairwise(_h, [_residue(a, place.p) for a in entries], place.p)


def _pairwise(symbol, local, *args) -> int:
    """The product over i < j of symbol(*local[i], *local[j], *args)."""
    s = 1
    for i, x in enumerate(local):
        for y in local[i + 1:]:
            s *= symbol(*x, *y, *args)
    return s


def _disc_class(records: list[LocalData]) -> int:
    """Square class of the product of the entries, from the sign and the
    exponent parities of each entry's record: the product itself may lie
    beyond the factorization bound."""
    sign, odd = 1, set()
    for r in records:
        sign *= r.sign
        odd ^= {p for p, e in r.exps.items() if e % 2}
    out = sign
    for p in odd:
        out *= p
    return out


def equivalent_over_Q(f1: DiagForm, f2: DiagForm) -> bool:
    """Rational equivalence decided by the complete invariant set."""
    i1, i2 = invariants(f1), invariants(f2)
    return (
        i1.rank == i2.rank
        and i1.disc == i2.disc
        and i1.signature == i2.signature
        and i1.hasse_minus_set() == i2.hasse_minus_set()
    )


# -- conics xR^2 + yS^2 = 1 ---------------------------------------------------


@dataclass(frozen=True)
class ConicCertificate:
    x: Fraction
    y: Fraction
    tested: tuple[tuple[PlaceQ, int], ...]  # every support place with its sign
    failing: tuple[PlaceQ, ...]


def _conic_symbols(x: LocalData, y: LocalData) -> tuple[tuple[tuple[PlaceQ, int], ...], tuple[PlaceQ, ...]]:
    """(tested, failing): the Hilbert symbol (x, y)_v at every support place,
    and the places where it is -1.  By Hasse-Minkowski x R^2 + y S^2 = 1 has
    a rational point exactly when failing is empty.

    Raises RuntimeError if exactly one place fails: the product formula
    makes a single failure impossible, so that would be an internal error.
    """
    tested = hilbert_factors(x, y)
    failing = tuple(v for v, s in tested if s == -1)
    if len(failing) == 1:
        raise RuntimeError(f"single local obstruction at {failing[0]}: reciprocity violated")
    return tested, failing


def conic_solvable_Q(x, y) -> tuple[bool, ConicCertificate]:
    """Decide solvability of x R^2 + y S^2 = 1 over Q by local symbols."""
    x, y = _as_nonzero_fraction(x), _as_nonzero_fraction(y)
    tested, failing = _conic_symbols(local_data(x), local_data(y))
    return not failing, ConicCertificate(x, y, tested, failing)


def conic_point_search(x, y, height_bound: int):
    """Search for rational (R, S) with x R^2 + y S^2 = 1, or None.

    Height is max(|numerator|, |denominator|) over both coordinates in
    lowest terms.  Each coefficient is factored once: the Hilbert symbols
    of conic_solvable_Q reject an obstructed conic without search, and the
    search reads each coefficient's square scale off the same record.
    """
    x, y = _as_nonzero_fraction(x), _as_nonzero_fraction(y)
    if height_bound < 1:
        raise ValueError(f"height bound must be at least 1, got {height_bound}")
    rx, ry = local_data(x), local_data(y)
    if _conic_symbols(rx, ry)[1]:
        return None
    xs, tx = _square_scale(rx)
    ys, ty = _square_scale(ry)
    # solve xs r^2 + ys s^2 = c^2 in integers, then (R, S) = (r/(c tx), s/(c ty))
    for H in range(1, height_bound + 1):
        for r in range(H, -1, -1):
            ss = range(0, H + 1) if r == H else (H,)
            for s in ss:
                v = xs * r * r + ys * s * s
                if v <= 0:
                    continue
                c = isqrt(v)
                if c * c == v:
                    R = Fraction(r, c) / tx
                    S = Fraction(s, c) / ty
                    if max(abs(R.numerator), R.denominator, abs(S.numerator), S.denominator) <= height_bound:
                        return (R, S)
    return None


# -- quaternions and the Pfister form -----------------------------------------


def quaternion_splits(a, b, place: PlaceQ | None = None) -> bool:
    """Whether the quaternion algebra (a, b) is a matrix algebra.

    Locally this is hilbert(a, b, place) = +1; globally it is the
    conjunction over the support, the same criterion as for the conic.
    """
    if place is not None:
        return hilbert(a, b, place) == 1
    return not _conic_symbols(local_data(a), local_data(b))[1]


def pfister_form(x, y) -> DiagForm:
    x, y = Fraction(x), Fraction(y)
    return DiagForm.of(1, -x, -y, x * y)


def pfister_hasse_identity(x, y, place: PlaceQ) -> bool:
    """hasse_v(<1,-x,-y,xy>) * hilbert(-1,-1,v) = hilbert(x,y,v)."""
    x, y = _as_nonzero_fraction(x), _as_nonzero_fraction(y)
    h = _hasse_at(place, pfister_form(x, y).entries)
    return h * hilbert(Fraction(-1), Fraction(-1), place) == hilbert(x, y, place)
