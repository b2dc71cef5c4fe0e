"""Local symbols on Q: the sign symbol at the real place, the dyadic symbol,
and tame symbols at odd primes.

Each place v of Q carries a symbol s_v on pairs of nonzero rationals with
values in the roots of unity mu_v of the completion: {+1,-1} at the real
place and at 2, and F_p^* at an odd prime p (mu of Q_p identified with the
residue field units by reduction mod p).  All three are bilinear and satisfy
the Steinberg relation s(x, 1-x) = 1, which makes them symbols on K_2.

Conventions fixed here and relied on everywhere else:
  * tame(x, y, p) is the residue of (-1)^{v(x)v(y)} x^{v(y)} y^{-v(x)} mod p;
  * the dyadic symbol on odd units is (-1)^{eps(x)eps(y)} with
    eps(u) = (u-1)/2 mod 2, extended to all of Q_2^* by bilinearity through
    the decomposition x = 2^a u (the 3x3 generator table below);
  * h_p(x, y) = tame(x, y, p)^{(p-1)/2} is the +-1 squashing of the tame
    symbol used in product formulas.

The single-place functions (tame, s_2, h_p, hilbert) take the valuation at
the one place asked for and never factor.  Checks over every place factor
each argument once into a LocalData record and read each place's valuation
and unit residue from it with integer operations (Milnor, Introduction to
Algebraic K-theory, section 11).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .arith import _legendre, _split, _unchecked, factorize, is_prime


@dataclass(frozen=True)
class PlaceQ:
    """A place of Q, named by its prime: p, or None at the real place."""

    p: int | None

    def __post_init__(self):
        if self.p is not None and not is_prime(self.p):
            raise ValueError(f"not a prime: {self.p}")

    def __repr__(self):
        return "PlaceQ(real)" if self.p is None else f"PlaceQ({self.p})"


REAL = PlaceQ(None)
TWO = PlaceQ(2)


def _as_nonzero_fraction(x) -> Fraction:
    x = Fraction(x)
    if x == 0:
        raise ValueError("symbols are defined on nonzero arguments only")
    return x


# ---------------------------------------------------------------------------
# Kernels on plain ints.  At an odd prime p an argument enters as (a, u):
# its valuation and its p-adic unit part reduced mod p.  At 2 it enters as
# (a, u8): its valuation and its odd unit part mod 8.  _residue and
# _residue8 read these off a Fraction or a LocalData record alike, through
# arith._split.


def _residue(x: Fraction | LocalData, p: int) -> tuple[int, int]:
    """(v_p(x), unit part of x mod p) for an odd prime p."""
    a, n, d = _split(x, p)
    return a, n * pow(d, -1, p) % p


def _residue8(x: Fraction | LocalData) -> tuple[int, int]:
    """(v_2(x), odd unit part of x mod 8); d^-1 = d mod 8 for odd d."""
    a, n, d = _split(x, 2)
    return a, n * d % 8


def _tame(a: int, u: int, b: int, w: int, p: int) -> int:
    """(-1)^{ab} u^b w^{-a} mod p: the tame symbol of p^a u and p^b w."""
    t = pow(u, b, p) * pow(w, -a, p) % p
    return p - t if a * b % 2 else t


def _h(a: int, u: int, b: int, w: int, p: int) -> int:
    """The +-1 symbol at an odd prime p: _tame(a, u, b, w, p)^((p-1)/2)."""
    h = _legendre(u, p) if b % 2 else 1
    if a % 2:
        h *= _legendre(w, p)
        if b % 2 and p % 4 == 3:
            h = -h
    return h


def _s2(a: int, u8: int, b: int, w8: int) -> int:
    """The dyadic symbol of 2^a u and 2^b w from u, w mod 8:
    (-1)^{eps(u) eps(w) + omega(u) b + omega(w) a}, where eps(u) = (u-1)/2
    and omega(u) = (u^2-1)/8 mod 2.  The s_2(2,2)^{ab} factor is +1."""
    eps_u, eps_w = u8 % 4 == 3, w8 % 4 == 3
    omega_u, omega_w = u8 in (3, 5), w8 in (3, 5)
    exponent = (eps_u and eps_w) + omega_u * b + omega_w * a
    return -1 if exponent % 2 else 1


# ---------------------------------------------------------------------------
# Single-place symbols.  Each takes the valuations at the place requested
# and never factors, so its cost does not grow with the arguments' other
# prime factors.


def s_infinity(x, y) -> int:
    """Symbol at the real place: -1 iff both arguments are negative."""
    x, y = _as_nonzero_fraction(x), _as_nonzero_fraction(y)
    return -1 if (x < 0 and y < 0) else 1


def s_2(x, y) -> int:
    """The dyadic symbol on Q_2^* x Q_2^*, valued in {+1, -1}.

    On odd units: s_2(u, w) = (-1)^{eps(u) eps(w)}.
    Mixed: s_2(u, 2) = (-1)^{omega(u)}.
    And s_2(2, 2) = s_2(-1, 2) = +1, forced by s(t, t) = s(-1, t).
    General arguments decompose as x = 2^a u and expand bilinearly.
    """
    x, y = _as_nonzero_fraction(x), _as_nonzero_fraction(y)
    return _s2(*_residue8(x), *_residue8(y))


def _check_odd_prime(p: int) -> None:
    if p == 2 or not is_prime(p):
        raise ValueError(f"tame symbol needs an odd prime, got {p}")


def _odd_args(x, y, p: int) -> tuple[int, int, int, int, int]:
    """(a, u, b, w, p) for _tame and _h from x = p^a u and y = p^b w."""
    x, y = _as_nonzero_fraction(x), _as_nonzero_fraction(y)
    return (*_residue(x, p), *_residue(y, p), p)


def tame(x, y, p: int) -> int:
    """Tame symbol at an odd prime p, valued in the residue units [1, p-1].

    tame(x, y, p) is the reduction mod p of the p-adic unit
    (-1)^{v(x)v(y)} x^{v(y)} y^{-v(x)}.
    """
    _check_odd_prime(p)
    return _tame(*_odd_args(x, y, p))


def h_p(x, y, p: int) -> int:
    """The order-2 quotient of the tame symbol: tame(x,y,p)^((p-1)/2)."""
    _check_odd_prime(p)
    return _h(*_odd_args(x, y, p))


def hilbert(x, y, place: PlaceQ) -> int:
    """The +-1 Hilbert symbol at any place: s_infinity, s_2, or h_p."""
    if place.p is None:
        return s_infinity(x, y)
    if place.p == 2:
        return s_2(x, y)
    return _h(*_odd_args(x, y, place.p))


# ---------------------------------------------------------------------------
# Every place at once.  A nonzero rational is factored once into a
# LocalData record, and each place reads its local data from the record
# with integer operations only.


class LocalData(NamedTuple):
    """A nonzero rational numerator / denominator, in lowest terms as in
    Fraction, with its prime exponents: exps[p] > 0 for p | numerator and
    < 0 for p | denominator."""

    numerator: int
    denominator: int
    exps: dict[int, int]

    @property
    def sign(self) -> int:
        return -1 if self.numerator < 0 else 1


def local_data(x) -> LocalData:
    """Factor a nonzero rational once, for evaluation at every place."""
    x = _as_nonzero_fraction(x)
    _, fac = factorize(x)
    return LocalData(x.numerator, x.denominator, dict(fac))


def odd_primes(*records: LocalData) -> list[int]:
    """The odd primes dividing any of the records, in increasing order."""
    ps = set()
    for r in records:
        ps.update(r.exps)
    ps.discard(2)
    return sorted(ps)


def hilbert_factors(x: LocalData, y: LocalData) -> tuple[tuple[PlaceQ, int], ...]:
    """The +-1 symbol of {x, y} at the real place, at 2 and at every odd
    prime of the support, in place order.  Away from these both arguments
    are units and the symbol is +1."""
    factors = [
        (REAL, -1 if x.sign < 0 and y.sign < 0 else 1),
        (TWO, _s2(*_residue8(x), *_residue8(y))),
    ]
    for p in odd_primes(x, y):
        place = _unchecked(PlaceQ, p=p)
        factors.append((place, _h(*_residue(x, p), *_residue(y, p), p)))
    return tuple(factors)


def odd_support(*values) -> tuple[int, ...]:
    """Odd primes dividing the numerator or denominator of any argument."""
    return tuple(odd_primes(*map(local_data, values)))


def support_places(x, y) -> tuple[PlaceQ, ...]:
    """Real, 2, and every odd prime in the support of x or y.

    Away from these places both arguments are units and the tame symbol is
    trivially 1, so any product formula over all places reduces to this set.
    """
    return (REAL, TWO) + tuple(_unchecked(PlaceQ, p=p) for p in odd_support(x, y))
