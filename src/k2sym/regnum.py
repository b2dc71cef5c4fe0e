"""Numerics for the dilogarithm regulator pairing on C(z).

The single-valued dilogarithm D(z) = Im Li2(z) + arg(1-z) log|z| is computed
by reducing into |z| <= 1, Re z <= 1/2 with the inversion and reflection
antisymmetries, then summing the Bernoulli series in y = -log(1-z).

The pairing side: for nonzero f, g in C(z) the real 1-form

    eta(f, g) = log|f| d(arg g) - log|g| d(arg f)

is closed away from the zeros and poles of f and g, and its loop integrals
recover logs of tame symbol absolute values.  The module uses the standard
library only.  loop_integral expands f.num, f.den, g.num and g.den exactly
at the loop's center a, by a Taylor shift over Q(i):

    P(a + w) = b_k w^k (1 + sum_{j>=1} rho_j w^j),   rho_j = b_(k+j) / b_k.

On the loop w = r u with |u| = 1, so log|P| and w P'/P come from the unit
part's coefficients rho_j r^j, rounded once per call, by one Horner pass
over the nodes that each dyadic level adds.  Its LoopIntegral records the
estimate at every level.  The pointwise scalar form of eta lives in the
tests (tests/oracles.py), as the independent reference for loop_integral.

residue_check takes its radius from the same expansions at the point:
r = 1/(4M), M the largest |rho_j|^(1/j) of the four.  Then
sum_j |rho_j| (2r)^j < 1, which proves that no other zero or pole lies
within 2r of the point, and on the loop each unit part is within 1/3 of its
constant term, so every sample is well conditioned.  Coefficients are
exact Gaussian rationals, and the tame side of the comparison is
funcfield's tame symbol at the place z - a of Q(i)(z), so it carries no
float error at all; the orders of f and g there are read off the
expansions.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .arith import Poly, PolyKernels, RatFunc, _unchecked, bernoulli
from .funcfield import PlaceFq, tame_ff

CONVERGENCE_TARGET = 1e-9
FIRST_SAMPLES = 64
MAX_SAMPLES = 2**20
RESIDUE_TOLERANCE = 1e-6


class GaussRat:
    """Exact Gaussian rational re + im*i.

    Stored on integers as (a + b*i)/d with d > 0 and gcd(a, b, d) = 1, so
    each operation reduces once, by one gcd (Knuth, TAOCP vol. 2, 4.5.1).
    re and im read as Fractions; GaussRat(re, im) takes anything Fraction
    takes.  Equality, hashing and repr are those of the pair
    (re, im)."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re, im=0):
        if type(re) is int and type(im) is int:
            _set_parts(self, re, im, 1)
            return
        re, im = Fraction(re), Fraction(im)
        d = lcm(re.denominator, im.denominator)
        _set_parts(self, re.numerator * (d // re.denominator), im.numerator * (d // im.denominator), d)

    def __setattr__(self, *a):
        raise AttributeError("GaussRat is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def __add__(self, o):
        d, e = self.d, o.d
        if d == e:
            return _reduced(self.a + o.a, self.b + o.b, d)
        return _reduced(self.a * e + o.a * d, self.b * e + o.b * d, d * e)

    def __sub__(self, o):
        d, e = self.d, o.d
        if d == e:
            return _reduced(self.a - o.a, self.b - o.b, d)
        return _reduced(self.a * e - o.a * d, self.b * e - o.b * d, d * e)

    def __neg__(self):
        return _parts(-self.a, -self.b, self.d)

    def __mul__(self, o):
        a, b, c, e = self.a, self.b, o.a, o.b
        return _reduced(a * c - b * e, a * e + b * c, self.d * o.d)

    def norm2(self) -> Fraction:
        return Fraction(self.a * self.a + self.b * self.b, self.d * self.d)

    def inverse(self) -> "GaussRat":
        a, b, d = self.a, self.b, self.d
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("inverse of 0")
        return _reduced(d * a, -d * b, n)

    def __truediv__(self, o):
        # (a + bi)/d / ((c + ei)/f) = f (a + bi)(c - ei) / (d (c^2 + e^2))
        a, b, c, e, f = self.a, self.b, o.a, o.b, o.d
        n = c * c + e * e
        if n == 0:
            raise ZeroDivisionError("inverse of 0")
        return _reduced(f * (a * c + b * e), f * (b * c - a * e), self.d * n)

    def is_zero(self) -> bool:
        return not (self.a or self.b)

    def to_complex(self) -> complex:
        # float(Fraction(a, d)) is a / d: the same correctly rounded float
        try:
            return complex(self.a / self.d, self.b / self.d)
        except OverflowError:
            raise ValueError("the point lies beyond what floats reach") from None

    def __eq__(self, o):
        if not isinstance(o, GaussRat):
            return NotImplemented
        return self.a == o.a and self.b == o.b and self.d == o.d

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussRat({self.re}, {self.im})"


_set_a, _set_b, _set_d = GaussRat.a.__set__, GaussRat.b.__set__, GaussRat.d.__set__


def _set_parts(z: GaussRat, a: int, b: int, d: int) -> None:
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)


def _parts(a: int, b: int, d: int) -> GaussRat:
    """(a + b*i)/d from parts already in lowest terms, d > 0."""
    z = object.__new__(GaussRat)
    _set_parts(z, a, b, d)
    return z


def _reduced(a: int, b: int, d: int) -> GaussRat:
    """(a + b*i)/d in lowest terms, for d > 0."""
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return _parts(a, b, d)


class GaussField(PolyKernels):
    """The field Q(i) of Gaussian rationals, with the field operations that
    Poly and RatFunc use.  Its polynomial kernels (product, remainder,
    divmod, pow_mod, gcd) are the generic ones of PolyKernels.  CX is its
    one instance, and fields compare by identity."""

    zero = GaussRat(0)
    one = GaussRat(1)

    def from_int(self, n):
        return GaussRat(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return a.inverse()

    def __repr__(self):
        return "Q(i)"


CX = GaussField()


def gauss(re, im=0) -> GaussRat:
    return GaussRat(re, im)


def poly_z(coeffs) -> Poly:
    """Polynomial in z from ints, Fractions, or GaussRat, little-endian."""
    out = []
    for c in coeffs:
        out.append(c if isinstance(c, GaussRat) else GaussRat(c))
    return Poly(CX, out)


def ratfunc_z(num, den=(1,)) -> RatFunc:
    return RatFunc(poly_z(num), poly_z(den))


# -- the single-valued dilogarithm ------------------------------------------------


@functools.cache
def _bern_coeffs() -> tuple[float, ...]:
    """B_n / (n+1)! for n < 40, the coefficients of Li2 in -log(1 - z)."""
    return tuple(float(Fraction(bernoulli(n), math.factorial(n + 1))) for n in range(40))


def _li2(z: complex) -> complex:
    """Dilogarithm on |z| <= 1, Re z <= 1/2, where y = -log(1 - z) has
    |y| <= pi/3, well inside the series' radius 2 pi."""
    y = -cmath.log(1 - z)
    acc = 0j
    yp = y
    for c in _bern_coeffs():
        acc += c * yp
        yp *= y
    return acc


def bloch_wigner(z) -> float:
    """D(z) = Im Li2(z) + arg(1-z) log|z|; identically 0 on the real line."""
    if isinstance(z, GaussRat):
        z = z.to_complex()
    z = complex(z)
    if z.imag == 0.0:
        return 0.0
    sign = 1.0
    if abs(z) > 1.0:
        z = 1 / z
        sign = -sign
    if z.real > 0.5:
        z = 1 - z
        sign = -sign
    val = _li2(z).imag + cmath.phase(1 - z) * math.log(abs(z))
    return sign * val


# -- loops and the eta pairing -----------------------------------------------------


@dataclass(frozen=True)
class Loop:
    """Circle center + radius e^(i orientation theta).  loop_integral
    samples it dyadically, from FIRST_SAMPLES equally spaced angles up."""

    center: complex
    radius: float
    orientation: int = 1

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")


def _eta(log_f, dlog_f, log_g, dlog_g, dz):
    """eta(f, g) on dz from log|f|, f'/f, log|g| and g'/g; or on dz/w from
    w f'/f and w g'/g, for any w."""
    return log_f * (dlog_g * dz).imag - log_g * (dlog_f * dz).imag


@dataclass(frozen=True)
class LoopIntegral:
    """The refined value, its last change |delta| as tolerance, the final
    sample count, and the trajectory: (samples, estimate, |delta|) at each
    dyadic level, with delta None at the first."""

    value: float
    tolerance: float
    samples: int
    trajectory: tuple[tuple[int, float, float | None], ...]


class _Expansion(NamedTuple):
    """P(a + w) = b_k w^k (1 + sum_{j>=1} rho_j w^j): the exact Taylor
    expansion of a nonzero polynomial P at a point a of Q(i), with k the
    order of P at a, log_lead = log|b_k| and rho_j = b_(k+j)/b_k."""

    order: int
    log_lead: float
    rho: tuple[GaussRat, ...]


def _taylor_shift(xs: list[int], ys: list[int], p: int, q: int) -> None:
    """Replace the coefficients of Q(Z) by those of Q(Z + p + q i), in place:
    Gaussian integers as lists of real and imaginary parts, little-endian.
    Repeated synthetic division by Z - (p + q i), n(n+1)/2 steps."""
    n = len(xs) - 1
    for i in range(n):
        x, y = xs[n], ys[n]
        for k in range(n - 1, i - 1, -1):
            x, y = xs[k] + p * x - q * y, ys[k] + p * y + q * x
            xs[k], ys[k] = x, y


def _log_sqrt(n: int, d: int) -> float:
    """log sqrt(n/d) for positive ints: one log of the correctly rounded
    quotient where that is a normal float, the difference of two logs
    beyond."""
    if abs(n.bit_length() - d.bit_length()) < 1000:
        return 0.5 * math.log(n / d)
    return 0.5 * (math.log(n) - math.log(d))


def _expand(p: Poly, a: GaussRat) -> _Expansion:
    """The Taylor expansion of the nonzero polynomial p at a, exactly.

    With a = (s + t i)/d and e the common denominator of the coefficients,
    Q(Z) = e d^n p(Z/d) has Gaussian integer coefficients, and the shift
    Q(s + t i + W) = sum B_j W^j gives b_j = B_j d^j / (e d^n) at W = d w."""
    cs, d = p.coeffs, a.d
    n = len(cs) - 1
    e = lcm(*(c.d for c in cs))
    xs, ys, scale = [0] * (n + 1), [0] * (n + 1), e
    for j in range(n, -1, -1):
        c = cs[j]
        m = scale // c.d
        xs[j], ys[j] = c.a * m, c.b * m
        scale *= d
    if a.a or a.b:
        _taylor_shift(xs, ys, a.a, a.b)
    k = 0
    while not (xs[k] or ys[k]):
        k += 1
    x0, y0 = xs[k], ys[k]
    n0 = x0 * x0 + y0 * y0
    log_lead = _log_sqrt(n0, (e * d ** (n - k)) ** 2)  # |b_k|^2 = n0 / (e d^(n-k))^2
    rho, dj = [], 1
    for x, y in zip(xs[k + 1:], ys[k + 1:]):
        dj *= d  # rho_j = d^j B_(k+j) / B_k
        rho.append(_reduced(dj * (x * x0 + y * y0), dj * (y * x0 - x * y0), n0))
    return _Expansion(k, log_lead, tuple(rho))


def _radius(expansions) -> float:
    """r = 1/(4M), M the largest |rho_j|^(1/j) over the expansions; 1 when
    every unit part is constant.  Then sum_j |rho_j| (2r)^j < 1, so no unit
    part vanishes on |w| <= 2r, and on |w| = r each lies within 1/3 of its
    constant term.  With R = 1/|w| at the nearest zero w of a unit part U,
    R/2 <= M <= deg(U) R (Fujiwara's bound and Vieta), so a radius beyond
    floats means a zero or pole beyond them."""
    logs = [_log_sqrt(z.a * z.a + z.b * z.b, z.d * z.d) / j
            for ex in expansions for j, z in enumerate(ex.rho, 1) if not z.is_zero()]
    if not logs:
        return 1.0
    try:
        radius = 0.25 * math.exp(-max(logs))
    except OverflowError:
        raise ValueError("the zeros and poles other than the point lie farther from it "
                         "than floats reach") from None
    if radius == 0:
        raise ValueError("a zero or pole lies nearer the point than floats reach")
    return radius


def _unit_coefficients(ex: _Expansion, radius: float) -> list[tuple[complex, complex]]:
    """(c_j, j c_j) for j = 1 .. deg U, with c_j = rho_j radius^j: the unit
    part U of ex on the circle |w| = radius as a polynomial in u = w/radius,
    less its constant term 1.  Each c_j is the exact value correctly
    rounded, part by part."""
    rn, rd = radius.as_integer_ratio()
    shift = rd.bit_length() - 1  # rd = 2^shift
    pairs, num = [], 1
    for j, z in enumerate(ex.rho, 1):
        num *= rn
        den = z.d << (shift * j)
        c = complex(z.a * num / den, z.b * num / den)
        pairs.append((c, j * c))
    return pairs


def _unit_values(pairs, us: list[complex]) -> tuple[list, list]:
    """S = 1 + sum c_j u^j and T = sum j c_j u^j at each u of us, from the
    pairs (c_j, j c_j) of _unit_coefficients, in one Horner pass over the
    list of nodes."""
    if not pairs:
        return [1] * len(us), [0] * len(us)
    c, jc = pairs[-1]
    s, t = [c] * len(us), [jc] * len(us)
    for c, jc in reversed(pairs[:-1]):
        s = [c + x * u for x, u in zip(s, us)]
        t = [jc + y * u for y, u in zip(t, us)]
    return [1 + x * u for x, u in zip(s, us)], [y * u for y, u in zip(t, us)]


def _eta_sampler(expansions, loop: Loop):
    """thetas -> the pullback of eta(f, g) to the loop at those angles, from
    the expansions of f.num, f.den, g.num and g.den at the loop's center.
    On the loop w = radius u with u = e^(i orientation theta), and for each
    polynomial P = b_k w^k U(w), log|P| = log|b_k| + k log radius + log|S|
    and w P'/P = k + T/S; dz = i orientation w dtheta."""
    log_r = math.log(loop.radius)
    dz = 1j * loop.orientation
    functions = []
    for num, den in (expansions[:2], expansions[2:]):
        order = num.order - den.order
        log_abs = num.log_lead - den.log_lead + order * log_r
        functions.append((log_abs, order, _unit_coefficients(num, loop.radius),
                          _unit_coefficients(den, loop.radius)))

    def sample(thetas):
        us = [cmath.exp(dz * theta) for theta in thetas]
        columns = []
        for log_abs, order, num, den in functions:
            sn, tn = _unit_values(num, us)
            sd, td = _unit_values(den, us)
            if not (all(sn) and all(sd)):
                raise ValueError("evaluation at a zero or pole")
            columns.append([log_abs + math.log(abs(a / b)) for a, b in zip(sn, sd)])
            columns.append([order + c / a - d / b for a, b, c, d in zip(sn, sd, tn, td)])
        return [_eta(*values, dz) for values in zip(*columns)]

    return sample


def loop_integral(f: RatFunc, g: RatFunc, loop: Loop,
                  expansions: list[_Expansion] | None = None) -> LoopIntegral:
    """(1/2pi) times the integral of eta(f, g) around the loop, refined by
    doubling until two dyadic levels agree to 1e-9.

    f.num, f.den, g.num and g.den are expanded exactly at the loop's center,
    unless their expansions there are passed in.  Periodic trapezoid rule:
    the mean of equally spaced samples converges spectrally (Trefethen and
    Weideman, SIAM Review 56, 2014).  Each level evaluates only its new
    nodes, the odd multiples of 2pi/n, and its estimate is math.fsum of all
    n samples over n."""
    if f.is_zero() or g.is_zero():
        raise ValueError("eta needs nonzero functions")
    if expansions is None:
        a = GaussRat(loop.center.real, loop.center.imag)
        expansions = [_expand(p, a) for p in (f.num, f.den, g.num, g.den)]
    sample = _eta_sampler(expansions, loop)
    n = FIRST_SAMPLES
    step = 2 * math.pi / n
    values = sample([k * step for k in range(n)])
    prev = math.fsum(values) / n
    trajectory = [(n, prev, None)]
    while n < MAX_SAMPLES:
        n *= 2
        step = 2 * math.pi / n
        values += sample([k * step for k in range(1, n, 2)])
        cur = math.fsum(values) / n
        delta = abs(cur - prev)
        trajectory.append((n, cur, delta))
        if delta < CONVERGENCE_TARGET:
            return LoopIntegral(cur, delta, n, tuple(trajectory))
        prev = cur
    raise RuntimeError(f"no convergence after {MAX_SAMPLES} samples")


# -- comparison against the exact tame symbol --------------------------------------


@dataclass(frozen=True)
class ResidueCheck:
    point: GaussRat
    order_f: int
    order_g: int
    tame_value: GaussRat
    expected: float
    integral: float
    difference: float
    holds: bool
    trajectory: tuple[tuple[int, float, float | None], ...]


def residue_check(f: RatFunc, g: RatFunc, point: GaussRat) -> ResidueCheck:
    """Compare the loop integral of eta around the point with log of the
    exact tame symbol's absolute value; they agree when they differ by at
    most RESIDUE_TOLERANCE.  The tame value is tame_ff's at the place
    z - point, apart from the expansions.  The loop's radius, its samples
    and the orders of f and g come from one exact expansion of each of the
    four polynomials at the point."""
    tame = tame_ff(f, g, _unchecked(PlaceFq, pi=Poly(CX, [-point, CX.one]))).constant_value()
    if tame.is_zero():
        raise ValueError("tame symbol vanished; functions not coprime enough")
    n2 = tame.norm2()
    expected = _log_sqrt(n2.numerator, n2.denominator)
    expansions = [_expand(p, point) for p in (f.num, f.den, g.num, g.den)]
    fn, fd, gn, gd = expansions
    radius = _radius(expansions)
    loop = Loop(point.to_complex(), radius)
    li = loop_integral(f, g, loop, expansions)
    diff = abs(li.value - expected)
    return ResidueCheck(point, fn.order - fd.order, gn.order - gd.order, tame, expected, li.value, diff,
                        diff <= RESIDUE_TOLERANCE, li.trajectory)
