"""Numerics for the dilogarithm regulator pairing on C(z).

The single-valued dilogarithm D(z) = Im Li2(z) + arg(1-z) log|z| is computed
by reducing into |z| <= 1, Re z <= 1/2 with the inversion and reflection
antisymmetries, then summing the Bernoulli series in y = -log(1-z).

The pairing side: for nonzero f, g in C(z) the real 1-form

    eta(f, g) = log|f| d(arg g) - log|g| d(arg f)

is closed away from the zeros and poles of f and g, and its loop integrals
recover logs of tame symbol absolute values.  loop_integral samples it as
numpy arrays, converting the coefficients of f and g and of their exact
derivatives to complex once per call, and evaluating at each dyadic level
only the nodes that level adds.  Its LoopIntegral records the estimate at
every level.  The pointwise scalar form of eta lives in the tests
(tests/oracles.py), as the independent reference for loop_integral.

Coefficients are exact Gaussian rationals, and the tame side of the
comparison is funcfield's tame symbol at the place z - a of Q(i)(z), so it
carries no float error at all; the orders of f and g there come out of the
same pass.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .arith import Poly, PolyKernels, RatFunc, _unchecked, bernoulli
from .funcfield import PlaceFq, tame_with_orders

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
        return complex(self.a / self.d, self.b / self.d)

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
    """eta(f, g) on dz from log|f|, f'/f, log|g| and g'/g: scalars or
    numpy arrays alike."""
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


def _eta_sampler(f: RatFunc, g: RatFunc, loop: Loop):
    """theta -> the pullback of eta(f, g) to the loop at the angles theta
    (a numpy array).  The coefficients of the four polynomials and of their
    exact derivatives become complex arrays once, here."""
    import numpy  # only here: importing k2sym does not load numpy

    def cx(p: Poly):
        return numpy.array([c.to_complex() for c in reversed(p.coeffs)], dtype=complex)

    parts = [(cx(p), cx(p.derivative())) for p in (f.num, f.den, g.num, g.den)]
    spin = 1j * loop.orientation
    lift = loop.radius * loop.orientation * 1j

    def sample(theta):
        u = numpy.exp(spin * theta)
        zc = loop.center + loop.radius * u
        values = [(numpy.polyval(p, zc), numpy.polyval(dp, zc)) for p, dp in parts]
        if not all(v.all() for v, _ in values):
            raise ValueError("evaluation at a zero or pole")
        (fn, dfn), (fd, dfd), (gn, dgn), (gd, dgd) = values
        log_f = numpy.log(numpy.abs(fn)) - numpy.log(numpy.abs(fd))
        log_g = numpy.log(numpy.abs(gn)) - numpy.log(numpy.abs(gd))
        return _eta(log_f, dfn / fn - dfd / fd, log_g, dgn / gn - dgd / gd, lift * u)

    return sample


def loop_integral(f: RatFunc, g: RatFunc, loop: Loop) -> LoopIntegral:
    """(1/2pi) times the integral of eta(f, g) around the loop, refined by
    doubling until two dyadic levels agree to 1e-9.

    Periodic trapezoid rule: the mean of equally spaced samples converges
    spectrally (Trefethen and Weideman, SIAM Review 56, 2014).  Each level
    evaluates only its new nodes, the odd multiples of 2pi/n, as one numpy
    array, and its estimate is math.fsum of all n samples over n."""
    if f.is_zero() or g.is_zero():
        raise ValueError("eta needs nonzero functions")
    import numpy

    sample = _eta_sampler(f, g, loop)
    n = FIRST_SAMPLES
    values = sample(numpy.arange(n) * (2 * math.pi / n)).tolist()
    prev = math.fsum(values) / n
    trajectory = [(n, prev, None)]
    while n < MAX_SAMPLES:
        n *= 2
        values += sample(numpy.arange(1, n, 2) * (2 * math.pi / n)).tolist()
        cur = math.fsum(values) / n
        delta = abs(cur - prev)
        trajectory.append((n, cur, delta))
        if delta < CONVERGENCE_TARGET:
            return LoopIntegral(cur, delta, n, tuple(trajectory))
        prev = cur
    raise RuntimeError(f"no convergence after {MAX_SAMPLES} samples")


# -- comparison against the exact tame symbol --------------------------------------


def _place(a: GaussRat) -> PlaceFq:
    """The degree-1 place z - a of Q(i)(z)."""
    return _unchecked(PlaceFq, pi=Poly(CX, [-a, CX.one]))


def _orders_and_tame(f: RatFunc, g: RatFunc, a: GaussRat) -> tuple[int, int, GaussRat]:
    """Orders of f and g at a and their exact tame symbol there, from one
    strip of z - a out of each of the four polynomials."""
    if f.is_zero() or g.is_zero():
        raise ValueError("tame symbol needs nonzero functions")
    m, n, value = tame_with_orders(f, g, _place(a))
    return m, n, value.constant_value()


def _singularities(f: RatFunc, g: RatFunc, pc: complex, m: int, n: int) -> list[complex]:
    """Numerical zeros and poles of f and g away from pc, where f and g
    have orders m and n.  numpy.roots splits a root of multiplicity k into
    k roots about eps^(1/k) apart, so each polynomial drops its roots
    nearest pc, as many as its exact multiplicity there."""
    import numpy  # only here: importing k2sym does not load numpy

    roots: list[complex] = []
    for p, k in ((f.num, max(m, 0)), (f.den, max(-m, 0)), (g.num, max(n, 0)), (g.den, max(-n, 0))):
        if not p.is_constant():
            cs = [c.to_complex() for c in reversed(p.coeffs)]
            roots.extend(sorted(numpy.roots(cs).tolist(), key=lambda r: abs(r - pc))[k:])
    return roots


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
    most RESIDUE_TOLERANCE."""
    m, n, tame = _orders_and_tame(f, g, point)
    if tame.is_zero():
        raise ValueError("tame symbol vanished; functions not coprime enough")
    n2 = tame.norm2()
    expected = 0.5 * (math.log(n2.numerator) - math.log(n2.denominator))
    pc = point.to_complex()
    dists = [abs(r - pc) for r in _singularities(f, g, pc, m, n)]
    radius = min(dists) / 2 if dists else 1.0
    li = loop_integral(f, g, Loop(pc, radius))
    diff = abs(li.value - expected)
    return ResidueCheck(point, m, n, tame, expected, li.value, diff, diff <= RESIDUE_TOLERANCE, li.trajectory)
