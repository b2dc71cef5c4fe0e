"""Seeded operation streams for the k2sym benchmark, with their oracles.

A workload is an endless sequence of decks.  A deck is a short list of
operations whose composition is fixed (so many of each kind, in a seeded
order) and whose arguments are drawn from the seeded generator; running
whole decks keeps the operation mix identical from seed to seed, so the
figures of two runs differ by input values and machine noise only.

Every operation carries a check built from a theorem or a definition, not
from the code under test: a product formula equals +1, a lift round trip
returns its target, the Weil product is 1, a conic never fails at exactly
one place, Hasse invariants multiply to +1, a loop integral matches the
logarithm the benchmark computes itself from the roots it placed, and the
CLI exits with the code its argv was generated for.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from k2sym import arith, cli, funcfield, k2q, quadforms
from k2sym.arith import Poly, RatFunc
from k2sym.localsym import REAL

WORKLOADS = ("q-symbols", "ff-prime", "ff-prime-power", "cli-mix")

FF_FIELDS = {"ff-prime": (2, 3, 5, 7), "ff-prime-power": (4, 8, 9, 25)}

# Maximum of the Bloch-Wigner dilogarithm, attained at exp(i pi / 3).
BLOCH_WIGNER_MAX = 1.0149416064096536

# The CLI's own tolerance for residue comparisons.
RESIDUE_TOLERANCE = 1e-6


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: `call` is timed, `check` is not.

    `check` returns None when the oracle holds, else the reason it failed.
    """

    kind: str
    family: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


# -- arithmetic the oracles use, independent of k2sym ----------------------------


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


ODD_PRIMES_BELOW_1000 = tuple(p for p in range(3, 1000) if is_prime(p))


def prime_support(x: Fraction) -> set[int]:
    out = set()
    for n in (abs(x.numerator), x.denominator):
        d = 2
        while d * d <= n:
            while n % d == 0:
                out.add(d)
                n //= d
            d += 1
        if n > 1:
            out.add(n)
    return out


def p_valuation(x: Fraction, p: int) -> int:
    v, n, d = 0, abs(x.numerator), x.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def tame_by_definition(x: Fraction, y: Fraction, p: int) -> int:
    """(-1)^(ab) x^b y^(-a) reduced mod p, with a, b the p-adic valuations."""
    a, b = p_valuation(x, p), p_valuation(y, p)
    val = (-1 if a * b % 2 else 1) * (x / Fraction(p) ** a) ** b * (y / Fraction(p) ** b) ** (-a)
    return val.numerator * pow(val.denominator, -1, p) % p


def is_rational_square(r: Fraction) -> bool:
    return r > 0 and all(math.isqrt(n) ** 2 == n for n in (r.numerator, r.denominator))


def elliptic_count(p: int, a: int, b: int) -> int:
    """Projective points of y^2 = x^3 + ax + b over F_p, by enumeration."""
    squares = [0] * p
    for y in range(p):
        squares[y * y % p] += 1
    return 1 + sum(squares[(x * x * x + a * x + b) % p] for x in range(p))


def is_generator_mod(z: int, p: int) -> bool:
    x, order = z % p, 1
    while x != 1:
        x = x * z % p
        order += 1
    return order == p - 1


def has_root_mod(coeffs: list[int], p: int) -> bool:
    return any(sum(c * pow(x, i, p) for i, c in enumerate(coeffs)) % p == 0 for x in range(p))


def gauss_norm(re: Fraction, im: Fraction) -> Fraction:
    return re * re + im * im


# -- formatting argv the way a user types it -------------------------------------


def fmt_poly(coeffs) -> str:
    """A polynomial in T from little-endian integer coefficients."""
    terms = []
    for i, c in enumerate(coeffs):
        if c:
            mono = "" if i == 0 else ("T" if i == 1 else f"T^{i}")
            terms.append(str(c) if not mono else (mono if c == 1 else f"{c}*{mono}"))
    return "+".join(reversed(terms)) or "0"


def fmt_bipoly(terms: dict[tuple[int, int], int]) -> str:
    parts = []
    for (i, j), c in sorted(terms.items(), reverse=True):
        mono = "*".join(m for m in (
            "" if i == 0 else ("s" if i == 1 else f"s^{i}"),
            "" if j == 0 else ("t" if j == 1 else f"t^{j}"),
        ) if m)
        parts.append(str(c) if not mono else (mono if c == 1 else f"{c}*{mono}"))
    return "+".join(parts) or "0"


def fmt_gauss(re: Fraction, im: Fraction) -> str:
    sign = "+" if im >= 0 else "-"
    return f"({re}{sign}{abs(im)}*i)"


def with_separator(head: list[str], positional: list[str]) -> list[str]:
    """Put "--" before positional arguments when one starts with a minus."""
    if any(a.startswith("-") for a in positional):
        return head + ["--"] + positional
    return head + positional


# -- generators ------------------------------------------------------------------


def rand_rational(rng: random.Random, bound: int) -> Fraction:
    return Fraction(rng.choice((1, -1)) * rng.randint(1, bound), rng.randint(1, bound))


def rand_poly(rng: random.Random, F, degree: int) -> Poly:
    """Polynomial of exact degree with random coefficients in F_q."""
    return Poly(F, [rng.randrange(F.q) for _ in range(degree)] + [rng.randrange(1, F.q)])


def rand_ratfunc(rng: random.Random, F, num_degree: int, den_degree: int) -> RatFunc:
    return RatFunc(rand_poly(rng, F, num_degree), rand_poly(rng, F, den_degree))


# -- q-symbols -------------------------------------------------------------------


def _check_reciprocity(x, y):
    def check(res):
        if res.product != 1:
            return f"product formula gives {res.product}"
        if any(v not in (1, -1) for _, v in res.factors):
            return "a local factor is not +-1"
        real = dict(res.factors).get(REAL)
        if real != (-1 if x < 0 and y < 0 else 1):
            return f"real factor {real}"
        return None

    return check


def _check_invariants(entries):
    neg = sum(1 for a in entries if a < 0)

    def check(inv):
        product = 1
        for _, s in inv.hasse:
            product *= s
        if product != 1:
            return "Hasse invariants multiply to -1"
        if inv.signature != (len(entries) - neg, neg) or inv.rank != len(entries):
            return f"rank/signature {inv.rank} {inv.signature}"
        if inv.hasse_at(REAL) != (-1) ** (neg * (neg - 1) // 2):
            return "real Hasse invariant disagrees with the signature"
        disc_times_det = Fraction(inv.disc) * math.prod(entries)
        if not is_rational_square(disc_times_det):
            return f"disc {inv.disc} is not the square class of the determinant"
        return None

    return check


def _check_conic(out):
    solvable, cert = out
    if len(cert.failing) == 1:
        return "exactly one failing place"
    if solvable != (not cert.failing):
        return "verdict disagrees with the failing places"
    return None


def q_symbols_deck(rng: random.Random) -> list[Op]:
    ops = []
    for _ in range(6):
        x, y = rand_rational(rng, 10**6), rand_rational(rng, 10**6)
        ops.append(Op("hilbert_reciprocity", "q",
                      lambda x=x, y=y: k2q.hilbert_reciprocity(x, y), _check_reciprocity(x, y)))
    for _ in range(6):
        primes = rng.sample(ODD_PRIMES_BELOW_1000, rng.randint(0, 4))
        target = k2q.K2QClass.make(rng.choice((1, -1)), {p: rng.randrange(2, p) for p in primes})
        ops.append(Op("lift_roundtrip", "q",
                      lambda t=target: k2q.lambda_tate(k2q.lift(t)),
                      lambda back, t=target: None if back == t else f"lift of {t} returned {back}"))
    for _ in range(6):
        x, y = rand_rational(rng, 999), rand_rational(rng, 999)
        ops.append(Op("conic_solvable_Q", "q",
                      lambda x=x, y=y: quadforms.conic_solvable_Q(x, y), _check_conic))
    # rank 6 twice, so the 95th percentile falls inside one kind's spread
    for rank in (2, 3, 4, 5, 6, 6):
        entries = [rng.choice((1, -1)) * rng.randint(1, 50) for _ in range(rank)]
        ops.append(Op(f"invariants rank={rank}", "q",
                      lambda e=tuple(entries): quadforms.invariants(quadforms.DiagForm.of(*e)),
                      _check_invariants(entries)))
    rng.shuffle(ops)
    return ops


# -- ff-prime and ff-prime-power -------------------------------------------------


def _check_weil(res):
    return None if res.product == 1 else f"Weil product is {res.product}"


def ff_deck(rng: random.Random, qs) -> list[Op]:
    """Per field: six weil_check pairs f = N/D, g = N'/D' with deg N + deg D
    = deg N' + deg D' = 5, each of the four degrees running through 0..5
    once; and two lift round trips on symbols of degree <= 2.  Fixing the
    total degree keeps the tail of the latency distribution, and so the
    95th percentile, from turning on a few unlucky draws; round trips at
    degree 5 are heavy-tailed enough to swamp the deck."""
    ops = []
    for q in qs:
        F = arith.field(q)
        for a, c in zip(rng.sample(range(6), 6), rng.sample(range(6), 6)):
            f, g = rand_ratfunc(rng, F, a, 5 - a), rand_ratfunc(rng, F, c, 5 - c)
            ops.append(Op(f"weil_check q={q}", "ff",
                          lambda f=f, g=g: funcfield.weil_check(f, g), _check_weil))
        for _ in range(2):
            f = rand_ratfunc(rng, F, rng.randint(0, 2), rng.randint(0, 2))
            g = rand_ratfunc(rng, F, rng.randint(0, 2), rng.randint(0, 2))
            target = funcfield.decompose(funcfield.ff_symbol(f, g))
            ops.append(Op(f"lift_ff_roundtrip q={q}", "ff",
                          lambda F=F, t=target: funcfield.decompose(funcfield.lift_ff(F, t), F),
                          lambda back, t=target: None if back == t else "lift_ff round trip changed the class"))
    rng.shuffle(ops)
    return ops


# -- cli-mix ---------------------------------------------------------------------

FAMILIES = {
    "q": ("hilbert", "tame", "conic", "decompose", "lift", "reciprocity", "quadrec", "moore"),
    "ff": ("weil", "ffdecompose", "fflift", "steinberg"),
    "qform": ("qform", "quaternion", "pfister"),
    "charp": ("dform", "cartier", "numember"),
    "zeta": ("zeta", "tateid", "birchtate"),
    "regnum": ("dilog", "residue"),
    "selftest": ("selftest",),
}
CLI_FAMILY = {cmd: fam for fam, cmds in FAMILIES.items() for cmd in cmds}


def run_cli(argv: list[str]) -> tuple[int, str]:
    """cli.main in-process with stdout and stderr captured; SystemExit is
    how argparse rejects argv, so its code is the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def cli_op(family: str, argv: list[str], expect_code: int, check_report=None,
           report_expected: bool = True) -> Op:
    """An Op running argv; the report must parse as JSON whenever the CLI
    got past argparse, and `check_report` sees its result/certificates."""

    def check(out):
        code, text = out
        if code != expect_code:
            return f"exit {code}, expected {expect_code}"
        if not report_expected:
            return None if not text else "argparse rejection printed a report"
        try:
            report = json.loads(text)
        except json.JSONDecodeError:
            return "report is not JSON"
        status = {0: "ok", 2: "invalid"}.get(expect_code)
        if report.get("status") != status:
            return f"status {report.get('status')}, expected {status}"
        return check_report(report["result"], report["certificates"]) if check_report else None

    kind = "cli malformed" if family == "malformed" else f"cli {argv[0]}"
    return Op(kind, family, lambda: run_cli(argv), check)


def _cli_hilbert(rng):
    x, y = rand_rational(rng, 999), rand_rational(rng, 999)
    place = rng.choice(["inf", "2"] + [str(p) for p in sorted(prime_support(x * y) - {2})] + ["3"])

    def check(res, _):
        if place == "inf" and res["value"] != (-1 if x < 0 and y < 0 else 1):
            return "real Hilbert symbol disagrees with the signs"
        return None if res["value"] in (1, -1) else "value is not +-1"

    return ["hilbert", "--place", place], [str(x), str(y)], check


def _cli_tame(rng):
    p = rng.choice(ODD_PRIMES_BELOW_1000[:25])
    x = rand_rational(rng, 99) * Fraction(p) ** rng.randint(-2, 2)
    y = rand_rational(rng, 99) * Fraction(p) ** rng.randint(-2, 2)
    want = tame_by_definition(x, y, p)
    return ["tame"], [str(x), str(y), str(p)], lambda res, _: (
        None if res["value"] == want else f"tame value {res['value']}, definition gives {want}")


def _cli_conic(rng):
    x, y = rand_rational(rng, 99), rand_rational(rng, 99)

    def check(res, cert):
        if len(res["failing_places"]) == 1:
            return "exactly one failing place"
        if res["solvable"] != (not res["failing_places"]):
            return "verdict disagrees with the failing places"
        if cert["point"] is not None:
            r, s = (Fraction(c) for c in cert["point"])
            if x * r * r + y * s * s != 1:
                return "certificate point is not on the conic"
        return None

    return ["conic", "--height", "30"], [str(x), str(y)], check


def _cli_decompose(rng):
    x, y = rand_rational(rng, 999), rand_rational(rng, 999)
    support = prime_support(x) | prime_support(y)

    def check(res, _):
        if res["two_slot"] not in (1, -1):
            return "dyadic slot is not +-1"
        for p, a in res["odd"]:
            if p not in support or not 2 <= a < p:
                return f"coordinate ({p}, {a}) outside the support"
            if a != tame_by_definition(x, y, p):
                return f"coordinate at {p} is not the tame symbol"
        return None

    return ["decompose"], [str(x), str(y)], check


def _cli_lift(rng):
    primes = rng.sample(ODD_PRIMES_BELOW_1000[:40], rng.randint(1, 3))
    comps = [f"{p}:{rng.randrange(2, p)}" for p in primes]
    return ["lift"], [str(rng.choice((1, -1)))] + comps, lambda _, cert: (
        None if cert["roundtrip"] else "lift round trip failed")


def _product_is_one(res, _):
    return None if res["product"] == 1 else f"product {res['product']}"


def _cli_reciprocity(rng):
    return ["reciprocity"], [str(rand_rational(rng, 999)), str(rand_rational(rng, 999))], _product_is_one


def _cli_moore(rng):
    return ["moore"], [str(rand_rational(rng, 999)), str(rand_rational(rng, 999))], _product_is_one


def _cli_quadrec(rng):
    p, q = rng.sample(ODD_PRIMES_BELOW_1000[:45], 2)

    def check(res, _):
        lpq = 1 if pow(p, (q - 1) // 2, q) == 1 else -1
        lqp = 1 if pow(q, (p - 1) // 2, p) == 1 else -1
        if (res["legendre_p_q"], res["legendre_q_p"]) != (lpq, lqp):
            return "Legendre symbols disagree with Euler's criterion"
        return None if res["consistent"] else "reciprocity not consistent"

    return ["quadrec"], [str(p), str(q)], check


def _cli_weil(rng):
    q = rng.choice((2, 3, 5, 7))
    f, g = (fmt_poly([rng.randrange(q) for _ in range(rng.randint(0, 3))] + [1]) for _ in range(2))
    den = fmt_poly([rng.randrange(q) for _ in range(rng.randint(0, 2))] + [1])
    return ["weil", "--q", str(q)], [f"({f})/({den})", g], _product_is_one


def _cli_ffdecompose(rng):
    q = rng.choice((2, 3, 5, 7))
    f, g = (fmt_poly([rng.randrange(q) for _ in range(rng.randint(1, 3))] + [1]) for _ in range(2))

    def check(res, _):
        for pi, v in res["entries"]:
            if pi[-1] != 1 or len(pi) < 2 or not v or len(v) >= len(pi) or v == [1]:
                return f"entry {pi}:{v} is not a reduced unit at a monic place"
        return None

    return ["ffdecompose", "--q", str(q)], [f, g], check


def _irreducible_mod(rng, p: int, degree: int) -> list[int]:
    """Monic irreducible of degree 1 to 3 over F_p: no root means irreducible."""
    while True:
        coeffs = [rng.randrange(p) for _ in range(degree)] + [1]
        if degree == 1 or not has_root_mod(coeffs, p):
            return coeffs


def _cli_fflift(rng):
    p = rng.choice((3, 5, 7))
    comps, seen = [], set()
    for degree in (1, 2):
        pi = _irreducible_mod(rng, p, degree)
        if tuple(pi) in seen:
            continue
        seen.add(tuple(pi))
        value = [rng.randrange(2, p)] + [rng.randrange(p) for _ in range(degree - 1)]
        comps.append(f"{fmt_poly(pi)}:{fmt_poly(value)}")
    return ["fflift", "--q", str(p)], comps, lambda _, cert: (
        None if cert["roundtrip"] else "fflift round trip failed")


def _cli_steinberg(rng):
    q = rng.choice((3, 5, 7, 11, 13, 17, 19, 23))

    def check(res, cert):
        z, x, y = res["zeta"], res["x"], res["y"]
        if not is_generator_mod(z, q) or x % q == 0 or y % q == 0:
            return "witness is not a generator and two units"
        if (z * x * x + z * y * y) % q != 1:
            return "zeta x^2 + zeta y^2 != 1"
        return None if cert["exceeds_field"] else "counting bound does not exceed q"

    return ["steinberg", "--q", str(q)], [], check


def _diag_entries(rng, rank):
    return [Fraction(rng.choice((1, -1)) * rng.randint(1, 40), rng.choice((1, 1, 2, 3))) for _ in range(rank)]


def _cli_qform(rng):
    entries = _diag_entries(rng, rng.randint(2, 5))
    neg = sum(1 for a in entries if a < 0)

    def check(res, _):
        if math.prod(v for _, v in res["hasse"]) != 1:
            return "Hasse invariants multiply to -1"
        if res["signature"] != [len(entries) - neg, neg]:
            return "signature disagrees with the entries"
        if not is_rational_square(res["disc"] * math.prod(entries)):
            return "disc is not the square class of the determinant"
        return None

    return ["qform"], [str(a) for a in entries], check


def _cli_quaternion(rng):
    def check(res, _):
        ramified = sum(1 for _, split in res["places"] if not split)
        if ramified % 2:
            return "odd number of ramified places"
        return None if res["splits_everywhere"] == (ramified == 0) else "global verdict disagrees"

    return ["quaternion"], [str(rand_rational(rng, 99)), str(rand_rational(rng, 99))], check


def _cli_pfister(rng):
    return ["pfister"], [str(rand_rational(rng, 99)), str(rand_rational(rng, 99))], lambda res, _: (
        None if res["all_hold"] else "Pfister identity failed")


def _rand_bipoly(rng, p, max_degree):
    terms = {(i, j): rng.randrange(p) for i in range(max_degree + 1) for j in range(max_degree + 1 - i)}
    terms[(0, 0)] = rng.randrange(1, p)
    return {k: c for k, c in terms.items() if c}


def _cli_dform(rng):
    p = rng.choice((2, 3, 5))
    f, g = (fmt_bipoly(_rand_bipoly(rng, p, 2)) for _ in range(2))
    # dlog forms are fixed by the Cartier operator
    return ["dform", "--p", str(p)], [f, g], lambda res, _: (
        None if res["cartier_fixed"] else "dlog form is not Cartier-fixed")


def _cli_cartier(rng):
    p = rng.choice((2, 3, 5))
    G = _rand_bipoly(rng, p, 4)
    ds = {(i - 1, j): c * i % p for (i, j), c in G.items() if c * i % p}
    dt = {(i, j - 1): c * j % p for (i, j), c in G.items() if c * j % p}
    # exact forms are killed by the Cartier operator: d(G dt) and dG
    if rng.random() < 0.5:
        head, comps = ["cartier", "--p", str(p)], [fmt_bipoly(ds)]
    else:
        head, comps = ["cartier", "--p", str(p), "--degree", "1"], [fmt_bipoly(ds), fmt_bipoly(dt)]
    return head, comps, lambda res, _: None if res["is_zero"] else "exact form has nonzero Cartier image"


def _cli_numember(rng):
    p = rng.choice((2, 3, 5))
    c = rng.randrange(1, p)
    poly = fmt_bipoly(_rand_bipoly(rng, p, 2) | {(1, 1): 1})
    degree, comps, member = rng.choice([
        (0, [str(c)], True),               # constants are fixed
        (0, [poly], False),
        (1, [f"{c}/s", "0"], True),        # c dlog s
        (2, [f"{c}/(s*t)"], True),         # c dlog s ^ dlog t
        (2, [poly], False),                # C lowers the degree of a polynomial
    ])
    return ["numember", "--p", str(p), "--degree", str(degree)], comps, lambda res, _: (
        None if res["member"] == member else f"membership {res['member']}, expected {member}")


def _elliptic(rng):
    while True:
        p = rng.choice((5, 7, 11, 13, 17, 19, 23))
        a, b = rng.randrange(p), rng.randrange(p)
        if (4 * a**3 + 27 * b**2) % p:
            return p, a, b


def _cli_zeta(rng):
    p, a, b = _elliptic(rng)
    n1 = elliptic_count(p, a, b)
    trace = p + 1 - n1
    value = Fraction(1 - trace * p + p**3, (1 - p) * (1 - p * p))

    def check(res, cert):
        if res["l_poly"] != [1, -trace, p] or cert["n1"] != n1:
            return "L-polynomial disagrees with the point count"
        if trace * trace > 4 * p:
            return "Hasse bound violated"
        if cert["n2"] != p * p + 1 - (trace * trace - 2 * p):
            return "N2 disagrees with the L-polynomial"
        return None if Fraction(res["zeta_minus1"]) == value else "zeta(-1) disagrees"

    return ["zeta", "--q", str(p), "--elliptic", str(a), str(b)], [], check


def _cli_tateid(rng):
    if rng.random() < 0.5:
        p, a, b = _elliptic(rng)
        head, trace = ["tateid", "--q", str(p), "--elliptic", str(a), str(b)], p + 1 - elliptic_count(p, a, b)
    else:
        head, trace = ["tateid", "--q", str(rng.choice((2, 3, 4, 5, 7, 8, 9)))], 0

    def check(res, _):
        if res["trace"] != trace:
            return "trace disagrees with the point count"
        return None if res["holds"] and res["lhs"] == res["rhs"] else "order identity failed"

    return head, [], check


def _cli_birchtate(rng):
    return ["birchtate"], [], lambda res, _: (
        None if (res["w2"], res["zeta_minus1"], res["product"]) == (24, "-1/12", "2") else "constants changed")


def _cli_dilog(rng):
    re = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
    im = Fraction(rng.randint(-8, 8), rng.randint(1, 4)) if rng.random() < 0.8 else Fraction(0)

    def check(res, _):
        if res["real_input"] != (im == 0):
            return "real_input flag wrong"
        if im == 0 and res["value"] != 0.0:
            return "D does not vanish on the real line"
        return None if abs(res["value"]) <= BLOCH_WIGNER_MAX else "|D| above its maximum"

    return ["dilog"], [fmt_gauss(re, im).strip("()")], check


RESIDUE_POOL = tuple(
    (Fraction(a, b), Fraction(c, b))
    for a, c in ((1, 0), (-1, 0), (0, 1), (0, -1), (2, 1), (-1, 2), (1, 1), (-2, -1), (3, 2), (-3, 1), (1, -2), (2, -3))
    for b in (1, 2)
)


def _rand_gauss_ratfunc(rng):
    """c * prod (z - r) / prod (z - s) with roots from the pool; returns the
    expression and the roots with their exponents."""
    pts = rng.sample(RESIDUE_POOL, 4)
    roots = [(r, 1) for r in pts[: rng.randint(1, 2)]] + [(r, -1) for r in pts[2: 2 + rng.randint(0, 2)]]
    c = rng.choice((1, 2, -1, 3))
    num = "*".join([str(c)] + [f"(z-{fmt_gauss(*r)})" for r, e in roots if e > 0])
    den = "*".join(f"(z-{fmt_gauss(*r)})" for r, e in roots if e < 0)
    return (f"{num}/({den})" if den else num), c, roots


def log_abs_unit(c: int, roots, a) -> tuple[int, float]:
    """Order at a, and log |u(a)| for the unit part u of c * prod (z - r)^e."""
    order = sum(e for r, e in roots if r == a)
    norm = Fraction(c * c)
    for r, e in roots:
        if r != a:
            norm *= gauss_norm(a[0] - r[0], a[1] - r[1]) ** e
    return order, 0.5 * (math.log(norm.numerator) - math.log(norm.denominator))


def _cli_residue(rng, errors: list[float]):
    f, cf, f_roots = _rand_gauss_ratfunc(rng)
    g, cg, g_roots = _rand_gauss_ratfunc(rng)
    a = rng.choice([r for r, _ in f_roots + g_roots])
    m, log_uf = log_abs_unit(cf, f_roots, a)
    n, log_ug = log_abs_unit(cg, g_roots, a)
    expected = n * log_uf - m * log_ug   # log |(-1)^(mn) f^n g^(-m)| at a

    def check(res, _):
        err = abs(res["integral"] - expected)
        errors.append(err)
        if (res["order_f"], res["order_g"]) != (m, n):
            return f"orders {res['order_f']}, {res['order_g']}, expected {m}, {n}"
        return None if err <= RESIDUE_TOLERANCE else f"loop integral off by {err:.3g}"

    return ["residue"], [f, g, fmt_gauss(*a).strip("()")], check


def _cli_selftest(rng):
    return ["selftest"], [], lambda res, _: (
        None if all(outcome == "ok" for _, outcome in res["checks"]) else "a selftest check failed")


def _cli_malformed(rng) -> Op:
    """argv a user can get wrong; all must exit 2."""
    x = rand_rational(rng, 99)
    argparse_rejects = [
        [f"nosuch{rng.randint(0, 9)}"],                                   # unknown subcommand
        ["reciprocity", str(x)],                                           # missing argument
        ["qform", "1", f"-{rng.randint(1, 9)}/{rng.randint(2, 9)}"],       # negative fraction without --
    ]
    reports_invalid = [
        ["reciprocity", f"{x.denominator}+", "2"],                         # syntax error
        ["tame", f"{x.denominator}/0", "3", "5"],                          # division by zero
        ["hilbert", "--place", str(rng.choice((9, 15, 21))), "2", "3"],    # not a place
        ["zeta", "--q", "5", "--elliptic", "0", "0"],                      # singular cubic
    ]
    k = rng.randrange(len(argparse_rejects) + len(reports_invalid))
    if k < len(argparse_rejects):
        return cli_op("malformed", argparse_rejects[k], 2, report_expected=False)
    return cli_op("malformed", reports_invalid[k - len(argparse_rejects)], 2)


CLI_BUILDERS = {
    "hilbert": _cli_hilbert, "tame": _cli_tame, "conic": _cli_conic, "decompose": _cli_decompose,
    "lift": _cli_lift, "reciprocity": _cli_reciprocity, "quadrec": _cli_quadrec, "moore": _cli_moore,
    "weil": _cli_weil, "ffdecompose": _cli_ffdecompose, "fflift": _cli_fflift, "steinberg": _cli_steinberg,
    "qform": _cli_qform, "quaternion": _cli_quaternion, "pfister": _cli_pfister, "dform": _cli_dform,
    "cartier": _cli_cartier, "numember": _cli_numember, "zeta": _cli_zeta, "tateid": _cli_tateid,
    "birchtate": _cli_birchtate, "dilog": _cli_dilog, "selftest": _cli_selftest,
}


def cli_deck(rng: random.Random, loop_errors: list[float]) -> list[Op]:
    """100 operations: each subcommand four times, except residue six times
    and selftest once, and five malformed argv.  The seven residue and
    selftest calls are the slowest, so the 95th percentile falls inside the
    residue latencies rather than on the edge between two kinds.  Residue
    errors are appended to `loop_errors` by the check."""
    ops = []
    for cmd in CLI_FAMILY:
        if cmd == "selftest":
            continue
        for _ in range(6 if cmd == "residue" else 4):
            head, positional, check = (_cli_residue(rng, loop_errors) if cmd == "residue"
                                       else CLI_BUILDERS[cmd](rng))
            ops.append(cli_op(CLI_FAMILY[cmd], with_separator(head, positional), 0, check))
    head, positional, check = _cli_selftest(rng)
    ops.append(cli_op("selftest", head + positional, 0, check))
    ops.extend(_cli_malformed(rng) for _ in range(5))
    rng.shuffle(ops)
    return ops


# -- entry points ----------------------------------------------------------------


class Stream:
    """Decks of one workload, drawn from a generator seeded by (name, seed)."""

    def __init__(self, name: str, seed: int):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
        self.name = name
        self.rng = random.Random(f"{name}:{seed}")
        self.loop_errors: list[float] = []

    def deck(self) -> list[Op]:
        if self.name == "q-symbols":
            return q_symbols_deck(self.rng)
        if self.name == "cli-mix":
            return cli_deck(self.rng, self.loop_errors)
        return ff_deck(self.rng, FF_FIELDS[self.name])


def warm_up(name: str) -> None:
    """What the workload needs before its first operation: the fields it
    uses and the prime sieve that factorization reads."""
    if name in FF_FIELDS:
        qs = FF_FIELDS[name]
    elif name == "cli-mix":
        qs = (2, 3, 4, 5, 7, 8, 9, 11, 13, 17, 19, 23) + tuple(p * p for p in (5, 7, 11, 13, 17, 19, 23))
    else:
        qs = ()
    for q in qs:
        arith.field(q)
    if name in ("q-symbols", "cli-mix"):
        arith.primes_below(1 << 10)


# -- known defects, kept out of the timed streams ---------------------------------


def _probe_invariants_prime_entries():
    """invariants of <999983, 999979, 999961> factors the product of the
    entries, which is beyond the factorization bound."""
    entries = (999983, 999979, 999961)
    try:
        inv = quadforms.invariants(quadforms.DiagForm.of(*entries))
    except ValueError as exc:
        return "open", f"ValueError: {exc}"
    reason = _check_invariants(list(entries))(inv)
    return ("fixed", "invariants hold") if reason is None else ("wrong", reason)


def _probe_nested_parentheses():
    argv = ["reciprocity", "(" * 2000 + "1" + ")" * 2000, "2"]
    try:
        code, _ = run_cli(argv)
    except RecursionError:
        return "open", "RecursionError escapes cli.main"
    return ("fixed", "exit 2") if code == 2 else ("wrong", f"exit {code}")


def _probe_huge_exponent(budget_s: float):
    """weil --q 3 "T^999999" "T+1" must be refused quickly; today it
    computes for more than 10 s.  A SIGALRM bounds the probe."""
    import signal
    import time

    class Budget(Exception):
        pass

    def expire(signum, frame):
        raise Budget

    previous = signal.signal(signal.SIGALRM, expire)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, budget_s)
        code, _ = run_cli(["weil", "--q", "3", "T^999999", "T+1"])
    except Budget:
        return "open", f"still running after {budget_s:g} s"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    elapsed = time.perf_counter() - start
    return ("fixed", f"exit 2 in {elapsed:.2f} s") if code == 2 else ("wrong", f"exit {code}")


# (workload it belongs to, case, the fix it waits for, probe, whether it takes a second)
KNOWN_OPEN = (
    ("q-symbols", "invariants(DiagForm.of(999983, 999979, 999961))",
     "square class from per-entry exponent parities", _probe_invariants_prime_entries, False),
    ("cli-mix", "reciprocity with 2000-deep nested parentheses",
     "parser nesting budget", _probe_nested_parentheses, False),
    ("cli-mix", 'weil --q 3 "T^999999" "T+1" (over 10 s, cannot sit in a timed stream)',
     "parser exponent budget", lambda: _probe_huge_exponent(1.0), True),
)


def known_open(workload: str | None, slow: bool) -> list[dict]:
    """Run the probes of known defects (of one workload, or all when None);
    those that take a second run only if `slow`."""
    out = []
    for name, case, fix, probe, takes_a_second in KNOWN_OPEN:
        if workload not in (None, name):
            continue
        if takes_a_second and not slow:
            status, detail = "not run", "run with --report to probe it for 1 s"
        else:
            status, detail = probe()
        out.append({"workload": name, "case": case, "awaits": fix, "status": status, "detail": detail})
    return out
