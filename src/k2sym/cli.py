"""Command line front end.

Every subcommand prints a single JSON report with sorted keys, indented by
two spaces:

    {"schema": 1, "command": ..., "inputs": ..., "result": ...,
     "certificates": ..., "status": "ok" | "invalid" | "failed"}

and exits 0 when the computation succeeded, 2 on invalid input, 3 when a
checked property failed to hold.  A ValueError, ArithmeticError or
RuntimeError out of a computation (a malformed expression, a division by
zero, a loop integral that does not converge) is reported as invalid
input.  Numeric inputs are expressions ("3/4", "(T^2+1)/(2*T)",
"1/2 + 3*i"); pass "--" before arguments that start with a minus sign.

argv is parsed once: by the subcommand's parser when argv[0] names one, and
by the top parser otherwise.  The report is written in one pass of its own,
byte for byte what json.dumps(report, sort_keys=True, indent=2) writes
(json has no C encoder for indented output).
"""
from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from fractions import Fraction

from . import charpforms, funcfield, k2q, localsym, quadforms, regnum, zeta
from .arith import Poly, RatFunc, factor_degree_budget, field, generator, is_prime
from .charpforms import Form0, Form1, Form2
from .localsym import REAL, PlaceQ
from .parsing import (
    parse_charp,
    parse_funcfield,
    parse_gauss_point,
    parse_gauss_ratfunc,
    parse_poly,
    parse_rational,
)

# -- serialization helpers ---------------------------------------------------------


def _frac(x) -> str:
    return str(Fraction(x))


def _place_q(place: PlaceQ) -> str:
    return "inf" if place.p is None else str(place.p)


def _parse_place_q(text: str) -> PlaceQ:
    if text in ("inf", "infinity", "real", "oo"):
        return REAL
    return PlaceQ(int(text))


def _poly(p: Poly) -> list[int]:
    return list(p.coeffs)


def _ratfunc(f: RatFunc) -> dict:
    return {"num": _poly(f.num), "den": _poly(f.den)}


def _place_fq(place) -> object:
    return "inf" if place.is_infinite else _poly(place.pi)


def _mrf(h) -> dict:
    return {
        "num": [[i, j, c] for (i, j), c in h.num.terms],
        "den": [[i, j, c] for (i, j), c in h.den.terms],
    }


def _gauss(g) -> dict:
    return {"re": str(g.re), "im": str(g.im)}


def _components(items, parse_key, parse_value) -> dict:
    """key:value entries as a dict; a key given twice is an error."""
    out = {}
    for item in items:
        key_text, _, value_text = item.partition(":")
        key = parse_key(key_text)
        if key in out:
            raise ValueError(f"place {key_text} given twice")
        out[key] = parse_value(value_text)
    return out


def _form(args):
    """The form of degree args.degree over F_p from its components: one
    for degrees 0 and 2, ds and dt for degree 1."""
    count = 2 if args.degree == 1 else 1
    if len(args.component) != count:
        raise ValueError(f"degree {args.degree} takes {count} component(s)")
    return (Form0, Form1, Form2)[args.degree](*(parse_charp(c, args.p) for c in args.component))


# -- subcommand handlers -----------------------------------------------------------
# each returns (result, certificates, ok)


def _cmd_hilbert(args):
    place = _parse_place_q(args.place)
    x, y = parse_rational(args.x), parse_rational(args.y)
    return {"value": localsym.hilbert(x, y, place)}, {}, True


def _cmd_tame(args):
    x, y = parse_rational(args.x), parse_rational(args.y)
    return {"value": localsym.tame(x, y, args.p)}, {}, True


# Largest height bound for conic: the point search is O(H^2) in the bound H
# when the conic is solvable but has no point of small height.
MAX_HEIGHT = 1000


def _cmd_conic(args):
    if not 1 <= args.height <= MAX_HEIGHT:
        raise ValueError(f"height bound must be in 1..{MAX_HEIGHT}, got {args.height}")
    x, y = parse_rational(args.x), parse_rational(args.y)
    solvable, cert = quadforms.conic_solvable_Q(x, y)
    point = quadforms.conic_point_search(x, y, args.height) if solvable else None
    result = {
        "solvable": solvable,
        "failing_places": [_place_q(p) for p in cert.failing],
    }
    certs = {
        "local_values": [[_place_q(p), v] for p, v in cert.tested],
        "point": [_frac(point[0]), _frac(point[1])] if point else None,
    }
    return result, certs, True


def _cmd_decompose(args):
    x, y = parse_rational(args.x), parse_rational(args.y)
    cls = k2q.lambda_tate(k2q.symbol(x, y))
    return {"two_slot": cls.two_slot, "odd": [list(e) for e in cls.odd]}, {}, True


def _cmd_lift(args):
    target = k2q.K2QClass.make(args.sign, _components(args.component, int, int))
    expr = k2q.lift(target)
    roundtrip = k2q.lambda_tate(expr) == target
    result = {"symbol": [[_frac(a), _frac(b)] for a, b in expr.pairs()]}
    return result, {"roundtrip": roundtrip}, roundtrip


def _cmd_reciprocity(args):
    x, y = parse_rational(args.x), parse_rational(args.y)
    rec = k2q.hilbert_reciprocity(x, y)
    result = {
        "factors": [[_place_q(p), v] for p, v in rec.factors],
        "product": rec.product,
    }
    return result, {}, rec.holds


def _cmd_quadrec(args):
    rec = k2q.quadratic_reciprocity(args.p, args.q)
    result = {
        "legendre_p_q": rec.legendre_p_q,
        "legendre_q_p": rec.legendre_q_p,
        "sign_exponent": rec.sign_exponent,
        "consistent": rec.consistent,
    }
    certs = {
        "s2_factor": rec.s2_factor,
        "s_inf_factor": rec.s_inf_factor,
        "h_p_factor": rec.h_p_factor,
        "h_q_factor": rec.h_q_factor,
    }
    return result, certs, rec.consistent


def _cmd_moore(args):
    x, y = parse_rational(args.x), parse_rational(args.y)
    vec = k2q.moore_map(k2q.symbol(x, y))
    total = k2q.moore_sum(vec)
    result = {
        "real": vec.real,
        "two": vec.two,
        "odd": [list(e) for e in vec.odd],
        "product": total,
    }
    return result, {}, total == 1


def _cmd_weil(args):
    f = parse_funcfield(args.f, args.q)
    g = parse_funcfield(args.g, args.q)
    res = funcfield.weil_check(f, g)
    result = {
        "factors": [
            {"place": _place_fq(w.place), "value": _poly(w.value), "norm": w.norm}
            for w in res.factors
        ],
        "product": res.product,
    }
    return result, {}, res.holds


def _cmd_ffdecompose(args):
    f = parse_funcfield(args.f, args.q)
    g = parse_funcfield(args.g, args.q)
    cls = funcfield.decompose(funcfield.ff_symbol(f, g))
    entries = [[_poly(pi), _poly(v)] for pi, v in cls.entries]
    return {"entries": entries, "q": args.q}, {}, True


# fflift's keys may sum in degree to FFLIFT_KEY_BUDGETS times the factoring
# budget of one key: each key is tested for irreducibility, and its value
# (reduced below the key's degree) is factored on the way down, so five keys
# at the budget are the most that run in under a second on every field.
FFLIFT_KEY_BUDGETS = 5


def _cmd_fflift(args):
    F = field(args.q)
    poly = functools.partial(parse_poly, q=args.q)
    entries = _components(args.component, poly, poly)
    total, top = sum(max(pi.degree, 0) for pi in entries), FFLIFT_KEY_BUDGETS * factor_degree_budget(F)
    if total > top:
        raise ValueError(f"keys of total degree {total} are beyond the fflift bound: over F_{F.q} at most "
                         f"{top}, {FFLIFT_KEY_BUDGETS} times the factoring budget of one key")
    target = funcfield.K2FFClass.make(F, entries)  # checks that each key is a place
    expr = funcfield.lift_ff(F, target)
    roundtrip = funcfield.decompose(expr, F) == target
    terms = [[_ratfunc(a), _ratfunc(b), m] for a, b, m in expr.terms]
    return {"terms": terms}, {"roundtrip": roundtrip}, roundtrip


def _cmd_steinberg(args):
    witness = funcfield.steinberg_witness(args.q, args.zeta)
    if witness == funcfield.CHAR2:
        return {"char2": True}, {}, True
    x, y = witness
    F = field(args.q)
    z = args.zeta if args.zeta is not None else generator(F)
    lhs = F.add(F.mul(z, F.mul(x, x)), F.mul(z, F.mul(y, y)))
    bound = funcfield.counting_bound(args.q, args.zeta)
    result = {"zeta": z, "x": x, "y": y}
    certs = {
        "zeta_squares": bound.zeta_squares,
        "one_minus": bound.one_minus,
        "total": bound.total,
        "exceeds_field": bound.exceeds_field,
    }
    return result, certs, lhs == F.one and bound.exceeds_field


def _cmd_qform(args):
    entries = [parse_rational(e) for e in args.entry]
    inv = quadforms.invariants(quadforms.DiagForm.of(*entries))
    result = {
        "rank": inv.rank,
        "disc": inv.disc,
        "signature": list(inv.signature),
        "hasse": [[_place_q(p), v] for p, v in inv.hasse],
    }
    return result, {}, True


def _cmd_quaternion(args):
    a, b = parse_rational(args.a), parse_rational(args.b)
    if args.place is not None:
        place = _parse_place_q(args.place)
        return {"splits": quadforms.quaternion_splits(a, b, place)}, {}, True
    factors = localsym.hilbert_factors(localsym.local_data(a), localsym.local_data(b))
    result = {
        "splits_everywhere": all(s == 1 for _, s in factors),
        "places": [[_place_q(p), s == 1] for p, s in factors],
    }
    return result, {}, True


def _cmd_pfister(args):
    x, y = parse_rational(args.x), parse_rational(args.y)
    if args.place is not None:
        places = [_parse_place_q(args.place)]
    else:
        places = list(localsym.support_places(x, y))
    values = [[_place_q(p), quadforms.pfister_hasse_identity(x, y, p)] for p in places]
    all_hold = all(v for _, v in values)
    return {"places": values, "all_hold": all_hold}, {}, all_hold


def _cmd_dform(args):
    f = parse_charp(args.f, args.p)
    g = parse_charp(args.g, args.p)
    w = charpforms.dlog2(f, g)
    fixed = charpforms.nu_member(w)
    return {"form": _mrf(w.h), "cartier_fixed": fixed}, {}, fixed


def _cmd_cartier(args):
    w = _form(args)
    if args.degree == 2:
        out = charpforms.cartier2(w)
        return {"form": _mrf(out.h), "is_zero": out.is_zero()}, {}, True
    out = charpforms.cartier1(w)
    return {"ds": _mrf(out.ds), "dt": _mrf(out.dt), "is_zero": out.is_zero()}, {}, True


def _cmd_numember(args):
    return {"member": charpforms.nu_member(_form(args))}, {}, True


def _curve_from_args(args):
    if args.elliptic is not None:
        return zeta.CurveFq.elliptic(args.q, args.elliptic[0], args.elliptic[1])
    return zeta.CurveFq.projective_line(args.q)


def _cmd_zeta(args):
    curve = _curve_from_args(args)
    lp, q = zeta.l_polynomial(curve), curve.q
    result = {"l_poly": list(lp.coeffs), "zeta_minus1": _frac(lp.zeta_at_q(q))}
    # the counts l_polynomial made and cross-checked, read back off L
    certs = {"n1": q + 1 - lp.trace}
    if curve.genus == 1:
        certs["n2"] = q * q + 1 - (lp.trace**2 - 2 * q)
    return result, certs, True


def _cmd_tateid(args):
    t = zeta.tate_identity(_curve_from_args(args))
    result = {
        "genus": t.genus,
        "trace": t.trace,
        "zeta_minus1": _frac(t.zeta_value),
        "lhs": _frac(t.lhs),
        "rhs": _frac(t.rhs),
        "holds": t.holds,
    }
    return result, {}, t.holds


def _cmd_birchtate(args):
    bt = zeta.birch_tate_Q()
    result = {
        "w2": bt.w2,
        "zeta_minus1": _frac(bt.zeta_value),
        "product": _frac(bt.product),
        "known_order": bt.known_order,
    }
    return result, {}, bt.consistent


def _cmd_dilog(args):
    point = parse_gauss_point(args.z)
    value = regnum.bloch_wigner(point)
    return {"value": value, "real_input": point.im == 0}, {}, True


def _cmd_residue(args):
    f = parse_gauss_ratfunc(args.f)
    g = parse_gauss_ratfunc(args.g)
    point = parse_gauss_point(args.point)
    rc = regnum.residue_check(f, g, point)
    result = {
        "order_f": rc.order_f,
        "order_g": rc.order_g,
        "tame": _gauss(rc.tame_value),
        "expected": rc.expected,
        "integral": rc.integral,
        "difference": rc.difference,
        "holds": rc.holds,
    }
    certs = {"convergence": [list(level) for level in rc.trajectory]}
    return result, certs, rc.holds


def _cmd_selftest(args):
    rng = random.Random(0)
    checks = []

    def check(name, passed):
        checks.append([name, "ok" if passed else "failed"])
        return passed

    def rand_rat():
        while True:
            n = rng.randrange(-200, 201)
            d = rng.randrange(1, 120)
            if n:
                return Fraction(n, d)

    good = True
    good &= check(
        "hilbert_reciprocity",
        all(k2q.hilbert_reciprocity(rand_rat(), rand_rat()).holds for _ in range(50)),
    )
    primes = [p for p in range(3, 60) if is_prime(p)]
    good &= check(
        "quadratic_reciprocity",
        all(
            k2q.quadratic_reciprocity(p, q).consistent
            for p in primes
            for q in primes
            if p != q
        ),
    )
    ok = True
    for _ in range(20):
        target = k2q.K2QClass.make(
            rng.choice((1, -1)),
            {p: rng.randrange(1, p) for p in rng.sample(primes, rng.randrange(1, 4))},
        )
        ok &= k2q.lambda_tate(k2q.lift(target)) == target
    good &= check("tate_lift_roundtrip", ok)

    ok = True
    for q in (2, 3, 5):
        F = field(q)
        for _ in range(10):
            f = RatFunc(
                Poly(F, [rng.randrange(q) for _ in range(4)] + [1]),
                Poly(F, [rng.randrange(q) for _ in range(3)] + [1]),
            )
            g = RatFunc(
                Poly(F, [rng.randrange(q) for _ in range(4)] + [1]),
                Poly(F, [rng.randrange(q) for _ in range(3)] + [1]),
            )
            ok &= funcfield.weil_check(f, g).holds
    good &= check("weil_product", ok)

    good &= check(
        "steinberg_witnesses",
        all(
            _cmd_steinberg(argparse.Namespace(q=q, zeta=None))[2]
            for q in (3, 5, 7, 9, 11, 13, 25)
        ),
    )

    ok = True
    for p in (2, 3, 5):
        for _ in range(5):
            y1 = parse_charp(f"s + {rng.randrange(1, p + 1)}", p)
            y2 = parse_charp(f"t + s + {rng.randrange(p)}", p)
            if y1.is_zero() or y2.is_zero():
                continue
            w = charpforms.dlog2(y1, y2)
            ok &= charpforms.cartier2(w) == w
    good &= check("cartier_fixed_points", ok)

    ok = all(
        zeta.tate_identity(zeta.CurveFq.projective_line(q)).holds for q in (2, 3, 4, 5, 7, 9)
    )
    for p in (5, 7):
        for _ in range(3):
            while True:
                try:
                    c = zeta.CurveFq.elliptic(p, rng.randrange(p), rng.randrange(p))
                    break
                except ValueError:
                    continue
            ok &= zeta.tate_identity(c).holds
    good &= check("zeta_identities", ok)

    good &= check("birch_tate_product", zeta.birch_tate_Q().consistent)
    good &= check(
        "dilog_catalan", abs(regnum.bloch_wigner(1j) - 0.9159655941772190) < 1e-9
    )
    fz = regnum.ratfunc_z([0, 1])
    gz = regnum.ratfunc_z([0, 2])
    good &= check("residue_frozen", regnum.residue_check(fz, gz, regnum.gauss(0)).holds)

    return {"checks": checks}, {}, bool(good)


# -- parser ------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it:
    parsing leaves it unchanged, and each parse returns a fresh namespace
    whose lists argparse builds anew."""
    top = argparse.ArgumentParser(
        prog="k2sym", description="Symbol computations in K2 of fields."
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(command=name, func=handler)
        return p

    p = add("hilbert", _cmd_hilbert, "Hilbert symbol (x, y) at a place of Q")
    p.add_argument("--place", required=True, help="inf, 2, or an odd prime")
    p.add_argument("x")
    p.add_argument("y")

    p = add("tame", _cmd_tame, "tame symbol at an odd prime")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("p", type=int)

    p = add("conic", _cmd_conic, "solvability of z^2 = x X^2 + y Y^2 over Q")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--height", type=int, default=MAX_HEIGHT)

    p = add("decompose", _cmd_decompose, "coordinates of a symbol in K2(Q)")
    p.add_argument("x")
    p.add_argument("y")

    p = add("lift", _cmd_lift, "single symbol hitting given K2(Q) coordinates")
    p.add_argument("sign", type=int, choices=(1, -1))
    p.add_argument("component", nargs="*", help="entries p:c with c a unit mod p")

    p = add("reciprocity", _cmd_reciprocity, "product of Hilbert symbols over all places")
    p.add_argument("x")
    p.add_argument("y")

    p = add("quadrec", _cmd_quadrec, "quadratic reciprocity from the product formula")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)

    p = add("moore", _cmd_moore, "root-of-unity coordinates of a symbol")
    p.add_argument("x")
    p.add_argument("y")

    p = add("weil", _cmd_weil, "product of tame symbol norms over all places")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("f")
    p.add_argument("g")

    p = add("ffdecompose", _cmd_ffdecompose, "finite-place coordinates over F_q(T)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("f")
    p.add_argument("g")

    p = add("fflift", _cmd_fflift, "symbol expression hitting given coordinates")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("component", nargs="+", help="entries pi:value as polynomials in T")

    p = add("steinberg", _cmd_steinberg, "witness for the vanishing of K2(F_q)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--zeta", type=int, default=None)

    p = add("qform", _cmd_qform, "invariants of a diagonal quadratic form")
    p.add_argument("entry", nargs="+")

    p = add("quaternion", _cmd_quaternion, "splitting of the quaternion algebra (a, b)")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--place", default=None)

    p = add("pfister", _cmd_pfister, "rank-4 form invariant against the Hilbert symbol")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--place", default=None)

    p = add("dform", _cmd_dform, "dlog wedge of two functions in characteristic p")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("f")
    p.add_argument("g")

    p = add("cartier", _cmd_cartier, "Cartier operator on a 1- or 2-form")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--degree", type=int, choices=(1, 2), default=2)
    p.add_argument("component", nargs="+")

    p = add("numember", _cmd_numember, "fixed-point test for forms in degree 0, 1, 2")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--degree", type=int, choices=(0, 1, 2), required=True)
    p.add_argument("component", nargs="+")

    p = add("zeta", _cmd_zeta, "L-polynomial and zeta(-1) of a curve over F_q")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--elliptic", type=int, nargs=2, default=None, metavar=("A", "B"))

    p = add("tateid", _cmd_tateid, "order identity linking K2 to zeta(-1)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--elliptic", type=int, nargs=2, default=None, metavar=("A", "B"))

    add("birchtate", _cmd_birchtate, "w2(Q) and the zeta product")

    p = add("dilog", _cmd_dilog, "single-valued dilogarithm at a Gaussian rational")
    p.add_argument("z")

    p = add("residue", _cmd_residue, "loop integral of eta against the tame symbol")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("point")

    add("selftest", _cmd_selftest, "run the built-in invariant battery")

    return top


def _subcommands(top: argparse.ArgumentParser) -> dict:
    """The parser of each subcommand of top, by name."""
    return next(a.choices for a in top._actions if isinstance(a, argparse._SubParsersAction))


def _parse(argv) -> argparse.Namespace:
    """The namespace that top.parse_args(argv) returns, read in one pass:
    when argv[0] names a subcommand, its parser reads the rest alone, and
    leftover arguments are refused by the top parser as parse_args refuses
    them.  Any other argv (empty, -h, an unknown word, a leading --) goes
    through the top parser."""
    top = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    sub = _subcommands(top).get(argv[0]) if argv else None
    if sub is None:
        return top.parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:])
    if extras:
        top.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


_encode_str = json.encoder.encode_basestring_ascii
_NAMES = {None: "null", True: "true", False: "false"}


def _write(value, out: list, indent: str) -> None:
    """Append to out the text of value as json.dumps(value, sort_keys=True,
    indent=2) writes it, nested at indent; a dict key must be a str."""
    if isinstance(value, str):
        out.append(_encode_str(value))
    elif value is None or isinstance(value, bool):
        out.append(_NAMES[value])
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(json.dumps(value))  # json's own NaN and Infinity spellings
    elif isinstance(value, (list, tuple)):
        inner = indent + "  "
        sep = "[\n" + inner
        for item in value:
            out.append(sep)
            _write(item, out, inner)
            sep = ",\n" + inner
        out.append("\n" + indent + "]" if value else "[]")
    elif isinstance(value, dict):
        inner = indent + "  "
        sep = "{\n" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + _encode_str(key) + ": ")
            _write(value[key], out, inner)
            sep = ",\n" + inner
        out.append("\n" + indent + "}" if value else "{}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _dumps(value) -> str:
    """json.dumps(value, sort_keys=True, indent=2), in one pass."""
    out = []
    _write(value, out, "")
    return "".join(out)


def main(argv=None) -> int:
    args = _parse(argv)
    inputs = {
        k: v for k, v in vars(args).items() if k not in ("command", "func") and v is not None
    }
    report = {"schema": 1, "command": args.command, "inputs": inputs}
    try:
        result, certificates, ok = args.func(args)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        # ArithmeticError covers ZeroDivisionError and RuntimeError covers
        # RecursionError and a loop integral that does not converge
        report["result"] = {"error": str(exc)}
        report["certificates"] = {}
        report["status"] = "invalid"
        print(_dumps(report))
        return 2
    report["result"] = result
    report["certificates"] = certificates
    report["status"] = "ok" if ok else "failed"
    print(_dumps(report))
    return 0 if ok else 3


if __name__ == "__main__":
    sys.exit(main())
