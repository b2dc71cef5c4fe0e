"""Tests for the expression language and its evaluation in each domain."""
import random
from fractions import Fraction

import pytest

from k2sym.parsing import (
    MAX_EXPONENT,
    MAX_NESTING,
    BinOp,
    Neg,
    Num,
    ParseError,
    Pow,
    Var,
    parse_charp,
    parse_expression,
    parse_funcfield,
    parse_gauss_point,
    parse_gauss_ratfunc,
    parse_poly,
    parse_rational,
)
from k2sym.regnum import GaussRat


def test_precedence_and_associativity():
    assert parse_expression("1+2*3") == BinOp("+", Num(1), BinOp("*", Num(2), Num(3)))
    assert parse_expression("1-2-3") == BinOp("-", BinOp("-", Num(1), Num(2)), Num(3))
    assert parse_expression("2^3") == Pow(Num(2), 3)
    assert parse_expression("-x^2") == Neg(Pow(Var("x"), 2))
    assert parse_expression("(1+2)*3") == BinOp("*", BinOp("+", Num(1), Num(2)), Num(3))


def test_whitespace_and_unicode_minus():
    assert parse_expression(" 1 +  2 ") == parse_expression("1+2")
    assert parse_rational("−3/4") == Fraction(-3, 4)


def test_syntax_error_offsets():
    with pytest.raises(ParseError) as exc:
        parse_expression("1 +")
    assert exc.value.offset == 3
    with pytest.raises(ParseError) as exc:
        parse_expression("(1+2")
    assert exc.value.offset == 4
    with pytest.raises(ParseError) as exc:
        parse_expression("1 @ 2")
    assert exc.value.offset == 2
    with pytest.raises(ParseError) as exc:
        parse_expression("2^x")
    assert exc.value.offset == 2
    with pytest.raises(ParseError) as exc:
        parse_expression("1 2")
    assert exc.value.offset == 2


def test_nesting_budget():
    inner = "(" * MAX_NESTING + "2" + ")" * MAX_NESTING
    assert parse_rational(inner) == 2
    assert parse_rational("-" * MAX_NESTING + "2") == 2
    for deep in ("(" + inner + ")", "-" + "-(" * (MAX_NESTING // 2) + "2" + ")" * (MAX_NESTING // 2)):
        with pytest.raises(ParseError, match="nesting"):
            parse_expression(deep)
    with pytest.raises(ParseError) as exc:
        parse_expression("(" * 2000 + "2" + ")" * 2000)
    assert exc.value.offset == MAX_NESTING


def test_exponent_budget():
    assert parse_rational(f"1^{MAX_EXPONENT}") == 1
    assert parse_funcfield(f"T^{MAX_EXPONENT}", 3).num.degree == MAX_EXPONENT
    with pytest.raises(ParseError, match="exponent") as exc:
        parse_expression(f"1 + T^{MAX_EXPONENT + 1}")
    assert exc.value.offset == 6
    with pytest.raises(ParseError) as exc:
        parse_expression("T^999999")
    assert exc.value.offset == 2


def test_long_operator_chains_evaluate():
    assert parse_rational("+".join(["1"] * 3000)) == 3000
    assert parse_rational("*".join(["2"] * 3000) + "/" + "/".join(["2"] * 3000)) == 1


def test_rational_evaluation():
    assert parse_rational("3/4 - 1/2") == Fraction(1, 4)
    assert parse_rational("-(2+3)^2") == -25
    assert parse_rational("105/13") == Fraction(105, 13)
    with pytest.raises(ValueError, match="division by zero"):
        parse_rational("1/0")
    with pytest.raises(ValueError, match="no variable 'T' in a rational expression"):
        parse_rational("T + 1")


def test_funcfield_evaluation_frozen():
    f = parse_funcfield("T^2 - 1", 5)
    assert f.num.coeffs == (4, 0, 1)
    assert f.den.coeffs == (1,)
    g = parse_funcfield("(T^2+1)/(2*T)", 5)
    assert g.num.coeffs == (3, 0, 3)
    assert g.den.coeffs == (0, 1)
    with pytest.raises(ValueError, match="no variable 'z' over a function field; use T"):
        parse_funcfield("z", 5)
    with pytest.raises(ValueError, match="division by zero"):
        parse_funcfield("T/0", 5)
    with pytest.raises(ValueError):
        parse_poly("(T+1)/T", 5)
    assert parse_poly("T^3+T", 3).coeffs == (0, 1, 0, 1)


def test_charp_and_gauss_evaluation():
    h = parse_charp("s*t - 1", 3)
    assert dict(h.num.terms) == {(0, 0): 2, (1, 1): 1}
    with pytest.raises(ValueError, match="no variable 'T' in characteristic p; use s or t"):
        parse_charp("T", 3)
    with pytest.raises(ValueError, match="division by zero"):
        parse_charp("s/(t-t)", 3)
    pt = parse_gauss_point("1/2 + 3*i")
    assert pt == GaussRat(Fraction(1, 2), 3)
    f = parse_gauss_ratfunc("(z-1)/(z+i)")
    assert f.num.coeffs[0] == GaussRat(-1)
    with pytest.raises(ValueError):
        parse_gauss_point("z + 1")
    with pytest.raises(ValueError, match="no variable 's' here; use z and i"):
        parse_gauss_ratfunc("s")
    with pytest.raises(ValueError, match="division by zero"):
        parse_gauss_ratfunc("z/0")


def random_ast(rng, depth):
    if depth == 0:
        return rng.choice([Num(rng.randrange(12)), Var(rng.choice("Tstzi"))])
    pick = rng.randrange(4)
    if pick == 0:
        return Neg(random_ast(rng, depth - 1))
    if pick == 1:
        return Pow(random_ast(rng, depth - 1), rng.randrange(5))
    return BinOp(
        rng.choice("+-*/"),
        random_ast(rng, depth - 1),
        random_ast(rng, rng.randrange(depth)),
    )


def format_expression(node) -> str:
    """Canonical printing, the parser's round-trip reference:
    parse_expression(format_expression(e)) rebuilds e exactly."""
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        inner = format_expression(node.arg)
        if isinstance(node.arg, BinOp):
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Pow):
        base = format_expression(node.base)
        if not isinstance(node.base, (Num, Var)):
            base = f"({base})"
        return f"{base}^{node.exponent}"
    if isinstance(node, BinOp):
        # the left spine of a chain is folded in a loop, as in evaluate
        spine = []
        while isinstance(node, BinOp):
            spine.append(node)
            node = node.left
        text = format_expression(node)
        for op in reversed(spine):
            if op.op in "*/" and isinstance(op.left, BinOp) and op.left.op in "+-":
                text = f"({text})"
            right = format_expression(op.right)
            if isinstance(op.right, BinOp):
                right = f"({right})"
            text = f"{text} {op.op} {right}"
        return text
    raise TypeError(f"not an expression node: {node!r}")


def test_parse_after_print_is_identity():
    rng = random.Random(2024)
    for _ in range(200):
        ast = random_ast(rng, 4)
        assert parse_expression(format_expression(ast)) == ast


def test_print_examples():
    assert format_expression(BinOp("+", Num(1), BinOp("*", Num(2), Var("T")))) == "1 + (2 * T)"
    assert format_expression(BinOp("*", BinOp("+", Num(1), Num(2)), Var("T"))) == "(1 + 2) * T"
    assert format_expression(Neg(BinOp("+", Num(1), Num(2)))) == "-(1 + 2)"
    assert format_expression(Pow(BinOp("+", Var("s"), Num(1)), 2)) == "(s + 1)^2"


def _same_tree(a, b) -> bool:
    """Structural equality without recursion: dataclass == on a 3000-deep
    left spine would exceed the interpreter's recursion limit."""
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if type(a) is not type(b):
            return False
        if isinstance(a, BinOp):
            if a.op != b.op:
                return False
            stack += [(a.left, b.left), (a.right, b.right)]
        elif isinstance(a, Neg):
            stack.append((a.arg, b.arg))
        elif isinstance(a, Pow):
            if a.exponent != b.exponent:
                return False
            stack.append((a.base, b.base))
        elif a != b:
            return False
    return True


def test_long_operator_chains_round_trip():
    rng = random.Random(3000)
    operands = ["7", "T", "(1 + T)", "-2", "T^3", "(T - 1) * 2"]
    text = "1" + "".join(f" {rng.choice('+-*/')} {rng.choice(operands)}" for _ in range(2999))
    tree = parse_expression(text)
    printed = format_expression(tree)
    assert _same_tree(parse_expression(printed), tree)
    assert format_expression(parse_expression(printed)) == printed
    chain = parse_expression("+".join(["1"] * 3000))
    assert format_expression(chain) == " + ".join(["1"] * 3000)
