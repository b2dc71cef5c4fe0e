"""Tests for the expression language and its evaluation in each domain."""
import operator
import random
from fractions import Fraction

import pytest

from k2sym.arith import Poly, RatFunc, field
from k2sym.charpforms import BiPoly, MultiRatFunc
from k2sym.parsing import (
    MAX_EXPONENT,
    MAX_NESTING,
    ParseError,
    parse_charp,
    parse_funcfield,
    parse_gauss_point,
    parse_gauss_ratfunc,
    parse_poly,
    parse_rational,
)
from k2sym.regnum import GaussRat, poly_z


def test_precedence_and_associativity():
    assert parse_rational("1+2*3") == 7
    assert parse_rational("(1+2)*3") == 9
    assert parse_rational("1-2-3") == -4
    assert parse_rational("8/4/2") == 1
    assert parse_rational("2*3/4*5") == Fraction(15, 2)
    assert parse_rational("2^3") == 8
    assert parse_rational("-2^2") == -4
    assert parse_rational("1 - -2") == 3
    x = parse_funcfield("T", 7)
    assert parse_funcfield("-T^2", 7) == -(x * x)
    assert parse_funcfield("T - 1 - T", 7) == parse_funcfield("-1", 7)


def test_whitespace_and_unicode_minus():
    assert parse_rational(" 1 +\t2 *  3 ") == parse_rational("1+2*3") == 7
    assert parse_funcfield(" ( T + 1 ) ^ 2 ", 5) == parse_funcfield("(T+1)^2", 5)
    assert parse_rational("−3/4") == Fraction(-3, 4)


def test_syntax_error_offsets():
    for text, message in [
        ("1 +", "expected an operand at offset 3"),
        ("(1+2", "expected ')' at offset 4"),
        ("1 @ 2", "unexpected character '@' at offset 2"),
        ("2^x", "expected an exponent at offset 2"),
        ("1 2", "trailing input at offset 2"),
        ("2²", "unexpected character '²' at offset 1"),  # a digit to isdigit(), not to int()
        ("1 + (2 * )", "expected an operand at offset 9"),
    ]:
        with pytest.raises(ParseError) as exc:
            parse_rational(text)
        assert str(exc.value) == message
        assert exc.value.offset == int(message.rsplit(" ", 1)[1])


def test_first_fault_from_the_left_is_reported():
    with pytest.raises(ValueError, match="division by zero"):
        parse_rational("1/0 +")
    with pytest.raises(ParseError, match="expected an operand at offset 3"):
        parse_rational("1+ +1/0")


def test_nesting_budget():
    inner = "(" * MAX_NESTING + "2" + ")" * MAX_NESTING
    assert parse_rational(inner) == 2
    assert parse_rational("-" * MAX_NESTING + "2") == 2
    for deep in ("(" + inner + ")", "-" + "-(" * (MAX_NESTING // 2) + "2" + ")" * (MAX_NESTING // 2)):
        with pytest.raises(ParseError, match="nesting"):
            parse_rational(deep)
    with pytest.raises(ParseError) as exc:
        parse_rational("(" * 2000 + "2" + ")" * 2000)
    assert exc.value.offset == MAX_NESTING
    # the budget bounds depth, not count: closed groups give theirs back
    assert parse_rational("+".join([inner] * 3)) == 6


def test_exponent_budget():
    assert parse_rational(f"1^{MAX_EXPONENT}") == 1
    assert parse_funcfield(f"T^{MAX_EXPONENT}", 3).num.degree == MAX_EXPONENT
    with pytest.raises(ParseError, match="exponent") as exc:
        parse_funcfield(f"1 + T^{MAX_EXPONENT + 1}", 3)
    assert exc.value.offset == 6
    with pytest.raises(ParseError) as exc:
        parse_funcfield("T^999999", 3)
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


def digit(rng):
    n = rng.randrange(12)
    return str(n), Fraction(n)


# Levels of the grammar: 0 a sum, 1 a product, 2 a factor (-x or x^n),
# 3 a base (a literal, a variable or a parenthesized expression).
def random_expression(rng, depth, leaf=digit, zero=0):
    """(text, level, value): random text written with only the parentheses
    the grammar needs, and its value from the operators of the leaves'
    values; leaf(rng) gives the (text, value) of a literal or a variable,
    and a division by a value equal to zero is written as a product."""
    if depth == 0 or rng.random() < 0.2:
        text, value = leaf(rng)
        return text, 3, value

    def operand(least):
        text, level, value = random_expression(rng, depth - 1, leaf, zero)
        if level < least or rng.random() < 0.1:
            text, level = f"({text})", 3
        return text, value

    sp = rng.choice(("", " "))
    pick = rng.randrange(5)
    if pick == 0:
        text, value = operand(2)
        return f"-{sp}{text}", 2, -value
    if pick == 1:
        e = rng.randrange(4)
        text, value = operand(3)
        return f"{text}^{e}", 2, value**e
    op = rng.choice("+-*/")
    least = 0 if op in "+-" else 1
    left, a = operand(least)
    right, b = operand(least + 1)  # the left fold needs the right one tighter
    if op == "/" and b == zero:
        op = "*"
    value = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}[op](a, b)
    return f"{left}{sp}{op}{sp}{right}", least, value


def test_random_expressions_match_fraction_oracle():
    rng = random.Random(2024)
    for _ in range(300):
        text, _, value = random_expression(rng, 5)
        assert parse_rational(text) == value, text


def _fraction_field(domain):
    """(parse, lifted values of the literal n and of each variable): the
    oracle's leaves, every one a fraction before any operation."""
    if domain == "rational":
        return parse_rational, Fraction, {}
    if domain == "char 3":
        p = 3
        lift = MultiRatFunc.from_poly
        return (lambda text: parse_charp(text, p), lambda n: lift(BiPoly.const(p, n)),
                {"s": lift(BiPoly.var_s(p)), "t": lift(BiPoly.var_t(p))})
    if domain == "Q(i)":
        return (parse_gauss_ratfunc, lambda n: RatFunc.from_poly(poly_z([n])),
                {"z": RatFunc.from_poly(poly_z([0, 1])), "i": RatFunc.from_poly(poly_z([GaussRat(0, 1)]))})
    q = int(domain[2:])
    F = field(q)
    return (lambda text: parse_funcfield(text, q), lambda n: RatFunc.from_poly(Poly.const(F, F.from_int(n))),
            {"T": RatFunc.from_poly(Poly.x(F))})


@pytest.mark.parametrize("domain", ["rational", "F_5", "F_4", "char 3", "Q(i)"])
def test_random_expressions_match_the_fraction_field_fold(domain):
    # the parser keeps polynomials until a division; the oracle folds the
    # same text left to right with every value a fraction from the start
    parse, const, names = _fraction_field(domain)
    variables = list(names.items())

    def leaf(rng):
        if variables and rng.random() < 0.5:
            return rng.choice(variables)
        n = rng.randrange(12)
        return str(n), const(n)

    rng = random.Random(f"parse {domain}")
    for _ in range(150):
        text, _, value = random_expression(rng, 5, leaf, const(0))
        assert parse(text) == value, text


def test_long_funcfield_chain_matches_left_fold():
    q = 5
    F = field(q)
    T = RatFunc.from_poly(Poly.x(F))

    def c(n):
        return RatFunc.from_poly(Poly.const(F, F.from_int(n)))

    # factor-level operands, so a chain of them is a left fold of its terms;
    # the parenthesized ones check that each ')' gives its nesting back
    operands = {
        "7": c(7), "T": T, "(1 + T)": c(1) + T, "-2": -c(2), "T^3": T**3,
        "(T - 1)": T - c(1), "-(T^2 + 1)": -(T * T + c(1)), "(2 * T - 1)^2": (c(2) * T - c(1)) ** 2,
    }
    rng = random.Random(3000)
    picks = [rng.choice(list(operands)) for _ in range(3000)]
    ops = [rng.choice("+-*/") for _ in range(2999)]
    text = picks[0] + "".join(f" {op} {x}" for op, x in zip(ops, picks[1:]))
    assert text.count("(") > MAX_NESTING
    # * and / fold within a term, + and - fold the terms
    total, sign, term = c(0), "+", operands[picks[0]]
    for op, x in zip(ops, picks[1:]):
        if op == "*":
            term = term * operands[x]
        elif op == "/":
            term = term / operands[x]
        else:
            total = total + term if sign == "+" else total - term
            sign, term = op, operands[x]
    total = total + term if sign == "+" else total - term
    assert parse_funcfield(text, q) == total
