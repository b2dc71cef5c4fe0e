"""A small expression language for command line inputs.

Grammar, whitespace-insensitive, with ^ for powers and unary minus:

    expr   := ('-')? term (('+' | '-') term)*     -- via factor-level minus
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | base ('^' uint)?
    base   := uint | identifier | '(' expr ')'

One evaluator serves every domain with the values' own operators; a domain
supplies only how to make a constant and a table of its variables (T for
function fields, s and t in characteristic p, z and i over the Gaussian
rationals; plain rational expressions have none).  The unicode minus sign
is accepted as a synonym for '-'.  Parentheses and unary minus nest at most
MAX_NESTING deep, and an exponent is at most MAX_EXPONENT.  Errors carry
the character offset.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from .arith import Poly, RatFunc, field
from .charpforms import BiPoly, MultiRatFunc
from .regnum import GaussRat, poly_z, ratfunc_z


# Nesting budget for parentheses and unary minus together.  The parser
# recurses about four frames per parenthesis, so the budget keeps it well
# below the interpreter's recursion limit (1000 by default).
MAX_NESTING = 100

# Largest exponent literal.  Each ^ multiplies the degree (or height) of its
# base by the exponent, and the checks downstream cost at least linear time
# in that degree: T^1000 in a Weil check over F_3 is still quick, T^999999
# is not.
MAX_EXPONENT = 1000


class ParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


@dataclass(frozen=True)
class Num:
    value: int


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


@dataclass(frozen=True)
class _Token:
    kind: str  # num var op end
    text: str
    offset: int


def _tokenize(text: str) -> list[_Token]:
    src = text.replace("−", "-")
    out = []
    k = 0
    n = len(src)
    while k < n:
        ch = src[k]
        if ch.isspace():
            k += 1
            continue
        if ch.isdigit():
            start = k
            while k < n and src[k].isdigit():
                k += 1
            out.append(_Token("num", src[start:k], start))
            continue
        if ch.isalpha():
            start = k
            while k < n and src[k].isalpha():
                k += 1
            out.append(_Token("var", src[start:k], start))
            continue
        if ch in "+-*/^()":
            out.append(_Token("op", ch, k))
            k += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", k)
    out.append(_Token("end", "", n))
    return out


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def nest(self, tok: _Token) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING}", tok.offset)

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expr(self):
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.take().text
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.take().text
            node = BinOp(op, node, self.factor())
        return node

    def factor(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.nest(self.take())
            node = Neg(self.factor())
            self.depth -= 1
            return node
        node = self.base()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.take()
            etok = self.peek()
            if etok.kind != "num":
                raise ParseError("expected an exponent", etok.offset)
            self.take()
            exponent = int(etok.text)
            if exponent > MAX_EXPONENT:
                raise ParseError(f"exponent larger than {MAX_EXPONENT}", etok.offset)
            node = Pow(node, exponent)
        return node

    def base(self):
        tok = self.take()
        if tok.kind == "num":
            return Num(int(tok.text))
        if tok.kind == "var":
            return Var(tok.text)
        if tok.kind == "op" and tok.text == "(":
            self.nest(tok)
            node = self.expr()
            closing = self.take()
            if not (closing.kind == "op" and closing.text == ")"):
                raise ParseError("expected ')'", closing.offset)
            self.depth -= 1
            return node
        raise ParseError("expected an operand", tok.offset)


def parse_expression(text: str):
    parser = _Parser(_tokenize(text))
    node = parser.expr()
    tail = parser.peek()
    if tail.kind != "end":
        raise ParseError("trailing input", tail.offset)
    return node


def evaluate(node, const, names, where):
    """Fold the tree with the values' own + - * / ** and unary minus.

    `const(n)` makes the value of an integer literal, `names` maps each
    identifier to a function that makes its value, and `where` finishes the
    error for any other identifier.  Division by a zero value, in any
    domain, is a ValueError.

    A chain a + b - c ... is a left-deep tree as deep as it is long, so its
    left spine is folded in a loop; recursion goes only as deep as the
    parser's nesting budget.
    """
    if isinstance(node, BinOp):
        spine = []
        while isinstance(node, BinOp):
            spine.append(node)
            node = node.left
        acc = evaluate(node, const, names, where)
        for op in reversed(spine):
            acc = _BINARY[op.op](acc, evaluate(op.right, const, names, where))
        return acc
    if isinstance(node, Num):
        return const(node.value)
    if isinstance(node, Var):
        make = names.get(node.name)
        if make is None:
            raise ValueError(f"no variable {node.name!r} {where}")
        return make()
    if isinstance(node, Neg):
        return -evaluate(node.arg, const, names, where)
    if isinstance(node, Pow):
        return evaluate(node.base, const, names, where) ** node.exponent
    raise TypeError(f"not an expression node: {node!r}")


def _divide(a, b):
    try:
        return a / b
    except ZeroDivisionError:
        raise ValueError("division by zero") from None


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _divide}


def parse_rational(text: str) -> Fraction:
    return evaluate(parse_expression(text), Fraction, {}, "in a rational expression")


def parse_funcfield(text: str, q: int) -> RatFunc:
    """A rational function of T over F_q."""
    node = parse_expression(text)
    F = field(q)
    return evaluate(
        node,
        lambda n: RatFunc.from_poly(Poly.const(F, F.from_int(n))),
        {"T": lambda: RatFunc.from_poly(Poly.x(F))},
        "over a function field; use T",
    )


def parse_poly(text: str, q: int) -> Poly:
    """Parse and require a polynomial (denominator 1)."""
    f = parse_funcfield(text, q)
    if not f.den.is_constant():
        raise ValueError(f"{text!r} is not a polynomial")
    return f.num


def parse_charp(text: str, p: int) -> MultiRatFunc:
    """A bivariate rational function of s, t in characteristic p."""
    return evaluate(
        parse_expression(text),
        lambda n: MultiRatFunc.const(p, n),
        {
            "s": lambda: MultiRatFunc.from_poly(BiPoly.var_s(p)),
            "t": lambda: MultiRatFunc.from_poly(BiPoly.var_t(p)),
        },
        "in characteristic p; use s or t",
    )


def parse_gauss_ratfunc(text: str) -> RatFunc:
    """A rational function of z over the Gaussian rationals; i is the unit."""
    return evaluate(
        parse_expression(text),
        lambda n: ratfunc_z([n]),
        {
            "z": lambda: ratfunc_z([0, 1]),
            "i": lambda: RatFunc.from_poly(poly_z([GaussRat(0, 1)])),
        },
        "here; use z and i",
    )


def parse_gauss_point(text: str) -> GaussRat:
    """A constant Gaussian rational, e.g. '1/2 + 3*i'."""
    f = parse_gauss_ratfunc(text)
    if not (f.num.is_constant() and f.den.is_constant()):
        raise ValueError(f"{text!r} is not a constant")
    num = f.num.constant_value()
    den = f.den.constant_value()
    return num / den
