"""A small expression language for command line inputs.

Grammar, whitespace-insensitive, with ^ for powers and unary minus:

    expr   := ('-')? term (('+' | '-') term)*     -- via factor-level minus
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | base ('^' uint)?
    base   := uint | identifier | '(' expr ')'

Identifiers are single names resolved by the evaluation context (T for
function fields, s and t in characteristic p, z and i over the Gaussian
rationals; plain rational contexts have none).  The unicode minus sign is
accepted as a synonym for '-'.  Parentheses and unary minus nest at most
MAX_NESTING deep.  Errors carry the character offset.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import Poly, RatFunc, field
from .charpforms import BiPoly, MultiRatFunc
from .regnum import GaussRat, poly_z, ratfunc_z


# Nesting budget for parentheses and unary minus together.  The parser
# recurses about four frames per parenthesis, so the budget keeps it well
# below the interpreter's recursion limit (1000 by default).
MAX_NESTING = 100


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
            node = Pow(node, int(etok.text))
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


def format_expression(node) -> str:
    """Canonical printing; parse(format_expression(e)) rebuilds e exactly."""
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


def evaluate(node, context):
    """Fold the tree through a context with const/var/arithmetic hooks.

    A chain a + b - c ... is a left-deep tree as deep as it is long, so its
    left spine is folded in a loop; recursion goes only as deep as the
    parser's nesting budget.
    """
    if isinstance(node, BinOp):
        spine = []
        while isinstance(node, BinOp):
            spine.append(node)
            node = node.left
        acc = evaluate(node, context)
        for op in reversed(spine):
            acc = _apply(op.op, acc, evaluate(op.right, context), context)
        return acc
    if isinstance(node, Num):
        return context.const(node.value)
    if isinstance(node, Var):
        return context.var(node.name)
    if isinstance(node, Neg):
        return context.neg(evaluate(node.arg, context))
    if isinstance(node, Pow):
        return context.pow(evaluate(node.base, context), node.exponent)
    raise TypeError(f"not an expression node: {node!r}")


def _apply(op: str, a, b, context):
    if op == "+":
        return context.add(a, b)
    if op == "-":
        return context.sub(a, b)
    if op == "*":
        return context.mul(a, b)
    return context.div(a, b)


# -- evaluation contexts -----------------------------------------------------------


class RationalContext:
    """Plain rational arithmetic; no variables."""

    def const(self, n):
        return Fraction(n)

    def var(self, name):
        raise ValueError(f"no variable {name!r} in a rational expression")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def div(self, a, b):
        if b == 0:
            raise ValueError("division by zero")
        return a / b

    def pow(self, a, e):
        return a**e


class FuncFieldContext:
    """Rational functions of T over F_q."""

    def __init__(self, q: int):
        self.F = field(q)

    def const(self, n):
        return RatFunc.from_poly(Poly.const(self.F, self.F.from_int(n)))

    def var(self, name):
        if name != "T":
            raise ValueError(f"no variable {name!r} over a function field; use T")
        return RatFunc.from_poly(Poly.x(self.F))

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def div(self, a, b):
        if b.is_zero():
            raise ValueError("division by zero")
        return a / b

    def pow(self, a, e):
        return a**e


class CharPContext:
    """Bivariate rational functions of s, t in characteristic p."""

    def __init__(self, p: int):
        self.p = p

    def const(self, n):
        return MultiRatFunc.const(self.p, n)

    def var(self, name):
        if name == "s":
            return MultiRatFunc.from_poly(BiPoly.var_s(self.p))
        if name == "t":
            return MultiRatFunc.from_poly(BiPoly.var_t(self.p))
        raise ValueError(f"no variable {name!r} in characteristic p; use s or t")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def div(self, a, b):
        if b.is_zero():
            raise ValueError("division by zero")
        return a / b

    def pow(self, a, e):
        return a**e


class GaussContext:
    """Rational functions of z over the Gaussian rationals; i is the unit."""

    def const(self, n):
        return ratfunc_z([n])

    def var(self, name):
        if name == "z":
            return ratfunc_z([0, 1])
        if name == "i":
            return RatFunc.from_poly(poly_z([GaussRat.make(0, 1)]))
        raise ValueError(f"no variable {name!r} here; use z and i")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def div(self, a, b):
        if b.is_zero():
            raise ValueError("division by zero")
        return a / b

    def pow(self, a, e):
        return a**e


def parse_rational(text: str) -> Fraction:
    return evaluate(parse_expression(text), RationalContext())


def parse_funcfield(text: str, q: int) -> RatFunc:
    return evaluate(parse_expression(text), FuncFieldContext(q))


def parse_poly(text: str, q: int) -> Poly:
    """Parse and require a polynomial (denominator 1)."""
    f = parse_funcfield(text, q)
    if not f.den.is_constant():
        raise ValueError(f"{text!r} is not a polynomial")
    return f.num

def parse_charp(text: str, p: int) -> MultiRatFunc:
    return evaluate(parse_expression(text), CharPContext(p))


def parse_gauss_ratfunc(text: str) -> RatFunc:
    return evaluate(parse_expression(text), GaussContext())


def parse_gauss_point(text: str) -> GaussRat:
    """A constant Gaussian rational, e.g. '1/2 + 3*i'."""
    f = parse_gauss_ratfunc(text)
    if not (f.num.is_constant() and f.den.is_constant()):
        raise ValueError(f"{text!r} is not a constant")
    num = f.num.constant_value()
    den = f.den.constant_value()
    return num / den
