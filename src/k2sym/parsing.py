"""A small expression language for command line inputs.

Grammar, whitespace-insensitive, with ^ for powers and unary minus:

    expr   := ('-')? term (('+' | '-') term)*     -- via factor-level minus
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | base ('^' uint)?
    base   := uint | identifier | '(' expr ')'

One pass that evaluates as it parses serves every domain with the values'
own operators; a domain supplies only how to make a constant, a table of its
variables (T for function fields, s and t in characteristic p, z and i over
the Gaussian rationals; plain rational expressions have none) and one lift
from its polynomials to its fractions.  Values are polynomials (ints for
rational expressions) until a division: '/' lifts both operands, a
polynomial that meets a fraction is lifted, and the result is lifted once
at the end, so the canonical form of a fraction is paid for only where a
fraction exists.  The unicode minus sign is accepted as a synonym for '-'.
Parentheses and unary minus nest at most MAX_NESTING deep, and an exponent
is at most MAX_EXPONENT.  Errors carry the character offset; an input with
several faults reports the first one from the left.
"""
from __future__ import annotations

import operator
from fractions import Fraction

from .arith import Poly, PolyFraction, RatFunc, field
from .charpforms import BiPoly, MultiRatFunc
from .regnum import GaussRat, poly_z


# Nesting budget for parentheses and unary minus together.  The parser
# recurses about four frames per parenthesis, so the budget keeps it well
# below the interpreter's recursion limit (1000 by default).
MAX_NESTING = 100

# Largest exponent literal.  Each ^ multiplies the degree (or height) of its
# base by the exponent, and the checks downstream cost at least linear time
# in that degree.  The literal alone does not bound the cost: over F_3,
# T^1000 + T + 2 is a dense polynomial of degree 1000 that would take 90 s
# or more to factor (7 s at degree 400).  Over F_q that degree is bounded
# where factoring starts, by arith.FACTOR_BUDGET.
MAX_EXPONENT = 1000


class ParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) tuples, kind one of num var op end."""
    src = text.replace("−", "-")
    out = []
    k = 0
    n = len(src)
    while k < n:
        ch = src[k]
        if ch.isspace():
            k += 1
            continue
        if ch.isdecimal():
            start = k
            while k < n and src[k].isdecimal():
                k += 1
            out.append(("num", src[start:k], start))
            continue
        if ch.isalpha():
            start = k
            while k < n and src[k].isalpha():
                k += 1
            out.append(("var", src[start:k], start))
            continue
        if ch in "+-*/^()":
            out.append(("op", ch, k))
            k += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", k)
    out.append(("end", "", n))
    return out


# The fraction types; every other value is a polynomial of its domain.
_FRACTIONS = (Fraction, PolyFraction)


class _Parser:
    """Recursive descent that folds each production into its value as it
    goes: `const(n)` makes the polynomial of an integer literal, `names` maps
    each identifier to a function that makes its polynomial, `lift` turns a
    polynomial into a fraction, and `where` finishes the error for any other
    identifier.

    The expr and term loops fold a chain a + b - c ... left to right, so
    recursion goes only as deep as the nesting budget.
    """

    def __init__(self, text: str, const, names, lift, where):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.const = const
        self.names = names
        self.lift = lift
        self.where = where

    def lifted(self, value):
        return value if isinstance(value, _FRACTIONS) else self.lift(value)

    def fold(self, op: str, a, b):
        """a op b.  Division lifts both operands; otherwise a polynomial
        is lifted only when it meets a fraction."""
        if op == "/":
            try:
                return self.lifted(a) / self.lifted(b)
            except ZeroDivisionError:
                raise ValueError("division by zero") from None
        if type(a) is not type(b):
            a, b = self.lifted(a), self.lifted(b)
        return _BINARY[op](a, b)

    def nest(self, offset: int) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING}", offset)

    def expr(self):
        value = self.term()
        while True:
            kind, op, _ = self.tokens[self.pos]
            if kind != "op" or op not in "+-":
                return value
            self.pos += 1
            value = self.fold(op, value, self.term())

    def term(self):
        value = self.factor()
        while True:
            kind, op, _ = self.tokens[self.pos]
            if kind != "op" or op not in "*/":
                return value
            self.pos += 1
            value = self.fold(op, value, self.factor())

    def factor(self):
        kind, text, offset = self.tokens[self.pos]
        if kind == "op" and text == "-":
            self.pos += 1
            self.nest(offset)
            value = -self.factor()
            self.depth -= 1
            return value
        value = self.base()
        kind, text, _ = self.tokens[self.pos]
        if kind == "op" and text == "^":
            kind, text, offset = self.tokens[self.pos + 1]
            if kind != "num":
                raise ParseError("expected an exponent", offset)
            self.pos += 2
            exponent = int(text)
            if exponent > MAX_EXPONENT:
                raise ParseError(f"exponent larger than {MAX_EXPONENT}", offset)
            value = value ** exponent
        return value

    def base(self):
        kind, text, offset = self.tokens[self.pos]
        self.pos += 1
        if kind == "num":
            return self.const(int(text))
        if kind == "var":
            make = self.names.get(text)
            if make is None:
                raise ValueError(f"no variable {text!r} {self.where}")
            return make()
        if kind == "op" and text == "(":
            self.nest(offset)
            value = self.expr()
            kind, text, offset = self.tokens[self.pos]
            if kind != "op" or text != ")":
                raise ParseError("expected ')'", offset)
            self.pos += 1
            self.depth -= 1
            return value
        raise ParseError("expected an operand", offset)


def _evaluate(text: str, const, names, lift, where):
    """The value of text in one domain, as a fraction; division by a zero
    value, in any domain, is a ValueError."""
    parser = _Parser(text, const, names, lift, where)
    value = parser.expr()
    kind, _, offset = parser.tokens[parser.pos]
    if kind != "end":
        raise ParseError("trailing input", offset)
    return parser.lifted(value)


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def parse_rational(text: str) -> Fraction:
    return _evaluate(text, int, {}, Fraction, "in a rational expression")


def parse_funcfield(text: str, q: int) -> RatFunc:
    """A rational function of T over F_q."""
    F = field(q)
    return _evaluate(
        text,
        lambda n: Poly.const(F, F.from_int(n)),
        {"T": lambda: Poly.x(F)},
        RatFunc.from_poly,
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
    return _evaluate(
        text,
        lambda n: BiPoly.const(p, n),
        {"s": lambda: BiPoly.var_s(p), "t": lambda: BiPoly.var_t(p)},
        MultiRatFunc.from_poly,
        "in characteristic p; use s or t",
    )


def parse_gauss_ratfunc(text: str) -> RatFunc:
    """A rational function of z over the Gaussian rationals; i is the unit."""
    return _evaluate(
        text,
        lambda n: poly_z([n]),
        {"z": lambda: poly_z([0, 1]), "i": lambda: poly_z([GaussRat(0, 1)])},
        RatFunc.from_poly,
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
