"""Polynomial expression grammar and its parser.

    expr     := ('+' | '-')? term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' nat)?
    base     := rational | variable | '(' expr ')'
    rational := nat ('/' nat)?

Multiplication is always explicit ("x*y"; "xy" is a single identifier) and
'/' occurs only inside rational literals.  `str` of a `Polynomial` is its
canonical form, terms in descending grevlex order with explicit '*' and
'^', which the parser round-trips exactly.  One compiled pattern scans the
whole source into `(kind, text, offset)` tokens before parsing starts, so
an unexpected character anywhere wins over an earlier syntax error.  An
error's line and column are computed from its offset when it is raised.
The parser recurses once per level of parentheses, so it refuses nesting
deeper than MAX_NESTING with a positioned error before the interpreter's
recursion limit is reached.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .poly import Polynomial, Ring


class PolyParseError(ValueError):
    """Syntax or name error with 1-based line and column position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


MAX_NESTING = 100

# \s is exactly str.isspace and \w exactly str.isalnum or '_'; a number is
# [0-9]+, since \d and str.isdigit also take other scripts' digits
_TOKEN = re.compile(
    r"\s*(?:(?P<number>[0-9]+)|(?P<name>\w+)|(?P<op>[-+*^/()])|(?P<end>\Z)|(?P<bad>.))", re.S
)


def _error(src: str, offset: int, message: str) -> PolyParseError:
    # a newline starts a line; every other character takes one column
    return PolyParseError(message, src.count("\n", 0, offset) + 1, offset - src.rfind("\n", 0, offset))


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    """Every token of src, ending with kind "end"; an operator is its own kind."""
    tokens = []
    kind, i = None, 0
    while kind != "end":
        m = _TOKEN.match(src, i)
        kind = m.lastgroup
        text, start, i = m[kind], m.start(kind), m.end()
        # a name starts with a letter (str.isalpha, which no regex class matches) or '_'
        if kind == "bad" or kind == "name" and not (text[0].isalpha() or text[0] == "_"):
            raise _error(src, start, f"unexpected character {text[0]!r}")
        tokens.append((text if kind == "op" else kind, text, start))
    return tokens


class _Parser:
    def __init__(self, src: str, ring: Ring):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0
        self.ring = ring
        self.depth = 0  # parentheses open at the current position

    def peek(self) -> str:
        return self.tokens[self.pos][0]

    def take(self, kind: str) -> str:
        found, text, offset = self.tokens[self.pos]
        if found != kind:
            raise _error(self.src, offset, f"expected {kind!r}, found {text or 'end of input'!r}")
        self.pos += 1
        return text

    def expr(self) -> Polynomial:
        sign = 1
        if self.peek() in "+-" and self.take(self.peek()) == "-":
            sign = -1
        total = self.term() * sign
        while self.peek() in "+-":
            if self.take(self.peek()) == "-":
                total = total - self.term()
            else:
                total = total + self.term()
        return total

    def term(self) -> Polynomial:
        product = self.factor()
        while self.peek() == "*":
            self.take("*")
            product = product * self.factor()
        return product

    def factor(self) -> Polynomial:
        base = self.base()
        if self.peek() == "^":
            self.take("^")
            return base ** self.nat()
        return base

    def base(self) -> Polynomial:
        kind, text, offset = self.tokens[self.pos]
        if kind == "number":
            return self.ring.const(self.rational())
        if kind == "name":
            self.take("name")
            try:
                index = self.ring.index(text)
            except KeyError:
                raise _error(self.src, offset, f"unknown variable {text!r}") from None
            return self.ring.var(index)
        if kind == "(":
            if self.depth == MAX_NESTING:
                raise _error(self.src, offset, f"parentheses nested more than {MAX_NESTING} deep")
            self.take("(")
            self.depth += 1
            inner = self.expr()
            self.take(")")
            self.depth -= 1
            return inner
        raise _error(self.src, offset, f"expected a value, found {text or 'end of input'!r}")

    def nat(self) -> int:
        text = self.take("number")
        try:
            return int(text)
        except ValueError:  # longer than sys.get_int_max_str_digits()
            message = f"a number of more than {sys.get_int_max_str_digits()} digits"
            raise _error(self.src, self.tokens[self.pos - 1][2], message) from None

    def rational(self) -> Fraction:
        num = self.nat()
        if self.peek() == "/":
            self.take("/")
            den = self.nat()
            if den == 0:
                raise _error(self.src, self.tokens[self.pos - 1][2], "zero denominator")
            return Fraction(num, den)
        return Fraction(num)


def parse_polynomial(src: str, ring: Ring) -> Polynomial:
    """Parse an expression into an exact polynomial over the ring."""
    parser = _Parser(src, ring)
    result = parser.expr()
    kind, text, offset = parser.tokens[parser.pos]
    if kind != "end":
        raise _error(src, offset, f"unexpected trailing input {text!r}")
    return result
