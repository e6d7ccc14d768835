"""Polynomial expression grammar and its parser.

    expr     := ('+' | '-')? term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' nat)?
    base     := rational | variable | '(' expr ')'
    rational := nat ('/' nat)?

Multiplication is always explicit ("x*y"; "xy" is a single identifier) and
'/' occurs only inside rational literals.  `str` of a `Polynomial` is its
canonical form, terms in descending grevlex order with explicit '*' and
'^', which the parser round-trips exactly.  The parser recurses once per
level of parentheses, so it refuses nesting deeper than MAX_NESTING with a
positioned error before the interpreter's recursion limit is reached.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import Polynomial, Ring, _Record


class PolyParseError(ValueError):
    """Syntax or name error with 1-based line and column position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class _Token(_Record):
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        # kind: "number" | "name" | one of "+-*^/()" | "end"
        self._init(kind, text, line, col)


MAX_NESTING = 100

_DIGITS = "0123456789"  # str.isdigit also accepts superscripts and other scripts' digits


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(src):
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        start_col = col
        if ch in _DIGITS:
            j = i
            while j < len(src) and src[j] in _DIGITS:
                j += 1
            tokens.append(_Token("number", src[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(_Token("name", src[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in "+-*^/()":
            tokens.append(_Token(ch, ch, line, start_col))
            col += 1
            i += 1
            continue
        raise PolyParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], ring: Ring):
        self.tokens = tokens
        self.pos = 0
        self.ring = ring
        self.depth = 0  # parentheses open at the current position

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise PolyParseError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                tok.line,
                tok.col,
            )
        self.pos += 1
        return tok

    def expr(self) -> Polynomial:
        sign = 1
        if self.peek().kind in "+-":
            if self.take(self.peek().kind).kind == "-":
                sign = -1
        total = self.term() * sign
        while self.peek().kind in "+-":
            if self.take(self.peek().kind).kind == "-":
                total = total - self.term()
            else:
                total = total + self.term()
        return total

    def term(self) -> Polynomial:
        product = self.factor()
        while self.peek().kind == "*":
            self.take("*")
            product = product * self.factor()
        return product

    def factor(self) -> Polynomial:
        base = self.base()
        if self.peek().kind == "^":
            self.take("^")
            tok = self.take("number")
            return base ** int(tok.text)
        return base

    def base(self) -> Polynomial:
        tok = self.peek()
        if tok.kind == "number":
            return self.ring.const(self.rational())
        if tok.kind == "name":
            self.take("name")
            try:
                index = self.ring.index(tok.text)
            except KeyError:
                raise PolyParseError(
                    f"unknown variable {tok.text!r}", tok.line, tok.col
                ) from None
            return self.ring.var(index)
        if tok.kind == "(":
            if self.depth == MAX_NESTING:
                raise PolyParseError(
                    f"parentheses nested more than {MAX_NESTING} deep", tok.line, tok.col
                )
            self.take("(")
            self.depth += 1
            inner = self.expr()
            self.take(")")
            self.depth -= 1
            return inner
        raise PolyParseError(
            f"expected a value, found {tok.text or 'end of input'!r}",
            tok.line,
            tok.col,
        )

    def rational(self) -> Fraction:
        num = self.take("number")
        if self.peek().kind == "/":
            self.take("/")
            den = self.take("number")
            if int(den.text) == 0:
                raise PolyParseError("zero denominator", den.line, den.col)
            return Fraction(int(num.text), int(den.text))
        return Fraction(int(num.text))


def parse_polynomial(src: str, ring: Ring) -> Polynomial:
    """Parse an expression into an exact polynomial over the ring."""
    parser = _Parser(_tokenize(src), ring)
    result = parser.expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise PolyParseError(
            f"unexpected trailing input {trailing.text!r}", trailing.line, trailing.col
        )
    return result
