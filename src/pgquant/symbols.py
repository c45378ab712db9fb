"""Text front end: parse symbol expressions to trees, print elements back.

Grammar (products are non-commutative and preserve written order):

    expr   := '-'? term (('+' | '-') term)*
    term   := factor ('*'? factor)*          # juxtaposition multiplies
    factor := atom ('^' uint)?
    atom   := 'th' | 'thb' | 'q' | number | '(' expr ')'

Numbers are real or pure-imaginary literals (2.5, 3i, 1e-4, bare i); a full
complex coefficient must be parenthesized, e.g. (1+2i)*th.  The unicode
spellings of the two generators are accepted as aliases.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

from .algebra import (THETA, THETA_BAR, Const, FreeExpr, Gen, Neg, PGElement,
                      Pow, Prod, QSym, Sum, aw_index)

_MINUS = ("-", "−")

_NUMBER_RE = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?i?|\.\d+(?:[eE][+-]?\d+)?i?")


@dataclass(frozen=True)
class Token:
    kind: str  # "th" | "thb" | "q" | "number" | "op" | "lparen" | "rparen" | "end"
    text: str
    pos: int


@dataclass
class ParseError(Exception):
    position: int
    message: str
    expected: tuple = field(default_factory=tuple)

    def __str__(self):
        return f"parse error at position {self.position}: {self.message}"


def tokenize(text: str) -> list[Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("thb", i):
            tokens.append(Token("thb", "thb", i))
            i += 3
            continue
        if text.startswith("th", i):
            tokens.append(Token("th", "th", i))
            i += 2
            continue
        if ch == "θ":  # unicode theta, optionally with a combining macron
            if i + 1 < n and text[i + 1] in ("̄", "̅"):
                tokens.append(Token("thb", text[i:i + 2], i))
                i += 2
            else:
                tokens.append(Token("th", ch, i))
                i += 1
            continue
        if ch == "q":
            tokens.append(Token("q", "q", i))
            i += 1
            continue
        if ch == "i":
            tokens.append(Token("number", "i", i))
            i += 1
            continue
        m = _NUMBER_RE.match(text, i)
        if m:
            tokens.append(Token("number", m.group(0), i))
            i = m.end()
            continue
        if ch in "+*^" or ch in _MINUS:
            tokens.append(Token("op", "-" if ch in _MINUS else ch, i))
            i += 1
            continue
        if ch == "(":
            tokens.append(Token("lparen", ch, i))
            i += 1
            continue
        if ch == ")":
            tokens.append(Token("rparen", ch, i))
            i += 1
            continue
        raise ParseError(i, f"unknown token {ch!r}")
    tokens.append(Token("end", "", n))
    return tokens


def _number_value(text: str) -> complex:
    if text == "i":
        return 1j
    if text.endswith("i"):
        return float(text[:-1]) * 1j
    return complex(float(text))


_ATOM_KINDS = ("th", "thb", "q", "number", "lparen")

# Deepest parenthesis nesting accepted.  Parsing, evaluating, hashing and
# printing a tree recurse once per node, and one level of parentheses adds at
# most four nodes (Sum, Neg, Prod, Pow); this keeps all of them well inside
# the interpreter's recursion limit.
MAX_DEPTH = 32


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(tok.pos, f"expected {what}", expected=(kind,))
        return self.advance()

    def parse(self) -> FreeExpr:
        tok = self.peek()
        if tok.kind == "end":
            raise ParseError(tok.pos, "empty input", expected=_ATOM_KINDS)
        expr = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(tok.pos, f"unexpected {tok.text!r}")
        return expr

    def expr(self) -> FreeExpr:
        terms = []
        negate = False
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            negate = True
        term = self.term()
        terms.append(Neg(term) if negate else term)
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in ("+", "-"):
                self.advance()
                nxt = self.term()
                terms.append(Neg(nxt) if tok.text == "-" else nxt)
            else:
                break
        if len(terms) == 1:
            return terms[0]
        return Sum(tuple(terms))

    def term(self) -> FreeExpr:
        factors = [self.factor()]
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text == "*":
                self.advance()
                factors.append(self.factor())
            elif tok.kind in _ATOM_KINDS:
                factors.append(self.factor())
            else:
                break
        if len(factors) == 1:
            return factors[0]
        return Prod(tuple(factors))

    def factor(self) -> FreeExpr:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            etok = self.peek()
            if etok.kind != "number" or not etok.text.isdigit():
                raise ParseError(etok.pos, "non-negative integer exponent expected",
                                 expected=("number",))
            self.advance()
            return Pow(base, int(etok.text))
        return base

    def atom(self) -> FreeExpr:
        tok = self.peek()
        if tok.kind == "th":
            self.advance()
            return Gen(THETA)
        if tok.kind == "thb":
            self.advance()
            return Gen(THETA_BAR)
        if tok.kind == "q":
            self.advance()
            return QSym()
        if tok.kind == "number":
            self.advance()
            return Const(_number_value(tok.text))
        if tok.kind == "lparen":
            if self.depth == MAX_DEPTH:
                raise ParseError(tok.pos, f"parentheses nested deeper than {MAX_DEPTH}")
            self.advance()
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            self.expect("rparen", "closing parenthesis")
            return inner
        raise ParseError(tok.pos, f"expected a value, found {tok.text!r}" if tok.text
                         else "expected a value", expected=_ATOM_KINDS)


def parse(text: str) -> FreeExpr:
    """Parse a symbol expression; raises ParseError with the byte position."""
    return _Parser(text).parse()


def _fmt_real(x: float) -> str:
    s = "%.12g" % x
    return s


def _fmt_coefficient(c: complex) -> tuple[str, str]:
    """Return (sign, text-without-sign); general complex values keep sign '+'
    and come out fully parenthesized."""
    re_, im = c.real, c.imag
    if im == 0:
        return ("-" if re_ < 0 else "+", _fmt_real(abs(re_)))
    if re_ == 0:
        return ("-" if im < 0 else "+", _fmt_real(abs(im)) + "i")
    imtxt = f"{'+' if im > 0 else '-'}{_fmt_real(abs(im))}i"
    return ("+", f"({_fmt_real(re_)}{imtxt})")


def _monomial_text(i: int, j: int) -> str:
    parts = []
    if i == 1:
        parts.append("th")
    elif i > 1:
        parts.append(f"th^{i}")
    if j == 1:
        parts.append("thb")
    elif j > 1:
        parts.append(f"thb^{j}")
    return "*".join(parts)


def format_element(f: PGElement) -> str:
    """Canonical text: powers of th first within each thb-degree (1, th, th^2,
    ..., thb, th*thb, ...); zero terms omitted; the zero element prints "0"."""
    pieces = []
    l = f.l
    for j in range(l):
        for i in range(l):
            c = f.coeffs[i, j]
            if c == 0:
                continue
            sign, body = _fmt_coefficient(c)
            mono = _monomial_text(i, j)
            if mono and body == "1" and sign in ("+", "-"):
                text = mono
            elif mono:
                text = f"{body}*{mono}"
            else:
                text = body
            pieces.append((sign, text))
    if not pieces:
        return "0"
    out = []
    for k, (sign, text) in enumerate(pieces):
        if k == 0:
            out.append(text if sign == "+" else f"-{text}")
        else:
            out.append(f" {sign} {text}")
    return "".join(out)
