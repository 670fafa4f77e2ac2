"""Parse and render element expressions.

Grammar (leftmost binding first): rationals "p/q", the imaginary unit "i",
basis identifiers and aliases, + - * ^ with nonnegative integer exponents, and
parentheses.  Multiplication is noncommutative and left-associative; "^" binds
to the immediately preceding atom; unary minus sits between "^" and "*".
There is no implicit multiplication.

Aliases are expanded textually (parenthesized) before the main parse, so they
behave like inlined subexpressions.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import CyclicAlias, ExprSyntaxError, NegativeExponent, UnknownIdentifier
from .lie import LieAlgebra
from .pbw import AlgebraElement, term_sort_key
from .scalar import Scalar, format_fraction

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", bad_at)
        if m.lastgroup == "number":
            tokens.append(("number", m.group("number"), m.start("number")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    return tokens


def expand_aliases(text: str, aliases: dict[str, str]) -> str:
    """Inline alias definitions, parenthesized, detecting cycles."""

    def expand(src: str, active: tuple[str, ...]) -> str:
        out = []
        last = 0
        for kind, value, pos in _tokenize(src):
            if kind == "name" and value in aliases:
                if value in active:
                    raise CyclicAlias(value)
                out.append(src[last:pos])
                out.append("(" + expand(aliases[value], active + (value,)) + ")")
                last = pos + len(value)
        out.append(src[last:])
        return "".join(out)

    return expand(text, ())


class _Parser:
    def __init__(self, tokens, text_len: int, algebra: LieAlgebra):
        self.tokens = tokens
        self.idx = 0
        self.end = text_len
        self.algebra = algebra

    def peek(self):
        return self.tokens[self.idx] if self.idx < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is not None:
            self.idx += 1
        return tok

    def position(self) -> int:
        tok = self.peek()
        return tok[2] if tok is not None else self.end

    def parse(self) -> AlgebraElement:
        e = self.parse_sum()
        if self.peek() is not None:
            raise ExprSyntaxError(f"unexpected token {self.peek()[1]!r}", self.position())
        return e

    def parse_sum(self) -> AlgebraElement:
        e = self.parse_product()
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "op" or tok[1] not in "+-":
                return e
            self.next()
            rhs = self.parse_product()
            e = e + rhs if tok[1] == "+" else e - rhs

    def parse_product(self) -> AlgebraElement:
        e = self.parse_signed()
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "op" or tok[1] != "*":
                return e
            self.next()
            e = e * self.parse_signed()

    def parse_signed(self) -> AlgebraElement:
        tok = self.peek()
        if tok is not None and tok[0] == "op" and tok[1] == "-":
            self.next()
            return -self.parse_signed()
        return self.parse_power()

    def parse_power(self) -> AlgebraElement:
        base = self.parse_atom()
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "op" or tok[1] != "^":
                return base
            self.next()
            exp_tok = self.peek()
            if exp_tok is not None and exp_tok[0] == "op" and exp_tok[1] == "-":
                raise NegativeExponent(exp_tok[2])
            if exp_tok is None or exp_tok[0] != "number" or "/" in exp_tok[1]:
                raise ExprSyntaxError("expected a nonnegative integer exponent", self.position())
            self.next()
            base = base ** int(exp_tok[1])

    def parse_atom(self) -> AlgebraElement:
        tok = self.next()
        if tok is None:
            raise ExprSyntaxError("unexpected end of expression", self.end)
        kind, value, pos = tok
        if kind == "number":
            return AlgebraElement.unit(self.algebra, Fraction(value))
        if kind == "name":
            if value == "i":
                return AlgebraElement.unit(self.algebra, Scalar(0, 1))
            idx = self.algebra.name_index(value)
            if idx is None:
                raise UnknownIdentifier(value, pos)
            return AlgebraElement.generator(self.algebra, idx)
        if value == "(":
            inner = self.parse_sum()
            closing = self.next()
            if closing is None or closing[1] != ")":
                raise ExprSyntaxError("expected ')'", self.position())
            return inner
        raise ExprSyntaxError(f"unexpected token {value!r}", pos)


def parse(text: str, algebra: LieAlgebra, aliases: dict[str, str] | None = None) -> AlgebraElement:
    """Parse an expression into normal form, expanding aliases first."""
    if aliases:
        text = expand_aliases(text, dict(aliases))
    tokens = _tokenize(text)
    if not tokens:
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(tokens, len(text), algebra).parse()


# -- rendering ----------------------------------------------------------------


def _render_monomial(mono, names) -> str:
    factors = []
    for idx, e in enumerate(mono):
        if e == 1:
            factors.append(names[idx])
        elif e > 1:
            factors.append(f"{names[idx]}^{e}")
    return "*".join(factors)


def _render_coeff(s: Scalar) -> str:
    """Grammar-compatible coefficient text (no bare juxtaposition with i)."""
    if s.im == 0:
        return format_fraction(s.re)
    if s.re == 0:
        if s.im == 1:
            return "i"
        if s.im == -1:
            return "-i"
        return f"{format_fraction(s.im)}*i"
    im = "i" if abs(s.im) == 1 else f"{format_fraction(abs(s.im))}*i"
    sign = "+" if s.im > 0 else "-"
    return f"({format_fraction(s.re)}{sign}{im})"


def render(e: AlgebraElement) -> str:
    """Canonical text: terms by (degree, exponents), parseable back exactly."""
    return render_terms(e.terms, e.algebra.names)


def render_terms(terms, names) -> str:
    """Canonical text of {monomial: Scalar} over the variable names; "0" when empty."""
    if not terms:
        return "0"
    pieces = []
    for mono, coeff in sorted(terms.items(), key=lambda kv: term_sort_key(kv[0])):
        body = _render_monomial(mono, names)
        ctext = _render_coeff(coeff)
        negate = ctext.startswith("-") and not ctext.startswith("-(")
        if not body:
            term = ctext
        elif ctext == "1":
            term = body
        elif ctext == "-1":
            term = f"-{body}"
            negate = True
        else:
            term = f"{ctext}*{body}"
        if not pieces:
            pieces.append(term)
        elif negate:
            pieces.append(f" - {term[1:]}")
        else:
            pieces.append(f" + {term}")
    return "".join(pieces)
