"""Text form of polynomials.

Grammar (whitespace ignored)::

    expression ::= term (('+'|'-') term)*
    term       ::= coeff | coeff '*' monos | monos
    monos      ::= var ('^' uint)? ('*' var ('^' uint)?)*
    coeff      ::= integer | integer '/' positive-integer   (rationals only)

``format_polynomial`` emits canonical text that re-parses to the same
polynomial: terms in reading order (degree ascending, lex descending).
"""

from __future__ import annotations

from fractions import Fraction

from .polynomials import MultiIndex, Polynomial, RingContext


class PolynomialSyntaxError(ValueError):
    """Raised on malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str | None:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else None

    def take(self) -> str:
        ch = self.peek()
        if ch is None:
            raise PolynomialSyntaxError("unexpected end of input", self.pos)
        self.pos += 1
        return ch

    def take_uint(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise PolynomialSyntaxError("expected an integer", start)
        return int(self.text[start:self.pos])

    def take_name(self) -> str:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        if self.pos == start:
            raise PolynomialSyntaxError("expected a variable name", start)
        return self.text[start:self.pos]


def parse_polynomial(text: str, ring: RingContext) -> Polynomial:
    """Parse text in the grammar above into a canonical polynomial."""
    tok = _Tokenizer(text)
    terms: dict[MultiIndex, Fraction] = {}
    sign = 1
    # optional leading sign
    if tok.peek() in ("+", "-"):
        sign = -1 if tok.take() == "-" else 1
    while True:
        alpha, coeff = _parse_term(tok, ring, sign)
        terms[alpha] = terms.get(alpha, 0) + coeff
        ch = tok.peek()
        if ch is None:
            # the constructor coerces into the field and drops zeros
            return Polynomial(ring, terms)
        if ch == "+":
            tok.take()
            sign = 1
        elif ch == "-":
            tok.take()
            sign = -1
        else:
            raise PolynomialSyntaxError(f"unexpected character {ch!r}", tok.pos)


def _parse_term(tok: _Tokenizer, ring: RingContext, sign: int) -> tuple[MultiIndex, Fraction]:
    """(exponent tuple, coefficient) of the next term, its sign applied."""
    ch = tok.peek()
    if ch is None:
        raise PolynomialSyntaxError("expected a term", tok.pos)
    coeff = Fraction(sign)
    exponents = [0] * ring.nvars
    if ch.isdigit():
        num = tok.take_uint()
        coeff *= num
        if tok.peek() == "/":
            if ring.field.is_prime_field:
                raise PolynomialSyntaxError("division token is only valid over the rationals", tok.pos)
            tok.take()
            den = tok.take_uint()
            if den == 0:
                raise PolynomialSyntaxError("zero denominator", tok.pos)
            coeff /= den
        if tok.peek() == "*":
            tok.take()
            _parse_monos(tok, ring, exponents)
    elif ch.isalpha() or ch == "_":
        _parse_monos(tok, ring, exponents)
    else:
        raise PolynomialSyntaxError(f"unexpected character {ch!r}", tok.pos)
    return tuple(exponents), coeff


def _parse_monos(tok: _Tokenizer, ring: RingContext, exponents: list[int]) -> None:
    while True:
        pos = tok.pos
        name = tok.take_name()
        try:
            index = ring.variables.index(name)
        except ValueError:
            raise PolynomialSyntaxError(
                f"unknown variable {name!r} (ring has {', '.join(ring.variables)})", pos
            ) from None
        power = 1
        if tok.peek() == "^":
            tok.take()
            power = tok.take_uint()
        exponents[index] += power
        if tok.peek() == "*":
            save = tok.pos
            tok.take()
            nxt = tok.peek()
            if nxt is not None and (nxt.isalpha() or nxt == "_"):
                continue
            tok.pos = save
        if tok.peek() == "/":
            raise PolynomialSyntaxError("division token is not allowed here", tok.pos)
        return


def _format_monomial(alpha, variables) -> str:
    parts = []
    for name, e in zip(variables, alpha):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def format_polynomial(p: Polynomial) -> str:
    """Canonical text; parse_polynomial(format_polynomial(p), p.ring) == p."""
    if not p.terms:
        return "0"
    variables = p.ring.variables
    rational = not p.ring.field.is_prime_field
    pieces: list[str] = []
    for alpha, c in p.sorted_terms():
        # a Fraction and an F_p int both carry numerator and denominator
        num, den = c.numerator, c.denominator
        negative = rational and num < 0
        if negative:
            num = -num
        mono = _format_monomial(alpha, variables)
        if mono and num == 1 and den == 1:
            body = mono
        else:
            body = str(num) if den == 1 else f"{num}/{den}"
            if mono:
                body = f"{body}*{mono}"
        if pieces:
            pieces.append(f"- {body}" if negative else f"+ {body}")
        else:
            pieces.append(f"-{body}" if negative else body)
    return " ".join(pieces)
