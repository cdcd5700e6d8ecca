"""Recursive-descent parser for polynomial and rational-function text.

Grammar:
    poly     := term (('+'|'-') term)*
    term     := rational ('*'? 't' ('^' uint)?)? | 't' ('^' uint)?
    rational := int ('/' uint)?

Parse errors carry the character offset and what was expected there.
No exponent may exceed ``MAX_EXPONENT`` (see ``check_exponent``).
Printing a polynomial with ``to_text`` and parsing it back is the
identity on canonical form (descending powers, reduced fractions).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError
from .padics import PadicContext
from .polynomials import PadicPolynomial, RationalFunction

# Polynomials are stored densely, so t^(10^6) alone costs seconds and
# a hundred megabytes; every exponent read from text or from a
# certificate is held to this cap.
MAX_EXPONENT = 10_000


def check_exponent(k: int, position: int = 0) -> int:
    """k, or ParseError when k is negative or exceeds ``MAX_EXPONENT``."""
    if not 0 <= k <= MAX_EXPONENT:
        raise ParseError(f"exponent {k} is outside 0..{MAX_EXPONENT}", position,
                         f"an exponent in 0..{MAX_EXPONENT}")
    return k


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self._skip_ws()
        if self.pos >= len(self.text):
            return ("eof", None, self.pos)
        ch = self.text[self.pos]
        if ch.isdigit():
            end = self.pos
            while end < len(self.text) and self.text[end].isdigit():
                end += 1
            return ("number", int(self.text[self.pos : end]), self.pos)
        if ch in "+-*/^()":
            return (ch, ch, self.pos)
        if ch == "t":
            return ("t", ch, self.pos)
        return ("bad", ch, self.pos)

    def take(self, kind):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(
                f"expected {kind} at offset {tok[2]}", tok[2], expected=kind
            )
        if tok[0] == "number":
            end = self.pos
            while end < len(self.text) and self.text[end].isdigit():
                end += 1
            self.pos = end
        elif tok[0] != "eof":
            self.pos += 1
        return tok


def _parse_uint(toks: _Tokens) -> int:
    return toks.take("number")[1]


def _parse_rational(toks: _Tokens, sign: int) -> Fraction:
    num = sign * _parse_uint(toks)
    if toks.peek()[0] == "/":
        toks.take("/")
        tok = toks.peek()
        den = _parse_uint(toks)
        if den == 0:
            raise ParseError(f"zero denominator at offset {tok[2]}", tok[2], "nonzero uint")
        return Fraction(num, den)
    return Fraction(num)


def _parse_tpart(toks: _Tokens) -> int:
    toks.take("t")
    if toks.peek()[0] == "^":
        toks.take("^")
        position = toks.peek()[2]
        return check_exponent(_parse_uint(toks), position)
    return 1


def _parse_term(toks: _Tokens, sign: int):
    tok = toks.peek()
    if tok[0] == "number":
        coeff = _parse_rational(toks, sign)
        nxt = toks.peek()
        if nxt[0] == "*":
            toks.take("*")
            return coeff, _parse_tpart(toks)
        if nxt[0] == "t":
            return coeff, _parse_tpart(toks)
        return coeff, 0
    if tok[0] == "t":
        return Fraction(sign), _parse_tpart(toks)
    raise ParseError(
        f"expected a number or 't' at offset {tok[2]}", tok[2], "number or t"
    )


def parse_poly(text: str, context: PadicContext) -> PadicPolynomial:
    """Parse polynomial text into an exact PadicPolynomial."""
    toks = _Tokens(text)
    coeffs: dict[int, Fraction] = {}
    sign = 1
    tok = toks.peek()
    if tok[0] in ("+", "-"):
        toks.take(tok[0])
        sign = -1 if tok[0] == "-" else 1
    c, k = _parse_term(toks, sign)
    coeffs[k] = coeffs.get(k, Fraction(0)) + c
    while True:
        tok = toks.peek()
        if tok[0] == "eof":
            break
        if tok[0] not in ("+", "-"):
            raise ParseError(
                f"expected '+' or '-' at offset {tok[2]}", tok[2], "+ or -"
            )
        toks.take(tok[0])
        c, k = _parse_term(toks, -1 if tok[0] == "-" else 1)
        coeffs[k] = coeffs.get(k, Fraction(0)) + c
    deg = max(coeffs) if coeffs else 0
    return PadicPolynomial.from_rationals(
        [coeffs.get(k, Fraction(0)) for k in range(deg + 1)], context
    )


def parse_rational_scalar(text: str, context: PadicContext) -> Fraction:
    """Parse a rational constant (rejects any appearance of t)."""
    p = parse_poly(text, context)
    if p.degree > 0:
        raise ParseError("expected a constant, found 't'", 0, "rational")
    return p.constant_coefficient()


def parse_rational_function(text: str, context: PadicContext) -> RationalFunction:
    """Parse "num", "num/den" or "(num)/(den)" as an exact quotient."""
    text = text.strip()
    if ")/(" in text:
        left, right = text.split(")/(", 1)
        num = parse_poly(left.lstrip().removeprefix("("), context)
        den = parse_poly(right.rstrip().removesuffix(")"), context)
        return RationalFunction(num, den)
    try:
        return RationalFunction(parse_poly(text, context), PadicPolynomial.one(context))
    except ParseError:
        pass
    for k, ch in enumerate(text):
        if ch != "/":
            continue
        try:
            num = parse_poly(text[:k], context)
            den = parse_poly(text[k + 1 :], context)
            return RationalFunction(num, den)
        except (ParseError, ZeroDivisionError):
            continue
    raise ParseError(f"cannot parse rational function {text!r}", 0, "poly[/poly]")
