"""Recursive-descent parser for polynomial and rational-function text.

Grammar (whitespace may stand between any two tokens):
    poly     := ('+'|'-')? term (('+'|'-') term)*
    term     := rational ('*'? 't' ('^' uint)?)? | 't' ('^' uint)?
    rational := uint ('/' uint)?
    uint     := decimal digits

Parse errors carry the character offset and what was expected there.
No exponent may exceed ``MAX_EXPONENT`` (see ``check_exponent``).
Printing a polynomial with ``to_text`` and parsing it back is the
identity on canonical form (descending powers, reduced fractions).
"""

from __future__ import annotations

import math
import re
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


# the symbol laws that reciprocity.run_law_corpus checks: the CLI's corpus choices, with "predicate"
LAWS = ("check-mult", "check-recip", "constant", "pi-invariance", "square-criterion")

_TOKEN = re.compile(r"\s*(?:(\d+)|(\S))")


def _tokenize(text: str) -> list:
    """(kind, value, offset) per token: "number", one of ``+-*/^()t`` or "bad"; then "eof"."""
    toks = []
    for m in _TOKEN.finditer(text):
        digits, ch = m.groups()
        if digits is not None:
            toks.append(("number", int(digits), m.start(1)))
        else:
            toks.append((ch if ch in "+-*/^()t" else "bad", ch, m.start(2)))
    toks.append(("eof", None, len(text)))
    return toks


def _uint(toks: list, i: int) -> int:
    kind, value, offset = toks[i]
    if kind != "number":
        raise ParseError(f"expected number at offset {offset}", offset, "number")
    return value


def _term(toks: list, i: int, sign: int):
    """The term at toks[i] as (next index, exponent, numerator, denominator)."""
    kind, value, offset = toks[i]
    num, den = sign, 1
    if kind == "number":
        num *= value
        i += 1
        if toks[i][0] == "/":
            den = _uint(toks, i + 1)
            if den == 0:
                offset = toks[i + 1][2]
                raise ParseError(f"zero denominator at offset {offset}", offset, "nonzero uint")
            i += 2
        if toks[i][0] == "*":
            i += 1
            if toks[i][0] != "t":
                offset = toks[i][2]
                raise ParseError(f"expected t at offset {offset}", offset, "t")
        elif toks[i][0] != "t":
            return i, 0, num, den
    elif kind != "t":
        raise ParseError(f"expected a number or 't' at offset {offset}", offset, "number or t")
    if toks[i + 1][0] != "^":
        return i + 1, 1, num, den
    return i + 3, check_exponent(_uint(toks, i + 2), toks[i + 2][2]), num, den


def parse_poly(text: str, context: PadicContext) -> PadicPolynomial:
    """Parse polynomial text into an exact PadicPolynomial."""
    toks = _tokenize(text)
    sign = -1 if toks[0][0] == "-" else 1
    i = 1 if toks[0][0] in ("+", "-") else 0
    terms = []
    while True:
        i, k, num, den = _term(toks, i, sign)
        terms.append((k, num, den))
        kind, _, offset = toks[i]
        if kind == "eof":
            break
        if kind not in ("+", "-"):
            raise ParseError(f"expected '+' or '-' at offset {offset}", offset, "+ or -")
        sign, i = (-1 if kind == "-" else 1), i + 1
    lcm = math.lcm(*(den for _, _, den in terms))
    nums = [0] * (max(k for k, _, _ in terms) + 1)
    for k, num, den in terms:
        nums[k] += num * (lcm // den)
    return PadicPolynomial.from_integers(nums, lcm, context)


def parse_rational_scalar(text: str, context: PadicContext) -> Fraction:
    """Parse a rational constant (rejects any appearance of t)."""
    p = parse_poly(text, context)
    if p.degree > 0:
        raise ParseError("expected a constant, found 't'", 0, "rational")
    return p.constant_coefficient()


def parse_rational_function(text: str, context: PadicContext) -> RationalFunction:
    """Parse "num", "num/den" or "(num)/(den)" as an exact quotient."""
    if not isinstance(text, str):
        raise TypeError(f"expected rational function text, got {type(text).__name__}")
    text = text.strip()
    if ")/(" in text:
        left, right = text.split(")/(", 1)
        num = parse_poly(left.lstrip().removeprefix("("), context)
        den = parse_poly(right.rstrip().removesuffix(")"), context)
        if den.is_zero():
            offset = len(left) + 3
            raise ParseError(f"zero denominator at offset {offset}", offset, "nonzero poly")
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
