"""Parser for polynomial and rational-function text.

Grammar (whitespace may stand between any two tokens):
    poly     := ('+'|'-')? term (('+'|'-') term)*
    term     := rational ('*'? 't' ('^' uint)?)? | 't' ('^' uint)?
    rational := uint ('/' uint)?
    uint     := decimal digits

A polynomial is read one term at a time, each term by one match of a
compiled pattern in which every part is optional; the first part that is
missing names the parse error, which carries the character offset and
what was expected there.
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

# one term, with the sign before it and the whitespace after each part; once its '/' or '^' is
# there, a missing den or exp is an empty match, which still has an offset
_TERM = re.compile(r"\s*(?P<sign>(?:[+-]\s*)?)(?:(?P<num>\d+)\s*(?:/\s*(?P<den>\d*)\s*)?(?P<star>\*\s*)?)?"
                   r"(?:(?P<t>t)\s*(?:\^\s*(?P<exp>\d*)\s*)?)?")


def parse_poly(text: str, context: PadicContext) -> PadicPolynomial:
    """Parse polynomial text into an exact PadicPolynomial."""
    nums, lcm, pos, end = [], 1, 0, len(text)  # the coefficient of t^k is nums[k] / lcm
    while True:
        m = _TERM.match(text, pos)
        sign, num, den, star, t, exp = m.groups()
        if pos and not sign:
            raise ParseError(f"expected '+' or '-' at offset {pos}", pos, "+ or -")
        if num is None and t is None:
            offset = m.end("sign")
            raise ParseError(f"expected a number or 't' at offset {offset}", offset, "number or t")
        c = 1 if num is None else int(num)
        if den is not None:
            offset = m.start("den")
            if not den:
                raise ParseError(f"expected number at offset {offset}", offset, "number")
            d = int(den)
            if not d:
                raise ParseError(f"zero denominator at offset {offset}", offset, "nonzero uint")
            if lcm % d:
                scale = d // math.gcd(lcm, d)
                nums, lcm = [x * scale for x in nums], lcm * scale
            c *= lcm // d
        elif lcm != 1:
            c *= lcm
        if star and t is None:
            offset = m.end("star")
            raise ParseError(f"expected t at offset {offset}", offset, "t")
        k = 0 if t is None else 1
        if exp is not None:
            offset = m.start("exp")
            if not exp:
                raise ParseError(f"expected number at offset {offset}", offset, "number")
            k = check_exponent(int(exp), offset)
        if k >= len(nums):
            nums += [0] * (k + 1 - len(nums))
        nums[k] += -c if sign[:1] == "-" else c
        pos = m.end()
        if pos == end:
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
