"""Polynomial arithmetic, rational functions, and the text grammar."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from padicforms import ParseError, PadicPolynomial, RationalFunction
from padicforms.parsing import parse_poly, parse_rational_function, parse_rational_scalar

from conftest import poly


def test_divmod_gcd_roundtrip(c3):
    rng = random.Random(7)
    for _ in range(40):
        a = poly([rng.randint(-9, 9) for _ in range(rng.randint(1, 6))], c3)
        b = poly([rng.randint(-9, 9) for _ in range(rng.randint(1, 5))], c3)
        if b.is_zero():
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree
        if not a.is_zero():
            g = a.gcd(b)
            assert (a % g).is_zero() and (b % g).is_zero()


def test_compose_evaluate(c3):
    f = poly([1, 2, 1], c3)  # (t+1)^2
    g = poly([0, 0, 1], c3)  # t^2
    assert f.evaluate(g) == poly([1, 0, 2, 0, 1], c3)  # Horner at a polynomial point composes
    assert f.evaluate(Fraction(3)) == 16


def test_squarefree_odd_part(c3):
    f = poly([-3, 0, 1], c3) * poly([-1, 1], c3) ** 2
    assert f.squarefree_odd_part() == poly([-3, 0, 1], c3)
    g = poly([-3, 0, 1], c3) ** 3
    assert g.squarefree_odd_part() == poly([-3, 0, 1], c3)


def test_rational_function_orders(c3):
    x = RationalFunction(poly([0, 1, 1, 1], c3), poly([1, 0, 1], c3))
    assert x.ord_t() == 1
    assert x.ord_infinity() == -1
    assert x.leading_coefficient_at_t() == 1
    zero = RationalFunction(poly([0], c3) + poly([0], c3), poly([1], c3))
    assert zero.is_zero()


def test_parse_examples(c3):
    assert parse_poly("t^2 - 12*t + 27", c3).coeffs == (
        Fraction(27), Fraction(-12), Fraction(1),
    )
    assert parse_poly("1/3 + t", c3).coeffs == (Fraction(1, 3), Fraction(1))
    with pytest.raises(ParseError) as exc:
        parse_poly("t^", c3)
    assert exc.value.position == 2
    # one exponent cap for every polynomial read from text
    assert parse_poly("t^10000 + 1", c3).degree == 10000
    with pytest.raises(ParseError) as exc:
        parse_poly("1 + t^10001", c3)
    assert exc.value.position == 6


def test_parse_print_roundtrip(c3):
    rng = random.Random(8)
    for _ in range(60):
        coeffs = [
            Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(rng.randint(1, 7))
        ]
        f = poly(coeffs, c3)
        assert parse_poly(f.to_text(), c3) == f


def test_parse_variants(c3):
    assert parse_poly("-t^2 + 1", c3) == poly([1, 0, -1], c3)
    assert parse_poly("2t", c3) == poly([0, 2], c3)
    assert parse_poly("2*t^3", c3) == poly([0, 0, 0, 2], c3)
    assert parse_poly("\u0663t + 1", c3) == poly([1, 3], c3)  # a decimal digit of any script
    with pytest.raises(ParseError):
        parse_poly("t + + 1", c3)
    with pytest.raises(ParseError):
        parse_poly("x + 1", c3)
    with pytest.raises(ParseError) as exc:
        parse_poly("2^3", c3)  # a power needs its t
    assert (exc.value.position, exc.value.expected) == (1, "+ or -")


def test_parse_rational_function(c3):
    x = parse_rational_function("1/t", c3)
    assert x.num == poly([1], c3) and x.den == poly([0, 1], c3)
    y = parse_rational_function("(t + 1)/(t^2 - 3)", c3)
    assert y.num == poly([1, 1], c3) and y.den == poly([-3, 0, 1], c3)
    const = parse_rational_function("5/7", c3)
    assert const.equals(RationalFunction(poly([Fraction(5, 7)], c3), poly([1], c3)))
    rt = parse_rational_function(y.to_text(), c3)
    assert rt.equals(y)
    assert parse_rational_scalar("-5/7", c3) == Fraction(-5, 7)
    with pytest.raises(ParseError):
        parse_rational_scalar("t + 1", c3)


# one malformed input per error site of the parser: (text, message, position, expected)
MALFORMED = [
    ("", "expected a number or 't' at offset 0", 0, "number or t"),
    ("t + + 1", "expected a number or 't' at offset 4", 4, "number or t"),
    ("-", "expected a number or 't' at offset 1", 1, "number or t"),
    ("x + 1", "expected a number or 't' at offset 0", 0, "number or t"),
    ("1/t", "expected number at offset 2", 2, "number"),
    ("3 / ", "expected number at offset 4", 4, "number"),
    ("t^", "expected number at offset 2", 2, "number"),
    ("t ^ x", "expected number at offset 4", 4, "number"),
    ("t^\u00b2", "expected number at offset 2", 2, "number"),  # a superscript is no decimal digit
    ("2*3", "expected t at offset 2", 2, "t"),
    ("2 *", "expected t at offset 3", 3, "t"),
    ("t t", "expected '+' or '-' at offset 2", 2, "+ or -"),
    ("2t^3 4", "expected '+' or '-' at offset 5", 5, "+ or -"),
    ("1)", "expected '+' or '-' at offset 1", 1, "+ or -"),
    ("1/0", "zero denominator at offset 2", 2, "nonzero uint"),
    ("t + 5/ 00", "zero denominator at offset 7", 7, "nonzero uint"),
    ("1 + t^10001", "exponent 10001 is outside 0..10000", 6, "an exponent in 0..10000"),
]


@pytest.mark.parametrize("text, message, position, expected", MALFORMED)
def test_parse_error_sites(c3, text, message, position, expected):
    with pytest.raises(ParseError) as exc:
        parse_poly(text, c3)
    assert (str(exc.value), exc.value.position, exc.value.expected) == (message, position, expected)


_SPACE = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def _poly_texts(draw):
    """(text, reference): printed terms with varied spacing, implicit products,
    a leading '+' and repeated powers, and the Fraction list they sum to."""
    terms = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(-40, 40), st.integers(1, 12)),
                          min_size=1, max_size=8))
    coeffs = [Fraction(0)] * 7
    pieces = []
    for j, (k, num, den) in enumerate(terms):
        coeffs[k] += Fraction(num, den)
        if num < 0:
            pieces.append("-")
        elif j or draw(st.booleans()):
            pieces.append("+")
        pieces.append(draw(_SPACE))
        tpart = "" if k == 0 else "t" if k == 1 and draw(st.booleans()) else (
            f"t{draw(_SPACE)}^{draw(_SPACE)}{k}")
        if tpart and abs(num) == 1 and den == 1 and draw(st.booleans()):
            pieces.append(tpart)
        else:
            pieces.append(str(abs(num)))
            if den != 1 or draw(st.booleans()):
                pieces.append(f"{draw(_SPACE)}/{draw(_SPACE)}{den}")
            if tpart:
                pieces.append(draw(st.sampled_from(["", " ", "*", " * "])) + tpart)
        pieces.append(draw(_SPACE))
    return "".join(pieces), coeffs


@given(case=_poly_texts())
def test_parse_matches_a_fraction_reference(c3, case):
    text, coeffs = case
    got = parse_poly(text, c3)
    want = PadicPolynomial.from_rationals(coeffs, c3)
    assert (got.num, got.den) == (want.num, want.den), text


# the grammar's characters, with a stray letter and a decimal digit of another script
_ALPHABET = "0123456789t+-*/^ \t" + "x" + "\u0663"


@given(text=st.text(alphabet=_ALPHABET, max_size=24))
def test_any_text_parses_or_fails_at_an_offset_inside_it(c3, text):
    try:
        got = parse_poly(text, c3)
    except ParseError as exc:
        assert 0 <= exc.position <= len(text), text
    else:
        assert isinstance(got, PadicPolynomial)


@settings(max_examples=60)
@given(terms=st.lists(st.tuples(st.integers(-50, 50), st.integers(1, 30)), max_size=7), data=st.data())
def test_printing_round_trips_whatever_the_spacing(c3, terms, data):
    """parse_poly(f.to_text()) is f, and whitespace inserted between the text's tokens changes nothing."""
    f = PadicPolynomial.from_rationals([Fraction(n, d) for n, d in terms], c3)
    text = f.to_text()
    assert parse_poly(text, c3) == f
    spaced = data.draw(_SPACE) + "".join(token + data.draw(_SPACE) for token in re.findall(r"\d+|\S", text))
    assert parse_poly(spaced, c3) == f, spaced
