"""Polynomial arithmetic, rational functions, and the text grammar."""

import random
from fractions import Fraction

import pytest

from padicforms import ParseError, RationalFunction
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
    with pytest.raises(ParseError):
        parse_poly("t + + 1", c3)
    with pytest.raises(ParseError):
        parse_poly("x + 1", c3)


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
