"""The integer storage of Q_p polynomials against a plain Fraction reference.

A polynomial over Q_p is stored as one integer numerator vector over one
positive denominator in lowest terms.  Each operation is compared with
the same operation on lists of Fractions, at p in {2, 3, 5, 101}, with
denominators both prime to p and divisible by p.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from padicforms import PadicContext, PadicPolynomial
from padicforms.parsing import parse_poly
from padicforms.quadform import _local_field, residue_field

PRIMES = (2, 3, 5, 101)
CONTEXTS = {p: PadicContext(p) for p in PRIMES}


@st.composite
def coefficient(draw, p):
    """A rational whose denominator is p^k times a cofactor, k = 0 included."""
    den = p ** draw(st.integers(0, 3)) * draw(st.sampled_from((1, 2, 3, 7, 11)))
    num = draw(st.one_of(st.integers(-9, 9), st.integers(-(2**40), 2**40)))
    return Fraction(num, den)


@st.composite
def rational_lists(draw, n=2, max_size=6):
    """A prime p and n coefficient lists over Q_p (constant term first)."""
    p = draw(st.sampled_from(PRIMES))
    return p, [draw(st.lists(coefficient(p), max_size=max_size)) for _ in range(n)]


def trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def ref_add(a, b, sign=1):
    n = max(len(a), len(b))
    a, b = a + [Fraction(0)] * (n - len(a)), b + [Fraction(0)] * (n - len(b))
    return trim(x + sign * y for x, y in zip(a, b))


def ref_mul(a, b):
    out = [Fraction(0)] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim(out)


def ref_divmod(a, b):
    r, q = trim(a), [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(r) >= len(b):
        k, m = len(r) - len(b), r[-1] / b[-1]
        q[k] = m
        for j, y in enumerate(b):
            r[k + j] -= m * y
        r = trim(r)
    return trim(q), r


def ref_evaluate(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def check_storage(f, ref):
    """f's storage is the reference in lowest terms, and its coeffs view is the reference."""
    assert f.coeffs == tuple(ref) and all(type(c) is Fraction for c in f.coeffs)
    assert f.den > 0 and math.gcd(f.den, *f.num) == 1
    assert not f.num or f.num[-1] != 0
    assert f.den == math.lcm(*(c.denominator for c in ref))


@settings(max_examples=200)
@given(rational_lists())
def test_ring_operations_match_the_fraction_reference(case):
    p, (a, b) = case
    ctx = CONTEXTS[p]
    fa, fb = PadicPolynomial(a, ctx), PadicPolynomial(b, ctx)
    a, b = trim(a), trim(b)
    check_storage(fa, a)
    check_storage(fa + fb, ref_add(a, b))
    check_storage(fa - fb, ref_add(a, b, -1))
    check_storage(-fa, [-c for c in a])
    check_storage(fa * fb, ref_mul(a, b))
    for c in (Fraction(0), Fraction(-3, 2 * p), Fraction(p**2, 7)):
        check_storage(fa * c, trim(x * c for x in a))
    check_storage(fa.derivative(), [k * c for k, c in enumerate(a)][1:])
    check_storage(fa.shift(2), [Fraction(0)] * 2 * bool(a) + a)
    if a:
        check_storage(fa.shift(2).shift(-2), a)
        check_storage(fa.monic(), [c / a[-1] for c in a])
        assert fa.monic().is_monic()
    if b:
        q, r = divmod(fa, fb)
        rq, rr = ref_divmod(a, b)
        check_storage(q, rq)
        check_storage(r, rr)


@settings(max_examples=200)
@given(
    rational_lists(n=1),
    st.one_of(
        st.just(Fraction(0)),
        st.integers(-50, 50).map(Fraction),
        st.tuples(st.integers(-(2**20), 2**20), st.integers(2, 2**12)).map(lambda uw: Fraction(*uw)),
    ),
)
def test_evaluate_matches_fraction_horner(case, x):
    p, (a,) = case
    f = PadicPolynomial(a, CONTEXTS[p])
    for point in (x, x.numerator) if x.denominator == 1 else (x,):
        got = f.evaluate(point)
        assert type(got) is Fraction and got == ref_evaluate(a, Fraction(point))


@settings(max_examples=200)
@given(rational_lists(n=1, max_size=8))
def test_text_round_trip(case):
    p, (a,) = case
    ctx = CONTEXTS[p]
    f = PadicPolynomial(a, ctx)
    assert parse_poly(f.to_text(), ctx) == f
    assert f.to_text() == PadicPolynomial.from_rationals(trim(a), ctx).to_text()


@settings(max_examples=100)
@given(rational_lists(n=3, max_size=4))
def test_one_polynomial_built_four_ways_is_one_key(case):
    p, (a, b, c) = case
    ctx = CONTEXTS[p]
    fa, fb = PadicPolynomial(a, ctx), PadicPolynomial(b, ctx)
    product = fa * fb
    ref = ref_mul(trim(a), trim(b))
    # a modulus of higher degree than the product leaves it as the remainder
    modulus = PadicPolynomial(c + [Fraction(0)] * 8 + [Fraction(1, p)], ctx)
    ways = [
        PadicPolynomial.from_rationals(ref, ctx),
        product,
        (product + modulus * PadicPolynomial(c, ctx)) % modulus,
        parse_poly(product.to_text(), ctx),
    ]
    for f in ways:
        assert f == ways[0] and hash(f) == hash(ways[0])
    assert len(set(ways)) == 1


def test_residue_field_cache_hit_for_a_modulus_built_two_ways():
    for p in PRIMES:
        ctx = CONTEXTS[p]
        t = PadicPolynomial.x(ctx)
        parsed = parse_poly(f"t^2 - {p}", ctx)
        built = t * t - p
        assert parsed is not built and parsed == built and hash(parsed) == hash(built)
        field = residue_field(parsed, ctx)
        hits = _local_field.cache_info().hits
        assert residue_field(built, ctx) is field
        assert _local_field.cache_info().hits == hits + 1
