"""Properties of the integer product and division kernels over Q_p and F_p.

Products over F_p and Z/p^K are compared with a naive convolution; over
an extension, products and divisions of two polynomials are refused.
"""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padicforms import FiniteFieldPoly, LocalField, PadicContext, PadicPolynomial, PreconditionFailed

from conftest import poly

PRIMES = (2, 3, 5, 7, 10007)
CONTEXTS = {p: PadicContext(p) for p in PRIMES}
T = sympy.Symbol("t")


@st.composite
def coefficient(draw, p):
    """A rational with a p-power denominator up to about 2^64, any sign."""
    k = draw(st.integers(0, int(64 / math.log2(p))))
    den = p**k * draw(st.sampled_from((1, 1, 1, 2, 3, 6)))
    num = draw(st.one_of(st.integers(-9, 9), st.integers(-(2**70), 2**70)))
    return Fraction(num, den)


@st.composite
def poly_pair(draw, nonzero_divisor=True):
    """(a, b) over one Q_p; b is nonzero, often non-monic, at times monic."""
    p = draw(st.sampled_from(PRIMES))
    ctx = CONTEXTS[p]
    a = draw(st.lists(coefficient(p), max_size=8))
    b = draw(st.lists(coefficient(p), max_size=5))
    if nonzero_divisor:
        b.append(draw(st.one_of(st.just(Fraction(1)), coefficient(p).filter(bool))))
    return PadicPolynomial(a, ctx), PadicPolynomial(b, ctx)


def naive_product(a, b):
    out = [Fraction(0)] * max(0, len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return out


def to_sympy(f):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)], T, domain=sympy.QQ)


def from_sympy(g, ctx):
    return PadicPolynomial([Fraction(int(c.p), int(c.q)) for c in reversed(g.all_coeffs())], ctx)


@settings(max_examples=150)
@given(poly_pair(nonzero_divisor=False))
@example((poly([], CONTEXTS[3]), poly([1, 2], CONTEXTS[3])))
@example((poly([Fraction(-5, 9)], CONTEXTS[3]), poly([Fraction(7, 2)], CONTEXTS[3])))
def test_product_is_the_fraction_convolution(pair):
    a, b = pair
    prod = a * b
    assert prod.coeffs == PadicPolynomial(naive_product(a, b), a.field).coeffs
    assert all(type(c) is Fraction for c in prod.coeffs)


@settings(max_examples=150)
@given(poly_pair())
# lc 6 divides none of the tops 1, 5, -5: the remainder is rescaled at every step
@example((poly([5, 0, 1, 1], CONTEXTS[5]), poly([1, 6], CONTEXTS[5])))
@example((poly([], CONTEXTS[2]), poly([Fraction(-3, 4), 2], CONTEXTS[2])))
@example((poly([Fraction(1, 2**63)], CONTEXTS[2]), poly([3], CONTEXTS[2])))
def test_division_identity_and_sympy(pair):
    a, b = pair
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree
    sq, sr = sympy.div(to_sympy(a), to_sympy(b))
    assert q == from_sympy(sq, a.field)
    assert r == from_sympy(sr, a.field)


@settings(max_examples=60)
@given(
    st.sampled_from((2, 3, 7, 10007, 2**9, 3**40, 10007**3)),
    st.lists(st.integers(-(2**70), 2**70), max_size=9),
    st.lists(st.integers(-(2**70), 2**70), max_size=9),
)
def test_finite_field_product_is_the_naive_convolution_mod_m(m, a, b):
    want = [0] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            want[i + j] = (want[i + j] + x * y) % m
    while want and not want[-1]:
        want.pop()
    assert (FiniteFieldPoly(a, m) * FiniteFieldPoly(b, m)).coeffs == tuple(want)


def test_products_and_divisions_over_an_extension_are_refused():
    K = LocalField(poly([-3, 0, 1], CONTEXTS[3]))
    f = PadicPolynomial([K.gen(), K.one], K)
    g = PadicPolynomial([K.one, K.zero, K.gen()], K)
    for op in (lambda: f * g, lambda: divmod(g, f), lambda: g % f, lambda: f ** 2):
        with pytest.raises(PreconditionFailed):
            op()
    # scalar products, sums, derivatives, shifts and evaluation stay field-generic
    alpha = K.gen()
    assert (f * alpha).evaluate(alpha) == K.embed(6)  # 2 alpha * alpha, alpha^2 = 3
    assert (g - f).evaluate(alpha) == K.element([1, 1])  # 1 + alpha^3 - 2 alpha
    assert f.derivative() == PadicPolynomial([K.one], K)
    assert f.shift(1).coeffs == (K.zero, alpha, K.one)
