"""Properties of the integer product and division kernels over Q_p and F_p.

Products over F_p and Z/p^K are compared with a naive convolution; over
an extension, products and divisions of two polynomials are refused.  The
pseudo-remainder and the resultant on integer lists are compared with
sympy's ``prem`` and ``resultant`` on seeded pairs.
"""

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padicforms import FiniteFieldPoly, LocalField, PadicContext, PadicPolynomial, PreconditionFailed
from padicforms.polynomials import pseudo_remainder, resultant

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
    assert a % b == r  # by pseudo-remainder, no quotient
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


def int_sym(cs):
    return sympy.Poly(list(reversed(cs)), T, domain=sympy.ZZ)


def int_list(g):
    return [int(c) for c in reversed(g.all_coeffs())] if not g.is_zero else []


def int_poly(rng, deg, sparse=0.0, bound=60):
    """An integer list of degree deg: its top is a nonzero of either sign, often not a unit."""
    body = [0 if rng.random() < sparse else rng.randint(-bound, bound) for _ in range(deg)]
    return body + [rng.choice([c for c in range(-9, 10) if c])]


def kernel_pairs():
    """(family, a, b) with deg a > deg b and deg a <= 16, seeded."""
    rng = random.Random(3401)
    pairs = []
    for _ in range(50):
        da = rng.randint(1, 16)
        pairs.append(("dense", int_poly(rng, da), int_poly(rng, rng.randint(0, da - 1))))
    for _ in range(20):  # zero coefficients, so degrees drop by more than one
        da = rng.randint(2, 16)
        pairs.append(("sparse", int_poly(rng, da, 0.6), int_poly(rng, rng.randint(1, da - 1), 0.6)))
    for _ in range(25):  # a = b c + r with deg r <= deg b - 2: the chain's second step has a gap >= 2
        db = rng.randint(2, 8)
        b, r = int_poly(rng, db), int_poly(rng, rng.randint(0, db - 2))
        a = int_list(int_sym(b) * int_sym(int_poly(rng, rng.randint(1, 16 - db))) + int_sym(r))
        pairs.append(("gap", a, b))
    for _ in range(20):  # contents other than 1 on both sides
        da = rng.randint(1, 12)
        ca, cb = rng.choice((-12, -2, 3, 4, 30)), rng.choice((-5, 2, 6, 9, 14))
        a, b = int_poly(rng, da), int_poly(rng, rng.randint(0, da - 1))
        pairs.append(("content", [ca * c for c in a], [cb * c for c in b]))
    for _ in range(20):  # a shared factor f: the resultant is 0
        f = int_poly(rng, rng.randint(1, 4))
        g, h = int_poly(rng, rng.randint(1, 8)), int_poly(rng, rng.randint(0, 3))
        a, b = int_list(int_sym(f) * int_sym(g)), int_list(int_sym(f) * int_sym(h))
        pairs.append(("shared", a, b) if len(a) > len(b) else ("shared", b, a))
    for _ in range(10):  # a constant b
        pairs.append(("constant", int_poly(rng, rng.randint(1, 16)), [rng.choice((-7, -1, 1, 2, 12))]))
    return pairs


PAIRS = kernel_pairs()


def test_pseudo_remainder_identity_and_sympy():
    """lc(B)^k R = Q B + rem with Q integral, k = deg R - deg B + 1, rem trimmed and below deg B."""
    for family, a, b in PAIRS:
        for r, d in ((a, b), (b, a)):  # the second order has deg R < deg B: k = 0 and rem = R
            rem = pseudo_remainder(r, d)
            assert not rem or rem[-1], (family, r, d)
            assert len(rem) < len(d), (family, r, d)
            k = max(0, len(r) - len(d) + 1)
            quotient, zero = sympy.div(d[-1] ** k * int_sym(r) - int_sym(rem), int_sym(d), domain=sympy.QQ)
            assert zero.is_zero and all(c.is_integer for c in quotient.all_coeffs()), (family, r, d)
            if k:
                assert rem == int_list(sympy.prem(int_sym(r), int_sym(d))), (family, r, d)
            else:
                assert rem == r, (family, r, d)


def test_resultant_against_sympy():
    """Res(a, b) over seeded pairs with degree gaps, signs, contents, shared factors and constant b."""
    families = {}
    for family, a, b in PAIRS:
        want = int(sympy.resultant(int_sym(a), int_sym(b)))
        assert resultant(a, b) == want, (family, a, b)
        families.setdefault(family, set()).add(want == 0)
    assert families["shared"] == {True} and True not in families["dense"]
    assert max(len(a) - 1 for _, a, _ in PAIRS) == 16
    # the gap family's first pseudo-remainder drops two or more degrees below b
    assert all(len(pseudo_remainder(a, b)) < len(b) - 1 for family, a, b in PAIRS if family == "gap")
    assert any(b[-1] < 0 for _, _, b in PAIRS) and any(abs(b[-1]) > 1 for _, _, b in PAIRS)
