"""Differential tests of the integer kernels over a LocalField.

Fields come from ``random_certified_irreducible`` at p in {2, 3, 5, 7,
10007}, degrees 2-4, some with the root scaled, and from three fixed fields:
two whose unit p pi_K^(-e) has a residue other than 1, and one whose
integral basis is not made of alpha-monomials.  Each kernel is compared with a reference that shares
no code with it: a Fraction convolution and division for the product and
for ``from_poly``, a Fraction linear solve for the inverse and the lattice
coordinates, sympy's resultant for the norm, and ``rational_mod_pk`` on
the ``coeffs`` view for the residue and for the cut of a base-field coefficient.
"""

import math
import random
from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from padicforms import LocalField, PadicContext, PadicPolynomial
from padicforms.padics import rational_mod_pk
from padicforms.reciprocity import random_certified_irreducible

PRIMES = (2, 3, 5, 7, 10007)
CONTEXTS = {p: PadicContext(p) for p in PRIMES}
T = sympy.Symbol("t")
_FIELDS = {}


def field(p: int, seed: int) -> LocalField:
    """A certified field of degree 2-4 over Q_p from the seeded sampler's first such modulus q.

    One seed in three keeps q; the others take c^(-n) q(c t), whose root is
    alpha / c, for c = p or c prime to p, so that the modulus has
    denominators, p-adic or not.
    """
    if (p, seed) not in _FIELDS:
        rng = random.Random(seed)
        q = random_certified_irreducible(rng, CONTEXTS[p])
        while q.degree < 2:
            q = random_certified_irreducible(rng, CONTEXTS[p])
        c = (1, p, 5 if p != 5 else 7)[seed % 3]
        n = q.degree
        q = PadicPolynomial([a * Fraction(c) ** (i - n) for i, a in enumerate(q.coeffs)], CONTEXTS[p])
        _FIELDS[p, seed] = LocalField(q)
    return _FIELDS[p, seed]


# e = f = 2 over Q_3, and f = 2 over Q_5 with the uniformizer 10: the
# residue reads of x pi_K^(-j) at j >= e multiply by a unit residue epsbar != 1;
# slope -5/3 over Q_3: pi_K = alpha^(-1) 3^2 and pi_K^2 are not alpha-monomials,
# so inverting the basis matrix eliminates below and above each pivot
MIXED = [
    LocalField(PadicPolynomial.from_rationals([18, 0, 3, 0, 1], CONTEXTS[3])),
    LocalField(PadicPolynomial.from_rationals([-2, 0, 1], PadicContext(5, uniformizer=Fraction(10)))),
    LocalField(PadicPolynomial.from_rationals([243, 81, 9, 1], CONTEXTS[3])),
]


@st.composite
def coefficient(draw, p):
    """A rational of any p-adic valuation in [-3, 6], small or large, any sign."""
    num = draw(st.one_of(st.integers(-9, 9), st.integers(-(2**64), 2**64)))
    den = draw(st.sampled_from((1, 1, 2, 3, 7, 12)))
    if den % p == 0:
        den = 1
    return Fraction(num, den) * Fraction(p) ** draw(st.integers(-3, 6))


def fields():
    return st.one_of(st.builds(field, st.sampled_from(PRIMES), st.integers(0, 40)), st.sampled_from(MIXED))


@st.composite
def elements(draw, count=1):
    """(K, x_1, ..., x_count), each x nonzero."""
    K = draw(fields())
    p = K.base_context.p
    xs = []
    for _ in range(count):
        cs = draw(st.lists(coefficient(p), min_size=K.degree, max_size=K.degree).filter(any))
        xs.append(K.element(cs))
    return (K, *xs)


def reduce_mod(conv, q):
    """sum conv[k] alpha^k in powers of alpha below n, by Fraction long division by q."""
    conv, n = list(conv), len(q) - 1
    for k in range(len(conv) - 1, n - 1, -1):
        c = conv[k]
        for i in range(n + 1):
            conv[k - n + i] -= c * q[i]
    return conv[:n] + [Fraction(0)] * (n - len(conv))


def naive_product(x, y):
    conv = [Fraction(0)] * (2 * x.field.degree - 1)
    for i, a in enumerate(x.coeffs):
        for j, b in enumerate(y.coeffs):
            conv[i + j] += a * b
    return reduce_mod(conv, x.field.minimal_poly.coeffs)


def solve(columns, rhs):
    """c with sum_j c_j columns[j] = rhs, by Fraction Gaussian elimination."""
    n = len(rhs)
    m = [[columns[j][i] for j in range(n)] + [rhs[i]] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if m[r][col])
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col] / m[col][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return [m[i][n] / m[i][i] for i in range(n)]


def naive_lattice(x):
    return solve([b.coeffs for b in x.field._integral_basis], list(x.coeffs))


def naive_cut(c, k, p):
    if c == 0 or CONTEXTS[p].vp(c) >= k:
        return Fraction(0)
    shift = Fraction(p) ** CONTEXTS[p].vp(c)
    return rational_mod_pk(c / shift, p, k - CONTEXTS[p].vp(c)) * shift


def sym(cs):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(cs)], T)


@settings(max_examples=100)
@given(elements(count=2))
def test_product_inverse_and_lattice_against_fractions(case):
    K, x, y = case
    assert list((x * y).coeffs) == naive_product(x, y)
    n = K.degree
    alpha_powers = [[Fraction(int(i == j)) for i in range(n)] for j in range(n)]
    columns = [naive_product(x, K.element(a)) for a in alpha_powers]
    assert list(x.inverse().coeffs) == solve(columns, [Fraction(1)] + [Fraction(0)] * (n - 1))
    nums, d = K.lattice_coordinates(x)
    assert [Fraction(c, d) for c in nums] == naive_lattice(x)
    assert x == K.element(x.coeffs) and hash(x) == hash(K.element(x.coeffs))
    assert math.gcd(x.den, *x.num) == 1 and x.den > 0


@settings(max_examples=100)
@given(elements())
def test_norm_against_sympy_and_valuation_against_norm(case):
    K, x = case
    want = sympy.resultant(sym(K.minimal_poly.coeffs), sym(x.coeffs))
    norm = x.norm()
    assert norm == Fraction(int(want.p), int(want.q))
    assert x.valuation == Fraction(K.base_context.vp(norm), K.degree)


@settings(max_examples=100)
@given(elements(), st.integers(-4, 12))
def test_cut_and_residue_against_rational_mod_pk(case, k):
    K, x = case
    p, e = K.base_context.p, K.ramification_index
    for c in x.coeffs:
        assert CONTEXTS[p].cut(c, k) == naive_cut(c, k, p)
    c = x.coeffs[0]
    w = x.w()
    for j in range(w - 2 * e, w + 1):
        # the residue of the integral element x pi_K^(-j), read off its lattice coordinates
        u = naive_lattice(x * K.uniformizer_elt ** -j)
        want = [rational_mod_pk(u[i * e], p, 1) for i in range(K.residue_degree)]
        assert K.residue(x, j) == want, (K, x, j)
    if c:
        ctx = K.base_context
        v = ctx.vp(c)
        assert ctx.residue(c, v) == [rational_mod_pk(c / ctx.uniformizer ** v, p, 1)]


@st.composite
def base_polynomials(draw):
    """(K, f) with f over Q_p of degree 0-12, coefficients with p-power denominators."""
    K = draw(fields())
    p = K.base_context.p
    num = st.one_of(st.integers(-9, 9), st.integers(-(2**64), 2**64))
    cs = draw(st.lists(st.builds(lambda a, k: Fraction(a, p**k), num, st.integers(0, 6)), max_size=13))
    return K, PadicPolynomial(cs, K.base_context)


@settings(max_examples=60)
@given(base_polynomials())
def test_from_poly_is_the_remainder_by_the_modulus(case):
    K, f = case
    got = K.from_poly(f)
    # the route through PadicPolynomial division and the coeffs view
    assert got == K.element(list((f % PadicPolynomial(K.minimal_poly.coeffs, f.field)).coeffs))
    assert list(got.coeffs) == reduce_mod(f.coeffs, K.minimal_poly.coeffs)
    assert math.gcd(got.den, *got.num) == 1 and got.den > 0
    # Horner at alpha, through the product's reduction, meets the image's reduction
    assert f.evaluate(K.gen()) == got


def test_basis_inverse_on_a_basis_that_is_not_monomial():
    K = MIXED[2]
    basis = K._integral_basis
    assert any(sum(1 for c in b.num if c) > 1 for b in basis)
    for i, b in enumerate(basis):
        nums, d = K.lattice_coordinates(b)
        assert [Fraction(c, d) for c in nums] == [int(i == j) for j in range(K.degree)]
