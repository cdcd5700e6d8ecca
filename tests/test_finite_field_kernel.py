"""The F_p[t] and Z/p^K[t] division kernel against plain references, and Ben-Or's test against Gauss's count.

No sympy here: the references are long division that reduces every
coefficient at every step, Euclid on top of it, repeated multiplication
for powers, and the number of monic irreducible polynomials of degree n
over F_p, (1/n) sum_{d | n} mu(d) p^(n/d).
"""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padicforms import FiniteFieldPoly, PreconditionFailed, finite_field_irreducible, newton

PRIMES = (2, 3, 5, 10007)


def trimmed(r):
    while r and not r[-1]:
        r.pop()
    return r


def long_division(a, b, m):
    """(q, r) of a by b over Z/mZ, every coefficient reduced at every step."""
    r, b = trimmed([x % m for x in a]), trimmed([x % m for x in b])
    inv = pow(b[-1], -1, m)
    q = [0] * max(0, len(r) - len(b) + 1)
    while len(r) >= len(b):
        c = r[-1] * inv % m
        k = len(r) - len(b)
        q[k] = c
        for j, y in enumerate(b):
            r[k + j] = (r[k + j] - c * y) % m
        trimmed(r)
    return trimmed(q), r


def product(a, b, m):
    out = [0] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % m
    return trimmed(out)


def euclid(a, b, m):
    a, b = trimmed([x % m for x in a]), trimmed([x % m for x in b])
    while b:
        a, b = b, long_division(a, b, m)[1]
    inv = pow(a[-1], -1, m) if a else 0
    return [x * inv % m for x in a]


def repeated_product(a, e, b, m):
    base, out = long_division(a, b, m)[1], [1]
    for _ in range(e):
        out = long_division(product(out, base, m), b, m)[1]
    return out


@st.composite
def modulus(draw):
    """(p, m) with m = p or m = p^K, K up to 40."""
    p = draw(st.sampled_from(PRIMES))
    return p, p ** draw(st.one_of(st.just(1), st.integers(1, 40)))


@st.composite
def dividend_and_divisor(draw):
    """(m, a, b) over Z/mZ; b's top is a unit mod m, and monic when m is a proper power."""
    p, m = draw(modulus())
    coefficient = st.integers(-(m**2), m**2)
    a = draw(st.lists(coefficient, max_size=12))
    body = draw(st.lists(coefficient, max_size=6))
    top = 1 if m != p else draw(st.integers(1, m - 1))
    return m, a, body + [top]


@settings(max_examples=200)
@given(dividend_and_divisor())
@example((5, [3, 1, 4, 1, 5], [2]))  # a constant divisor
@example((3**40, [1, 2, 3], [4, 5, 6, 1]))  # a divisor above the dividend's degree
@example((2, [], [1, 1]))  # the zero dividend
def test_division_matches_long_division(case):
    m, a, b = case
    fa, fb = FiniteFieldPoly(a, m), FiniteFieldPoly(b, m)
    q, r = long_division(a, b, m)
    assert divmod(fa, fb) == (FiniteFieldPoly(q, m), FiniteFieldPoly(r, m))
    assert (fa // fb).coeffs == tuple(q)
    assert (fa % fb).coeffs == tuple(r)
    assert fa // fb * fb + fa % fb == fa


@settings(max_examples=150)
@given(dividend_and_divisor(), st.integers(0, 40))
@example((10007, [0, 1], [3, 0, 1]), 10007)  # x^p, the Ben-Or step
@example((7, [2, 5], [3]), 0)  # x^0 = 1 is not reduced, even by a constant
def test_pow_mod_matches_repeated_products(case, e):
    m, a, b = case
    got = FiniteFieldPoly(a, m).pow_mod(e, FiniteFieldPoly(b, m))
    assert got.coeffs == tuple(repeated_product(a, e, b, m))


@settings(max_examples=150)
@given(
    st.sampled_from(PRIMES),
    st.lists(st.integers(-(10**6), 10**6), max_size=10),
    st.lists(st.integers(-(10**6), 10**6), max_size=10),
    st.lists(st.integers(0, 10006), max_size=4),
)
@example(5, [], [], [])  # gcd(0, 0) = 0
@example(3, [1, 2], [], [])  # gcd(a, 0) = a made monic
def test_gcd_matches_euclid(p, a, b, common):
    # a common factor, so that the gcd is often of positive degree
    c = FiniteFieldPoly(common + [1], p)
    fa, fb = FiniteFieldPoly(a, p) * c, FiniteFieldPoly(b, p) * c
    want = euclid(fa.coeffs, fb.coeffs, p)
    assert fa.gcd(fb).coeffs == tuple(want)
    assert fb.gcd(fa).coeffs == tuple(want)


@pytest.mark.parametrize("m", PRIMES + (2**40, 10007**3))
def test_zero_divisor_raises_zero_division(m):
    a, zero = FiniteFieldPoly([1, 2, 3], m), FiniteFieldPoly([m], m)
    for op in (lambda: divmod(a, zero), lambda: a % zero, lambda: a // zero, lambda: a.pow_mod(3, zero)):
        with pytest.raises(ZeroDivisionError):
            op()


@pytest.mark.parametrize("p, k", [(2, 2), (3, 40), (5, 7), (10007, 3)])
def test_non_unit_divisor_top_mod_pk_is_a_precondition(p, k):
    m = p**k
    a, b = FiniteFieldPoly([1, 2, 3, 4], m), FiniteFieldPoly([1, 1, p], m)
    for op in (lambda: divmod(a, b), lambda: a % b, lambda: a // b, lambda: a.pow_mod(3, b)):
        with pytest.raises(PreconditionFailed, match="not a unit"):
            op()


def mobius(n):
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


def gauss_count(p, n):
    """The number of monic irreducible polynomials of degree n over F_p."""
    return sum(mobius(d) * p ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


@pytest.mark.parametrize("p, top", [(2, 10), (3, 6), (5, 4)])
def test_irreducible_count_is_gauss_count(p, top):
    """Every monic polynomial of degree n <= top: the irreducible ones number
    Gauss's count, and each non-monic scalar multiple gets the same verdict."""
    for n in range(1, top + 1):
        count = 0
        for low in itertools.product(range(p), repeat=n):
            g = FiniteFieldPoly(low + (1,), p)
            verdict = finite_field_irreducible(g)
            count += verdict
            for c in range(2, p):
                assert finite_field_irreducible(g * c) is verdict, (g, c)
        assert count == gauss_count(p, n), (p, n)


@pytest.mark.parametrize("p, top", [(2, 10), (3, 6), (5, 4)])
def test_memoised_verdict_is_ben_or(p, top):
    """On every monic polynomial of the count above, the memoised verdict is the
    uncached test's, and the memo never holds more than its bound."""
    memo = newton._ben_or
    for n in range(1, top + 1):
        for low in itertools.product(range(p), repeat=n):
            g = FiniteFieldPoly(low + (1,), p)
            assert finite_field_irreducible(g) is memo.__wrapped__(g.coeffs, p), g
            info = memo.cache_info()
            assert info.currsize <= info.maxsize == newton._IRREDUCIBLE_CACHE_SIZE
    if sum(p ** n for n in range(1, top + 1)) >= memo.cache_info().maxsize:
        assert memo.cache_info().currsize == memo.cache_info().maxsize
