"""Lifting at doubling precision: canonical Hensel roots and slope factors.

A lift to D digits must report what a lift to 2D digits reports, cut
back to D digits: the output depends on the true root or factor and the
digit target only, never on the iteration that reached it.  The two
1024-digit cases at p = 10007 are the former cost cliffs (more than 6 s
for the cubic lift and 3.5 s for the quartic slopes); CI runs them under
a time limit (``pytest tests/test_lifting.py -k cliff``).
"""

import random
from fractions import Fraction

import pytest

from padicforms import (
    ConditionFailed,
    PadicContext,
    PadicPolynomial,
    PreconditionFailed,
    cli,
    h10,
    hensel_lift,
    newton_polygon,
    slope_factorization,
)
from padicforms.certificates import assertion, rat_str
from padicforms.extensions import LocalFieldElement
from padicforms.newton import _output_precision, min_coefficient_valuation
from padicforms.quadform import local_field

from conftest import poly

# (p, minimal polynomial): Q_3(i), Q_5(sqrt 2), Q_2(sqrt 2), and Q_3(alpha)
# with alpha^2 = 1/3, whose generator is not integral
FIELDS = [(3, [1, 0, 1]), (5, [-2, 0, 1]), (2, [-2, 0, 1]), (3, [Fraction(-1, 3), 0, 1])]


def _cut(root, p, k):
    """A reported root (an integer, or a coordinate tuple) reduced modulo p^k."""
    if isinstance(root, tuple):
        return tuple(c % p ** k for c in root)
    return root % p ** k


# every digit target up to 40 (where the stopping rule decides the last
# digit), then two larger ones; target 0 is compared with a 40-digit lift
DIGITS = list(range(0, 41)) + [64, 100]


def _assert_canonical(f, a, p, targets=DIGITS):
    for digits in targets:
        low = hensel_lift(f, a, digits)
        high = hensel_lift(f, a, 2 * digits or 40)
        assert low.approximate_root == _cut(high.approximate_root, p, digits + 1), digits
        assert low.residual_valuation > digits


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_hensel_root_canonical_over_qp(p):
    rng = random.Random(f"hensel-qp-{p}")
    ctx = PadicContext(p, precision_digits=200)
    for _ in range(3):
        # (x - a)(x - b) + p^j d with a - b a unit: a lifts to a simple root
        a = rng.randint(-20, 20)
        b = a + rng.choice([k for k in range(1, 2 * p + 1) if k % p])
        d = rng.choice([1, -1]) * rng.randint(1, 30)
        _assert_canonical(poly([a * b + p ** rng.randint(1, 3) * d, -(a + b), 1], ctx), Fraction(a), p)
    # (x - 1)(x - 2)(x - 3) + p from 1, where f'(1) = 2
    if p != 2:
        _assert_canonical(poly([-6 + p, 11, -6, 1], ctx), Fraction(1), p)


@pytest.mark.parametrize("p,minimal", FIELDS)
def test_hensel_root_canonical_over_extensions(p, minimal):
    rng = random.Random(f"hensel-ext-{p}-{minimal}")
    ctx = PadicContext(p, precision_digits=200)
    K = local_field(poly(minimal, ctx), ctx)
    pi = K.uniformizer_elt
    for _ in range(3):
        a = K.embed(rng.randint(-5, 5)) + pi * rng.randint(-5, 5)
        b = a + 1 + pi * (p * rng.randint(-5, 5))
        d = K.embed(rng.randint(1, 5)) + pi * rng.randint(-5, 5)
        _assert_canonical(PadicPolynomial([a * b + d * p, -(a + b), K.one], K), a, p)


# v(f'(a)) = 1 or 2: s = 1/f'(a) is carried on the scale p^v(f'(a)).  The
# root is reported modulo p^(digits + 1), so targets below v(f'(a)) can
# leave the Hensel ball; they start at v(f'(a)) - 1 here
@pytest.mark.parametrize("p,coeffs,a,v", [
    (2, [-17, 0, 1], 1, 1),  # sqrt 17 from 1
    (2, [-68, 0, 1], 2, 2),  # 2 sqrt 17 from 2
    (3, [4 + 27, -5, 1], 1, 1),  # (x - 1)(x - 4) + 27 from 1
    (3, [10 + 3 ** 5, -11, 1], 1, 2),  # (x - 1)(x - 10) + 3^5 from 1
])
def test_hensel_root_canonical_when_the_derivative_is_not_a_unit(p, coeffs, a, v):
    ctx = PadicContext(p, precision_digits=200)
    f = poly(coeffs, ctx)
    assert ctx.vp(f.derivative().evaluate(Fraction(a))) == v
    _assert_canonical(f, Fraction(a), p, DIGITS[v - 1:])


# f = (x - a)(x - a - h) + d h^3, so v(f'(a)) = v(h): 1/e for h = pi_K over
# Q_3(sqrt 3) and Q_2(sqrt 2), and 3/2 for h = alpha over Q_3(sqrt 27),
# whose deep integral basis also puts b on the scale p^1
@pytest.mark.parametrize("p,minimal,step,v", [
    (3, [-3, 0, 1], "pi", Fraction(1, 2)),
    (2, [-2, 0, 1], "pi", Fraction(1, 2)),
    (3, [-27, 0, 1], "alpha", Fraction(3, 2)),
])
def test_hensel_root_canonical_when_the_derivative_has_fractional_valuation(p, minimal, step, v):
    rng = random.Random(f"hensel-ramified-{p}-{minimal}")
    ctx = PadicContext(p, precision_digits=200)
    K = local_field(poly(minimal, ctx), ctx)
    h = K.uniformizer_elt if step == "pi" else K.gen()
    for _ in range(2):
        a = K.embed(rng.randint(0, 5)) + h * rng.randint(-5, 5)
        d = K.embed(rng.randint(1, 5)) + h * rng.randint(-5, 5)
        f = PadicPolynomial([a * (a + h) + d * h ** 3, -(a + a + h), K.one], K)
        assert K.valuation(f.derivative().evaluate(a)) == v
        _assert_canonical(f, a, p)


def test_hensel_lift_from_a_root():
    """A starting point that is already a root is reported cut to digits + 1, with infinite slack."""
    ctx = PadicContext(3, precision_digits=200)
    K = local_field(poly([1, 0, 1], ctx), ctx)
    i = K.gen()
    for f, a in [(poly([14, -9, 1], ctx), Fraction(2)),  # (x - 2)(x - 7)
                 (PadicPolynomial([K.embed(2) * i, -(i + 2), K.one], K), i)]:  # (x - i)(x - 2)
        _assert_canonical(f, a, 3)
        w = hensel_lift(f, a, 10)
        assert w.slack == float("inf") and w.residual_valuation > 10
        assert f.field.coerce(w.approximate_root) == a


def test_hensel_ball_at_the_reported_precision():
    """x^2 - 68 from 2 at p = 2: at digits 0 the root 2 sqrt(17) is reported mod 2, as 0.

    v(0 - 2) = 1 does not exceed v(f'(2)) = 2, but 0 and 2 agree to the one digit reported,
    so the lift returns 0 and the hensel assertion's builder accepts it.
    """
    ctx = PadicContext(2)
    f = poly([-68, 0, 1], ctx)
    assert [hensel_lift(f, 2, digits).approximate_root for digits in range(4)] == [0, 2, 2, 2]
    for digits in range(4):
        root = hensel_lift(f, 2, digits).approximate_root
        inputs = {"poly": f.to_text(), "start": "2/1", "root": rat_str(root), "digits": digits}
        assert assertion("hensel", ctx, **inputs) == {"kind": "hensel", **inputs}
    # -2 is the other root, -2 sqrt(17), to 3 digits: outside the ball around 2
    with pytest.raises(ConditionFailed, match="left the Hensel ball"):
        assertion("hensel", ctx, **{**inputs, "root": "-2/1"})


def test_one_inverse_per_hensel_lift(monkeypatch):
    """Newton carries 1/f'(b) along with b: one exact inverse per lift, however many steps."""
    calls = []
    inverse = LocalFieldElement.inverse
    monkeypatch.setattr(LocalFieldElement, "inverse", lambda x: calls.append(x) or inverse(x))
    for p, minimal in [(3, [1, 0, 1]), (2, [-2, 0, 1])]:
        rng = random.Random(f"one-inverse-{p}")
        ctx = PadicContext(p, precision_digits=1024)
        K = local_field(poly(minimal, ctx), ctx)
        pi = K.uniformizer_elt
        K.lattice_coordinates(K.one)  # the field's lattice structures, built once
        for _ in range(3):
            a = K.embed(rng.randint(-5, 5)) + pi * rng.randint(-5, 5)
            b = a + 1 + pi * (p * rng.randint(-5, 5))
            f = PadicPolynomial([a * b + K.embed(rng.randint(1, 5)) * p, -(a + b), K.one], K)
            calls.clear()
            assert hensel_lift(f, a, 1024).residual_valuation > 1024
            assert len(calls) <= 1, (K, len(calls))


def test_hensel_root_with_non_integral_alpha_coordinates(monkeypatch, capsys):
    """Over Q_3(alpha), alpha = 3 sqrt 2, the root sqrt 2 = alpha/3 of x^2 - 2 is
    integral but its alpha-coordinates are not: a typed error, exit 2 from the CLI."""
    ctx = PadicContext(3)
    K = local_field(poly([-18, 0, 1], ctx), ctx)
    f = PadicPolynomial([K.embed(-2), K.zero, K.one], K)
    a = K.element([3, Fraction(1, 3)])
    message = "alpha-coordinates are not p-integral"
    with pytest.raises(PreconditionFailed, match=message):
        hensel_lift(f, a, 10)
    # no subcommand lifts over an extension, so this lift stands in for elliptic-point's,
    # which the CLI looks up on h10 when the command runs
    monkeypatch.setattr(h10, "elliptic_constant_point", lambda *args: hensel_lift(f, a, 10))
    assert cli.main(["elliptic-point", "--prime", "3", "3"]) == 2
    assert message in capsys.readouterr().err

# Q_3(sqrt 27) and Q_2(4^(1/3)), whose integral bases {1, alpha/3} and
# {1, alpha, alpha^2/2} let an element of valuation V have an
# alpha-coordinate of valuation V - 1: p^j alpha^(n-1) has valuation
# j + 3/2 and j + 4/3, and its last coordinate p^j
DEEP_FIELDS = [(3, [-27, 0, 1]), (2, [-4, 0, 0, 1])]


@pytest.mark.parametrize("p,minimal", DEEP_FIELDS)
def test_hensel_root_canonical_over_deep_integral_bases(p, minimal):
    rng = random.Random(f"hensel-deep-{p}-{minimal}")
    ctx = PadicContext(p, precision_digits=200)
    K = local_field(poly(minimal, ctx), ctx)
    alpha = K.gen()
    units = [k for k in range(1, 2 * p + 1) if k % p]
    for j in range(3):
        # coefficients in Z_p[alpha] and f'(a) a unit there, so the root
        # lies in Z_p[alpha] and its alpha-coordinates are p-integral;
        # f(a) = p^(j+1) alpha^(n-1) u puts a - root in the last coordinate
        a = K.embed(rng.randint(-5, 5)) + alpha * rng.randint(-5, 5)
        b = a + 1 + alpha * (p * rng.randint(-5, 5))
        d = alpha ** (K.degree - 1) * (p ** j * rng.choice(units))
        _assert_canonical(PadicPolynomial([a * b + d * p, -(a + b), K.one], K), a, p)


def _multi_slope(rng, p, ctx):
    while True:
        deg = rng.randint(2, 7)
        coeffs = [
            Fraction(rng.randint(-9, 9)) * Fraction(p) ** rng.randint(-2, 8)
            / rng.choice([1, 1, 7 if p != 7 else 11])
            for _ in range(deg)
        ]
        coeffs.append(Fraction(rng.choice([1, 1, p, 5 if p != 5 else 3])))
        if coeffs[0] == 0:
            coeffs[0] = Fraction(p)
        f = poly(coeffs, ctx)
        if len(newton_polygon(f).edges) >= 2:
            return f


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_slope_factors_canonical(p):
    rng = random.Random(f"slopes-{p}")
    ctx = PadicContext(p)
    for _ in range(10):
        f = _multi_slope(rng, p, ctx)
        digits = rng.choice([3, 20, 45])
        low = slope_factorization(f, digits)
        high = slope_factorization(f, 2 * digits)
        n_out = _output_precision(f, newton_polygon(f), digits)
        assert [x.poly for x in low.factors] == [
            PadicPolynomial([ctx.cut(c, n_out) for c in x.poly.coeffs], ctx) for x in high.factors
        ]
        for x in low.factors:
            assert newton_polygon(x.poly).single_edge().slope == x.slope


def test_slope_factors_keep_deep_constant_terms():
    """Edge heights above the digit target survive the output truncation."""
    ctx = PadicContext(5)
    f = poly([-2 * 5 ** 19, 9 * 5 ** 6, 1], ctx)  # constant term of the first factor: v = 13
    fac = slope_factorization(f, 5)
    assert [ctx.vp(x.poly.constant_coefficient()) for x in fac.factors] == [13, 6]
    assert fac.residual_valuation(f) > 5


def test_cliff_cubic_hensel_lift_p10007():
    p, digits = 10007, 1024
    ctx = PadicContext(p, precision_digits=digits)
    f = poly([-6 + p, 11, -6, 1], ctx)  # (x - 1)(x - 2)(x - 3) + p
    w = hensel_lift(f, Fraction(1), digits)
    root = Fraction(w.approximate_root)
    assert 0 <= w.approximate_root < p ** (digits + 1)
    assert ctx.vp(f.evaluate(root)) > digits
    assert ctx.vp(root - 1) > ctx.vp(f.derivative().evaluate(Fraction(1)))


def test_cliff_quartic_slopes_p10007():
    p, digits = 10007, 1024
    ctx = PadicContext(p, precision_digits=digits)
    f = poly([p ** 3, p, -p, 1, 1], ctx)
    fac = slope_factorization(f, digits)
    assert [x.slope for x in fac.factors] == list(newton_polygon(f).slopes)
    product = fac.product(f.field)
    assert min_coefficient_valuation(product - f) > digits
    for x in fac.factors:
        assert newton_polygon(x.poly).single_edge().slope == x.slope
