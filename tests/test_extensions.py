"""Local field extensions: certification, norms, squares, symbols, Hensel."""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from padicforms import (
    LocalField,
    NotIrreducible,
    PadicContext,
    PrecisionExhausted,
    PreconditionFailed,
    hensel_lift,
    hilbert_symbol,
    hilbert_symbol_qp,
    is_square,
    is_square_rational,
    square_class,
)
from padicforms.extensions import as_base_rational
from padicforms.padics import rational_mod_pk, unit_split

from conftest import poly
from lattice_oracles import _certified_hilbert_search, _is_square_search, _square_class_search


def _unit(x, w):
    """The unit x * pi_K^(-w), for w = w(x)."""
    return x * x.field.uniformizer_elt ** (-w)


def ramified3(c3):
    return LocalField(poly([-3, 0, 1], c3))


def unramified3(c3):
    return LocalField(poly([1, 0, 1], c3))


def test_certification_and_invariants(c2, c3):
    K = ramified3(c3)
    assert (K.ramification_index, K.residue_degree) == (2, 1)
    Ku = unramified3(c3)
    assert (Ku.ramification_index, Ku.residue_degree) == (1, 2)
    K2 = LocalField(poly([-2, 0, 1], c2))
    assert (K2.ramification_index, K2.residue_degree) == (2, 1)
    Kmix = LocalField(poly([18, 0, 3, 0, 1], c3))  # e = f = 2
    assert (Kmix.ramification_index, Kmix.residue_degree) == (2, 2)
    for K_ in (K, Ku, K2, Kmix):
        assert K_.ramification_index * K_.residue_degree == K_.degree
        assert K_.uniformizer_elt.valuation == Fraction(1, K_.ramification_index)
    with pytest.raises(NotIrreducible):
        LocalField(poly([-1, 0, 1], c3))  # t^2 - 1 splits
    with pytest.raises(NotIrreducible):
        LocalField(poly([27, -12, 1], c3))  # two slopes


def test_valuation_via_norm(c3):
    K = ramified3(c3)
    alpha = K.gen()
    assert alpha.valuation == Fraction(1, 2)
    assert alpha.norm() == -3
    assert (alpha * alpha).valuation == 1
    assert K.embed(Fraction(9, 2)).valuation == 2
    assert K.zero.valuation == float("inf")


# (p, minimal polynomial), degrees 2-6: among them the deep integral bases
# Q_3(sqrt 27) and Q_2(4^(1/3)), and alpha^2 = 1/3, where alpha is not integral
NORM_FIELDS = [
    (2, [1, 1, 1]), (2, [-4, 0, 0, 1]), (2, [4, 0, 2, 0, 1]), (2, [-2, 0, 0, 0, 0, 0, 1]),
    (3, [-27, 0, 1]), (3, [Fraction(-1, 3), 0, 1]), (3, [1, 2, 0, 1]), (3, [18, 0, 3, 0, 1]),
    (5, [1, 1, 0, 1]), (5, [-5, 0, 0, 0, 0, 1]),
    (7, [1, 0, 1]), (7, [-7, 0, 0, 0, 0, 0, 1]),
    (10007, [-5, 0, 1]), (10007, [-10007, 0, 0, 1]),
]


def test_norm_and_valuation_against_resultant():
    """norm is Res(q, r) (sympy as oracle) and valuation is v_p(N) / n, at every valuation and at 0."""
    import sympy

    t = sympy.Symbol("t")

    def sym(cs):
        return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(cs)], t)

    rng = random.Random(47)
    degrees = set()
    for p, minimal in NORM_FIELDS:
        ctx = PadicContext(p)
        K = LocalField(poly(minimal, ctx))
        e, n = K.ramification_index, K.degree
        degrees.add(n)
        assert K.zero.norm() == 0 and K.zero.valuation == float("inf")
        xs = []
        for w in range(-e, 2 * e + 1):
            # a unit: lattice coordinates with a first one prime to p
            coords = [rng.randint(1, p - 1) + p * rng.randint(0, 3)]
            coords += [rng.randint(-9, 9) for _ in range(n - 1)]
            x = K.from_lattice_coordinates(coords) * K.uniformizer_elt ** w
            assert x.w() == w, (K, x)
            xs.append(x)
        for _ in range(4):
            xs.append(K.element([Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 5]))
                                 * Fraction(p) ** rng.randint(-2, 3) for _ in range(n)]))
        for x in xs:
            want = sympy.resultant(sym(K.minimal_poly.coeffs), sym(x.coeffs))
            norm = x.norm()
            assert norm == Fraction(int(want.p), int(want.q)), (K, x)
            assert x.valuation == (Fraction(ctx.vp(norm), n) if norm else float("inf")), (K, x)
    assert degrees == {2, 3, 4, 5, 6}


def test_element_arithmetic(c3):
    K = unramified3(c3)
    a = K.element([2, 3])
    b = K.element([Fraction(1, 2), -1])
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a * a.inverse() == K.one
    assert a ** 3 == a * a * a


def test_extension_squares(c3, c2):
    K = ramified3(c3)
    assert is_square(K.gen() ** 2)  # 3 is a square in Q_3(sqrt 3)
    assert not is_square(K.embed(-1))
    assert not is_square(K.gen())  # odd normalized valuation
    Ku = unramified3(c3)
    assert is_square(Ku.embed(-1))  # i in the field, -1 = i^2... check via i
    assert is_square(Ku.gen() * Ku.gen())
    K2 = LocalField(poly([-2, 0, 1], c2))
    assert is_square(K2.embed(2))
    assert not is_square(K2.embed(3))  # 3 = 1 + 2 not a square in Q_2(sqrt 2)
    assert is_square(K2.embed(17))


def test_extension_square_class_tags(c3):
    K = ramified3(c3)
    t1 = square_class(K.embed(1))
    t4 = square_class(K.embed(4))
    tm1 = square_class(K.embed(-1))
    talpha = square_class(K.gen())
    assert t1 == t4
    assert t1 != tm1
    assert talpha.parity == 1 and t1.parity == 0
    # squares of random elements land in the trivial class
    rng = random.Random(19)
    for _ in range(5):
        x = K.element([rng.randint(-9, 9), rng.randint(-9, 9)])
        if x.is_zero():
            continue
        assert square_class(x * x) == t1


def test_projection_formula_against_search(c2, c3):
    """Norm projection and the certified lattice search agree."""
    rng = random.Random(23)
    fields = [
        ramified3(c3),
        unramified3(c3),
        LocalField(poly([-2, 0, 1], c2)),
        LocalField(poly([1, 1, 1], c2)),
    ]
    checked = 0
    for K in fields:
        for _ in range(4):
            a = K.element([rng.randint(-6, 6), rng.randint(-6, 6)])
            if a.is_zero():
                continue
            b = K.embed(rng.choice([2, 3, 5, -1, -2, 6]))
            assert hilbert_symbol(a, b) == _certified_hilbert_search(a, b), (K, a, b)
            checked += 1
    assert checked >= 12


def test_search_two_irrational(c3):
    K = ramified3(c3)
    a = K.gen() + 1
    assert _certified_hilbert_search(a, -a) == 1
    b = K.gen() + 2
    s1 = _certified_hilbert_search(a, b)
    s2 = _certified_hilbert_search(b, a)
    assert s1 == s2  # symmetry through the search route


def test_hilbert_dispatch_and_rationality(c3):
    K = ramified3(c3)
    assert as_base_rational(K.embed(Fraction(7, 2))) == Fraction(7, 2)
    assert as_base_rational(K.gen()) is None
    # (a, -a) = 1 through the projection route
    a = K.gen() + 1
    assert hilbert_symbol(a, -a) == 1
    with pytest.raises(PreconditionFailed):
        hilbert_symbol(K.zero, K.one)


@pytest.mark.parametrize("p, modulus", [(2, [-2, 0, 1]), (3, [1, 0, 1])])
def test_field_handle_decisions_are_the_public_functions(p, modulus):
    """One dispatch, by the handle: its is_square and hilbert_symbol are the public functions' values."""
    ctx = PadicContext(p)
    K = LocalField(poly(modulus, ctx))
    rng = random.Random(p)
    rationals = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 60), rng.randint(1, 12)) for _ in range(10)]
    elements = [K.element([rng.randint(-6, 6), rng.randint(1, 6)]) for _ in range(8)] + [K.embed(3), K.embed(-1)]
    for field, xs in ((ctx, rationals), (K, elements)):
        for x in xs:
            assert field.is_square(x) == is_square(x, field)
        for a, b in itertools.product(xs[:6], repeat=2):
            assert field.hilbert_symbol(a, b) == hilbert_symbol(a, b, field)
        with pytest.raises(PreconditionFailed, match="is_square is undefined at 0"):
            field.is_square(field.zero)
        with pytest.raises(PreconditionFailed, match="hilbert symbol needs nonzero arguments"):
            field.hilbert_symbol(field.one, field.zero)
    for a, b in itertools.product(rationals[:6], repeat=2):
        assert ctx.is_square(a) == is_square_rational(a, ctx)
        assert ctx.hilbert_symbol(a, b) == hilbert_symbol_qp(a, b, ctx)
    # an extension element given with no field is decided in its own field
    for a, b in zip(elements, rationals):
        assert is_square(a) == K.is_square(a)
        assert hilbert_symbol(a, b) == K.hilbert_symbol(a, b) == hilbert_symbol_qp(K.norm(a), b, ctx)


def test_hensel_examples(c2, c3):
    w = hensel_lift(poly([-17, 0, 1], c2), Fraction(1), 8)
    assert w.approximate_root % 16 == 9
    assert w.slack == 2
    # derived check: 17 is a square mod 64 by exhaustive search
    assert any((z * z - 17) % 64 == 0 for z in range(64))
    w2 = hensel_lift(poly([-9, -1, 0, 1], c3), Fraction(0), 8)
    assert w2.approximate_root % 27 == 18
    assert (18 ** 3 - 18 - 9) % 27 == 0
    w3 = hensel_lift(poly([-5, 1], c3), Fraction(5), 10)
    assert w3.approximate_root == 5 and w3.residual_valuation == float("inf")


def test_hensel_invariants(contexts):
    rng = random.Random(29)
    for ctx in contexts:
        for _ in range(10):
            # construct f with a guaranteed simple residue root
            r = rng.randint(1, ctx.p - 1) if ctx.p > 2 else 1
            f = poly([-(r * r), 0, 1], ctx)  # x^2 - r^2
            digits = rng.randint(5, 30)
            if ctx.p == 2:
                f = poly([-(r + 8 * rng.randint(0, 3)) ** 2, 0, 1], ctx)
            w = hensel_lift(f, Fraction(r), digits)
            fb = f.evaluate(Fraction(w.approximate_root))
            assert fb == 0 or ctx.vp(fb) > digits
            dstart = f.derivative().evaluate(Fraction(r))
            assert ctx.vp(Fraction(w.approximate_root) - r) > ctx.vp(dstart)


def test_hensel_preconditions(c2, c3):
    with pytest.raises(PreconditionFailed):
        hensel_lift(poly([-2, 0, 1], c3), Fraction(1), 8)  # slack <= 0
    with pytest.raises(PrecisionExhausted):
        hensel_lift(poly([-9, -1, 0, 1], c3), Fraction(0), 100)  # digits > cap
    with pytest.raises(PreconditionFailed):
        hensel_lift(poly([Fraction(1, 3), 0, 1], c3), Fraction(0), 8)


def test_non_integral_eisenstein_field(c3):
    """Certification and lattice machinery for a minimal polynomial t^2 - 1/3."""
    K = LocalField(poly([Fraction(-1, 3), 0, 1], c3))
    assert (K.ramification_index, K.residue_degree) == (2, 1)
    alpha = K.gen()
    assert alpha.valuation == Fraction(-1, 2)
    assert K.uniformizer_elt.valuation == Fraction(1, 2)
    assert is_square(alpha * alpha)  # 1/3 is a square here
    assert not is_square(K.embed(-1))
    assert hilbert_symbol(alpha, -alpha) == 1


def test_hensel_in_extension(c3):
    K = unramified3(c3)
    from padicforms import PadicPolynomial

    # x^2 - (2 + alpha)^2 from a congruent start
    target = (K.gen() + 2) * (K.gen() + 2)
    f = PadicPolynomial([-target, K.zero, K.one], K)
    start = K.gen() + 2 + K.embed(9)
    w = hensel_lift(f, start, 6)
    root = K.element([Fraction(c) for c in w.approximate_root])
    assert K.valuation(f.evaluate(root)) > 6


def test_search_symbol_relations(c2, c3):
    """Group relations of the two-irrational certified search."""
    for ctx, minpoly in ((c3, [-3, 0, 1]), (c3, [1, 0, 1]), (c2, [-2, 0, 1])):
        K = LocalField(poly(minpoly, ctx))
        rng = random.Random(5 + ctx.p)
        pairs = 0
        while pairs < 3:
            a = K.element([rng.randint(-5, 5), rng.randint(-5, 5)])
            b = K.element([rng.randint(-5, 5), rng.randint(-5, 5)])
            if a.is_zero() or b.is_zero():
                continue
            s_ab = _certified_hilbert_search(a, b)
            assert s_ab == _certified_hilbert_search(b, a)
            assert _certified_hilbert_search(a, -(a * b * b)) == 1
            assert _certified_hilbert_search(a, -(a * b)) == s_ab
            pairs += 1


def test_odd_valuation_square_class_tags(c2, c3, c5):
    """x and x*g share a square class exactly when the unit g is a square."""
    Ki = unramified3(c3)
    g = Ki.element([1, 1])
    assert not is_square(g)
    assert square_class(Ki.embed(3)) != square_class(Ki.embed(3) * g)
    for K in (LocalField(poly([2, 0, 1], c5)), LocalField(poly([1, 1, 1], c2))):
        pi = K.uniformizer_elt
        assert square_class(pi) == square_class(pi ** 3)
        units = [K.element(cs) for cs in itertools.product(range(-3, 4), repeat=2)]
        units = [u for u in units if not u.is_zero() and u.w() == 0]
        assert len(units) >= 40
        for u in units:
            assert (square_class(pi) == square_class(pi * u)) == is_square(u), (K, u)


def _odd_p_fields():
    """Odd-p fields with e in {1, 2, 3} and f in {1, 2, 3}."""
    c3, c5, c7 = PadicContext(3), PadicContext(5), PadicContext(7)
    return [
        LocalField(poly([1, 0, 1], c3)),  # e = 1, f = 2
        LocalField(poly([-3, 0, 1], c3)),  # e = 2, f = 1
        LocalField(poly([1, 2, 0, 1], c3)),  # e = 1, f = 3
        LocalField(poly([-3, 0, 0, 1], c3)),  # e = 3, f = 1
        LocalField(poly([18, 0, 3, 0, 1], c3)),  # e = 2, f = 2
        LocalField(poly([2, 0, 1], c5)),  # e = 1, f = 2
        LocalField(poly([-5, 0, 1], c5)),  # e = 2, f = 1
        LocalField(poly([-5, 0, 0, 1], c5)),  # e = 3, f = 1
        LocalField(poly([1, 0, 1], c7)),  # e = 1, f = 2
        LocalField(poly([-7, 0, 1], c7)),  # e = 2, f = 1
        # a non-default uniformizer pi = 3/2
        LocalField(poly([-6, 0, 1], PadicContext(3, uniformizer=Fraction(3, 2)))),
        LocalField(poly([1, 0, 1], PadicContext(3, uniformizer=Fraction(-3)))),
    ]


def _random_element(K, rng, irrational=False):
    while True:
        x = K.element([rng.randint(-9, 9) for _ in range(K.degree)])
        x = x * K.uniformizer_elt ** rng.randint(0, 3)
        if any(x.coeffs[1:]) if irrational else not x.is_zero():
            return x


def test_closed_forms_against_searches():
    """Residue characters and the tame symbol agree with the lattice searches (odd p)."""
    rng = random.Random(31)
    fields = _odd_p_fields()
    assert {(K.ramification_index, K.residue_degree) for K in fields} >= {
        (1, 2), (2, 1), (1, 3), (3, 1), (2, 2)}
    for K in fields:
        for _ in range(6):
            x = _random_element(K, rng)
            w = x.w()
            u = _unit(x, w)
            assert is_square(x) == (w % 2 == 0 and _is_square_search(u)), (K, x)
            tag = square_class(x)
            assert tag.parity == w % 2
            if w % 2 == 0:
                assert tag.unit_tag == _square_class_search(u), (K, x)
        for _ in range(4):
            a, b = _random_element(K, rng, True), _random_element(K, rng, True)
            assert hilbert_symbol(a, b) == _certified_hilbert_search(a, b), (K, a, b)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 10007])
def test_is_square_rational_against_residue_loop(p):
    ctx = PadicContext(p)
    rng = random.Random(p)
    k = ctx.v4 + 1
    for _ in range(40):
        x = Fraction(rng.randint(1, 10 ** 6) * rng.choice([1, -1]), rng.randint(1, 1000))
        x *= Fraction(p) ** rng.randint(-2, 2)
        v, n, d = unit_split(x.numerator, x.denominator, p)
        target = rational_mod_pk(Fraction(n, d), p, k)
        want = v % 2 == 0 and any((a * a - target) % p ** k == 0 for a in range(1, p ** k))
        assert is_square_rational(x, ctx) == want, (x, p)


def test_tame_symbol_relations_beyond_the_search_cap():
    """Over Q_7[t]/(t^3+t+1) the search exceeds its cap; check the symbol's laws."""
    K = LocalField(poly([1, 1, 0, 1], PadicContext(7)))
    rng = random.Random(37)
    for _ in range(8):
        a, b, c = (_random_element(K, rng, True) for _ in range(3))
        assert hilbert_symbol(a, b) * hilbert_symbol(a, c) == hilbert_symbol(a, b * c)
        assert hilbert_symbol(a, -a) == 1
        if not (1 - a).is_zero():
            assert hilbert_symbol(a, 1 - a) == 1


def _dyadic_fields():
    """Fields over Q_2 with (e, f) in {(1,2), (2,1), (1,3), (3,1), (2,2), (4,1)}."""
    c2 = PadicContext(2)
    return [
        LocalField(poly([1, 1, 1], c2)),  # e = 1, f = 2
        LocalField(poly([-2, 0, 1], c2)),  # e = 2, f = 1
        LocalField(poly([2, 2, 1], c2)),  # e = 2, f = 1: Q_2(i)
        LocalField(poly([-6, 0, 1], c2)),  # e = 2, f = 1
        LocalField(poly([1, 1, 0, 1], c2)),  # e = 1, f = 3
        LocalField(poly([1, 0, 1, 1], c2)),  # e = 1, f = 3
        LocalField(poly([-2, 0, 0, 1], c2)),  # e = 3, f = 1
        LocalField(poly([4, 0, 2, 0, 1], c2)),  # e = 2, f = 2
        LocalField(poly([-2, 0, 0, 0, 1], c2)),  # e = 4, f = 1
        LocalField(poly([2, 2, 0, 0, 1], c2)),  # e = 4, f = 1
        # a non-default uniformizer pi = -2
        LocalField(poly([-2, 0, 1], PadicContext(2, uniformizer=Fraction(-2)))),
    ]


def _dyadic_element(K, rng, irrational=False):
    """Random elements, with units near 1 (1 + 2^k z) among them."""
    while True:
        z = K.element([rng.randint(-9, 9) for _ in range(K.degree)])
        x = rng.choice([z, 1 + 2 * z, 1 + 4 * z, 1 + 8 * z])
        x = x * K.uniformizer_elt ** rng.randint(-1, 3)
        if any(x.coeffs[1:]) if irrational else not x.is_zero():
            return x


def _check_symbol_laws(K, rng, rounds):
    for _ in range(rounds):
        a, b, c = (_dyadic_element(K, rng, True) for _ in range(3))
        s = hilbert_symbol(a, b)
        assert s == hilbert_symbol(b, a), (K, a, b)
        assert s * hilbert_symbol(a, c) == hilbert_symbol(a, b * c), (K, a, b, c)
        assert hilbert_symbol(a, -a) == 1, (K, a)
        if not (1 - a).is_zero():
            assert hilbert_symbol(a, 1 - a) == 1, (K, a)


def test_dyadic_closed_forms_against_searches():
    """Square-class coordinates and the Hilbert form at p = 2 against the lattice searches."""
    rng = random.Random(41)
    fields = _dyadic_fields()
    assert {(K.ramification_index, K.residue_degree) for K in fields} >= {
        (1, 2), (2, 1), (1, 3), (3, 1), (2, 2), (4, 1)}
    for K in fields:
        if K.degree <= 3:
            for _ in range(4):
                x = _dyadic_element(K, rng)
                s = _dyadic_element(K, rng)
                for y in (x, x * s * s, s * s):
                    w = y.w()
                    want = w % 2 == 0 and _is_square_search(_unit(y, w))
                    assert is_square(y) == want, (K, y)
        xs = [_dyadic_element(K, rng) for _ in range(4)]
        xs += [x * _dyadic_element(K, rng) ** 2 for x in xs]
        xs += [xs[0] * b for b in K._dyadic.basis_classes()]
        tags = [square_class(x) for x in xs]
        for (x, tx), (y, ty) in itertools.combinations(zip(xs, tags), 2):
            assert (tx == ty) == is_square(x / y), (K, x, y)
        if K.degree == 2:
            for _ in range(3):
                a, b = _dyadic_element(K, rng, True), _dyadic_element(K, rng, True)
                assert hilbert_symbol(a, b) == _certified_hilbert_search(a, b), (K, a, b)
        for _ in range(6):
            a = _dyadic_element(K, rng)
            r = Fraction(rng.choice([1, -1]) * rng.randint(1, 40), rng.randint(1, 6))
            assert K._dyadic.symbol(a, K.embed(r)) == hilbert_symbol(a, r), (K, a, r)
        _check_symbol_laws(K, rng, 3)


def test_dyadic_symbol_laws_beyond_the_search_cap():
    """Over Q_2[t]/(t^6 + 2t^3 + 4) (e = 3, f = 2) the lattice search is out of reach."""
    K = LocalField(poly([4, 0, 0, 2, 0, 0, 1], PadicContext(2)))
    assert (K.ramification_index, K.residue_degree) == (3, 2)
    _check_symbol_laws(K, random.Random(43), 6)


def test_no_numpy_at_runtime():
    """Squares, square classes and two-irrational symbols at p = 2 never import numpy."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys\n"
        "from padicforms import LocalField, PadicContext, PadicPolynomial,"
        " hilbert_symbol, is_square, square_class\n"
        "c2 = PadicContext(2)\n"
        "K = LocalField(PadicPolynomial.from_rationals([-2, 0, 0, 0, 1], c2))\n"
        "a, b = K.element([1, 1]), K.element([3, 0, 1])\n"
        "print(is_square(a), square_class(b).parity, hilbert_symbol(a, b))\n"
        "assert 'numpy' not in sys.modules\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    assert out.returncode == 0, out.stderr
