"""Base-field arithmetic: valuations, squares, square classes, Hilbert symbols."""

import math
import random
from fractions import Fraction

import pytest

from padicforms import (
    LocalField,
    PadicContext,
    PreconditionFailed,
    hilbert_symbol,
    hilbert_symbol_qp,
    is_square,
    is_square_rational,
    square_class_rational,
    square_class_representatives,
)
from padicforms.oracles import hilbert_by_search, isotropic_by_search
from padicforms.padics import vp_int

from conftest import poly


def test_context_validation():
    with pytest.raises(ValueError):
        PadicContext(4)
    with pytest.raises(ValueError):
        PadicContext(3, uniformizer=Fraction(9))
    with pytest.raises(ValueError):
        PadicContext(2, precision_digits=5)
    ctx = PadicContext(3, uniformizer=Fraction(6))
    assert ctx.vp(ctx.uniformizer) == 1


def _vp_by_division(n, p):
    """The reference valuation: strip one p per division."""
    n, v = abs(n), 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101, 10007])
def test_vp_int_against_division_loop(p):
    rng = random.Random(f"vp-{p}")
    valuations = [0, 1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 1023, 1024, 3000] + [
        rng.randint(0, 3000) for _ in range(10)
    ]
    for v in valuations:
        for _ in range(2):
            cofactor = rng.randint(1, 10 ** 50)
            n = rng.choice([1, -1]) * cofactor * p ** v
            assert vp_int(n, p) == _vp_by_division(n, p) == v + _vp_by_division(cofactor, p)
    with pytest.raises(ValueError):
        vp_int(0, p)


def test_valuation_examples(c3):
    assert c3.vp(Fraction(9, 2)) == 2
    assert c3.vp(0) == math.inf
    assert c3.vp(Fraction(2, 27)) == -3


def test_valuation_laws(contexts):
    rng = random.Random(1)
    for ctx in contexts:
        for _ in range(80):
            x = Fraction(rng.randint(-80, 80), rng.randint(1, 60))
            y = Fraction(rng.randint(-80, 80), rng.randint(1, 60))
            if x == 0 or y == 0:
                continue
            assert ctx.vp(x * y) == ctx.vp(x) + ctx.vp(y)
            if x + y != 0:
                assert ctx.vp(x + y) >= min(ctx.vp(x), ctx.vp(y))


def test_is_square_examples(c2, c3):
    assert is_square_rational(Fraction(17), c2)
    assert is_square_rational(Fraction(10), c3)
    assert not is_square_rational(Fraction(2), c3)
    with pytest.raises(PreconditionFailed):
        is_square_rational(Fraction(0), c3)


def test_is_square_properties(contexts):
    rng = random.Random(2)
    for ctx in contexts:
        nonres = Fraction(5) if ctx.p == 2 else Fraction(ctx.least_nonresidue())
        for _ in range(40):
            x = Fraction(rng.randint(1, 60), rng.randint(1, 60))
            assert is_square_rational(x * x, ctx)
            assert not is_square_rational(x * x * nonres, ctx)


def test_square_class_examples(c2, c3):
    assert square_class_rational(Fraction(12), c3) == 3
    assert square_class_rational(Fraction(1), c3) == 1
    assert square_class_rational(Fraction(17), c2) == 1


def test_square_class_canonical(contexts):
    rng = random.Random(3)
    for ctx in contexts:
        reps = square_class_representatives(ctx)
        assert len(reps) == (8 if ctx.p == 2 else 4)
        for rep in reps:
            assert square_class_rational(rep, ctx) == rep
        for _ in range(60):
            x = Fraction(rng.randint(-60, 60), rng.randint(1, 60))
            if x == 0:
                continue
            r = square_class_rational(x, ctx)
            assert r in reps
            assert is_square_rational(x / r, ctx)


def test_hilbert_examples(c2, c3):
    assert hilbert_symbol_qp(Fraction(2), Fraction(5), c2) == -1
    assert hilbert_symbol_qp(Fraction(3), Fraction(2), c3) == -1
    # brute-force derivation for (2,5) over Q_2: no primitive solution mod 2^6
    iso, _ = isotropic_by_search([Fraction(2), Fraction(5), Fraction(-1)], c2, modulus_exp=6)
    assert not iso


def test_hilbert_symmetry_bilinearity(contexts):
    rng = random.Random(4)
    for ctx in contexts:
        for _ in range(60):
            a = Fraction(rng.randint(-50, 50) or 1, rng.randint(1, 50))
            b = Fraction(rng.randint(-50, 50) or 1, rng.randint(1, 50))
            c = Fraction(rng.randint(-50, 50) or 1, rng.randint(1, 50))
            assert hilbert_symbol_qp(a, b, ctx) == hilbert_symbol_qp(b, a, ctx)
            assert hilbert_symbol_qp(a, b * c, ctx) == hilbert_symbol_qp(
                a, b, ctx
            ) * hilbert_symbol_qp(a, c, ctx)


def test_hilbert_standard_identities(contexts):
    rng = random.Random(5)
    for ctx in contexts:
        for _ in range(40):
            a = Fraction(rng.randint(-50, 50) or 3, rng.randint(1, 50))
            if a in (0, 1):
                continue
            assert hilbert_symbol_qp(a, -a, ctx) == 1
            assert hilbert_symbol_qp(a, 1 - a, ctx) == 1


def test_hilbert_tables_against_oracle(contexts):
    for ctx in contexts:
        reps = square_class_representatives(ctx)
        for a in reps:
            for b in reps:
                assert hilbert_symbol_qp(a, b, ctx) == hilbert_by_search(a, b, ctx), (
                    ctx.p, a, b,
                )


def test_hilbert_depends_only_on_square_class(contexts):
    rng = random.Random(6)
    for ctx in contexts:
        for _ in range(30):
            a = Fraction(rng.randint(1, 40))
            b = Fraction(rng.randint(-40, -1))
            s = Fraction(rng.randint(1, 20)) ** 2
            assert hilbert_symbol_qp(a, b, ctx) == hilbert_symbol_qp(a * s, b, ctx)


def test_element_of_another_field_is_rejected(c3):
    """An element is decided only in its own field, even when both fields are over Q_3."""
    gaussian = LocalField(poly([1, 0, 1], c3))
    ramified = LocalField(poly([-3, 0, 1], c3))
    i, root3 = gaussian.gen(), ramified.gen()
    with pytest.raises(TypeError):
        is_square(i, ramified)
    with pytest.raises(TypeError):
        hilbert_symbol(root3, i, ramified)
    with pytest.raises(TypeError):
        hilbert_symbol(i, 2, ramified)
    # in their own fields the same elements are decided
    assert is_square(i * i, gaussian) and is_square(root3 * root3, ramified)
    assert hilbert_symbol(root3, root3, ramified) == hilbert_symbol(root3, -1, ramified)
