"""Base-field arithmetic: valuations, squares, square classes, Hilbert symbols."""

import copy
import math
import pickle
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
from padicforms.padics import above_digits, vp_int

from conftest import poly


def test_context_validation():
    with pytest.raises(ValueError, match="^4 is not prime$"):
        PadicContext(4)
    with pytest.raises(ValueError, match="^uniformizer 9 has valuation != 1$"):
        PadicContext(3, uniformizer=Fraction(9))
    with pytest.raises(ValueError, match=r"^precision_digits below 2\*v\(4\) \+ 4$"):
        PadicContext(2, precision_digits=5)
    PadicContext(2, precision_digits=8)  # 2 v(4) + 4 = 8 itself is allowed
    # a float or a bool is no prime or precision, even when it equals one
    for args, bad in (((3.0,), "prime 3.0"), ((True,), "prime True"), ((3, 64.5), "precision_digits 64.5"),
                      ((3, True), "precision_digits True")):
        with pytest.raises(PreconditionFailed, match=f"^{bad} is not an int$"):
            PadicContext(*args)
    ctx = PadicContext(3, uniformizer=Fraction(6))
    assert ctx.vp(ctx.uniformizer) == 1
    assert ctx.minus_uniformizer == -6


def test_context_is_an_immutable_value():
    """Compared, hashed and printed by (p, precision_digits, uniformizer), as a frozen dataclass was."""
    ctx = PadicContext(3)
    assert ctx == PadicContext(3, 64, Fraction(3)) and hash(ctx) == hash(PadicContext(3, 64, Fraction(3)))
    assert ctx != (3, 64, Fraction(3)) and (3, 64, Fraction(3)) != ctx
    assert ctx != PadicContext(3, 65) and ctx != PadicContext(3, uniformizer=-3)
    assert len({ctx, PadicContext(3), PadicContext(5)}) == 2
    assert repr(ctx) == "PadicContext(p=3, precision_digits=64, uniformizer=Fraction(3, 1))"
    assert repr(PadicContext(2, 10, Fraction(-2, 3))) == (
        "PadicContext(p=2, precision_digits=10, uniformizer=Fraction(-2, 3))")
    for name in ("p", "uniformizer", "minus_uniformizer", "other"):
        with pytest.raises(AttributeError):
            setattr(ctx, name, 5)
    with pytest.raises(AttributeError):
        del ctx.p
    assert (ctx.p, ctx.uniformizer) == (3, 3)
    assert copy.deepcopy(ctx) == ctx and pickle.loads(pickle.dumps(ctx)) == ctx


def test_context_hash_is_taken_once_and_follows_equality():
    """Contexts built two ways for the default uniformizer are one value; another uniformizer is another."""
    for p in (2, 3, 5, 7):
        default, spelled = PadicContext(p), PadicContext(p, uniformizer=p)
        custom = PadicContext(p, uniformizer=Fraction(p * (p + 1)))
        assert default == spelled and hash(default) == hash(spelled)
        assert custom != default and hash(custom) != hash(default)
        assert hash(pickle.loads(pickle.dumps(custom))) == hash(custom)
        assert default.minus_uniformizer_digits == (1, -1 % (8 if p == 2 else p))
        assert custom.minus_uniformizer_digits == (1, -(p + 1) % (8 if p == 2 else p))


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



@pytest.mark.parametrize("p", [2, 3, 101])
def test_above_digits_is_a_valuation_test(p):
    """above_digits(num, den, p, d) is min_k v(num[k] / den) > d, decided by one division per numerator."""
    u = 2 if p != 2 else 3  # a unit
    for d in (0, 1, 5, 40):
        assert not above_digits([u * p ** d], 1, p, d)  # v = digits
        assert above_digits([u * p ** (d + 1)], 1, p, d)  # v = digits + 1
        assert not above_digits([0, p ** (d + 1), u * p ** d], 1, p, d)
        for k in (1, 3):  # a denominator carrying p^k, and a unit with it
            assert not above_digits([u * p ** (d + k)], 7 * p ** k, p, d)
            assert above_digits([u * p ** (d + k + 1), 0, -(p ** (d + k + 2))], 7 * p ** k, p, d)
    for zero in ((), (0,), [0, 0]):  # a zero residual passes at any target
        assert above_digits(zero, p ** 5, p, 10 ** 12)
    assert not above_digits([p ** 50], 1, p, 10 ** 12)  # p^(10^12) is never built
    rng = random.Random(f"above-{p}")
    for _ in range(200):
        num = [rng.choice([0, rng.randint(-10 ** 6, 10 ** 6) * p ** rng.randint(0, 30)]) for _ in range(4)]
        den, d = rng.randint(1, 50) * p ** rng.randint(0, 10), rng.randint(0, 30)
        want = all(vp_int(c, p) - vp_int(den, p) > d for c in num if c)
        assert above_digits(num, den, p, d) == want, (num, den, d)

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
