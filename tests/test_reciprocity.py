"""The polynomial Legendre symbol and its laws."""

import random
from fractions import Fraction

import pytest

from padicforms import (
    NotCoprime,
    NotIrreducible,
    check_multiplicativity,
    check_reciprocity,
    constant_symbol_check,
    explicit_square_criterion,
    hilbert_symbol_qp,
    legendre_symbol,
    run_law_corpus,
)
from padicforms.quadform import DiagonalForm, isotropic_over_local, residue_field
from padicforms.reciprocity import (
    _value_at_root,
    certify_modulus,
    random_certified_irreducible,
    random_coprime_poly,
)

from conftest import poly


def symbol_via_isotropy(p, q, ctx) -> int:
    """The symbol computed through the 4-dimensional isotropy test.

    <p/q> = +1 iff <1, pi, -p(alpha), -pi p(alpha)> is isotropic over
    K(alpha); a representation cross-check against i2_class.
    """
    field, u = _value_at_root(p, q, ctx)
    pi = field.coerce(ctx.uniformizer)
    form = DiagonalForm.make([field.one, pi, -u, -(u * pi)], field)
    return 1 if isotropic_over_local(form) else -1


def test_symbol_worked_examples(c3):
    t = poly([0, 1], c3)
    tm3 = poly([-3, 1], c3)
    tm1 = poly([-1, 1], c3)
    # <t/(t-3)> = class of <1,3><1,-3>, zero since (3,-3) = 1
    assert hilbert_symbol_qp(Fraction(3), Fraction(-3), c3) == 1
    assert legendre_symbol(t, tm3, c3) == 1
    # <(t-1)/(t-3)> = (2, -3) = -1
    assert hilbert_symbol_qp(Fraction(2), Fraction(-3), c3) == -1
    assert legendre_symbol(tm1, tm3, c3) == -1
    # pi-power invariance
    base = legendre_symbol(tm1, tm3, c3)
    for n in (1, 2, 3):
        assert legendre_symbol(tm1 * Fraction(3) ** n, tm3, c3) == base


def test_symbol_over_extension_modulus(c3):
    q = poly([-3, 0, 1], c3)  # t^2 - 3, ramified
    t = poly([0, 1], c3)
    # <t / (t^2-3)> = (N(alpha), -3) = (-3, -3) = -1
    assert hilbert_symbol_qp(Fraction(-3), Fraction(-3), c3) == -1
    assert legendre_symbol(t, q, c3) == -1
    # <-1 / (t^2-3)> = +1 by the constant rule (even degree)
    assert legendre_symbol(poly([-1], c3), q, c3) == 1


def test_symbol_errors(c3):
    q = poly([-3, 1], c3)
    with pytest.raises(NotCoprime):
        legendre_symbol(poly([-3, 1], c3), q, c3)
    with pytest.raises(NotCoprime):
        legendre_symbol(poly([-6, 2], c3), q, c3)
    with pytest.raises(NotIrreducible):
        legendre_symbol(poly([1], c3), poly([-1, 0, 1], c3), c3)
    with pytest.raises(NotIrreducible):
        certify_modulus(poly([-1, 0, 2], c3), c3)  # not monic


def test_symbol_error_types_agree(c3):
    """The three readings of p(alpha) refuse the same inputs with the same errors."""
    q = poly([-3, 1], c3)
    readings = (legendre_symbol, explicit_square_criterion, symbol_via_isotropy)
    for symbol in readings:
        for p in (poly([0], c3), poly([-3, 1], c3), poly([9, -6, 1], c3) * 5):
            with pytest.raises(NotCoprime):
                symbol(p, q, c3)
        for modulus in (poly([-6, 2], c3), poly([2, 0, 2], c3)):  # not monic
            with pytest.raises(NotIrreducible):
                symbol(poly([1, 1], c3), modulus, c3)


def test_multiplicativity_examples(c3):
    q = poly([-3, 1], c3)
    p = poly([-1, 1], c3)
    res = check_multiplicativity(p, p, q, c3)
    assert res.holds and res.values["lhs"] == 1
    res2 = check_multiplicativity(p, poly([5, 2], c3), q, c3)
    assert res2.holds


def test_constant_rule(c3):
    # even-degree modulus forces +1
    q = poly([-3, 0, 1], c3)
    for c in (2, 3, 5, -1, 7):
        res = constant_symbol_check(c, q, c3)
        assert res.holds and res.values["lhs"] == 1
    res = constant_symbol_check(2, poly([-3, 1], c3), c3)
    assert res.holds and res.values["lhs"] == -1 and res.values["c_over_t"] == -1


def test_reciprocity_worked_example(c3):
    p = poly([-1, 1], c3)
    q = poly([-3, 1], c3)
    res = check_reciprocity(p, q, c3)
    assert res.holds
    assert res.values == {
        "p_over_q": -1,
        "minus_one_over_t": -1,
        "q_over_p": 1,
        "exponent": 1,
    }


def test_reciprocity_even_degrees_symmetric(c3):
    rng = random.Random(47)
    found = 0
    for _ in range(200):
        p = random_certified_irreducible(rng, c3, max_deg=2)
        q = random_certified_irreducible(rng, c3, max_deg=2)
        if p == q or (p.degree * q.degree) % 2:
            continue
        assert legendre_symbol(p, q, c3) == legendre_symbol(q, p, c3)
        found += 1
        if found >= 15:
            break
    assert found >= 15


def test_law_corpora_small(contexts):
    for ctx in contexts:
        for law in ("check-mult", "constant", "pi-invariance", "check-recip"):
            s = run_law_corpus(ctx, law, 25, seed=101)
            assert s["passes"] == s["cases"] == 25, (ctx.p, law, s["failures"][:2])


def test_square_criterion_odd_p(c3, c5):
    for ctx in (c3, c5):
        s = run_law_corpus(ctx, "square-criterion", 30, seed=7)
        assert s["passes"] == 30
    # ramified even-e modulus where the naive formulation would misfire:
    q = poly([-3, 0, 1], c3)
    minus_one = poly([-1], c3)
    assert legendre_symbol(minus_one, q, c3) == 1
    assert explicit_square_criterion(minus_one, q, c3) == 1


def test_representation_consistency(contexts):
    rng = random.Random(53)
    for ctx in contexts:
        for _ in range(8):
            q = random_certified_irreducible(rng, ctx, max_deg=3)
            p = random_coprime_poly(rng, ctx, q)
            assert legendre_symbol(p, q, ctx) == symbol_via_isotropy(p, q, ctx)


def test_laws_hold_for_alternate_uniformizer(c3):
    """The symbol depends on pi, but every law holds for any choice."""
    from padicforms import PadicContext

    alt = PadicContext(3, uniformizer=Fraction(6))
    for law in ("check-mult", "constant", "pi-invariance", "check-recip"):
        s = run_law_corpus(alt, law, 15, seed=3)
        assert s["passes"] == 15, (law, s["failures"][:2])
    # and the value genuinely depends on the choice: <3/t> flips sign
    three = poly([3], c3)
    t_std = poly([0, 1], c3)
    assert legendre_symbol(three, t_std, c3) == 1
    three_alt = poly([3], alt)
    t_alt = poly([0, 1], alt)
    assert legendre_symbol(three_alt, t_alt, alt) == -1


def test_random_irreducibles_are_certified(contexts):
    rng = random.Random(59)
    for ctx in contexts:
        degs = set()
        for _ in range(25):
            q = random_certified_irreducible(rng, ctx, max_deg=4)
            degs.add(q.degree)
            certify_modulus(q, ctx)
        assert max(degs) >= 3


def test_symbol_value_and_evidence(c3):
    """The value comes from legendre_symbol, the modulus evidence from certify_modulus."""
    linear = poly([-3, 1], c3)
    assert legendre_symbol(poly([-1, 1], c3), linear, c3) == -1
    assert certify_modulus(linear, c3)[1] == "linear"
    ramified = poly([-3, 0, 1], c3)
    assert legendre_symbol(poly([0, 1], c3), ramified, c3) == -1
    assert "degree" in certify_modulus(ramified, c3)[1]
    with pytest.raises(NotCoprime):
        legendre_symbol(linear, linear, c3)


def test_quartic_modulus_pinned_by_law(c2, c3):
    """For linear p, <p/q> over a quartic modulus is determined by base 
    symbols through the reciprocity law, independently of the projection.
    """
    from padicforms import hilbert_symbol_qp
    from padicforms.quadform import i2_class

    rng = random.Random(71)
    total = 0
    for ctx in (c2, c3):
        done = 0
        for _try in range(400):
            if done >= 5:
                break
            q = random_certified_irreducible(rng, ctx, max_deg=4)
            if q.degree != 4:
                continue
            r = Fraction(rng.randint(-9, 9))
            p = poly([-r, 1], ctx)
            if q.evaluate(r) == 0:
                continue
            lhs = legendre_symbol(p, q, ctx)  # norm projection route
            # law route: <p/q> = <-1/t>^(4*1) <q/p> = <q/p> = i2(q(r)) over Q_p
            rhs = i2_class(q.evaluate(r), ctx)
            assert lhs == rhs, (ctx.p, p.to_text(), q.to_text())
            done += 1
        total += done
    assert total >= 10


def test_linear_moduli_leave_the_field_cache_alone(c3):
    """Symbols over many linear moduli do not evict a field built earlier."""
    field = residue_field(poly([1, 0, 1], c3), c3)
    for r in range(40):
        legendre_symbol(poly([1, 0, 1], c3), poly([-3 * r - 1, 1], c3), c3)
    assert residue_field(poly([1, 0, 1], c3), c3) is field
