"""Quadratic forms: local isotropy, residue splits, Witt-class tests."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicforms import (
    DiagonalForm,
    FunctionFieldForm,
    LocalField,
    PadicContext,
    PadicFormsError,
    PadicPolynomial,
    PreconditionFailed,
    PfisterSlot,
    hilbert_symbol,
    i2_class,
    is_square,
    isotropic_over_local,
    milnor_isotropy,
    second_residue,
    springer_anisotropy,
    square_class,
    square_class_rational,
    square_class_representatives,
    witt_zero,
)
from padicforms.oracles import isotropic_by_search
from padicforms.quadform import at_place, pfister_residue_test, residue_field
from padicforms.reciprocity import random_certified_irreducible, random_coprime_poly

from conftest import poly


def test_isotropy_basics(c3, c2):
    assert isotropic_over_local(DiagonalForm.make([1, -1], c3))
    assert not isotropic_over_local(DiagonalForm.make([1, 1], c3))
    assert isotropic_over_local(DiagonalForm.make([1, 1], c2)) is False
    assert not isotropic_over_local(DiagonalForm.make([5], c3))


def test_quaternion_norm_form(c3):
    # (2, 3)_3 = -1, so <1,-2,-3,6> is the division algebra norm form
    aniso = DiagonalForm.make([1, -2, -3, 6], c3)
    assert not isotropic_over_local(aniso)
    verdict, _ = isotropic_by_search([Fraction(1), Fraction(-2), Fraction(-3), Fraction(6)], c3)
    assert not verdict
    # <1,3,2,6> is the 2-Pfister <<3,2>>; (-3,-2)_3 = +1, so it is isotropic:
    # (1, 3, 1, 2) is a primitive zero modulo 27 with Hensel slack
    assert (1 + 3 * 9 + 2 + 6 * 4) % 27 == 0
    iso = DiagonalForm.make([1, 3, 2, 6], c3)
    assert isotropic_over_local(iso)
    verdict, witness = isotropic_by_search([Fraction(1), Fraction(3), Fraction(2), Fraction(6)], c3)
    assert verdict and witness["slack_coordinate"] is not None


def test_five_dimensional_always_isotropic(c2, contexts):
    rng = random.Random(31)
    form5 = DiagonalForm.make([1, 5, 3, 7, 2], c2)
    assert isotropic_over_local(form5)
    verdict, witness = isotropic_by_search([Fraction(x) for x in (1, 5, 3, 7, 2)], c2)
    assert verdict and witness["solution"] != [0] * 5
    for ctx in contexts:
        for _ in range(6):
            entries = [Fraction(rng.randint(-20, 20) or 3) for _ in range(rng.randint(5, 7))]
            assert isotropic_over_local(DiagonalForm.make(entries, ctx))


def test_small_dims_match_oracle(contexts):
    """Exhaustive over square-class multisets: isotropy is permutation-invariant."""
    from itertools import combinations_with_replacement

    for ctx in contexts:
        reps = square_class_representatives(ctx)
        for dim in (2, 3, 4):
            for entries in combinations_with_replacement(reps, dim):
                got = isotropic_over_local(DiagonalForm.make(entries, ctx))
                want, _ = isotropic_by_search(list(entries), ctx)
                assert got == want, (ctx.p, entries)


def test_i2_class(c3):
    assert i2_class(Fraction(4), c3) == 1
    assert i2_class(Fraction(2), c3) == -1  # (2, -3) via Legendre of 2 mod 3
    for n in (1, 2, 3):
        assert i2_class(Fraction(2) * 3 ** n, c3) == -1  # pi-power invariance
    # +1 iff <1, pi, -u, -pi u> isotropic
    for u in (2, 3, 5, 7, 10):
        form = DiagonalForm.make([1, 3, -u, -3 * u], c3)
        assert (i2_class(Fraction(u), c3) == 1) == isotropic_over_local(form)


def test_witt_zero(c3):
    assert witt_zero(DiagonalForm.make([1, -1], c3))
    assert not witt_zero(DiagonalForm.make([1, 1], c3))
    assert witt_zero(DiagonalForm.make([1, -1, 2, -2], c3))
    assert not witt_zero(DiagonalForm.make([1, -2, -3, 6], c3))
    # <1,3,2,6> is an isotropic 2-fold Pfister form, hence hyperbolic
    assert witt_zero(DiagonalForm.make([1, 3, 2, 6], c3))
    assert not witt_zero(DiagonalForm.make([1, 1, 1], c3))  # odd dimension


def pfister(slots, field):
    """<<s_1, ..., s_n>> = tensor of <1, s_i>, expanded to 2^n entries."""
    entries = [field.one]
    for s in slots:
        entries = entries + [e * field.coerce(s) for e in entries]
    return DiagonalForm.make(entries, field)


def test_pfister_expansion_and_dichotomy(contexts):
    rng = random.Random(41)
    for ctx in contexts:
        reps = square_class_representatives(ctx)
        for _ in range(10):
            slots = [rng.choice(reps) for _ in range(2)]
            form = pfister(slots, ctx)
            assert form.dim == 4
            iso = isotropic_over_local(form)
            if iso:
                assert witt_zero(form)  # isotropic Pfister forms are hyperbolic
        threefold = pfister([rng.choice(reps) for _ in range(3)], ctx)
        assert threefold.dim == 8 and isotropic_over_local(threefold)
        verdict, _ = isotropic_by_search(list(threefold.entries), ctx)
        assert verdict


def test_second_residue_worked_examples(c3):
    tp = poly([0, 1], c3)
    pi = Fraction(3)
    gamma = Fraction(2)
    f = poly([0, 0, 0, 5], c3)  # f = 5 t^3, odd order at t
    entries = [poly([c], c3) for c in (1, pi, -gamma, -pi * gamma)]
    entries += [-tp, -tp * pi, -f, -f * pi]
    form = FunctionFieldForm(tuple(entries), c3)
    split = second_residue(form, tp)
    # second form is <1,pi><-1,-f_n> with f_n = 5
    want = [square_class_rational(x, c3) for x in (-1, -pi, -5, -pi * 5)]
    got = sorted(square_class_rational(e, c3) for e in split.second_form.entries)
    assert sorted(want) == got
    first_want = [square_class_rational(x, c3) for x in (1, pi, -gamma, -pi * gamma)]
    assert sorted(square_class_rational(e, c3) for e in split.first_form.entries) == sorted(first_want)

    one = FunctionFieldForm((poly([1], c3),), c3)
    assert second_residue(one, tp).second_form.dim == 0
    q = poly([-3, 0, 1], c3)
    just_q = FunctionFieldForm((q,), c3)
    sp = second_residue(just_q, q)
    assert sp.second_form.dim == 1 and sp.second_form.entries[0] == sp.residue_field.one


def test_second_residue_reconstruction(c3):
    rng = random.Random(43)
    q = poly([-3, 0, 1], c3)
    for _ in range(20):
        v = rng.randint(0, 3)
        cof = poly([rng.randint(-9, 9) or 1, rng.randint(-9, 9)], c3)
        if (cof % q).is_zero():
            continue
        entry = q ** v * cof
        field, got_v, image = at_place(entry, q, c3)
        assert got_v == v and image == field.from_poly(cof)


PLACE_CONTEXTS = {p: PadicContext(p) for p in (2, 3, 5, 7)}


@st.composite
def places(draw):
    """(q, g, k): a certified monic irreducible q of degree 1-4, g prime to q, k in 0..3."""
    ctx = PLACE_CONTEXTS[draw(st.sampled_from(sorted(PLACE_CONTEXTS)))]
    degree = draw(st.integers(1, 4))
    rng = random.Random(draw(st.integers(0, 2**32)))
    q = random_certified_irreducible(rng, ctx)
    while q.degree != degree:
        q = random_certified_irreducible(rng, ctx)
    return q, random_coprime_poly(rng, ctx, q), draw(st.integers(0, 3))


@settings(max_examples=80)
@given(places())
def test_at_place_reads_the_order_and_the_image(case):
    q, g, k = case
    ctx = q.field
    field, v, u = at_place(q ** k * g, q, ctx)
    want = g.evaluate(-q.constant_coefficient()) if q.degree == 1 else field.from_poly(g)
    assert field is residue_field(q, ctx)
    assert v == k and u == want and not field.is_zero(u)
    with pytest.raises(PreconditionFailed):
        at_place(PadicPolynomial.zero(ctx), q, ctx)
    for c in (-1, ctx.p, Fraction(1, 2)):
        with pytest.raises(PreconditionFailed):
            at_place(g, q * c, ctx)


def test_residue_test_at_a_place_that_is_not_monic(c3):
    """2t - 2 is the place t - 1, read at the wrong point before at_place checked it."""
    x, y = poly([-1, 1], c3), poly([0, 1], c3)
    at_root = pfister_residue_test(x, y, poly([-1, 1], c3), c3)
    assert (at_root.symbol_value, at_root.is_zero) == (-1, False)  # i2(-1) = -1 at p = 3
    with pytest.raises(PadicFormsError):
        pfister_residue_test(x, y, poly([-2, 2], c3), c3)
    with pytest.raises(PreconditionFailed):
        pfister_residue_test(poly([0], c3), y, poly([-1, 1], c3), c3)


def test_form_constructors(c3):
    a = DiagonalForm.make([1, -1], c3)
    b = DiagonalForm.make([2, 3], c3)
    perp = DiagonalForm.make(a.entries + b.entries, c3)
    assert perp.dim == 4
    assert perp.discriminant() == -6
    scaled = b.scaled(Fraction(1, 2))
    assert scaled.entries == (Fraction(1), Fraction(3, 2))
    assert isotropic_over_local(perp)  # contains a hyperbolic plane


def test_forms_are_immutable_values(c3):
    """Checked on construction; compared, hashed and printed by their fields, as frozen dataclasses were."""
    with pytest.raises(PreconditionFailed, match="^form entries must be nonzero$"):
        DiagonalForm.make([1, 0], c3)
    with pytest.raises(PreconditionFailed, match="^form entries must be nonzero$"):
        FunctionFieldForm((poly([1, 1], c3), poly([0], c3)), c3)
    ctx_repr = "PadicContext(p=3, precision_digits=64, uniformizer=Fraction(3, 1))"
    form = DiagonalForm.make([1, -2], c3)
    assert repr(form) == f"DiagonalForm(entries=(Fraction(1, 1), Fraction(-2, 1)), field={ctx_repr})"
    assert form == DiagonalForm((Fraction(1), Fraction(-2)), PadicContext(3))
    assert hash(form) == hash(DiagonalForm((Fraction(1), Fraction(-2)), PadicContext(3)))
    assert form != (form.entries, form.field) and form != DiagonalForm.make([1, -2], PadicContext(5))
    ff = FunctionFieldForm((poly([1, 1], c3),), c3)
    assert repr(ff) == f"FunctionFieldForm(entries=(PadicPolynomial('t + 1' over Q_3),), context={ctx_repr})"
    assert ff == FunctionFieldForm((poly([1, 1], c3),), c3) and ff != form
    assert hash(ff) == hash(FunctionFieldForm((poly([1, 1], c3),), c3))
    for value, name in ((form, "entries"), (form, "field"), (ff, "context"), (ff, "dim")):
        with pytest.raises(AttributeError):
            setattr(value, name, ())
    assert form.dim == 2 and ff.dim == 1


def test_springer(c3):
    tp = poly([0, 1], c3)
    pi, gamma = Fraction(3), Fraction(2)
    # the form <1,pi><1,-gamma,-t,-f> with f = t: both residues at t nonzero
    entries = [poly([c], c3) for c in (1, pi, -gamma, -pi * gamma)]
    entries += [-tp, -pi * tp, -tp, -pi * tp]
    form = FunctionFieldForm(tuple(entries), c3)
    assert springer_anisotropy(form, tp)
    hyper = FunctionFieldForm((poly([1], c3), poly([-1], c3)), c3)
    assert not springer_anisotropy(hyper, q=poly([-1, 1], c3))
    # i2 values behind the worked example: <1,3><-1,-1> and <1,3><1,-2> nonzero
    assert i2_class(Fraction(-1), c3) == -1
    assert i2_class(Fraction(2), c3) == -1


def test_pfister_residue_cases(c3):
    tp = poly([0, 1], c3)
    x = tp * 2          # odd at t
    y = poly([7], c3)   # unit at t
    test = pfister_residue_test(x, y, tp, c3)
    assert (test.parity_x, test.parity_y) == (1, 0)
    assert test.is_zero == (i2_class(Fraction(-7), c3) == 1)
    both = pfister_residue_test(tp, tp * 5, tp, c3)
    assert (both.parity_x, both.parity_y) == (1, 1)
    assert both.is_zero == (i2_class(Fraction(-5), c3) == 1)


def test_milnor_trivial_and_negative(c3):
    tp = poly([0, 1], c3)
    # x = -1 makes the form contain <1,-1>: every residue vanishes
    verdict = milnor_isotropy(
        PfisterSlot(Fraction(-1), ()), PfisterSlot(Fraction(1), ((tp, 1),)), c3
    )
    assert verdict.isotropic
    # x = t, y = -gamma t with i2(gamma) = -1: residue at t does not vanish
    bad = milnor_isotropy(
        PfisterSlot(Fraction(1), ((tp, 1),)), PfisterSlot(Fraction(-2), ((tp, 1),)), c3
    )
    assert not bad.isotropic
    assert bad.failing_place == tp
    assert bad.verdict == "not decided by this rule"


def test_isotropy_over_extension(c3):
    K = LocalField(poly([-3, 0, 1], c3))
    # <1, -alpha^2> = <1, -3>: isotropic since 3 is a square in K
    assert isotropic_over_local(DiagonalForm.make([K.one, -(K.gen() ** 2)], K))
    # <1, 1>: anisotropic (-1 not a square in K)
    assert not isotropic_over_local(DiagonalForm.make([K.one, K.one], K))
    # 4-dimensional <1,pi><1,-gamma> over K with pi = 3 square: isotropic
    form = DiagonalForm.make([1, 3, -2, -6], K)
    assert isotropic_over_local(form)


@pytest.mark.parametrize(
    "prime, minimal_poly, values",
    [
        (3, None, [2, 3, -1, 12, 7, -6]),
        (2, None, [1, 2, 3, 5, -1, 6, 7]),
        (3, [-3, 0, 1], [2, -1, 3, 5, 6]),
    ],
    ids=["Q_3", "Q_2", "Q_3(sqrt 3)"],
)
def test_scalar_input_kinds_agree(prime, minimal_poly, values):
    """The field's own element, an int and a Fraction of equal value give equal answers."""
    ctx = PadicContext(prime)
    field = ctx if minimal_poly is None else LocalField(poly(minimal_poly, ctx))

    def answers(kind, x, y):
        x, y = kind(x), kind(y)
        form = DiagonalForm.make([kind(1), x, -y, -x * y], field)
        return (
            is_square(x, field),
            square_class(x, field),
            hilbert_symbol(x, y, field),
            i2_class(x, field),
            isotropic_over_local(form),
        )

    kinds = [field.coerce, int, Fraction]
    for x in values:
        for y in values:
            got = [answers(kind, x, y) for kind in kinds]
            assert got[0] == got[1] == got[2], (x, y, got)


def test_cliff_oracle_at_p31():
    """The residue search at p = 31 (q = 29,791) decides both verdicts and agrees with the criterion."""
    ctx = PadicContext(31)
    nonresidue = Fraction(ctx.least_nonresidue())
    # (nonresidue, 31)_31 = -1, so <1, -u, -31, 31 u> is the division algebra's norm form
    for entries, want in (([1, -nonresidue, -31, 31 * nonresidue], False), ([1, -1, 31, nonresidue], True)):
        entries = [Fraction(e) for e in entries]
        verdict, witness = isotropic_by_search(entries, ctx)
        assert verdict is want is isotropic_over_local(DiagonalForm.make(entries, ctx))
        if want:
            assert witness["modulus_exponent"] == 3 and witness["slack_coordinate"] is not None
            xs, norm = witness["solution"], [int(a) for a in witness["normalized_entries"]]
            assert sum(a * x * x for a, x in zip(norm, xs)) % 31 ** 3 == 0
