"""The valuation predicate, its certificates, and the elliptic constants."""

import math
import random
from fractions import Fraction

import pytest

from padicforms import (
    EvenValuation,
    FactorizationUncertified,
    PadicContext,
    PreconditionFailed,
    RationalFunction,
    anisotropy_at_t,
    build_f,
    choose_c,
    corollary_isotropy,
    elliptic_constant_point,
    find_gamma,
    predicate_vt_nonneg,
    run_predicate_corpus,
)
from padicforms.h10 import validate_gamma
from padicforms.quadform import i2_class

from conftest import poly


def rf(num, den, ctx):
    return RationalFunction(poly(num, ctx), poly(den, ctx))


def test_find_gamma(contexts):
    for ctx in contexts:
        g = find_gamma(ctx)
        assert i2_class(g, ctx) == -1
        validate_gamma(g, ctx)
    with pytest.raises(PreconditionFailed):
        validate_gamma(Fraction(1), contexts[0])
    # the closed form holds for every uniformizer a p / b with p prime to a b
    rng = random.Random(15)
    for p in (2, 3, 5, 7, 11, 101):
        expected = 5 if p == 2 else min(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)
        for _ in range(8):
            a, b = (rng.choice([k for k in range(-60, 61) if k % p]) for _ in range(2))
            ctx = PadicContext(p, uniformizer=Fraction(a * p, b))
            g = find_gamma(ctx)
            assert g == expected and i2_class(g, ctx) == -1


def test_build_f_cases(c3):
    # x = 0: f = 1 + t + c t^2
    rep = build_f(rf([0, 0], [1], c3), Fraction(1, 3), c3)
    assert rep.v_t_f == 0 and rep.v_t_h == 0
    # x = 1/t: h = t (1 + t + t^2) / (1 + t^2), v_t(h) = 1
    rep = build_f(rf([1], [0, 1], c3), 0, c3)
    assert rep.v_t_h == 1
    target = rf([0, 1, 1, 1], [1, 0, 1], c3)
    assert RationalFunction(rep.h_num, rep.h_den).equals(target)
    assert rep.v_t_f == 1
    # x = t: v_t(h) = 0, v_infinity(h) = -1
    rep = build_f(rf([0, 1], [1], c3), 0, c3)
    assert rep.v_t_h == 0 and rep.v_inf_h == -1


def test_build_f_infinity_cases(c3):
    # v_inf(x) >= 1 and v_inf(x) <= 0 both give v_inf(h) = -1
    for num, den in (([1], [0, 0, 1]), ([0, 0, 1], [1]), ([1, 1], [2, 1])):
        rep = build_f(rf(num, den, c3), 0, c3)
        assert rep.v_inf_h == -1


def test_choose_c_examples(c3):
    # h = 1: vertices (0,0) and (2, v(c))
    w = choose_c(poly([1], c3), poly([1], c3), c3)
    assert c3.vp(w.c) <= -1
    assert w.polygon.all_vertices_even()
    assert [i for i, _ in w.polygon.vertices] == [0, 2]
    # h = 1 + t: c with v(c) <= -1 puts (1, 0) strictly above the hull
    w2 = choose_c(poly([1, 1], c3), poly([1], c3), c3)
    assert w2.polygon.all_vertices_even()
    assert (1, 0) not in w2.polygon.vertices
    # h with denominator of degree 1
    w3 = choose_c(poly([1, 1], c3), poly([1, 2], c3), c3)
    assert w3.polygon.all_vertices_even()
    assert w3.g.degree == 4


def test_choose_c_preconditions(c3):
    with pytest.raises(PreconditionFailed):
        choose_c(poly([0, 1], c3), poly([1], c3), c3)  # v_t(h) = 1
    with pytest.raises(PreconditionFailed):
        choose_c(poly([1, 0, 0, 0, 1], c3), poly([1], c3), c3)  # v_inf < -2


def test_anisotropy_at_t(c3):
    res = anisotropy_at_t(rf([0, 1], [1], c3), 2, c3)
    assert res.anisotropic_form == 1 and res.phi1_nonzero
    assert res.first_residue_anisotropic and res.second_residue_anisotropic
    res2 = anisotropy_at_t(rf([0, 2], [1], c3), 2, c3)
    assert res2.anisotropic_form == 2 and not res2.phi1_nonzero and res2.phi2_nonzero
    with pytest.raises(EvenValuation):
        anisotropy_at_t(rf([0, 0, 1], [1], c3), 2, c3)


def test_predicate_worked_examples(c3):
    v, cert = predicate_vt_nonneg(rf([0, 1], [1], c3), c3, gamma=2)  # x = t
    assert v and cert.witness is not None and cert.witness.polygon.all_vertices_even()
    v, cert = predicate_vt_nonneg(rf([1], [0, 1], c3), c3, gamma=2)  # x = 1/t
    assert not v
    assert cert.anisotropy.c_independent and cert.anisotropy.v_t_f == 1
    v, cert = predicate_vt_nonneg(rf([0, 0], [1], c3), c3, gamma=2)  # x = 0
    assert v


def test_predicate_full_construction_demo(c3):
    # x = 0 gives g = 1 + t + c t^2, a single Eisenstein block
    v, cert = predicate_vt_nonneg(rf([0, 0], [1], c3), c3, gamma=2)
    assert v
    g = cert.witness.g
    assert corollary_isotropy(2, g, c3).isotropic and corollary_isotropy(2, g * 2, c3).isotropic


def test_predicate_full_construction_uncertifiable(c3):
    # x = t makes h_D = 1 + t^4 whose factors cannot be written exactly
    v, cert = predicate_vt_nonneg(rf([0, 1], [1], c3), c3, gamma=2)
    assert v
    with pytest.raises(FactorizationUncertified):
        corollary_isotropy(2, cert.witness.g, c3)


def test_predicate_agreement_small(contexts):
    for ctx in contexts:
        s = run_predicate_corpus(ctx, 25, seed=13)
        assert s["passes"] == 25, s["failures"][:2]


def test_elliptic_examples(c2, c3):
    x, w = elliptic_constant_point(3, c3, 3)
    assert x % 27 == 18
    assert (5832 - 18 - 9) == 27 * 215  # 18^3 - 18 - 9
    x2, _ = elliptic_constant_point(2, c2, 2)
    assert x2 % 8 == 4
    x3, w3 = elliptic_constant_point(0, c3, 10)
    assert x3 == 0 and w3.residual_valuation == math.inf
    with pytest.raises(PreconditionFailed):
        elliptic_constant_point(1, c3)


def test_elliptic_residual_precision(contexts):
    rng = random.Random(61)
    for ctx in contexts:
        for _ in range(4):
            y = Fraction(ctx.p) ** rng.randint(1, 3) * rng.choice([1, 2, -1])
            x, w = elliptic_constant_point(y, ctx, 45)
            val = ctx.vp(Fraction(x) ** 3 - Fraction(x) - y * y)
            assert val > 45
