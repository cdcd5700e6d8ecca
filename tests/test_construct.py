"""The auxiliary-polynomial construction and its certified conditions."""

import dataclasses
import math
import random
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest
import sympy

from padicforms import (
    ConditionFailed,
    FactorizationUncertified,
    NotIrreducible,
    OddVertex,
    PadicContext,
    PreconditionFailed,
    construct_s,
    corollary_isotropy,
    legendre_symbol,
    parse_poly,
    prepare,
    verify_conditions,
)
from padicforms import construct
from padicforms.cli import main
from padicforms.construct import SlopeRing, _place_valuation, _rational_roots, certify_factor
from padicforms.newton import FiniteFieldPoly, newton_polygon
from padicforms.quadform import residue_field
from padicforms.reciprocity import random_certified_irreducible, random_coprime_poly

from conftest import poly


def test_prepare_t2_minus_3(c3):
    params = prepare(2, poly([-3, 0, 1], c3), c3)
    assert len(params.blocks) == 1
    b = params.blocks[0]
    assert (b.slope, b.denominator, b.degree) == (Fraction(-1, 2), 2, 2)
    assert params.big_n == 3  # smallest odd integer above deg g = 2
    assert params.epsilon == 1


def test_prepare_t2_minus_9(c3):
    params = prepare(2, poly([-9, 0, 1], c3), c3)
    b = params.blocks[0]
    assert (b.slope, b.denominator, b.degree) == (Fraction(-1), 1, 2)
    assert sorted(f.poly.to_text() for f in b.factors) == ["t + 3", "t - 3"]


def test_prepare_rejects_odd_vertex(c3):
    with pytest.raises(OddVertex):
        prepare(2, poly([1, 1], c3), c3)
    with pytest.raises(OddVertex):
        prepare(2, poly([3, -4, 1], c3), c3)  # (t-1)(t-3): interior odd vertex


def test_prepare_squarefree_reduction(c3):
    # (t^2-3) * (t-1)^2: squared factor drops out, slope parities survive
    g = poly([-3, 0, 1], c3) * poly([-1, 1], c3) ** 2
    params = prepare(2, g, c3)
    assert params.g0 == poly([-3, 0, 1], c3)


def test_prepare_uncertifiable(c3):
    # t^4 + 1 factors over Q_3 into two irrational quadratics
    with pytest.raises(FactorizationUncertified):
        prepare(2, poly([1, 0, 0, 0, 1], c3), c3)


def test_prepare_supplied_factors(c2):
    g = poly([-2, 0, 1], c2) * poly([1, 1, 1], c2)
    factors = [poly([-2, 0, 1], c2), poly([1, 1, 1], c2)]
    params = prepare(5, g, c2, factors=factors)
    assert len(params.blocks) == 2
    with pytest.raises(Exception):
        prepare(5, g, c2, factors=[poly([-2, 0, 1], c2)])


def test_slope_ring_membership_and_reduction(c3):
    ring = SlopeRing(c3, Fraction(-1, 2))
    h = poly([-1, 0, Fraction(1, 3), 0, Fraction(1, 9)], c3)  # (t^4+3t^2-9)/9
    assert ring.in_R(h) and not ring.in_P(h)
    red = ring.reduction(h)
    assert red == FiniteFieldPoly((2, 1, 1), 3)
    lifted = ring.lift(red)
    assert ring.reduction(lifted) == red
    assert ring.in_P(h - lifted) or ring.reduction(h - lifted).is_zero()


def test_case_two_worked_example(c3):
    params = prepare(2, poly([-3, 0, 1], c3), c3)
    res = construct_s(params, seed=0)
    # the first admissible valuation shift is A = 1: s = t^2 + 3 t - 3
    assert res.s_poly == poly([-3, 3, 1], c3)
    assert res.s_factors[0].data["A"] == 1
    rep = verify_conditions(res)
    assert rep.all_hold
    # the derivation equalities behind the construction
    names = {c.name for c in rep.conditions}
    assert {"sg-over-t", "ts-over-g-factor", "minus-tg-over-s-factor",
            "block-equality", "t-value-equality", "gamma-over-s-factor"} <= names
    # A is the least integer above the bound read off the margins and g_ij, and A >= v(4) + 1
    for p, gamma, texts in (
        (3, 2, ("t^2 - 3", "t^2 - 12")),  # the golden two-factor input
        (2, 5, ("t^2 - 2", "t^2 + t + 1")),  # the Q_2 two-slope demo input
        (5, 2, ("t^2 - 250", "t^2 + t + 1")),
        (7, 3, ("t^2 - 343", "t^2 + 1")),
    ):
        ctx = PadicContext(p)
        fs = [parse_poly(text, ctx) for text in texts]
        params = prepare(gamma, fs[0] * fs[1], ctx, factors=fs)
        res = construct_s(params, seed=1)
        tg = poly([0, 1], ctx) * params.g_norm
        g_ijs = [gf.poly for b in params.blocks if b.denominator % 2 == 0 for gf in b.factors]
        s_ijs = [sf for sf in res.s_factors if sf.case == 2]
        assert len(s_ijs) == len(g_ijs) >= 1
        for sf, g_ij in zip(s_ijs, g_ijs):
            p_base = (tg // g_ij) % g_ij
            edge = newton_polygon(g_ij).single_edge()
            c0 = p_base.constant_coefficient()
            bound = max(
                [Fraction(ctx.v4)]
                + [Fraction(m["max_v_g"]) + ctx.v4 - Fraction(m["min_v_p_base"])
                   for m in sf.data["margins"]]
                + [edge.line_value(b) - ctx.vp(c) for b, c in enumerate(p_base.coeffs) if c]
                + ([ctx.vp(g_ij.constant_coefficient()) + ctx.v4 - ctx.vp(c0)] if c0 else [])
            )
            a = sf.data["A"]
            assert a - 1 <= bound < a and a >= ctx.v4 + 1
            assert sf.poly == g_ij + p_base * ctx.uniformizer ** a
        assert verify_conditions(res).all_hold


def test_case_two_checks_its_margins(c3, monkeypatch):
    """A shift one below the least integer above the bound misses a margin and is refused."""
    params = prepare(2, poly([-3, 0, 1], c3), c3)
    monkeypatch.setattr(construct, "math", SimpleNamespace(floor=lambda x: math.floor(x) - 1))
    with pytest.raises(ConditionFailed, match="misses a margin"):
        construct_s(params, seed=0)


def test_case_one_identities(c3):
    params = prepare(2, poly([-9, 0, 1], c3), c3)
    res = construct_s(params, seed=1)
    assert len(res.s_factors) == 1
    sf = res.s_factors[0]
    assert sf.case == 1 and sf.poly.degree % 2 == 0
    trace = res.traces[0]
    assert trace.c == trace.a + trace.q * trace.b
    from padicforms import PadicPolynomial

    pi_pow = Fraction(3) ** int(trace.slope * trace.e)
    rebuilt = trace.r + trace.h * PadicPolynomial.monomial(pi_pow, trace.e, trace.h.field)
    assert rebuilt == trace.c
    assert trace.r.is_zero() or trace.r.degree <= trace.h.degree + trace.e - params.big_n
    rep = verify_conditions(res)
    assert rep.all_hold


def test_seed_determinism(c3):
    params = prepare(2, poly([-9, 0, 1], c3), c3)
    r1 = construct_s(params, seed=7)
    r2 = construct_s(params, seed=7)
    assert r1.s_poly == r2.s_poly
    r3 = construct_s(params, seed=8)
    assert r3.s_poly.degree % 2 == 0  # may differ but stays valid
    assert verify_conditions(r3).all_hold


def test_corrupted_s_fails_conditions(c3):
    params = prepare(2, poly([-3, 0, 1], c3), c3)
    res = construct_s(params, seed=0)
    bad_factor = dataclasses.replace(res.s_factors[0], poly=poly([3, 3, 1], c3))
    bad = dataclasses.replace(
        res, s_factors=(bad_factor,), s_poly=poly([3, 3, 1], c3) * params.epsilon
    )
    with pytest.raises(ConditionFailed):
        verify_conditions(bad)


def test_place_valuation(c3, c5):
    """v(value(alpha)) = v_p(Res(q, value)) / deg q, with sympy's resultant as oracle."""
    import sympy

    t = sympy.Symbol("t")

    def sym(f):
        return sympy.Poly(
            [sympy.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)], t
        )

    rng = random.Random(5)
    for p in (2, 3, 5, 7):
        ctx = PadicContext(p)
        seen = {d: 0 for d in (1, 2, 3, 4)}
        while min(seen.values()) < 3:
            q = random_certified_irreducible(rng, ctx, max_deg=4)
            seen[q.degree] += 1
            value = random_coprime_poly(rng, ctx, q) * Fraction(p) ** rng.randint(-2, 3)
            res = sympy.resultant(sym(q), sym(value))
            want = Fraction(sympy.multiplicity(p, res), q.degree)
            assert _place_valuation(value, q, ctx) == want, (p, q.to_text(), value.to_text())
            assert _place_valuation(value * q, q, ctx) == math.inf  # a vacuous margin

    # one certified field per modulus, whichever call built it
    for coeffs in ([-3, 1], [1, 0, 1], [-3, 0, 0, 1]):
        assert residue_field(poly(coeffs, c3), c3) is residue_field(poly(coeffs, c3), c3)
    # a linear modulus gives the context itself, Q_3's field handle
    assert residue_field(poly([-1, 1], c3), c3) is c3
    # failures are not cached: each call raises again
    for _ in range(2):
        with pytest.raises(NotIrreducible):
            residue_field(poly([-1, 0, 1], c3), c3)
        with pytest.raises(PreconditionFailed, match="context mismatch"):
            residue_field(poly([1, 0, 1], c3), c5)


def test_corollary_cases(c2, c3, c5):
    battery = [
        (c3, 2, poly([-3, 0, 1], c3), None),
        (c3, 2, poly([-9, 0, 1], c3), None),
        (c5, 2, poly([-25, 0, 1], c5), None),
        (c2, 5, poly([12, -8, 1], c2), None),
        (c2, 5, poly([-2, 0, 1], c2) * poly([1, 1, 1], c2),
            [poly([-2, 0, 1], c2), poly([1, 1, 1], c2)]),
    ]
    for ctx, gamma, g, factors in battery:
        cor = corollary_isotropy(gamma, g, ctx, seed=11, factors=factors)
        assert cor.isotropic, (ctx.p, g.to_text())
        assert cor.conditions.all_hold
        assert cor.milnor_first.isotropic and cor.milnor_second.isotropic


def test_corollary_trivial_paths(c3):
    assert corollary_isotropy(2, poly([7], c3), c3).isotropic  # g constant
    cor = corollary_isotropy(1, poly([-3, 0, 1], c3), c3)  # gamma a square
    assert cor.isotropic and "square" in cor.note


def test_gamma_condition_via_even_degree(c3):
    # <gamma/s_ij> = +1 because every s factor has even degree
    params = prepare(2, poly([-9, 0, 1], c3), c3)
    res = construct_s(params, seed=2)
    for sf in res.s_factors:
        assert sf.poly.degree % 2 == 0
        assert legendre_symbol(poly([2], c3), sf.poly, c3) == 1


def test_certify_factor_evidence(c3):
    assert certify_factor(poly([-5, 1], c3)) == "linear"
    assert certify_factor(poly([-3, 0, 1], c3)) == (
        "one edge of slope -1/2 with denominator = degree"
    )
    assert certify_factor(poly([1, 0, 1], c3)) == (
        "one edge of slope 0; reduction u^2 + 1 irreducible with matching degree"
    )
    assert certify_factor(poly([18, 0, 3, 0, 1], c3)) == (
        "one edge of slope -1/2; reduction u^2 + u + 2 irreducible with matching degree"
    )
    with pytest.raises(FactorizationUncertified):
        certify_factor(poly([9, 3, 1], c3))  # irreducible but uncertifiable


def test_randomized_corollary_constructions(contexts):
    """End-to-end constructions on randomly generated certified-factorable g."""
    from padicforms import newton_polygon
    from padicforms.reciprocity import random_certified_irreducible

    targets = {2: 3, 3: 5, 5: 5}
    for ctx in contexts:
        rng = random.Random(1000 + ctx.p)
        gamma = {2: 5, 3: 2, 5: 2}[ctx.p]
        done, trials = 0, 0
        while done < targets[ctx.p] and trials < 200:
            trials += 1
            factors = []
            for _ in range(rng.randint(1, 3)):
                f = random_certified_irreducible(rng, ctx, max_deg=2)
                if f.constant_coefficient() == 0 or any(f == g for g in factors):
                    continue
                factors.append(f)
            if not factors:
                continue
            g = poly([1], ctx)
            for f in factors:
                g = g * f
            if not newton_polygon(g).all_vertices_even():
                continue
            cor = corollary_isotropy(gamma, g, ctx, seed=trials, factors=factors)
            assert cor.isotropic and cor.conditions.all_hold, (ctx.p, g.to_text())
            done += 1
        assert done == targets[ctx.p]


def test_rational_roots_against_sympy(c3):
    """The modular rational roots equal sympy's, in the order of (|a|, b, sign) for a root a/b."""
    f = poly([1, 0, 1], c3)
    for r in (Fraction(1, 3), Fraction(-1, 2), Fraction(-1, 3), Fraction(2), Fraction(-1)):
        f = f * poly([-r, 1], c3)
    assert _rational_roots(f) == [-1, Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 3), 2]
    t = sympy.Symbol("t")
    rng = random.Random(53)
    seen_roots = 0
    for _ in range(60):
        roots = {Fraction(rng.choice([1, -1]) * rng.randint(1, 10 ** rng.randint(1, 12)),
                          rng.randint(1, 10 ** rng.randint(0, 6)))
                 for _ in range(rng.randint(0, 3))}
        f = poly([1], c3)
        for r in roots:
            f = f * poly([-r, 1], c3)
        if rng.random() < 0.7:
            f = f * poly([rng.choice([-1, 1]) * rng.randint(1, 10 ** 20), rng.randint(-9, 9), 1], c3)
        f = f.squarefree_odd_part()
        if f.degree < 1:
            continue
        got = _rational_roots(f)
        sym = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)], t)
        want = sorted((Fraction(int(r.p), int(r.q)) for r in sympy.roots(sym, filter="Q")),
                      key=lambda x: (abs(x.numerator), x.denominator, x < 0))
        assert got == want, f.to_text()
        seen_roots += len(got)
    assert seen_roots > 50


def test_rational_roots_cliff(capsys):
    """A 33-digit constant term: the divisor walk this replaced ran for minutes, the modular method answers at once."""
    start = time.perf_counter()
    rc = main(["construct-s", "--prime", "3", "--gamma", "2", "--", "t^2 - 300000000000000000000000000000147"])
    assert time.perf_counter() - start < 2
    assert rc == 0
    assert "conditions verified: 6, all hold: True" in capsys.readouterr().out
