"""Acceptance suite: one test per criterion, at the stated scale and budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one summary line
per criterion.
"""

import copy
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from padicforms import (
    PadicContext,
    PadicPolynomial,
    construct_s,
    corollary_isotropy,
    elliptic_constant_point,
    hilbert_symbol_qp,
    newton_polygon,
    prepare,
    run_law_corpus,
    run_predicate_corpus,
    slope_factorization,
    square_class_at_root_one_edge,
    square_class_rational,
    square_class_representatives,
    verify_certificate,
    verify_conditions,
)
from padicforms.newton import ZeroEndpoint
from padicforms.oracles import hilbert_by_search

from conftest import poly


def _report(name, detail, elapsed, budget):
    status = "PASS"
    print(f"[{status}] {name}: {detail} ({elapsed:.1f}s, budget {budget}s)")


def test_criterion_1_hilbert_tables():
    """Symbol tables over square-class representatives match the oracle."""
    t0 = time.time()
    mismatches = 0
    checked = 0
    for p in (2, 3, 5):
        ctx = PadicContext(p)
        reps = square_class_representatives(ctx)
        assert len(reps) == (8 if p == 2 else 4)
        for a in reps:
            for b in reps:
                checked += 1
                if hilbert_symbol_qp(a, b, ctx) != hilbert_by_search(a, b, ctx):
                    mismatches += 1
    elapsed = time.time() - t0
    assert mismatches == 0
    assert elapsed < 60
    _report("criterion 1 (Hilbert tables)", f"{checked} entries, 0 mismatches", elapsed, 60)


def test_criterion_2_symbol_laws():
    """All four symbol laws 100/100 per prime; square criterion for odd p."""
    t0 = time.time()
    lines = []
    for p in (2, 3, 5):
        ctx = PadicContext(p)
        for law in ("check-mult", "constant", "pi-invariance", "check-recip"):
            s = run_law_corpus(ctx, law, 100, seed=2024)
            assert s["passes"] == 100, (p, law, s["failures"][:3])
            lines.append(f"p={p} {law} 100/100")
        if p != 2:
            s = run_law_corpus(ctx, "square-criterion", 100, seed=2024)
            assert s["passes"] == 100, (p, s["failures"][:3])
            lines.append(f"p={p} square-criterion 100/100")
    elapsed = time.time() - t0
    assert elapsed < 300
    _report("criterion 2 (symbol laws)", "; ".join(lines), elapsed, 300)


def test_criterion_3_newton_machinery():
    """Slope-factorization round trips and one-edge square-class agreement."""
    t0 = time.time()
    rng = random.Random(99)
    contexts = [PadicContext(p) for p in (2, 3, 5)]
    done = 0
    while done < 100:
        ctx = contexts[done % 3]
        deg = rng.randint(1, 6)
        coeffs = [Fraction(rng.randint(-9, 9) * ctx.p ** rng.randint(0, 2)) for _ in range(deg)]
        coeffs.append(Fraction(rng.choice([1, -1, 2, ctx.p])))
        if coeffs[0] == 0:
            coeffs[0] = Fraction(ctx.p)
        f = PadicPolynomial.from_rationals(coeffs, ctx)
        fac = slope_factorization(f, 40)
        assert fac.residual_valuation(f) > 40, f.to_text()
        done += 1

    agreements = 0
    attempts = 0
    while agreements < 100 and attempts < 30000:
        attempts += 1
        ctx = contexts[attempts % 3]
        big_n = rng.choice([1, 3, 5]) + (2 if ctx.p == 2 else 0)
        deg_z = rng.choice([0, 2])
        deg_g = rng.choice([0, 2])
        if deg_z >= big_n:
            continue
        a_c = [Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(1, big_n))]
        if a_c[0] == 0:
            a_c[0] = Fraction(rng.choice([1, 2, -1]))
        z_c = [Fraction(rng.randint(-9, 9)) for _ in range(deg_z)] + [Fraction(rng.choice([1, -1, 2]))]
        g_c = (
            [Fraction(rng.randint(-9, 9)) for _ in range(deg_g)] + [Fraction(rng.randint(1, 9))]
            if rng.random() < 0.7
            else []
        )
        a, z, g = poly(a_c, ctx), poly(z_c, ctx), poly(g_c, ctx)
        dg = g.degree if not g.is_zero() else 0
        f = a + g.shift(big_n) + z.shift(2 * big_n + dg - z.degree)
        if f.degree % 2 or f.constant_coefficient() == 0:
            continue
        try:
            pg = newton_polygon(f)
        except ZeroEndpoint:
            continue
        if len(pg.edges) != 1:
            continue
        m = pg.edges[0].slope
        alpha = Fraction(rng.randint(-20, 20) or 1, rng.randint(1, 20))
        va = ctx.vp(alpha)
        if m == -va or big_n <= Fraction(ctx.v4) / abs(m + va):
            continue
        got = square_class_at_root_one_edge(f, a, g, z, big_n, alpha)
        want = square_class_rational(f.evaluate(alpha), ctx)
        assert got == want, (ctx.p, f.to_text(), alpha)
        agreements += 1
    assert agreements == 100
    elapsed = time.time() - t0
    _report(
        "criterion 3 (Newton machinery)",
        "100/100 round trips > 40 digits; 100/100 square-class agreements",
        elapsed, 300,
    )


def _construction_battery():
    c2, c3, c5 = PadicContext(2), PadicContext(3), PadicContext(5)

    def P(cs, c):
        return PadicPolynomial.from_rationals([Fraction(x) for x in cs], c)

    def lin(r, c):
        return P([-r, 1], c)

    # case 1: every slope denominator odd
    case1 = [
        ("Q3 t^2-9", c3, 2, P([-9, 0, 1], c3), None),
        ("Q3 four linear roots, two blocks", c3, 2,
         lin(1, c3) * lin(2, c3) * lin(3, c3) * lin(6, c3), None),
        ("Q5 t^2-25", c5, 2, P([-25, 0, 1], c5), None),
        ("Q2 (t-2)(t-6)", c2, 5, P([12, -8, 1], c2), None),
        ("Q2 t^2+t+1 (slope 0)", c2, 5, P([1, 1, 1], c2), None),
    ]
    # case 2: some slope denominator even
    case2 = [
        ("Q3 t^2-3", c3, 2, P([-3, 0, 1], c3), None),
        ("Q3 t^4+3t^2+18", c3, 2, P([18, 0, 3, 0, 1], c3), None),
        ("Q2 t^2-2", c2, 5, P([-2, 0, 1], c2), None),
        ("Q2 (t^2-2)(t^2+2t+2)", c2, 5, P([-2, 0, 1], c2) * P([2, 2, 1], c2),
         [P([-2, 0, 1], c2), P([2, 2, 1], c2)]),
        ("Q5 t^2-5", c5, 2, P([-5, 0, 1], c5), None),
    ]
    # two distinct slopes over Q_2, one block of each parity
    mixed = [
        ("Q2 two-slope (t^2-2)(t^2+t+1)", c2, 5,
         P([-2, 0, 1], c2) * P([1, 1, 1], c2),
         [P([-2, 0, 1], c2), P([1, 1, 1], c2)]),
    ]
    return case1, case2, mixed


def test_criterion_4_construction():
    """Hand-picked construction battery: all conditions and both forms."""
    t0 = time.time()
    case1, case2, mixed = _construction_battery()
    count = 0
    for name, ctx, gamma, g, factors in case1 + case2 + mixed:
        t_inst = time.time()
        params = prepare(gamma, g, ctx, factors=factors)
        result = construct_s(params, seed=2024)
        report = verify_conditions(result)
        assert report.all_hold, name
        cor = corollary_isotropy(gamma, g, ctx, seed=2024, factors=factors)
        assert cor.isotropic and cor.milnor_first.isotropic and cor.milnor_second.isotropic, name
        inst_elapsed = time.time() - t_inst
        assert inst_elapsed < 120, (name, inst_elapsed)
        count += 1
    elapsed = time.time() - t0
    _report(
        "criterion 4 (construction)",
        f"{count} instances ({len(case1)} odd-denominator, {len(case2)} even, 1 two-slope),"
        " all conditions and both Pfister forms certified",
        elapsed, 120 * count,
    )


def test_criterion_5_predicate():
    """200 random rational functions decided with certificates, 200/200."""
    t0 = time.time()
    total = 0
    for p, cases in ((2, 67), (3, 67), (5, 66)):
        s = run_predicate_corpus(PadicContext(p), cases, seed=2024)
        assert s["passes"] == cases, (p, s["failures"][:3])
        total += cases
    elapsed = time.time() - t0
    assert total == 200
    assert elapsed < 600
    _report("criterion 5 (predicate)", "200/200 with certificates", elapsed, 600)


def test_criterion_6_elliptic():
    """20 random curve points with residual valuation above 40 digits."""
    t0 = time.time()
    rng = random.Random(2024)
    done = 0
    while done < 20:
        ctx = PadicContext(rng.choice([2, 3, 5]))
        y = Fraction(ctx.p) ** rng.randint(1, 3) * Fraction(rng.randint(1, 9))
        if ctx.vp(y) not in (1, 2, 3):
            continue
        x, witness = elliptic_constant_point(y, ctx, 41)
        residual = Fraction(x) ** 3 - Fraction(x) - y * y
        assert residual == 0 or ctx.vp(residual) > 40
        done += 1
    elapsed = time.time() - t0
    _report("criterion 6 (elliptic constants)", "20/20 residuals above 40 digits", elapsed, 60)


def _cli_json(*argv):
    out = subprocess.run(
        [sys.executable, "-m", "padicforms.cli", *argv, "--json"],
        capture_output=True, text=True,
    )
    return json.loads(out.stdout)


def test_criterion_7_negative_controls():
    """Ten injected faults, each rejected by certificate verification."""
    t0 = time.time()
    construct_doc = _cli_json("construct-s", "--prime", "3", "--gamma", "2", "t^2 - 3")
    pred_true = _cli_json("predicate", "--prime", "3", "--gamma", "2", "t")
    pred_false = _cli_json("predicate", "--prime", "3", "--gamma", "2", "1/t")
    symbol_doc = _cli_json("symbol", "--prime", "3", "t - 1", "t - 3")
    corpus_doc = _cli_json("corpus", "--prime", "3", "--seed", "3", "--cases", "10", "check-mult")
    for doc in (construct_doc, pred_true, pred_false, symbol_doc, corpus_doc):
        ok, problems = verify_certificate(doc)
        assert ok, problems

    def fault(doc, mutate):
        doc = copy.deepcopy(doc)
        mutate(doc)
        return doc

    def a_of(doc, kind):
        return next(a for a in doc["assertions"] if a["kind"] == kind)

    faults = [
        fault(construct_doc, lambda d: d["result"].update(
            s=d["result"]["s"].replace("- 3", "+ 3"))),
        fault(construct_doc, lambda d: d["result"]["s_factors"].__setitem__(
            0, d["result"]["s_factors"][0].replace("+ 3*t", "- 3*t"))),
        fault(construct_doc, lambda d: a_of(d, "irreducible-certified").update(
            poly=a_of(d, "irreducible-certified")["poly"].replace("t^2", "t^4"))),
        fault(construct_doc, lambda d: a_of(d, "symbol-condition").update(lhs=-1)),
        fault(construct_doc, lambda d: a_of(d, "residue-test").update(
            symbol=-a_of(d, "residue-test")["symbol"])),
        fault(pred_true, lambda d: a_of(d, "predicate-witness").update(
            c="1/1")),
        fault(pred_true, lambda d: a_of(d, "predicate-witness").update(
            g=a_of(d, "predicate-witness")["g"].replace("t^2", "t^3"))),
        fault(pred_false, lambda d: a_of(d, "anisotropy-at-t").update(anisotropic_form=2)),
        fault(symbol_doc, lambda d: a_of(d, "legendre").update(value=1)),
        fault(corpus_doc, lambda d: a_of(d, "law-corpus").update(passes=9)),
    ]
    rejected = 0
    for k, doc in enumerate(faults):
        ok, _ = verify_certificate(doc)
        assert not ok, f"fault {k} was not rejected"
        rejected += 1
    elapsed = time.time() - t0
    _report("criterion 7 (negative controls)", f"{rejected}/10 faults rejected", elapsed, 120)
