"""Each of the benchmark's checks must catch a wrong answer.

Run from the root of the repository:

    python3 -m pytest perfbench/test_checks.py -q
"""

import sys
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import padicforms as pf  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# -- independent arithmetic ---------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_hilbert_search_matches_the_classical_formula(p):
    ctx = pf.PadicContext(p)
    values = [1, -1, 2, 3, 5, 6, 7, 10, -3, 14, F(3, 7), F(-5, 2)]
    for a in values:
        for b in values:
            assert checks.hilbert_search(a, b, p) == pf.hilbert_symbol_qp(a, b, ctx), (a, b)


def test_euler_and_newton_slopes():
    for p in (2, 3, 5, 7):
        ctx = pf.PadicContext(p)
        for x in (1, 2, 3, 5, 7, 17, -1, -7, F(9, 4), 12, F(1, 2)):
            assert checks.is_square_qp(x, p) == pf.is_square_rational(F(x), ctx), (x, p)
    assert checks.euler_is_square(4, 10007)
    assert not checks.euler_is_square(5, 10007)  # (5|10007) = (2|5) = -1
    assert not checks.euler_is_square(4 * 10007, 10007)
    assert checks.newton_slopes([27, -12, 1], 3) == [-2, -1]
    assert checks.newton_slopes([1, 0, 1], 3) == [0]


def test_knorm_matches_the_library():
    for p, m in ((2, [1, 1, 1]), (3, [-3, 0, 1]), (3, [1, 2, 0, 1]), (5, [-5, 0, 0, 1])):
        ctx = pf.PadicContext(p)
        K = pf.LocalField(workloads.P(m, ctx), ctx)
        for x in ([1, 2, -1], [0, 3], [F(1, 2), 0, 5], [-4]):
            x = x[:K.degree]
            assert checks.knorm([F(c) for c in x], [F(c) for c in m]) == K.element(x).norm(), (m, x)


def test_parse_poly_text_reads_the_library_printer():
    ctx = pf.PadicContext(3)
    for cs in ([27, -12, 1], [F(3, 2), 0, -1, 7], [0, 1], [-5], [2, 2, 0, 0, 1], [0, F(-3, 4)]):
        text = pf.PadicPolynomial.from_rationals([F(c) for c in cs], ctx).to_text()
        assert checks.parse_poly_text(text) == checks.trim(cs), text


def test_residues_walked_counts_the_loop():
    ctx = pf.PadicContext(7)
    assert tracing.residues_walked(2, ctx) == 3  # 3^2 = 9 = 2 mod 7
    assert tracing.residues_walked(3, ctx) == 6  # a nonsquare walks all of 1..6
    assert tracing.residues_walked(7, ctx) == 0  # odd valuation answers at once


# -- the check functions, fed wrong answers -----------------------------------


def test_symbol_checks_catch_a_flipped_sign():
    assert checks.check_symbol_pair(1, 1, 1) == []
    assert checks.check_symbol_pair(1, -1)
    assert checks.check_symbol_pair(-1, -1, 1)
    assert checks.check_symbol_pair(0, 0)
    good = {"lhs": -1, "p_over_q": 1, "r_over_q": -1}
    assert checks.check_multiplicativity(good, True) == []
    assert checks.check_multiplicativity({**good, "lhs": 1}, True)
    assert checks.check_multiplicativity(good, True, {"p_over_q": -1})
    const = {"lhs": 1, "c_over_t": -1, "deg_q": 2}
    assert checks.check_constant_rule(const, True, -1) == []
    assert checks.check_constant_rule(const, True, 1)
    assert checks.check_constant_rule({**const, "lhs": -1}, False, -1)
    recip = {"p_over_q": 1, "minus_one_over_t": -1, "q_over_p": -1, "exponent": 3}
    assert checks.check_reciprocity(recip, True, -1) == []
    assert checks.check_reciprocity(recip, True, 1)
    assert checks.check_reciprocity({**recip, "q_over_p": 1}, True, -1)


def test_square_checks_catch_wrong_answers():
    assert checks.check_square_answers(False, False, True, "u", "u", "one") == []
    assert checks.check_square_answers(True, False, True, "one", "one", "one")
    assert checks.check_square_answers(False, False, False, "u", "u", "one")
    assert checks.check_square_answers(False, False, True, "u", "v", "one")
    assert checks.check_square_answers(True, True, True, "u", "u", "one")
    # (N a, r)_3 with N a = 2, r = 2: +1; with r = 3: -1
    assert checks.check_hilbert_answers(-1, -1, 1, 2, 2, 3) == []
    assert checks.check_hilbert_answers(-1, 1, 1, 2, 3, 3) == []
    assert checks.check_hilbert_answers(-1, 1, 1, 2, 2, 3)
    assert checks.check_hilbert_answers(1, 1, 1, 2, 3, 3)  # a constant +1
    assert checks.check_hilbert_answers(1, 1, -1, 2, 2, 3)
    assert checks.check_square_norm(False, 2, 3) == []
    assert checks.check_square_norm(True, 4, 3) == []
    assert checks.check_square_norm(True, 2, 3)
    assert checks.check_isotropy_against_symbol(True, -1)
    assert checks.check_square_criterion(1, -1)
    for p in (2, 3, 5, 7):
        ctx = pf.PadicContext(p)
        for form in ([1, 1, 1, 1], [1, -2, -3, 6], [1, -p, -5, 5 * p], [2, 3, 5, 7], [1, -1, 3, 5]):
            want = pf.isotropic_over_local(pf.DiagonalForm.make(form, ctx))
            assert checks.isotropic_4(form, p) == want, (form, p)
    assert checks.check_euler(False, 5, 10007) == []
    assert checks.check_euler(True, 5, 10007)


def test_construction_checks_catch_wrong_answers():
    f1, f2 = [F(1), F(0), F(1)], [F(3), F(1), F(1)]
    s = checks.pmul([F(2)], checks.pmul(f1, f2))
    assert checks.check_construction(True, [("a", True)], 2, s, [f1, f2]) == []
    assert checks.check_construction(False, [("a", True)], 2, s, [f1, f2])
    assert checks.check_construction(True, [("a", False)], 2, s, [f1, f2])
    assert checks.check_construction(True, [], 2, s, [f1])
    assert checks.check_construction(True, [], 2, checks.pmul([F(2)], checks.pmul(f1, [0, 1])),
                                     [f1, [0, 1]])
    assert checks.check_predicate(True, [0, 1], [1]) == []
    assert checks.check_predicate(True, [1], [0, 1])
    assert checks.check_predicate(False, [2, 1], [3])


def test_lifting_checks_catch_a_root_wrong_in_its_last_digit():
    p, digits = 3, 256
    ctx = pf.PadicContext(p, precision_digits=digits)
    f = [F(2 + 3 * 5), F(-3), F(1)]  # (x - 1)(x - 2) + 15
    root = pf.hensel_lift(pf.PadicPolynomial.from_rationals(f, ctx), F(1), digits).approximate_root
    assert checks.check_root(f, root, p, digits) == []
    assert checks.check_root(f, root + p ** digits, p, digits)

    y = F(9)
    x, _ = pf.elliptic_constant_point(y, ctx, digits)
    assert checks.check_elliptic(x, y, p, digits) == []
    assert checks.check_elliptic(F(x) + p ** digits, y, p, digits)

    K = pf.LocalField(pf.PadicPolynomial.from_rationals([F(1), F(0), F(1)], ctx), ctx)
    a, b, d = K.element([1, 2]), K.element([2, 2]), K.element([1, 1])
    coeffs = [a * b + d * p, -(a + b), K.one]
    w = pf.hensel_lift(pf.PadicPolynomial(coeffs, K), a, digits)
    lists = [list(c.coeffs) for c in coeffs]
    m = [F(1), F(0), F(1)]
    assert checks.check_root_in_field(lists, w.approximate_root, m, p, 1, digits) == []
    off = (w.approximate_root[0] + p ** digits,) + tuple(w.approximate_root[1:])
    assert checks.check_root_in_field(lists, off, m, p, 1, digits)


def test_slope_check_catches_a_coefficient_off_in_the_last_digit():
    p, digits = 3, 40
    ctx = pf.PadicContext(p)
    f = [F(27), F(9), F(-3), F(1), F(1)]
    fac = pf.slope_factorization(pf.PadicPolynomial.from_rationals(f, ctx), digits)
    factors = [list(x.poly.coeffs) for x in fac.factors]
    assert checks.check_slope_product(f, fac.unit, factors, p, digits) == []
    factors[0][0] += F(p) ** digits
    assert checks.check_slope_product(f, fac.unit, factors, p, digits)


# -- the workloads' round checks, with one answer made wrong -------------------


def _answers(rnd):
    out = []
    for op in rnd.ops:
        try:
            out.append(getattr(pf, op.fn)(*op.args, **op.kwargs))
        except pf.PadicFormsError as exc:
            assert op.expect_fail, op
            out.append(exc)
    return out


def _index(rnd, cls):
    return next(i for i, op in enumerate(rnd.ops) if op.cls == cls)


@pytest.fixture(scope="module")
def symbols():
    wl = workloads.Symbols(5)
    wl.setup()
    return wl


def test_symbols_round_catches_a_flipped_symbol(symbols):
    rnd = symbols.verdict_round()
    answers = _answers(rnd)
    assert rnd.check(answers) == []
    for k in (0, 1, 20):  # <a/q> at a linear modulus, <a h^2/q>, <a/q> at degree 1 of p = 3
        bad = list(answers)
        bad[k] = -bad[k]
        assert rnd.check(bad), k
    i = _index(rnd, "reciprocity")
    bad = list(answers)
    law = bad[i]
    bad[i] = replace(law, values={**law.values, "q_over_p": -law.values["q_over_p"]})
    assert rnd.check(bad)


def test_lifting_round_catches_a_root_wrong_in_its_last_digit():
    wl = workloads.Lifting(5)
    wl.setup()
    rnd = wl.verdict_round()
    answers = _answers(rnd)
    assert rnd.check(answers) == []
    i = _index(rnd, "hensel_qp_256")
    bad = list(answers)
    p = rnd.ops[i].args[0].field.context.p
    bad[i] = replace(bad[i], approximate_root=bad[i].approximate_root + p ** 256)
    assert rnd.check(bad)


def test_construct_round_catches_a_wrong_predicate():
    wl = workloads.Construct(5)
    wl.setup()
    rnd = wl.verdict_round()
    answers = _answers(rnd)
    assert rnd.check(answers) == []
    i = _index(rnd, "predicate")
    bad = list(answers)
    bad[i] = (not bad[i][0],) + tuple(bad[i][1:])
    assert rnd.check(bad)
    i = _index(rnd, "corollary_case2_deg2")
    bad = list(answers)
    bad[i] = replace(bad[i], isotropic=False)
    assert rnd.check(bad)


def test_squares_round_catches_a_wrong_square_answer():
    wl = workloads.Squares(5)
    wl.setup()
    rnd = wl.verdict_round()
    answers = _answers(rnd)
    assert rnd.check(answers) == []
    for cls in ("is_square", "is_square_base", "hilbert", "square_criterion"):
        i = _index(rnd, cls)
        bad = list(answers)
        bad[i] = -bad[i] if isinstance(bad[i], int) and not isinstance(bad[i], bool) else not bad[i]
        assert rnd.check(bad), cls
    # a library that answers True, one tag and +1 to everything over K
    const = [True if op.cls in ("is_square", "isotropy") else "tag" if op.cls == "square_class"
             else 1 if op.cls == "hilbert" else a for op, a in zip(rnd.ops, answers)]
    problems = rnd.check(const)
    assert any("N(x)" in m for m in problems) and any("(N a, r)" in m for m in problems)


def test_flipped_symbol_condition_is_rejected():
    import contextlib
    import io
    import json

    import padicforms.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = padicforms.cli.main(["construct-s", "--prime", "3", "--gamma", "2", "--json", "--", "t^2 - 3"])
    doc = json.loads(out.getvalue())
    assert rc == 0 and pf.verify_certificate(doc)[0]
    assert workloads.construct_doc_problems(doc) == []
    assert not pf.verify_certificate(workloads.flip_symbol_condition(doc))[0]
