"""Certificate serialization and re-verification.

Every verdict the package emits can be saved as a JSON document under the
schema "padic-forms/1" and re-verified later: each recorded assertion
carries its inputs and claimed outputs, and :func:`verify_certificate`
recomputes the outputs from the inputs with the library itself.  Any
tampering with an input polynomial, a symbol value or a witness breaks at
least one recomputation.

Serialization rules: rationals appear as strings "num/den", polynomials
as their canonical grammar text, symbols as the integers +-1.  Documents
are dumped with sorted keys so identical inputs produce identical bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .construct import certify_factor
from .errors import PadicFormsError
from .h10 import anisotropy_at_t, build_f, run_predicate_corpus, strip_t, witness_g
from .newton import min_coefficient_valuation, newton_polygon
from .oracles import isotropic_by_search, within_budget
from .padics import PadicContext, hilbert_symbol_qp, square_class_rational
from .parsing import check_exponent, parse_poly, parse_rational_function
from .polynomials import PadicPolynomial
from .quadform import DiagonalForm, i2_class, isotropic_over_local, pfister_residue_test
from .reciprocity import (
    check_multiplicativity,
    check_pi_power_invariance,
    check_reciprocity,
    constant_symbol_check,
    legendre_symbol,
    run_law_corpus,
)

SCHEMA = "padic-forms/1"


def rat_str(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def parse_rat(s: str) -> Fraction:
    """Parse "n/d" or "n"; anything but a string is a ValueError."""
    if not isinstance(s, str):
        raise ValueError(f"expected a rational string, got {type(s).__name__}")
    num, _, den = s.partition("/")
    return Fraction(int(num), int(den) if den else 1)


def context_block(ctx: PadicContext) -> dict:
    return {
        "prime": ctx.p,
        "uniformizer": rat_str(ctx.uniformizer),
        "precision": ctx.precision_digits,
    }


def context_from_block(block: dict) -> PadicContext:
    return PadicContext(
        block["prime"],
        block.get("precision", 64),
        parse_rat(block["uniformizer"]),
    )


def make_certificate(command: str, ctx: PadicContext, result: dict, assertions: list, seed=None) -> dict:
    doc = {
        "schema": SCHEMA,
        "command": command,
        "context": context_block(ctx),
        "result": result,
        "assertions": assertions,
    }
    if seed is not None:
        doc["seed"] = seed
    return doc


def dump_certificate(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# assertion verifiers: recompute claimed outputs from recorded inputs
# ---------------------------------------------------------------------------


def _v_hilbert(a, ctx):
    value = hilbert_symbol_qp(parse_rat(a["a"]), parse_rat(a["b"]), ctx)
    if value != a["value"]:
        return [f"hilbert({a['a']},{a['b']}) recomputes to {value}, recorded {a['value']}"]
    return []


def _v_legendre(a, ctx):
    p = parse_poly(a["p"], ctx)
    q = parse_poly(a["q"], ctx)
    value = legendre_symbol(p, q, ctx)
    if value != a["value"]:
        return [f"<{a['p']}/{a['q']}> recomputes to {value}, recorded {a['value']}"]
    return []


def _v_law(a, ctx):
    law = a["law"]
    inputs = a["inputs"]
    if not isinstance(a["values"], dict):
        raise TypeError(f"law values must be a JSON object, not {type(a['values']).__name__}")
    if law == "multiplicativity":
        res = check_multiplicativity(
            parse_poly(inputs["p"], ctx), parse_poly(inputs["r"], ctx),
            parse_poly(inputs["q"], ctx), ctx,
        )
    elif law == "constant-rule":
        res = constant_symbol_check(parse_rat(inputs["c"]), parse_poly(inputs["q"], ctx), ctx)
    elif law == "pi-power-invariance":
        res = check_pi_power_invariance(
            parse_poly(inputs["p"], ctx), parse_poly(inputs["q"], ctx), ctx
        )
    elif law == "reciprocity":
        res = check_reciprocity(parse_poly(inputs["p"], ctx), parse_poly(inputs["q"], ctx), ctx)
    else:
        return [f"unknown law {law!r}"]
    problems = []
    if a["values"].keys() != res.values.keys():
        problems.append(f"{law}: values name {sorted(a['values'])}, recomputed {sorted(res.values)}")
    for key, recorded in a["values"].items():
        if key in res.values and res.values[key] != recorded:
            problems.append(f"{law}: value {key} recomputes to {res.values[key]}, recorded {recorded}")
    if res.holds != a["holds"]:
        problems.append(f"{law}: holds recomputes to {res.holds}, recorded {a['holds']}")
    return problems


def _v_square_class(a, ctx):
    rep = square_class_rational(parse_rat(a["x"]), ctx)
    if rat_str(rep) != a["representative"]:
        return [f"square_class({a['x']}) recomputes to {rat_str(rep)}"]
    return []


def _v_newton(a, ctx):
    poly = parse_poly(a["poly"], ctx)
    polygon = newton_polygon(poly)
    vertices = [[i, rat_str(v)] for i, v in polygon.vertices]
    slopes = [rat_str(e.slope) for e in polygon.edges]
    problems = []
    if vertices != a["vertices"]:
        problems.append(f"vertices recompute to {vertices}")
    if slopes != a["slopes"]:
        problems.append(f"slopes recompute to {slopes}")
    return problems


def _v_even_vertices(a, ctx):
    polygon = newton_polygon(parse_poly(a["poly"], ctx))
    if not polygon.all_vertices_even():
        return [f"polygon of {a['poly']} has odd-degree vertices {polygon.odd_vertices()}"]
    return []


def _v_slope_factorization(a, ctx):
    poly = parse_poly(a["poly"], ctx)
    unit = parse_rat(a["unit"])
    product = PadicPolynomial.from_rationals([unit], ctx)
    problems = []
    for text, slope in a["factors"]:
        factor = parse_poly(text, ctx)
        product = product * factor
        edge = newton_polygon(factor).single_edge()
        if rat_str(edge.slope) != slope:
            problems.append(f"factor {text} has slope {rat_str(edge.slope)}, recorded {slope}")
    residual = min_coefficient_valuation(product - poly)
    if not residual > a["digits"]:
        problems.append(f"product residual valuation {residual} not above {a['digits']}")
    return problems


def _v_hensel(a, ctx):
    poly = parse_poly(a["poly"], ctx)
    root = parse_rat(a["root"])
    start = parse_rat(a["start"])
    digits = a["digits"]
    problems = []
    if not ctx.vp(poly.evaluate(root)) > digits:
        problems.append("residual valuation at the recorded root is not above the digit target")
    dstart = poly.derivative().evaluate(start)
    if dstart != 0 and poly.evaluate(start) != 0:
        if not ctx.vp(root - start) > ctx.vp(dstart):
            problems.append("recorded root left the Hensel ball around the starting point")
    return problems


def _v_construct_identity(a, ctx):
    names = ("a", "b", "q", "r", "c", "h")
    polys = {n: parse_poly(a[n], ctx) for n in names}
    e = check_exponent(a["e"])
    check_exponent(abs(a["pi_exponent"]))
    pi_pow = ctx.uniformizer ** a["pi_exponent"]
    lhs1 = polys["a"] + polys["q"] * polys["b"]
    lhs2 = polys["r"] + polys["h"] * PadicPolynomial.monomial(pi_pow, e, polys["h"].field)
    problems = []
    if lhs1 != polys["c"]:
        problems.append("identity c = a + q b fails")
    if lhs2 != polys["c"]:
        problems.append("identity c = r + pi^(m e) t^e h fails")
    return problems


def _v_symbol_condition(a, ctx):
    value = legendre_symbol(parse_poly(a["p"], ctx), parse_poly(a["q"], ctx), ctx)
    problems = []
    if value != a["lhs"]:
        problems.append(f"condition {a['name']}: symbol recomputes to {value}, recorded {a['lhs']}")
    if "p2" in a:
        value2 = legendre_symbol(parse_poly(a["p2"], ctx), parse_poly(a["q2"], ctx), ctx)
        if value2 != a["rhs"]:
            problems.append(f"condition {a['name']}: rhs recomputes to {value2}")
    elif value != a["rhs"]:
        problems.append(f"condition {a['name']}: expected {a['rhs']}")
    if (value == a["rhs"]) != a["holds"]:  # the recorded rhs, checked above
        problems.append(f"condition {a['name']}: equality flag mismatches")
    return problems


def _v_residue_test(a, ctx):
    test = pfister_residue_test(
        parse_poly(a["x"], ctx), parse_poly(a["y"], ctx), parse_poly(a["place"], ctx), ctx
    )
    problems = []
    if test.symbol_value != a["symbol"]:
        problems.append(f"residue symbol at {a['place']} recomputes to {test.symbol_value}")
    if test.is_zero != a["is_zero"]:
        problems.append(f"residue vanishing at {a['place']} recomputes to {test.is_zero}")
    return problems


def _v_gamma_valid(a, ctx):
    if i2_class(parse_rat(a["gamma"]), ctx) != -1:
        return [f"gamma {a['gamma']} does not give an anisotropic binary Pfister form"]
    return []


def _v_predicate_witness(a, ctx):
    c = parse_rat(a["c"])
    report = build_f(parse_rational_function(a["x"], ctx), c, ctx)
    g = witness_g(*strip_t(report.h_num, report.h_den), c)
    problems = []
    if g.to_text() != a["g"]:
        problems.append("g recomputes differently from the recorded polynomial")
    if not newton_polygon(g).all_vertices_even():
        problems.append("recorded witness c does not give an all-even polygon")
    return problems


def _v_anisotropy_at_t(a, ctx):
    f = parse_rational_function(a["f"], ctx)
    res = anisotropy_at_t(f, parse_rat(a["gamma"]), ctx)
    problems = []
    if res.v_t_f != a["v_t_f"]:
        problems.append(f"v_t(f) recomputes to {res.v_t_f}")
    if rat_str(res.leading_coefficient) != a["leading_coefficient"]:
        problems.append("leading t-coefficient recomputes differently")
    if res.anisotropic_form != a["anisotropic_form"]:
        problems.append(f"anisotropic form recomputes to {res.anisotropic_form}")
    return problems


def _v_elliptic(a, ctx):
    y = parse_rat(a["y"])
    x = parse_rat(a["x"])
    residual = ctx.vp(x ** 3 - x - y ** 2) if x ** 3 - x - y ** 2 != 0 else None
    if residual is not None and not residual > a["digits"]:
        return [f"v(x^3 - x - y^2) = {residual} is not above {a['digits']}"]
    return []


def _v_isotropy_local(a, ctx):
    if not isinstance(a["entries"], list) or not a["entries"]:
        raise ValueError("isotropy-local entries must be a non-empty list")
    entries = [parse_rat(e) for e in a["entries"]]
    verdict = isotropic_over_local(DiagonalForm.make(entries, ctx))
    problems = []
    if verdict != a["isotropic"]:
        problems.append(f"isotropy recomputes to {verdict}")
    if within_budget(ctx):
        oracle, _ = isotropic_by_search(entries, ctx)
        if oracle != a["isotropic"]:
            problems.append(f"residue-search oracle disagrees: {oracle}")
    return problems


def _v_irreducible(a, ctx):
    try:
        certify_factor(parse_poly(a["poly"], ctx))
    except PadicFormsError as exc:
        return [f"irreducibility of {a['poly']} no longer certifies: {exc}"]
    return []


def _v_coprime(a, ctx):
    f = parse_poly(a["f"], ctx)
    g = parse_poly(a["g"], ctx)
    if f.gcd(g).degree != 0:
        return [f"{a['f']} and {a['g']} are not coprime"]
    return []


def _v_law_corpus(a, ctx):
    if a["law"] == "predicate":
        summary = run_predicate_corpus(ctx, a["cases"], a["seed"])
    else:
        summary = run_law_corpus(ctx, a["law"], a["cases"], a["seed"])
    if summary["passes"] != a["passes"]:
        return [f"corpus recomputes to {summary['passes']} passes, recorded {a['passes']}"]
    return []


_VERIFIERS = {
    "hilbert-base": _v_hilbert,
    "legendre": _v_legendre,
    "law": _v_law,
    "square-class": _v_square_class,
    "newton-polygon": _v_newton,
    "even-vertices": _v_even_vertices,
    "slope-factorization": _v_slope_factorization,
    "hensel": _v_hensel,
    "construct-identity": _v_construct_identity,
    "symbol-condition": _v_symbol_condition,
    "residue-test": _v_residue_test,
    "gamma-valid": _v_gamma_valid,
    "predicate-witness": _v_predicate_witness,
    "anisotropy-at-t": _v_anisotropy_at_t,
    "elliptic-point": _v_elliptic,
    "isotropy-local": _v_isotropy_local,
    "irreducible-certified": _v_irreducible,
    "coprime": _v_coprime,
    "law-corpus": _v_law_corpus,
}


def _doc_construct_s(doc, ctx):
    """Semantic re-verification of a construct-s certificate.

    Recomputes, from the result block alone: the factor product identity
    s = epsilon * prod(s_ij), irreducibility and coprimality of every
    factor, and the three symbol condition families.  Also checks that
    every polynomial referenced by structural assertions appears in the
    result, so a flipped coefficient inside a single assertion cannot
    hide behind another valid polynomial.
    """
    r = doc.get("result", {})
    problems = []
    if "s" not in r:
        return problems  # degenerate certificate (g constant or gamma square)
    g = parse_poly(r["g"], ctx)
    s = parse_poly(r["s"], ctx)
    epsilon = parse_rat(r["epsilon"])
    s_factors = [parse_poly(t, ctx) for t in r["s_factors"]]
    g_factors = [parse_poly(t, ctx) for t in r["g_factors"]]
    gamma = parse_rat(r["gamma"])

    prod = PadicPolynomial.from_rationals([epsilon], ctx)
    for sf in s_factors:
        prod = prod * sf
    if prod != s:
        problems.append("s does not equal epsilon times the product of its factors")

    g0 = PadicPolynomial.one(g.field)
    for gf in g_factors:
        g0 = g0 * gf
    g_norm = g0 * epsilon
    if not (g % g0).is_zero():
        problems.append("recorded g factors do not divide g")

    tpoly = PadicPolynomial.x(ctx)
    tg = tpoly * g_norm
    gamma_poly = PadicPolynomial.from_rationals([gamma], ctx)
    for sf in s_factors:
        try:
            certify_factor(sf)
        except PadicFormsError as exc:
            problems.append(f"s factor {sf.to_text()}: {exc}")
            continue
        if sf.degree % 2:
            problems.append(f"s factor {sf.to_text()} has odd degree")
        if sf.gcd(tg).degree != 0:
            problems.append(f"s factor {sf.to_text()} is not coprime to t g")
        if legendre_symbol(-(tg), sf, ctx) != 1:
            problems.append(f"condition <-tg/{sf.to_text()}> = 1 fails")
        if legendre_symbol(gamma_poly, sf, ctx) != 1:
            problems.append(f"condition <gamma/{sf.to_text()}> = 1 fails")
    for gf in g_factors:
        if legendre_symbol(tpoly * s, gf, ctx) != 1:
            problems.append(f"condition <ts/{gf.to_text()}> = 1 fails")
    if legendre_symbol(s * g_norm, tpoly, ctx) != 1:
        problems.append("condition <sg/t> = 1 fails")

    allowed = {p.to_text() for p in s_factors + g_factors}
    allowed |= {g.to_text(), s.to_text(), tg.to_text()}
    for a in doc.get("assertions", []):
        kind = a.get("kind")
        if kind in ("irreducible-certified", "even-vertices"):
            if a["poly"] not in allowed:
                problems.append(f"{kind} assertion references {a['poly']!r}, absent from the result")
        elif kind == "coprime":
            if a["f"] not in allowed or a["g"] not in allowed:
                problems.append("coprime assertion references polynomials absent from the result")
    return problems


_DOC_VERIFIERS = {"construct-s": _doc_construct_s}

# the assertion kinds each certificate-emitting CLI subcommand writes. A document naming another
# command, or carrying a kind its command does not write, is rejected; so a document that keeps
# construct-s's assertions cannot be relabelled to skip its document check. A document stripped
# down to kinds another command also writes is still checked only assertion by assertion.
_COMMAND_KINDS = {
    "newton": {"newton-polygon"},
    "slopes": {"slope-factorization"},
    "squareclass": {"square-class"},
    "hilbert": {"hilbert-base"},
    "symbol": {"legendre", "irreducible-certified", "coprime"},
    "check-mult": {"law"},
    "check-recip": {"law"},
    "isotropy": {"isotropy-local"},
    "construct-s": {"even-vertices", "irreducible-certified", "coprime", "construct-identity",
                    "symbol-condition", "residue-test"},
    "predicate": {"gamma-valid", "predicate-witness", "anisotropy-at-t"},
    "elliptic-point": {"elliptic-point", "hensel"},
    "corpus": {"law-corpus"},
}
COMMANDS = frozenset(_COMMAND_KINDS)
_DIGIT_TARGETS = frozenset({"slope-factorization", "hensel", "elliptic-point"})  # lifts, with result.digits


def _digit_target(a, result) -> list:
    """An int (not a bool), not negative (that makes residual checks vacuous), and the result's."""
    digits = a["digits"]
    if type(digits) is not int:
        raise TypeError(f"digit target {digits!r} is not an integer")
    if digits < 0:
        return [f"digit target {digits} is negative"]
    recorded = result.get("digits") if isinstance(result, dict) else None
    if type(recorded) is not int or recorded != digits:
        return [f"digit target {digits} differs from the result's {recorded!r}"]
    return []


def verify_certificate(doc: dict) -> tuple[bool, list[str]]:
    """Recompute every assertion of a certificate document.

    Returns (ok, problems); ok is True only when the schema matches, the
    command is one of ``COMMANDS`` and writes every assertion kind the
    document carries, the context reconstructs, every lift
    assertion's digit target is the result's, every assertion's recorded
    outputs agree with fresh computations from its recorded inputs, and
    any command-level consistency checks tying the assertions to the
    result pass.
    """
    problems: list[str] = []
    if not isinstance(doc, dict):
        return False, ["the document is not a JSON object"]
    if doc.get("schema") != SCHEMA:
        return False, [f"unknown schema {doc.get('schema')!r}"]
    command = doc.get("command")
    known = isinstance(command, str) and command in COMMANDS
    if not known:
        problems.append(f"unknown command {command!r}")
    try:
        ctx = context_from_block(doc["context"])
    except Exception as exc:
        return False, [f"invalid context: {exc}"]
    assertions = doc.get("assertions", [])
    if not isinstance(assertions, list) or not all(isinstance(a, dict) for a in assertions):
        return False, ["assertions must be a list of JSON objects"]
    for k, a in enumerate(assertions):
        kind = a.get("kind")
        fn = _VERIFIERS.get(kind) if isinstance(kind, str) else None
        if fn is None:
            problems.append(f"assertion {k}: unknown kind {kind!r}")
            continue
        if known and kind not in _COMMAND_KINDS[command]:
            problems.append(f"assertion {k}: {command} writes no {kind} assertion")
        try:
            found = _digit_target(a, doc.get("result")) if kind in _DIGIT_TARGETS else []
            problems.extend(f"assertion {k} ({kind}): {msg}" for msg in found or fn(a, ctx))
        except PadicFormsError as exc:
            problems.append(f"assertion {k} ({kind}): recomputation failed: {exc}")
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            problems.append(f"assertion {k} ({kind}): malformed payload: {exc!r}")
    doc_fn = _DOC_VERIFIERS.get(command) if known else None
    if doc_fn is not None:
        try:
            problems.extend(f"document: {msg}" for msg in doc_fn(doc, ctx))
        except PadicFormsError as exc:
            problems.append(f"document: consistency recomputation failed: {exc}")
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            problems.append(f"document: malformed result block: {exc!r}")
    return (not problems), problems


def verify_certificate_file(path: str) -> tuple[bool, list[str]]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            return False, [f"not valid JSON: {exc}"]
    return verify_certificate(doc)
