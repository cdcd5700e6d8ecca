"""Certificate serialization and re-verification.

Every verdict the package emits can be saved as a JSON document under the
schema "padic-forms/1" and re-verified later: each recorded assertion
carries its inputs and claimed outputs, and :func:`verify_certificate`
recomputes the outputs from the inputs with the library itself.  Each
command's result block is then derived from its assertions by the one
function the CLI builds it with, so a tampered input, symbol value,
witness or result field breaks at least one recomputation.

Serialization rules: rationals appear as strings "num/den", polynomials
as their canonical grammar text, symbols as the integers +-1.  Documents
are dumped with sorted keys so identical inputs produce identical bytes.
"""

from __future__ import annotations

import functools
import json
import math
from collections import namedtuple
from fractions import Fraction

from .construct import WITT_NOTES, certify_factor, degenerate_note, leading_unit
from .errors import PadicFormsError
from .h10 import (
    ANISOTROPY_NOTE,
    WITNESS_NOTE,
    anisotropy_at_t,
    build_f,
    build_h,
    run_predicate_corpus,
    strip_t,
    witness_g,
)
from .newton import min_coefficient_valuation, newton_polygon
from .oracles import isotropic_by_search, within_budget
from .padics import PadicContext, hilbert_symbol_qp, square_class_rational
from .parsing import check_exponent, parse_poly, parse_rational_function
from .polynomials import PadicPolynomial, RationalFunction
from .quadform import DiagonalForm, i2_class, isotropic_over_local, pfister_residue_test
from .reciprocity import (
    certify_modulus,
    check_multiplicativity,
    check_pi_power_invariance,
    check_reciprocity,
    constant_symbol_check,
    legendre_symbol,
    run_law_corpus,
)

SCHEMA = "padic-forms/1"
# text -> polynomial: the one parse of each polynomial text of the document being handled,
# shared by its assertions and its result; _per_document empties it when the document is done.
# An entry serves only the context object it was parsed under, so it never changes a result.
_parsed: dict = {}


def rat_str(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def parse_rat(s: str) -> Fraction:
    """Parse "n/d" or "n"; anything but a string is a ValueError."""
    if not isinstance(s, str):
        raise ValueError(f"expected a rational string, got {type(s).__name__}")
    num, _, den = s.partition("/")
    return Fraction(int(num), int(den) if den else 1)


def _parse(text: str, ctx: PadicContext) -> PadicPolynomial:
    poly = _parsed.get(text)
    if poly is None or poly.field is not ctx:
        poly = _parsed[text] = parse_poly(text, ctx)
    return poly


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


def dump_certificate(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _same(a, b) -> bool:
    """Equal as canonical JSON: Python's == takes true for 1 and 1.0 for 1, this does not."""
    if type(a) is dict:
        return type(b) is dict and a.keys() == b.keys() and all([_same(v, b[k]) for k, v in a.items()])
    if type(a) in (list, tuple):
        return type(b) in (list, tuple) and len(a) == len(b) and all(map(_same, a, b))
    return type(a) is type(b) and a == b


# ---------------------------------------------------------------------------
# assertion verifiers: recompute claimed outputs from recorded inputs
# ---------------------------------------------------------------------------


def _v_hilbert(a, ctx):
    value = hilbert_symbol_qp(parse_rat(a["a"]), parse_rat(a["b"]), ctx)
    if not _same(value, a["value"]):
        return [f"hilbert({a['a']},{a['b']}) recomputes to {value}, recorded {a['value']}"]
    return []


def _v_legendre(a, ctx):
    p = _parse(a["p"], ctx)
    q = _parse(a["q"], ctx)
    value = legendre_symbol(p, q, ctx)
    if not _same(value, a["value"]):
        return [f"<{a['p']}/{a['q']}> recomputes to {value}, recorded {a['value']}"]
    return []


def _v_law(a, ctx):
    law = a["law"]
    inputs = a["inputs"]
    if not isinstance(a["values"], dict):
        raise TypeError(f"law values must be a JSON object, not {type(a['values']).__name__}")
    if law == "multiplicativity":
        res = check_multiplicativity(
            _parse(inputs["p"], ctx), _parse(inputs["r"], ctx),
            _parse(inputs["q"], ctx), ctx,
        )
    elif law == "constant-rule":
        res = constant_symbol_check(parse_rat(inputs["c"]), _parse(inputs["q"], ctx), ctx)
    elif law == "pi-power-invariance":
        res = check_pi_power_invariance(
            _parse(inputs["p"], ctx), _parse(inputs["q"], ctx), ctx
        )
    elif law == "reciprocity":
        res = check_reciprocity(_parse(inputs["p"], ctx), _parse(inputs["q"], ctx), ctx)
    else:
        return [f"unknown law {law!r}"]
    problems = []
    if a["values"].keys() != res.values.keys():
        problems.append(f"{law}: values name {sorted(a['values'])}, recomputed {sorted(res.values)}")
    for key, recorded in a["values"].items():
        if key in res.values and not _same(res.values[key], recorded):
            problems.append(f"{law}: value {key} recomputes to {res.values[key]}, recorded {recorded}")
    if not _same(res.holds, a["holds"]):
        problems.append(f"{law}: holds recomputes to {res.holds}, recorded {a['holds']}")
    return problems


def _v_square_class(a, ctx):
    rep = square_class_rational(parse_rat(a["x"]), ctx)
    if rat_str(rep) != a["representative"]:
        return [f"square_class({a['x']}) recomputes to {rat_str(rep)}"]
    return []


def _v_newton(a, ctx):
    poly = _parse(a["poly"], ctx)
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
    polygon = newton_polygon(_parse(a["poly"], ctx))
    if not polygon.all_vertices_even():
        return [f"polygon of {a['poly']} has odd-degree vertices {polygon.odd_vertices()}"]
    return []


def _v_slope_factorization(a, ctx):
    poly = _parse(a["poly"], ctx)
    unit = parse_rat(a["unit"])
    product = PadicPolynomial.from_rationals([unit], ctx)
    problems = []
    for text, slope in a["factors"]:
        factor = _parse(text, ctx)
        product = product * factor
        edge = newton_polygon(factor).single_edge()
        if rat_str(edge.slope) != slope:
            problems.append(f"factor {text} has slope {rat_str(edge.slope)}, recorded {slope}")
    residual = min_coefficient_valuation(product - poly)
    if not residual > a["digits"]:
        problems.append(f"product residual valuation {residual} not above {a['digits']}")
    return problems


def _v_hensel(a, ctx):
    poly = _parse(a["poly"], ctx)
    root = parse_rat(a["root"])
    start = parse_rat(a["start"])
    digits = a["digits"]
    problems = []
    if not ctx.vp(poly.evaluate(root)) > digits:
        problems.append("residual valuation at the recorded root is not above the digit target")
    dstart = poly.derivative().evaluate(start)
    if dstart != 0 and poly.evaluate(start) != 0:
        moved = ctx.vp(root - start)  # the ball, at the reported precision (see HenselWitness)
        if not (moved > ctx.vp(dstart) or moved >= digits + 1):
            problems.append("recorded root left the Hensel ball around the starting point")
    return problems


def _v_construct_identity(a, ctx):
    names = ("a", "b", "q", "r", "c", "h")
    polys = {n: _parse(a[n], ctx) for n in names}
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
    if a["name"] not in _CONDITIONS:
        return [f"unknown condition {a['name']!r}"]
    value = legendre_symbol(_parse(a["p"], ctx), _parse(a["q"], ctx), ctx)
    problems = []
    if not _same(value, a["lhs"]):
        problems.append(f"condition {a['name']}: symbol recomputes to {value}, recorded {a['lhs']}")
    if "p2" in a:
        value2 = legendre_symbol(_parse(a["p2"], ctx), _parse(a["q2"], ctx), ctx)
        if not _same(value2, a["rhs"]):
            problems.append(f"condition {a['name']}: rhs recomputes to {value2}")
    elif not _same(value, a["rhs"]):
        problems.append(f"condition {a['name']}: expected {a['rhs']}")
    if not _same(value == a["rhs"], a["holds"]):  # the recorded rhs, checked above
        problems.append(f"condition {a['name']}: equality flag mismatches")
    return problems


def _v_residue_test(a, ctx):
    test = pfister_residue_test(
        _parse(a["x"], ctx), _parse(a["y"], ctx), _parse(a["place"], ctx), ctx
    )
    problems = []
    if not _same(test.symbol_value, a["symbol"]):
        problems.append(f"residue symbol at {a['place']} recomputes to {test.symbol_value}")
    if not _same(test.is_zero, a["is_zero"]):
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
    if not _same(res.v_t_f, a["v_t_f"]):
        problems.append(f"v_t(f) recomputes to {res.v_t_f}")
    if rat_str(res.leading_coefficient) != a["leading_coefficient"]:
        problems.append("leading t-coefficient recomputes differently")
    if not _same(res.anisotropic_form, a["anisotropic_form"]):
        problems.append(f"anisotropic form recomputes to {res.anisotropic_form}")
    return problems


def _v_elliptic(a, ctx):
    y = parse_rat(a["y"])
    x = parse_rat(a["x"])
    residual = ctx.vp(x ** 3 - x - y ** 2)  # infinite at an exact root
    if not residual > a["digits"]:
        return [f"v(x^3 - x - y^2) = {residual} is not above {a['digits']}"]
    return []


def _v_isotropy_local(a, ctx):
    if not isinstance(a["entries"], list) or not a["entries"]:
        raise ValueError("isotropy-local entries must be a non-empty list")
    entries = [parse_rat(e) for e in a["entries"]]
    verdict = isotropic_over_local(DiagonalForm.make(entries, ctx))
    if not _same(verdict, a["isotropic"]):
        return [f"isotropy recomputes to {verdict}"]
    return []


def _v_irreducible(a, ctx):
    try:
        certify_factor(_parse(a["poly"], ctx))
    except PadicFormsError as exc:
        return [f"irreducibility of {a['poly']} no longer certifies: {exc}"]
    return []


def _v_coprime(a, ctx):
    f = _parse(a["f"], ctx)
    g = _parse(a["g"], ctx)
    if f.gcd(g).degree != 0:
        return [f"{a['f']} and {a['g']} are not coprime"]
    return []


def _v_law_corpus(a, ctx):
    if type(a["cases"]) is not int or type(a["seed"]) is not int:  # random.Random takes "x" or None
        raise TypeError(f"cases {a['cases']!r} and seed {a['seed']!r} must be integers")
    summary = corpus_summary(ctx, a["law"], a["cases"], a["seed"])
    if not _same(summary["passes"], a["passes"]):
        return [f"corpus recomputes to {summary['passes']} passes, recorded {a['passes']}"]
    return []


def _lift(verify):
    """A lift's verifier, run on a digit target that is an int (not a bool) and not negative."""
    def checked(a, ctx):
        if type(a["digits"]) is not int:
            raise TypeError(f"digit target {a['digits']!r} is not an integer")
        return [f"digit target {a['digits']} is negative"] if a["digits"] < 0 else verify(a, ctx)
    return checked


_VERIFIERS = {
    "hilbert-base": _v_hilbert,
    "legendre": _v_legendre,
    "law": _v_law,
    "square-class": _v_square_class,
    "newton-polygon": _v_newton,
    "even-vertices": _v_even_vertices,
    "slope-factorization": _lift(_v_slope_factorization),
    "hensel": _lift(_v_hensel),
    "construct-identity": _v_construct_identity,
    "symbol-condition": _v_symbol_condition,
    "residue-test": _v_residue_test,
    "gamma-valid": _v_gamma_valid,
    "predicate-witness": _v_predicate_witness,
    "anisotropy-at-t": _v_anisotropy_at_t,
    "elliptic-point": _lift(_v_elliptic),
    "isotropy-local": _v_isotropy_local,
    "irreducible-certified": _v_irreducible,
    "coprime": _v_coprime,
    "law-corpus": _v_law_corpus,
}


# ---------------------------------------------------------------------------
# result blocks: each command's result, derived from its assertions
# ---------------------------------------------------------------------------

_SKIPPED = "skipped: budget"  # hilbert's and isotropy's oracle fields past the residue-search budget


def _one(assertions, kind):
    found = [a for a in assertions if a["kind"] == kind]
    if len(found) != 1:
        raise ValueError(f"expected one {kind} assertion, found {len(found)}")
    return found[0]


@functools.lru_cache(maxsize=1)
def corpus_summary(ctx: PadicContext, law: str, cases: int, seed: int) -> dict:
    """A seeded corpus run, once for a document's assertion and its result (see _per_document)."""
    return run_predicate_corpus(ctx, cases, seed) if law == "predicate" else run_law_corpus(ctx, law, cases, seed)


def _r_newton(assertions, ctx, seed):
    poly = _parse(_one(assertions, "newton-polygon")["poly"], ctx)
    polygon = newton_polygon(poly)
    return {
        "poly": poly.to_text(),
        "points": [[i, rat_str(v)] for i, v in polygon.points],
        "vertices": [[i, rat_str(v)] for i, v in polygon.vertices],
        "edges": [{"slope": rat_str(e.slope), "length": e.length} for e in polygon.edges],
        "all_vertices_even": polygon.all_vertices_even(),
    }


def _r_slopes(assertions, ctx, seed):
    a = _one(assertions, "slope-factorization")
    factors = [{"poly": text, "slope": slope, "degree": _parse(text, ctx).degree,  # slope is a verified "n/d"
                "denominator": int(slope.rpartition("/")[2])} for text, slope in a["factors"]]
    return {"poly": a["poly"], "unit": a["unit"], "digits": a["digits"], "factors": factors}


def _r_squareclass(assertions, ctx, seed):
    a = _one(assertions, "square-class")
    return {"x": a["x"], "representative": a["representative"]}


def _r_hilbert(assertions, ctx, seed):
    """The CLI cross-checks the value by residue search within the budget, so the oracle is the value."""
    a = _one(assertions, "hilbert-base")
    value = a["value"]
    return {"a": a["a"], "b": a["b"], "value": value, "oracle": value if within_budget(ctx) else _SKIPPED}


def _r_symbol(assertions, ctx, seed):
    a = _one(assertions, "legendre")
    if [_one(assertions, "irreducible-certified"), _one(assertions, "coprime")] != [
            {"kind": "irreducible-certified", "poly": a["q"]}, {"kind": "coprime", "f": a["p"], "g": a["q"]}]:
        raise ValueError("the irreducible and coprime assertions are not about the symbol's q and p")
    field, evidence = certify_modulus(_parse(a["q"], ctx), ctx)
    result = {"p": a["p"], "q": a["q"], "value": a["value"], "modulus_evidence": evidence}
    if field.is_extension:
        result["field"] = {"ramification_index": field.ramification_index, "residue_degree": field.residue_degree,
                           "uniformizer_coefficients": [rat_str(c) for c in field.uniformizer_elt.coeffs]}
    return result


def _r_law(law, *names):
    def derive(assertions, ctx, seed):
        a = _one(assertions, "law")
        if a["law"] != law:
            raise ValueError(f"the law assertion is {a['law']!r}, not {law!r}")
        return {"law": law, "inputs": {n: a["inputs"][n] for n in names},
                "values": a["values"], "holds": a["holds"]}
    return derive


def _r_isotropy(assertions, ctx, seed):
    """The residue-search cross-check runs here, once for the CLI and once for ``verify``."""
    a = _one(assertions, "isotropy-local")
    verdict, witness = a["isotropic"], _SKIPPED
    if within_budget(ctx):
        oracle, witness = isotropic_by_search([parse_rat(e) for e in a["entries"]], ctx)
        if oracle != verdict:
            raise PadicFormsError(f"criterion {verdict} disagrees with search oracle {oracle}")
    return {"entries": a["entries"], "isotropic": verdict, "oracle_witness": witness}


# the seven symbol-condition families construct.verify_conditions writes; the first four
# are the conditions the construction needs, each <p/q> = 1
_CONDITIONS = ("sg-over-t", "ts-over-g-factor", "minus-tg-over-s-factor", "gamma-over-s-factor",
               "block-equality", "t-value-equality", "product-property")


def _r_construct_s(assertions, ctx, seed, gamma, g, samples):
    """construct-s's result: g and gamma, then what the construction's assertions record.

    A constant g or a square gamma decides the corollary with no construction, and the
    document carries no assertion.  Otherwise the assertions must be those the CLI writes
    for the polynomials they name: s's factors are the coprime assertions' f, g's factors
    the other certified irreducibles, and s = epsilon * prod(s's factors).  Each condition
    family is at the result's polynomials, once per factor, and the residue tests are the
    two Pfister forms' at their places; the verdict is that every test vanishes.
    """
    gamma, g = parse_rat(gamma), _parse(g, ctx)
    result = {"gamma": rat_str(gamma), "g": g.to_text()}
    note = degenerate_note(gamma, g, ctx)
    if note is not None:
        if assertions:
            raise ValueError("a corollary that g or gamma decides carries no assertion")
        return {**result, "isotropic": True, "note": note}
    s_texts = [a["f"] for a in assertions if a["kind"] == "coprime"]
    g_texts = [a["poly"] for a in assertions if a["kind"] == "irreducible-certified" and a["poly"] not in s_texts]
    s_factors = [_parse(text, ctx) for text in s_texts]
    epsilon, t = leading_unit(g, ctx), PadicPolynomial.x(ctx)
    s = math.prod(s_factors, start=PadicPolynomial.from_rationals([epsilon], ctx))
    g0 = math.prod((_parse(text, ctx) for text in g_texts), start=PadicPolynomial.one(ctx))
    g_norm = g0 * epsilon
    tg, ts = t * g_norm, t * s
    if not s_texts or not g_texts or not (g % g0).is_zero() or any(sf.degree % 2 for sf in s_factors):
        raise ValueError("g and s need factors, g's must divide g, and s's must have even degree")
    structure = [{"kind": "even-vertices", "poly": result["g"]}]
    structure += [{"kind": "irreducible-certified", "poly": q} for q in g_texts]
    for q in s_texts:
        structure += [{"kind": "irreducible-certified", "poly": q}, {"kind": "coprime", "f": q, "g": tg.to_text()}]
    if [a for a in assertions if a["kind"] in ("even-vertices", "irreducible-certified", "coprime")] != structure:
        raise ValueError("the certified polynomials are not g, its factors, and s's factors against t g")

    t_text, c_text = t.to_text(), PadicPolynomial.from_rationals([gamma], ctx).to_text()
    families = {  # the (p, q) of each condition in the order written; block-equality's p is not in the result
        "sg-over-t": [((s * g_norm).to_text(), t_text)],
        "ts-over-g-factor": [(ts.to_text(), q) for q in g_texts],
        "minus-tg-over-s-factor": [((-tg).to_text(), q) for q in s_texts],
        "gamma-over-s-factor": [(c_text, q) for q in s_texts],
        "block-equality": [(None, q) for q in g_texts],
        "t-value-equality": [(q, t_text) for q in s_texts],
    }
    conditions = [a for a in assertions if a["kind"] == "symbol-condition"]
    for name, expected in families.items():
        found = [(None if name == "block-equality" else a["p"], a["q"]) for a in conditions if a["name"] == name]
        if found != expected:
            raise ValueError(f"the {name} conditions are not at the result's polynomials, one per factor")
    if any(a["name"] == "product-property" and a["q"] not in g_texts for a in conditions):
        raise ValueError("a product-property condition is at no factor of g")
    if any(a["name"] in _CONDITIONS[:4] and (type(a["rhs"]) is not int or a["rhs"] != 1 or a["holds"] is not True)
           for a in conditions):
        raise ValueError("a condition the construction needs does not hold with right-hand side 1")

    first = (PadicPolynomial.from_rationals([-gamma], ctx).to_text(), (-s).to_text())  # <1,pi><1,-gamma><1,-s>
    second = (tg.to_text(), (-ts).to_text())  # <1,pi><1,tg><1,-ts>
    places = [(*first, q) for q in s_texts] + [(*second, q) for q in [t_text] + g_texts + s_texts]
    tests = [a for a in assertions if a["kind"] == "residue-test"]
    if [(a["x"], a["y"], a["place"]) for a in tests] != places:
        raise ValueError("the residue tests are not the two Pfister forms' at their places")
    isotropic = all(a["is_zero"] is True for a in tests)
    return {**result, "isotropic": isotropic, "note": WITT_NOTES[isotropic], "s": s.to_text(),
            "s_factors": s_texts, "g_factors": g_texts, "epsilon": rat_str(epsilon),
            "metrics": {"deg_s": s.degree, "factor_count": len(s_texts), "samples": samples, "seed": seed}}


def _r_predicate(assertions, ctx, seed, x):
    """The verdict is true exactly when the document carries the witness, which must be about x."""
    x = parse_rational_function(x, ctx)
    v = x.ord_t()
    result = {"x": x.to_text(), "v_t_x": "inf" if v == float("inf") else str(v),
              "gamma": _one(assertions, "gamma-valid")["gamma"]}
    if any(a["kind"] == "predicate-witness" for a in assertions):
        a = _one(assertions, "predicate-witness")
        if a["x"] != result["x"] or any(a["kind"] == "anisotropy-at-t" for a in assertions):
            raise ValueError("the witness is not about x, or the document also carries the anisotropy")
        return {**result, "verdict": True, "note": WITNESS_NOTE, "witness_c": a["c"]}
    a = _one(assertions, "anisotropy-at-t")
    if a["f"] != RationalFunction(*build_h(x)).to_text() or a["gamma"] != result["gamma"]:
        raise ValueError("the anisotropy is not about the h that x gives, or not at the document's gamma")
    return {**result, "verdict": False, "note": ANISOTROPY_NOTE.format(a["anisotropic_form"])}


def elliptic_cubic(y: Fraction) -> str:
    """The text of x^3 - x - y^2, the polynomial the elliptic point lifts a root of."""
    y2 = y * y
    return f"t^3 - t - {y2.numerator}/{y2.denominator}" if y2 != 0 else "t^3 - t"


def _r_elliptic(assertions, ctx, seed):
    a, h = _one(assertions, "elliptic-point"), _one(assertions, "hensel")
    y = parse_rat(a["y"])
    if [h["poly"], h["start"], h["root"], h["digits"]] != [elliptic_cubic(y), "0/1", a["x"], a["digits"]]:
        raise ValueError("the hensel assertion is not the lift of x^3 - x = y^2 from 0 to x")
    return {"y": rat_str(y), "x": a["x"], "digits": a["digits"], "slack": "inf" if y == 0 else str(2 * ctx.vp(y))}


def _r_corpus(assertions, ctx, seed):
    a = _one(assertions, "law-corpus")
    if type(seed) is not int or a["seed"] != seed:
        raise ValueError(f"the corpus seed {a['seed']!r} is not the document's {seed!r}")
    return dict(corpus_summary(ctx, a["law"], a["cases"], a["seed"]))


# one entry per certificate-emitting subcommand: every assertion kind it writes, the function
# that derives its result block, and the result fields that no assertion carries (a dotted
# path reads a nested one).  The function reads the assertions the result rests on and raises
# when one is missing, so no command's result stands without its assertions.
_Command = namedtuple("_Command", "kinds derive inputs", defaults=((),))
_TABLE = {
    "newton": _Command({"newton-polygon"}, _r_newton),
    "slopes": _Command({"slope-factorization"}, _r_slopes),
    "squareclass": _Command({"square-class"}, _r_squareclass),
    "hilbert": _Command({"hilbert-base"}, _r_hilbert),
    "symbol": _Command({"legendre", "irreducible-certified", "coprime"}, _r_symbol),
    "check-mult": _Command({"law"}, _r_law("multiplicativity", "p", "r", "q")),
    "check-recip": _Command({"law"}, _r_law("reciprocity", "p", "q")),
    "isotropy": _Command({"isotropy-local"}, _r_isotropy),
    "construct-s": _Command({"even-vertices", "irreducible-certified", "coprime", "construct-identity",
                             "symbol-condition", "residue-test"}, _r_construct_s,
                            ("gamma", "g", "metrics.samples")),
    "predicate": _Command({"gamma-valid", "predicate-witness", "anisotropy-at-t"}, _r_predicate, ("x",)),
    "elliptic-point": _Command({"elliptic-point", "hensel"}, _r_elliptic),
    "corpus": _Command({"law-corpus"}, _r_corpus),
}
COMMANDS = frozenset(_TABLE)


def _per_document(fn):
    """fn handles one document; the parse and corpus memos serve that document only."""
    @functools.wraps(fn)
    def scoped(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        finally:
            _parsed.clear()
            corpus_summary.cache_clear()
    return scoped


@_per_document
def make_certificate(command: str, ctx: PadicContext, assertions: list, seed=None, **given) -> dict:
    """A certificate document whose result is derived from its assertions, as ``verify`` derives it."""
    doc = {"schema": SCHEMA, "command": command, "context": context_block(ctx),
           "result": _TABLE[command].derive(assertions, ctx, seed, **given), "assertions": assertions}
    if seed is not None:
        doc["seed"] = seed
    return doc


def _given(result, paths) -> dict:
    """The inputs no assertion carries, read from the recorded result; a missing one is None."""
    given = {}
    for path in paths:
        node = result
        for key in path.split("."):
            node = node.get(key) if isinstance(node, dict) else None
        given[key] = node
    return given


@_per_document
def verify_certificate(doc: dict) -> tuple[bool, list[str]]:
    """Recompute every assertion of a certificate document, then its result.

    Returns (ok, problems); ok is True only when the schema matches, the
    command is one of ``COMMANDS`` and writes every assertion kind the
    document carries, the context reconstructs, every assertion's recorded
    outputs agree with fresh computations from its recorded inputs, and the
    result block, derived from the assertions by the function the CLI uses,
    is the recorded one as canonical JSON (so ``true`` is not ``1``).
    """
    problems: list[str] = []
    if not isinstance(doc, dict):
        return False, ["the document is not a JSON object"]
    if doc.get("schema") != SCHEMA:
        return False, [f"unknown schema {doc.get('schema')!r}"]
    command = doc.get("command")
    entry = _TABLE.get(command) if isinstance(command, str) else None
    if entry is None:
        problems.append(f"unknown command {command!r}")
    if "seed" in doc and type(doc["seed"]) is not int:
        problems.append(f"seed {doc['seed']!r} is not an integer")
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
        if entry is not None and kind not in entry.kinds:
            problems.append(f"assertion {k}: {command} writes no {kind} assertion")
        try:
            problems.extend(f"assertion {k} ({kind}): {msg}" for msg in fn(a, ctx))
        except PadicFormsError as exc:
            problems.append(f"assertion {k} ({kind}): recomputation failed: {exc}")
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            problems.append(f"assertion {k} ({kind}): malformed payload: {exc!r}")
    if problems:  # a result derived from assertions that do not verify proves nothing
        return False, problems
    recorded = doc.get("result")
    try:
        derived = entry.derive(assertions, ctx, doc.get("seed"), **_given(recorded, entry.inputs))
    except (PadicFormsError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return False, [f"result: not derivable from the assertions: {exc}"]
    if not isinstance(recorded, dict):
        return False, ["result: not a JSON object"]
    if _same(derived, recorded):
        return True, []
    for key in sorted(derived.keys() | recorded.keys()):
        if key not in recorded or key not in derived or not _same(derived[key], recorded[key]):
            texts = [json.dumps(block[key], sort_keys=True) if key in block else "(absent)"
                     for block in (recorded, derived)]
            problems.append(f"result.{key}: recorded {texts[0]}, derived {texts[1]}")
    return False, problems


def verify_certificate_file(path: str) -> tuple[bool, list[str]]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            return False, [f"not valid JSON: {exc}"]
    return verify_certificate(doc)
