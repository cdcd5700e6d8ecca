"""Certificate serialization and re-verification.

Every verdict the package emits can be saved as a JSON document under the
schema "padic-forms/1" and re-verified later.  An assertion is its inputs
plus what one builder per kind computes from them (:func:`assertion`):
the CLI writes each assertion with it, and :func:`verify_certificate`
rebuilds each from its recorded inputs.  Each command's result block is
then derived from its assertions by the one function the CLI builds it
with, so a tampered input, symbol value, witness or result field breaks
at least one recomputation.

Serialization rules: rationals are strings "num/den" in lowest terms, polynomials their
canonical grammar text, symbols the integers +-1; ``verify`` accepts no other spelling, nor
a context block or top-level key the writer does not write, so equal texts are equal values.
Documents are dumped with sorted keys so identical inputs produce identical bytes.
"""

from __future__ import annotations

import functools
import json
import math
from collections import namedtuple
from fractions import Fraction

import padicforms

from .errors import ConditionFailed, NotCoprime, OddVertex, PadicFormsError, PreconditionFailed
from .padics import PadicContext, above_digits, hilbert_symbol_qp, square_class_rational, vp_int
from .parsing import check_exponent, parse_poly, parse_rational_function
from .polynomials import PadicPolynomial, RationalFunction

SCHEMA = "padic-forms/1"
_DOCUMENT_KEYS = frozenset(("schema", "command", "context", "result", "assertions", "seed"))  # make_certificate writes
# the memos of the document being handled, which its assertions and its result share and _per_document
# empties when it is done: text -> polynomial, the one parse of each text (an entry serves only the context
# object it was parsed under, so it never changes a result); polynomial -> its one text; (p, q) -> (context, <p/q>)
_parsed: dict = {}
_texts: dict = {}
_symbols: dict = {}


def rat_str(x) -> str:
    x = x if type(x) is Fraction else Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def parse_rat(s: str) -> Fraction:
    """Parse the "n/d" that rat_str writes; any other spelling, or anything but a string, is a ValueError."""
    x = Fraction(*map(int, s.split("/", 1))) if isinstance(s, str) else None
    if x is None or f"{x.numerator}/{x.denominator}" != s:
        raise ValueError(f"{s!r} is not a rational written n/d in lowest terms")
    return x


def _parse(text: str, ctx: PadicContext) -> PadicPolynomial:
    """The polynomial of a canonical text; a text its parse does not render back to is a ValueError."""
    poly = _parsed.get(text)
    if poly is None or poly.field is not ctx:
        poly = parse_poly(text, ctx)
        if _text(poly) != text:
            raise ValueError(f"polynomial {text!r} is not written {_text(poly)!r}")
        _parsed[text] = poly
    return poly


def _text(poly: PadicPolynomial) -> str:
    """poly's canonical text, rendered once per document, so never for a polynomial the document spells."""
    if poly not in _texts:
        _texts[poly] = poly.to_text()
    return _texts[poly]


def _symbol(p: PadicPolynomial, q: PadicPolynomial, ctx: PadicContext) -> int:
    hit = _symbols.get((p, q))
    if hit is None or hit[0] is not ctx:
        hit = _symbols[p, q] = (ctx, padicforms.reciprocity.legendre_symbol(p, q, ctx))
    return hit[1]


def context_block(ctx: PadicContext) -> dict:
    return {"prime": ctx.p, "uniformizer": rat_str(ctx.uniformizer), "precision": ctx.precision_digits}


def context_from_block(block: dict) -> PadicContext:
    """The context of a block as context_block writes it; any other block is a ValueError."""
    ctx = PadicContext(_int(block["prime"], "prime"), _int(block["precision"], "precision"),
                       parse_rat(block["uniformizer"]))
    if len(block) != 3:  # the three are read as context_block writes them, so a fourth key is the one difference
        raise ValueError(f"the block is not {json.dumps(context_block(ctx), sort_keys=True)}")
    return ctx


def dump_certificate(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _same(a, b) -> bool:
    """Equal as canonical JSON: Python's == takes true for 1 and 1.0 for 1, this does not."""
    if type(a) is dict:
        if type(b) is not dict or a.keys() != b.keys():
            return False
        for k, v in a.items():  # a rebuilt assertion holds the recorded inputs themselves: no call for those
            if v is not b[k] and not _same(v, b[k]):
                return False
        return True
    if type(a) in (list, tuple):
        return type(b) in (list, tuple) and len(a) == len(b) and all(map(_same, a, b))
    return type(a) is type(b) and a == b


# ---------------------------------------------------------------------------
# assertions: one builder per kind, which the CLI writes with and verify rebuilds with
# ---------------------------------------------------------------------------


def _int(value, name: str) -> int:
    """value, when it is a JSON integer: echoed back, true would pass for 1."""
    if type(value) is not int:
        raise TypeError(f"{name} {value!r} is not an integer")
    return value


def _digits(digits) -> None:
    if _int(digits, "digit target") < 0:
        raise PreconditionFailed(f"digit target {digits} is negative")


def _hilbert(ctx, a, b):
    return {"value": hilbert_symbol_qp(parse_rat(a), parse_rat(b), ctx)}


def _legendre(ctx, p, q):
    return {"value": _symbol(_parse(p, ctx), _parse(q, ctx), ctx)}


# the laws check-mult and check-recip check: the reciprocity function that checks each, and the
# polynomials it reads
_LAWS = {"multiplicativity": ("check_multiplicativity", ("p", "r", "q")),
         "reciprocity": ("check_reciprocity", ("p", "q"))}


def _law(ctx, law, inputs):
    """The law's values and verdict, and its inputs as the check reads them: the canonical texts, echoed."""
    if law not in _LAWS:
        raise ValueError(f"unknown law {law!r}")
    check, names = _LAWS[law]
    res = getattr(padicforms.reciprocity, check)(*[_parse(inputs[n], ctx) for n in names], ctx)
    return {"inputs": {n: inputs[n] for n in names}, "values": res.values, "holds": res.holds}


def _square_class(ctx, x):
    return {"representative": rat_str(square_class_rational(parse_rat(x), ctx))}


def _newton(ctx, poly):
    polygon = padicforms.newton.newton_polygon(_parse(poly, ctx))
    return {"vertices": [[i, rat_str(v)] for i, v in polygon.vertices],
            "slopes": [rat_str(e.slope) for e in polygon.edges]}


def _even_vertices(ctx, poly):
    polygon = padicforms.newton.newton_polygon(_parse(poly, ctx))
    if not polygon.all_vertices_even():
        raise OddVertex(f"polygon of {poly} has odd-degree vertices {polygon.odd_vertices()}")
    return {}


def _slope_factorization(ctx, poly, unit, digits, factors):
    """unit times the factors, each of one edge of its recorded slope, is poly to more than digits digits."""
    _digits(digits)
    product = PadicPolynomial.from_rationals([parse_rat(unit)], ctx)
    for text, slope in factors:
        factor = _parse(text, ctx)
        product = product * factor
        edge = rat_str(padicforms.newton.newton_polygon(factor).single_edge().slope)
        if edge != slope:
            raise ConditionFailed(f"factor {text} has slope {edge}, not {slope!r}")
    residual = product - _parse(poly, ctx)
    if not above_digits(residual.num, residual.den, ctx.p, digits):
        v = padicforms.newton.min_coefficient_valuation(residual)
        raise ConditionFailed(f"product residual valuation {v} is not above {digits}")
    return {}


def _hensel(ctx, poly, start, root, digits):
    """root is a root of poly to more than digits digits, in the Hensel ball around start."""
    _digits(digits)
    f, x, a = _parse(poly, ctx), parse_rat(root), parse_rat(start)
    value = f.evaluate(x)
    if not above_digits((value.numerator,), value.denominator, ctx.p, digits):
        raise ConditionFailed("residual valuation at the recorded root is not above the digit target")
    dstart = f.derivative().evaluate(a)
    if dstart != 0 and f.evaluate(a) != 0:
        moved = ctx.vp(x - a)  # the ball, at the reported precision (see HenselWitness)
        if not (moved > ctx.vp(dstart) or moved >= digits + 1):
            raise ConditionFailed("the recorded root left the Hensel ball around the starting point")
    return {}


def _construct_identity(ctx, a, b, q, r, c, h, e, pi_exponent):
    """c = a + q b = r + pi^pi_exponent t^e h: the ring construction of one case-one factor of s."""
    check_exponent(_int(e, "e"))
    check_exponent(abs(_int(pi_exponent, "pi_exponent")))
    a, b, q, r, c, h = [_parse(x, ctx) for x in (a, b, q, r, c, h)]
    if a + q * b != c:
        raise ConditionFailed("identity c = a + q b fails")
    if r + h * PadicPolynomial.monomial(ctx.uniformizer ** pi_exponent, e, ctx) != c:
        raise ConditionFailed("identity c = r + pi^(m e) t^e h fails")
    return {}


def _symbol_condition(ctx, name, p, q, rhs=None, p2=None, q2=None):
    """<p/q> against rhs: a constant that <p/q> must equal, or <p2/q2>, computed here, when they are given."""
    if name not in padicforms.construct.CONDITION_FAMILIES:
        raise ValueError(f"unknown condition {name!r}")
    lhs = _symbol(_parse(p, ctx), _parse(q, ctx), ctx)
    if p2 is q2 is None:
        if not _same(lhs, rhs):
            raise ConditionFailed(f"condition {name} fails at q = {q}: <p/q> is {lhs}, not {rhs!r}")
    else:
        rhs = _symbol(_parse(p2, ctx), _parse(q2, ctx), ctx)
    return {"lhs": lhs, "rhs": rhs, "holds": lhs == rhs}


def _residue_test(ctx, x, y, place):
    test = padicforms.quadform.pfister_residue_test(_parse(x, ctx), _parse(y, ctx), _parse(place, ctx), ctx)
    return {"symbol": test.symbol_value, "is_zero": test.is_zero}


def _gamma_valid(ctx, gamma):
    if padicforms.quadform.i2_class(parse_rat(gamma), ctx) != -1:
        raise ConditionFailed(f"gamma {gamma} does not give an anisotropic binary Pfister form")
    return {}


def _predicate_witness(ctx, x, c):
    """The polynomial g that x and c give, whose polygon has only even vertices."""
    value = parse_rat(c)
    report = padicforms.h10.build_f(parse_rational_function(x, ctx), value, ctx)
    g = padicforms.h10.witness_g(*padicforms.h10.strip_t(report.h_num, report.h_den), value)
    if not padicforms.newton.newton_polygon(g).all_vertices_even():
        raise OddVertex(f"the witness c = {c} does not give an all-even polygon")
    return {"g": g.to_text()}


def _anisotropy_at_t(ctx, f, gamma):
    res = padicforms.h10.anisotropy_at_t(parse_rational_function(f, ctx), parse_rat(gamma), ctx)
    return {"v_t_f": res.v_t_f, "leading_coefficient": rat_str(res.leading_coefficient),
            "anisotropic_form": res.anisotropic_form}


def _elliptic_point(ctx, y, x, digits):
    """The hensel assertion proves v(x^3 - x - y^2) > digits: _r_elliptic ties it to this point."""
    _digits(digits)
    return {}


def _isotropy_local(ctx, entries):
    if not isinstance(entries, list) or not entries:
        raise ValueError("isotropy-local entries must be a non-empty list")
    form = padicforms.quadform.DiagonalForm.make([parse_rat(e) for e in entries], ctx)
    return {"isotropic": padicforms.quadform.isotropic_over_local(form)}


def _irreducible(ctx, poly):
    padicforms.quadform.certify_factor(_parse(poly, ctx))
    return {}


def _coprime(ctx, f, g):
    if _parse(f, ctx).gcd(_parse(g, ctx)).degree != 0:
        raise NotCoprime(f"{f} and {g} are not coprime")
    return {}


def _law_corpus(ctx, law, cases, seed):
    return {"passes": corpus_summary(ctx, law, _int(cases, "cases"), _int(seed, "seed"))["passes"]}


# one entry per assertion kind: its builder and its input fields.  The assertion is the
# inputs, echoed, and the fields the builder computes from them; a builder that checks a
# property computes no field and raises when the property fails.
_Kind = namedtuple("_Kind", "build inputs")
_KINDS = {
    "hilbert-base": _Kind(_hilbert, ("a", "b")),
    "legendre": _Kind(_legendre, ("p", "q")),
    "law": _Kind(_law, ("law", "inputs")),
    "square-class": _Kind(_square_class, ("x",)),
    "newton-polygon": _Kind(_newton, ("poly",)),
    "even-vertices": _Kind(_even_vertices, ("poly",)),
    "slope-factorization": _Kind(_slope_factorization, ("poly", "unit", "digits", "factors")),
    "hensel": _Kind(_hensel, ("poly", "start", "root", "digits")),
    "construct-identity": _Kind(_construct_identity, ("a", "b", "q", "r", "c", "h", "e", "pi_exponent")),
    "symbol-condition": _Kind(_symbol_condition, ("name", "p", "q", "rhs", "p2", "q2")),
    "residue-test": _Kind(_residue_test, ("x", "y", "place")),
    "gamma-valid": _Kind(_gamma_valid, ("gamma",)),
    "predicate-witness": _Kind(_predicate_witness, ("x", "c")),
    "anisotropy-at-t": _Kind(_anisotropy_at_t, ("f", "gamma")),
    "elliptic-point": _Kind(_elliptic_point, ("y", "x", "digits")),
    "isotropy-local": _Kind(_isotropy_local, ("entries",)),
    "irreducible-certified": _Kind(_irreducible, ("poly",)),
    "coprime": _Kind(_coprime, ("f", "g")),
    "law-corpus": _Kind(_law_corpus, ("law", "cases", "seed")),
}


def assertion(kind: str, ctx: PadicContext, **inputs) -> dict:
    """The assertion of this kind at these inputs, as the CLI writes it and ``verify`` rebuilds it.

    A computed field replaces the input of its name: law's inputs are the texts
    the check read, and a symbol condition's rhs is <p2/q2> when it has them.
    """
    return {"kind": kind, **inputs, **_KINDS[kind].build(ctx, **inputs)}


def _diff(where: str, recorded: dict, derived: dict) -> list[str]:
    """One line per key that only one side has, or whose values differ as canonical JSON."""
    return [f"{where}.{key}: recorded {_json(recorded, key)}, derived {_json(derived, key)}"
            for key in sorted(derived.keys() | recorded.keys())
            if key not in recorded or key not in derived or not _same(derived[key], recorded[key])]


def _json(block: dict, key) -> str:
    return json.dumps(block[key], sort_keys=True) if key in block else "(absent)"


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
    if law == "predicate":
        return padicforms.h10.run_predicate_corpus(ctx, cases, seed)
    return padicforms.reciprocity.run_law_corpus(ctx, law, cases, seed)


def _r_newton(assertions, ctx, seed):
    text = _one(assertions, "newton-polygon")["poly"]
    polygon = padicforms.newton.newton_polygon(_parse(text, ctx))
    return {
        "poly": text,
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
    return {"a": a["a"], "b": a["b"], "value": value,
            "oracle": value if padicforms.oracles.within_budget(ctx) else _SKIPPED}


def _r_symbol(assertions, ctx, seed):
    a = _one(assertions, "legendre")
    if [_one(assertions, "irreducible-certified"), _one(assertions, "coprime")] != [
            {"kind": "irreducible-certified", "poly": a["q"]}, {"kind": "coprime", "f": a["p"], "g": a["q"]}]:
        raise ValueError("the irreducible and coprime assertions are not about the symbol's q and p")
    place, evidence = padicforms.reciprocity.certify_modulus(_parse(a["q"], ctx), ctx)
    result = {"p": a["p"], "q": a["q"], "value": a["value"], "modulus_evidence": evidence}
    if place is not ctx:  # the uniformizer's coefficients in powers of alpha, padded to deg q
        pi = [rat_str(c) for c in place.uniformizer.coeffs] + ["0/1"] * place.modulus.degree
        result["field"] = {"ramification_index": place.ramification_index, "residue_degree": place.residue_degree,
                           "uniformizer_coefficients": pi[:place.modulus.degree]}
    return result


def _r_law(law):
    def derive(assertions, ctx, seed):
        a = _one(assertions, "law")
        if a["law"] != law:
            raise ValueError(f"the law assertion is {a['law']!r}, not {law!r}")
        return {"law": law, "inputs": a["inputs"], "values": a["values"], "holds": a["holds"]}
    return derive


def _r_isotropy(assertions, ctx, seed, oracle_witness=None):
    """The cross-check within the budget: a recorded isotropic witness is checked, else the residue search runs.

    The CLI records no witness yet, so it searches; ``verify`` searches for an
    anisotropic verdict only, and rebuilds a positive one's witness from its solution.
    """
    a = _one(assertions, "isotropy-local")
    verdict, witness = a["isotropic"], _SKIPPED
    if padicforms.oracles.within_budget(ctx):
        entries = [parse_rat(e) for e in a["entries"]]
        solution = oracle_witness.get("solution") if isinstance(oracle_witness, dict) else None
        if verdict is True and solution is not None:
            witness = padicforms.oracles.checked_witness(entries, solution, ctx)
        else:
            oracle, witness = padicforms.oracles.isotropic_by_search(entries, ctx)
            if oracle != verdict:
                raise PadicFormsError(f"criterion {verdict} disagrees with search oracle {oracle}")
    return {"entries": a["entries"], "isotropic": verdict, "oracle_witness": witness}


def construct_s_inputs(gamma, g, epsilon, blocks, ctx, identities=()) -> tuple:
    """The (kind, inputs) of every assertion of a construct-s document, in document order, and s.

    The one statement of what such a document asserts: the CLI writes each assertion with
    :func:`assertion` from its inputs, and ``verify`` compares the document with them.
    blocks are as construct.symbol_obligations reads them, a polynomial is named by its
    text, and the ring identities' inputs, given, sit between s's factors and the symbol conditions.
    """
    construct = padicforms.construct
    g_factors, s_factors = [f for gs, _ in blocks for f in gs], [f for _, ss in blocks for f in ss]
    forms = construct.pfister_forms(gamma, epsilon, g_factors, s_factors, ctx)
    slots = [(x.value(ctx), y.value(ctx)) for x, y in forms]  # (-gamma, -s) and (t g, -t s)
    tg = _text(slots[1][0])
    out = [("even-vertices", {"poly": _text(g)})]
    out += [("irreducible-certified", {"poly": _text(f)}) for f in g_factors]
    for f in s_factors:
        out += [("irreducible-certified", {"poly": _text(f)}), ("coprime", {"f": _text(f), "g": tg})]
    out += [("construct-identity", inputs) for inputs in identities]
    for name, p, q, rhs, p2, q2 in construct.symbol_obligations(gamma, epsilon, blocks, ctx, _symbol):
        inputs = {"rhs": rhs} if p2 is None else {"p2": _text(p2), "q2": _text(q2)}
        out.append(("symbol-condition", {"name": name, "p": _text(p), "q": _text(q), **inputs}))
    for (x, y), values in zip(forms, slots):
        x_text, y_text = map(_text, values)
        out += [("residue-test", {"x": x_text, "y": y_text, "place": _text(q)})
                for q in padicforms.quadform.milnor_places(x, y)]
    return out, -slots[0][1]


def _parts(entries) -> dict:
    """(kind, inputs) pairs by what verify reports as one: the certified polynomials, each family, the residue tests.

    The ring identities are a part of their own, which the document supplies and _r_construct_s checks.
    """
    parts = {}
    for kind, inputs in entries:
        part = inputs["name"] if kind == "symbol-condition" else (
            kind if kind in ("residue-test", "construct-identity") else "certified")
        parts.setdefault(part, []).append((kind, inputs))
    return parts


def _r_construct_s(assertions, ctx, seed, gamma, g, samples):
    """construct-s's result: g and gamma, then what the construction's assertions record.

    A constant g, a constant times a square, or a square gamma decides the corollary with no
    construction, and the document carries no assertion.  Otherwise s's factors are the coprime
    assertions' f, g's factors the other certified irreducibles, distinct and monic, and g is a
    constant times their product g0 times a square, so g0 is g's squarefree odd part; s = epsilon
    * prod(s's factors).  g's slope blocks are its factors grouped by their one edge's slope, and
    each s factor's slope must be one of theirs.  Each case-one factor of s has its ring identity,
    and the assertions are exactly the list construct_s_inputs gives for these blocks and
    identities, in its order; the verdict is that every residue test vanishes.
    """
    construct = padicforms.construct
    result = {"gamma": gamma, "g": g}
    gamma, g = parse_rat(gamma), _parse(g, ctx)
    if not assertions:
        note = construct.degenerate_note(gamma, g, ctx)
        if note is not None:
            return {**result, "isotropic": True, "note": note}
    s_texts = [a["f"] for a in assertions if a["kind"] == "coprime"]
    g_texts = [a["poly"] for a in assertions if a["kind"] == "irreducible-certified" and a["poly"] not in s_texts]
    s_factors, g_factors = [_parse(text, ctx) for text in s_texts], [_parse(text, ctx) for text in g_texts]
    g0 = math.prod(g_factors, start=PadicPolynomial.one(ctx))
    square, rest = divmod(g, g0)
    if not s_texts or not g_texts or not rest.is_zero() or any(sf.degree % 2 for sf in s_factors):
        raise ValueError("g and s need factors, g's must divide g, and s's must have even degree")
    # one exact division when g is squarefree; a squarefree decomposition only when g has a square part
    if len(set(g_factors)) < len(g_factors) or not all(f.is_monic() for f in g_factors) or (
            square.degree > 0 and any(k % 2 for _, k in square.squarefree_decomposition())):
        raise ValueError("g is not a constant times a square times its factors, distinct and monic")
    if construct.degenerate_note(gamma, g, ctx, g0) is not None:
        raise ValueError("a corollary that g or gamma decides carries no assertion")

    def slope(f):  # f is certified irreducible, so it has one edge, of slope (v(a_d) - v(a_0)) / d
        return Fraction(vp_int(f.num[-1], ctx.p) - vp_int(f.num[0], ctx.p), f.degree)

    blocks = {}  # construct.prepare's slope blocks: g's factors and s's factors of each slope
    for f in g_factors:
        blocks.setdefault(slope(f), ([], []))[0].append(f)
    for sf in s_factors:
        m = slope(sf)
        if m not in blocks:
            raise ValueError(f"s factor {_text(sf)} has slope {m}, the slope of no factor of g")
        blocks[m][1].append(sf)
    # a slope of odd denominator is case one (construct._case_one): c pi^(-m deg c) for its ring
    # identity's c, with m = pi_exponent / e; case two has no identity
    identities = [a for a in assertions if a["kind"] == "construct-identity"]
    case_one = [sf for sf in s_factors if slope(sf).denominator % 2]
    scaled = []
    for a in identities:
        c = _parse(a["c"], ctx)
        k = Fraction(-a["pi_exponent"] * c.degree, a["e"])
        scaled.append(c * ctx.uniformizer ** k.numerator if k.denominator == 1 else None)
    if scaled != case_one:
        raise ValueError("the ring identities are not one per case-one factor of s, at that factor")
    epsilon = construct.leading_unit(g, ctx)
    entries, s = construct_s_inputs(gamma, g, epsilon, [blocks[m] for m in sorted(blocks)], ctx,
                                    [{n: a[n] for n in _KINDS[a["kind"]].inputs} for a in identities])
    recorded = [(a["kind"], {n: a[n] for n in _KINDS[a["kind"]].inputs
                             if n in a and (n != "rhs" or "p2" not in a)})  # with p2, rhs is the builder's
                for a in assertions]
    if recorded != entries:
        got, want = _parts(recorded), _parts(entries)
        mismatch = {"certified": "the certified polynomials are not g, its factors, and s's factors against t g",
                    **{name: f"the {name} conditions are not at the result's polynomials, one per factor"
                       for name in construct.CONDITION_FAMILIES},
                    "residue-test": "the residue tests are not the two Pfister forms' at their places"}
        raise ValueError(next((message for part, message in mismatch.items() if got.get(part) != want.get(part)),
                              "the assertions are not in the order construct-s writes them"))
    isotropic = all(a["is_zero"] is True for a in assertions if a["kind"] == "residue-test")
    return {**result, "isotropic": isotropic, "note": construct.WITT_NOTES[isotropic],
            "s": _text(s), "s_factors": s_texts, "g_factors": g_texts, "epsilon": rat_str(epsilon),
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
        return {**result, "verdict": True, "note": padicforms.h10.WITNESS_NOTE, "witness_c": a["c"]}
    a = _one(assertions, "anisotropy-at-t")
    if a["f"] != RationalFunction(*padicforms.h10.build_h(x)).to_text() or a["gamma"] != result["gamma"]:
        raise ValueError("the anisotropy is not about the h that x gives, or not at the document's gamma")
    return {**result, "verdict": False, "note": padicforms.h10.ANISOTROPY_NOTE.format(a["anisotropic_form"])}


def _r_elliptic(assertions, ctx, seed):
    a, h = _one(assertions, "elliptic-point"), _one(assertions, "hensel")
    y = parse_rat(a["y"])
    if [_parse(h["poly"], ctx), h["start"], h["root"], h["digits"]] != [
            padicforms.h10.elliptic_cubic(y, ctx), "0/1", a["x"], a["digits"]]:
        raise ValueError("the hensel assertion is not the lift of x^3 - x = y^2 from 0 to x")
    return {"y": a["y"], "x": a["x"], "digits": a["digits"], "slack": "inf" if y == 0 else str(2 * ctx.vp(y))}


def _r_corpus(assertions, ctx, seed):
    a = _one(assertions, "law-corpus")
    if type(seed) is not int or a["seed"] != seed:
        raise ValueError(f"the corpus seed {a['seed']!r} is not the document's {seed!r}")
    return dict(corpus_summary(ctx, a["law"], a["cases"], a["seed"]))


# one entry per certificate-emitting subcommand: every assertion kind it writes, the function
# that derives its result block, the result fields that no assertion carries (a dotted path
# reads a nested one) and whether it records a seed.  The function reads the assertions the
# result rests on and raises when one is missing, so no command's result stands without them.
_Command = namedtuple("_Command", "kinds derive inputs seeded", defaults=((), False))
_TABLE = {
    "newton": _Command({"newton-polygon"}, _r_newton),
    "slopes": _Command({"slope-factorization"}, _r_slopes),
    "squareclass": _Command({"square-class"}, _r_squareclass),
    "hilbert": _Command({"hilbert-base"}, _r_hilbert),
    "symbol": _Command({"legendre", "irreducible-certified", "coprime"}, _r_symbol),
    "check-mult": _Command({"law"}, _r_law("multiplicativity")),
    "check-recip": _Command({"law"}, _r_law("reciprocity")),
    "isotropy": _Command({"isotropy-local"}, _r_isotropy, ("oracle_witness",)),
    "construct-s": _Command({"even-vertices", "irreducible-certified", "coprime", "construct-identity",
                             "symbol-condition", "residue-test"}, _r_construct_s,
                            ("gamma", "g", "metrics.samples"), True),
    "predicate": _Command({"gamma-valid", "predicate-witness", "anisotropy-at-t"}, _r_predicate, ("x",), True),
    "elliptic-point": _Command({"elliptic-point", "hensel"}, _r_elliptic),
    "corpus": _Command({"law-corpus"}, _r_corpus, seeded=True),
}
COMMANDS = frozenset(_TABLE)


def _per_document(fn):
    """fn handles one document; the parse, symbol and corpus memos serve that document only."""
    @functools.wraps(fn)
    def scoped(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        finally:
            _parsed.clear()
            _texts.clear()
            _symbols.clear()
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
    document carries, an integer seed is there exactly when the command
    records one, every top-level key, context block, polynomial and
    rational is in the one spelling the CLI writes, every assertion, rebuilt
    from its recorded inputs by the builder the CLI writes it with, is the
    recorded one, and so is the result block, derived from the assertions
    by the function the CLI uses.  Both compare as canonical JSON, so
    ``true`` is not ``1`` and an unknown key is a difference.
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
    elif entry.seeded != ("seed" in doc):
        problems.append(f"{command} records {'a' if entry.seeded else 'no'} seed")
    if "seed" in doc and type(doc["seed"]) is not int:
        problems.append(f"seed {doc['seed']!r} is not an integer")
    problems += [f"unknown key {key!r}" for key in sorted(doc.keys() - _DOCUMENT_KEYS)]
    try:
        ctx = context_from_block(doc["context"])
    except Exception as exc:
        return False, [f"invalid context: {exc}"]
    assertions = doc.get("assertions")
    if not isinstance(assertions, list) or not all(isinstance(a, dict) for a in assertions):
        return False, ["assertions must be a list of JSON objects"]
    for k, a in enumerate(assertions):
        kind = a.get("kind")
        spec = _KINDS.get(kind) if isinstance(kind, str) else None
        if spec is None:
            problems.append(f"assertion {k}: unknown kind {kind!r}")
            continue
        if entry is not None and kind not in entry.kinds:
            problems.append(f"assertion {k}: {command} writes no {kind} assertion")
        try:  # a recorded null is an absent input, as symbol-condition's p2 and q2 may be
            rebuilt = assertion(kind, ctx, **{n: a[n] for n in spec.inputs if a.get(n) is not None})
        except PadicFormsError as exc:
            problems.append(f"assertion {k} ({kind}): recomputation failed: {exc}")
            continue
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            problems.append(f"assertion {k} ({kind}): malformed payload: {exc!r}")
            continue
        if not _same(rebuilt, a):
            problems += _diff(f"assertion {k} ({kind})", a, rebuilt)
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
    return False, _diff("result", recorded, derived)


def verify_certificate_file(path: str) -> tuple[bool, list[str]]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            return False, [f"not valid JSON: {exc}"]
    return verify_certificate(doc)
