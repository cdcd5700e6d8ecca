"""The quadratic reciprocity symbol for polynomials over Q_p.

For q monic irreducible with root alpha and p coprime to q, the symbol
<p/q> is the class of <1,pi><1,-p(alpha)> in I^2(K(alpha)) = Z/2,
written multiplicatively as +-1.  It is computed through the norm
projection (p(alpha), -pi)_{K(alpha)} = (N(p(alpha)), -pi)_{Q_p}, with
the norm the exact resultant Res(q, p mod q) at q's ``quadform.Place``,
and is invariant under multiplying p by powers of pi.

The laws checked here: multiplicativity <pr/q> = <p/q><r/q>; the
constant rule <c/q> = <c/t>^deg q; and the reciprocity law
<p/q> = <-1/t>^(deg p deg q) <q/p> for distinct monic irreducibles.
The symbol is exposed for q = t as well (evaluation at alpha = 0).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotCoprime, NotIrreducible, PadicFormsError, PreconditionFailed
from .padics import PadicContext
from .parsing import LAWS
from .polynomials import PadicPolynomial
from .quadform import at_place, i2_class, local_field, residue_field


def certify_modulus(q: PadicPolynomial, ctx: PadicContext):
    """Return (residue_field, evidence) for a monic irreducible modulus.

    Degree 1 is trivially irreducible and its residue field is Q_p;
    otherwise q's place certifies irreducibility by the polygon criteria
    and raises NotIrreducible when it cannot.
    """
    _require_monic(q)
    field = residue_field(q, ctx)
    return field, "linear" if q.degree == 1 else field.evidence


def _require_monic(q: PadicPolynomial) -> None:
    if not q.is_monic() or q.degree < 1:
        raise NotIrreducible("modulus must be monic of degree >= 1")


def _value_at_root(p: PadicPolynomial, q: PadicPolynomial, ctx: PadicContext):
    """(the place q, p(alpha)) at a root alpha of the modulus q, through ``at_place``.

    NotCoprime when q divides p, p = 0 included; NotIrreducible when q is
    not monic or its irreducibility cannot be certified.
    """
    if p.is_zero():
        raise NotCoprime("p vanishes modulo q")
    _require_monic(q)
    field, v, value = at_place(p, q, ctx)
    if v:
        raise NotCoprime("p vanishes modulo q")
    return field, value


def legendre_symbol(p: PadicPolynomial, q: PadicPolynomial, ctx: PadicContext) -> int:
    """<p/q> in {-1, +1}; requires gcd(p, q) = 1 and q monic irreducible."""
    field, value = _value_at_root(p, q, ctx)
    return i2_class(value, field)


def explicit_square_criterion(p: PadicPolynomial, q: PadicPolynomial, ctx: PadicContext) -> int:
    """Odd-p equivalent of the symbol through a single squareness test.

    Over an unramified modulus this is literally: +1 iff
    pi^(-v(p(alpha))) p(alpha) is a square in K(alpha)*.  Over a ramified
    modulus that expression has a fractional exponent, so the equivalent
    unit (-1)^(e w) u^e (-pi)^(-w) is tested instead (w the valuation
    normalized to Z); at e = 1 the two coincide.
    """
    if ctx.p == 2:
        raise PreconditionFailed("the square criterion applies to odd residue characteristic")
    _, value = _value_at_root(p, q, ctx)
    field = local_field(q, ctx)
    e, value = field.ramification_index, field.coerce(value)
    w = int(field.valuation(value) * e)
    xi = value ** e * field.coerce((-ctx.uniformizer) ** (-w) * Fraction(-1) ** (e * w))
    return 1 if field.is_square(xi) else -1


@dataclass(frozen=True)  # not a NamedTuple: perfbench/test_checks.py uses dataclasses.replace
class LawCheck:
    """One verified symbol identity with all computed values."""

    law: str
    inputs: dict  # the arguments themselves, polynomials and c a Fraction; run_law_corpus renders a failure's
    values: dict
    holds: bool


def check_multiplicativity(
    p: PadicPolynomial, r: PadicPolynomial, q: PadicPolynomial, ctx: PadicContext
) -> LawCheck:
    """<p r / q> = <p/q> <r/q>."""
    lhs = legendre_symbol(p * r, q, ctx)
    sp = legendre_symbol(p, q, ctx)
    sr = legendre_symbol(r, q, ctx)
    return LawCheck(
        "multiplicativity",
        {"p": p, "r": r, "q": q},
        {"lhs": lhs, "p_over_q": sp, "r_over_q": sr},
        lhs == sp * sr,
    )


def constant_symbol_check(c, q: PadicPolynomial, ctx: PadicContext) -> LawCheck:
    """<c/q> = <c/t>^(deg q) for constants c in K*."""
    c = Fraction(c)
    if c == 0:
        raise PreconditionFailed("constant must be nonzero")
    cp = PadicPolynomial.from_rationals([c], ctx)
    lhs = legendre_symbol(cp, q, ctx)
    base = legendre_symbol(cp, PadicPolynomial.x(ctx), ctx)
    rhs = base ** q.degree
    return LawCheck(
        "constant-rule",
        {"c": c, "q": q},
        {"lhs": lhs, "c_over_t": base, "deg_q": q.degree, "rhs": rhs},
        lhs == rhs,
    )


def check_pi_power_invariance(p: PadicPolynomial, q: PadicPolynomial, ctx: PadicContext) -> LawCheck:
    """<pi^n p / q> = <p/q> for n = 1, 2, 3."""
    base = legendre_symbol(p, q, ctx)
    values = {"base": base}
    holds = True
    for n in (1, 2, 3):
        s = legendre_symbol(p * ctx.uniformizer ** n, q, ctx)
        values[f"pi^{n}"] = s
        holds = holds and s == base
    return LawCheck("pi-power-invariance", {"p": p, "q": q}, values, holds)


def check_reciprocity(p: PadicPolynomial, q: PadicPolynomial, ctx: PadicContext) -> LawCheck:
    """<p/q> = <-1/t>^(deg p deg q) <q/p> for distinct monic irreducibles."""
    if p == q:
        raise PreconditionFailed("reciprocity needs distinct irreducibles")
    lhs = legendre_symbol(p, q, ctx)
    minus_one = PadicPolynomial.from_rationals([-1], ctx)
    m1t = legendre_symbol(minus_one, PadicPolynomial.x(ctx), ctx)
    rhs_sym = legendre_symbol(q, p, ctx)
    rhs = m1t ** (p.degree * q.degree) * rhs_sym
    return LawCheck(
        "reciprocity",
        {"p": p, "q": q},
        {
            "p_over_q": lhs,
            "minus_one_over_t": m1t,
            "q_over_p": rhs_sym,
            "exponent": p.degree * q.degree,
        },
        lhs == rhs,
    )


# ---------------------------------------------------------------------------
# seeded corpus generation
# ---------------------------------------------------------------------------


def random_rational(rng, bound: int = 50) -> Fraction:
    num = 0
    while num == 0:
        num = rng.randint(-bound, bound)
    return Fraction(num, rng.randint(1, bound))


def random_poly(rng, ctx: PadicContext, max_deg: int) -> PadicPolynomial:
    """Random nonzero polynomial with small integer times p-power coefficients."""
    deg = rng.randint(0, max_deg)
    coeffs = []
    for k in range(deg + 1):
        c = rng.randint(-9, 9)
        if c and rng.random() < 0.35:
            c *= ctx.p ** rng.randint(1, 2)
        coeffs.append(Fraction(c))
    if all(c == 0 for c in coeffs):
        coeffs[-1] = Fraction(1)
    if coeffs[-1] == 0:
        coeffs[-1] = Fraction(rng.choice([1, -1, 2]))
    return PadicPolynomial.from_rationals(coeffs, ctx)


def random_certified_irreducible(rng, ctx: PadicContext, max_deg: int = 4) -> PadicPolynomial:
    """Random monic irreducible modulus, certified by ``certify_modulus``.

    Mixes linear polynomials, Eisenstein-type polynomials, unramified
    reductions and lifted irreducible reductions with denominator 2;
    samples that the polygon criteria do not certify are discarded, and
    up to 400 are drawn.
    """
    p = ctx.p
    for _ in range(400):
        deg = rng.randint(1, max_deg)
        kind = rng.random()
        if deg == 1:
            cand = PadicPolynomial.from_rationals([-rng.randint(-9, 9), 1], ctx)
        elif kind < 0.4:
            # Eisenstein: slope -1/deg
            coeffs = [Fraction(p * rng.choice([c for c in range(-4, 5) if c % p]))]
            coeffs += [Fraction(p * rng.randint(-3, 3)) for _ in range(deg - 1)]
            coeffs += [Fraction(1)]
            cand = PadicPolynomial.from_rationals(coeffs, ctx)
        else:
            coeffs = [Fraction(rng.randint(0, p - 1)) for _ in range(deg)] + [Fraction(1)]
            if coeffs[0] == 0:
                coeffs[0] = Fraction(rng.randint(1, p - 1))
            cand = PadicPolynomial.from_rationals(coeffs, ctx)
        try:
            certify_modulus(cand, ctx)
        except PadicFormsError:
            continue
        return cand
    raise PreconditionFailed("could not sample a certified irreducible modulus")


def random_coprime_poly(rng, ctx, q: PadicPolynomial, max_deg: int = 3) -> PadicPolynomial:
    for _ in range(200):
        p = random_poly(rng, ctx, max_deg)
        if not p.is_zero() and not (p % q).is_zero():
            return p
    raise PreconditionFailed("could not sample a coprime polynomial")


# verify reruns every corpus a certificate names, at about 0.35 ms a case,
# so every case count read from a command line or a certificate is capped
MAX_CASES = 10_000


def check_case_count(cases: int) -> None:
    """PreconditionFailed when the case count is negative or exceeds ``MAX_CASES``."""
    if cases < 0:
        raise PreconditionFailed(f"the number of cases must be >= 0, got {cases}")
    if cases > MAX_CASES:
        raise PreconditionFailed(f"the number of cases must be at most {MAX_CASES}, got {cases}")


def run_law_corpus(ctx: PadicContext, law: str, cases: int, seed: int):
    """Run a seeded corpus of one symbol law; returns a summary dict."""
    if law not in LAWS:
        raise PreconditionFailed(f"unknown law {law!r}")
    check_case_count(cases)
    rng = random.Random(seed)
    passes, failures = 0, []
    for k in range(cases):
        if law == "check-mult":
            q = random_certified_irreducible(rng, ctx)
            p = random_coprime_poly(rng, ctx, q)
            r = random_coprime_poly(rng, ctx, q)
            res = check_multiplicativity(p, r, q, ctx)
        elif law == "constant":
            q = random_certified_irreducible(rng, ctx)
            res = constant_symbol_check(random_rational(rng, 30), q, ctx)
        elif law == "pi-invariance":
            q = random_certified_irreducible(rng, ctx)
            p = random_coprime_poly(rng, ctx, q)
            res = check_pi_power_invariance(p, q, ctx)
        elif law == "check-recip":
            q = random_certified_irreducible(rng, ctx)
            p = random_certified_irreducible(rng, ctx)
            while p == q:
                p = random_certified_irreducible(rng, ctx)
            res = check_reciprocity(p, q, ctx)
        else:  # square-criterion
            q = random_certified_irreducible(rng, ctx)
            p = random_coprime_poly(rng, ctx, q)
            s1 = legendre_symbol(p, q, ctx)
            s2 = explicit_square_criterion(p, q, ctx)
            res = LawCheck(
                "square-criterion",
                {"p": p, "q": q},
                {"i2": s1, "square_criterion": s2},
                s1 == s2,
            )
        if res.holds:
            passes += 1
        else:
            inputs = {n: str(x) if isinstance(x, Fraction) else x.to_text() for n, x in res.inputs.items()}
            failures.append({"case": k, "inputs": inputs, "values": res.values})
    return {
        "law": law,
        "prime": ctx.p,
        "seed": seed,
        "cases": cases,
        "passes": passes,
        "failures": failures,
    }
