"""Deciding "v_t(x) >= 0" through quadratic forms, with certificates.

For x in Q_p(t) set h = (1 + t + t^2 x^3) / (1 + t x^3) and f = h + c t^2.
If v_t(x) >= 0 then v_t(h) = 0 and v_infinity(h) = -1, and a constant c
of sufficiently low valuation makes every Newton polygon vertex of
g = h_N h_D + c t^2 h_D^2 even, which certifies that both forms

    <1,pi> <1,-gamma,-t,-f>    and    <1,pi> <1,-gamma,-t,-gamma f>

are isotropic over K(t).  If v_t(x) <= -1 then v_t(f) = 1 for every c,
and the residue forms at t (which do not involve c) show one of the two
forms anisotropic.  Here gamma is any constant with <1,pi><1,-gamma>
anisotropic, i.e. i2(gamma) = -1.

The constants themselves are pinned down by the elliptic curve
y^2 = x^3 - x: for v(y) > 0 a point (x, y) on the curve exists by Hensel
lifting from x = 0, and the curve admits no rational parametrization, so
its K(t)-points are its K-points.  Only the Hensel half is exercised
here.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

import padicforms

from .errors import (
    ConditionFailed,
    EvenValuation,
    PadicFormsError,
    PreconditionFailed,
)
from .newton import NewtonPolygon, newton_polygon
from .padics import INFINITY, PadicContext
from .polynomials import PadicPolynomial, RationalFunction


def find_gamma(ctx: PadicContext) -> Fraction:
    """The canonical constant with <1,pi><1,-gamma> anisotropic, i.e. i2(gamma) = -1.

    By the Hilbert symbol formulas (Serre, A Course in Arithmetic, ch. III)
    and v(-pi) = 1: for odd p, (u, -pi) = (u|p) for a unit u, so gamma is
    the least positive nonresidue mod p; for p = 2, (5, x) = (-1)^v(x), so
    gamma = 5.  The value is still checked.
    """
    gamma = Fraction(5) if ctx.p == 2 else Fraction(ctx.least_nonresidue())
    validate_gamma(gamma, ctx)
    return gamma


def validate_gamma(gamma, ctx: PadicContext) -> None:
    if padicforms.quadform.i2_class(Fraction(gamma), ctx) != -1:
        raise PreconditionFailed(
            f"gamma = {gamma} does not make <1,pi><1,-gamma> anisotropic"
        )


class FReport(NamedTuple):
    """f = h + c t^2 with the exact orders the case analysis uses."""

    f: RationalFunction
    h_num: PadicPolynomial
    h_den: PadicPolynomial
    c: Fraction
    v_t_f: object
    v_t_h: object
    v_inf_h: object


def build_h(x: RationalFunction):
    """h = (1 + t + t^2 x^3)/(1 + t x^3) as (numerator, denominator), cleared by d^3 for x = n/d."""
    n, d = x.num, x.den
    d3, n3t = d * d * d, (n * n * n).shift(1)
    return d3 + d3.shift(1) + n3t.shift(1), d3 + n3t


def build_f(x: RationalFunction, c, ctx: PadicContext) -> FReport:
    """Assemble f = (1 + t + t^2 x^3)/(1 + t x^3) + c t^2 exactly.

    The denominator 1 + t x^3 can never vanish identically: it would
    force 3 v_t(x) = -1.  Orders at t and infinity are reported exactly.
    """
    base = x.field
    h_num, h_den = build_h(x)
    if h_den.is_zero() or h_num.is_zero():
        raise PadicFormsError("degenerate h; unreachable for x in Q_p(t)")
    h = RationalFunction(h_num, h_den)
    f = h + PadicPolynomial.monomial(Fraction(c), 2, base)
    return FReport(f, h_num, h_den, Fraction(c), f.ord_t(), h.ord_t(), h.ord_infinity())


class WitnessC(NamedTuple):
    c: Fraction
    j: int
    polygon: NewtonPolygon
    g: PadicPolynomial


def choose_c(h_num: PadicPolynomial, h_den: PadicPolynomial, ctx: PadicContext) -> WitnessC:
    """Pick c = pi^(-j) making all vertices of g = h_N h_D + c t^2 h_D^2 even.

    Requires v_t(h) = 0 and v_infinity(h) >= -2.  Low enough v(c) places
    the degree-2 point on the hull below everything from h_N h_D, so the
    polygon consists of the edge from (0, v) to degree 2 followed by the
    (even-vertex) polygon of c t^2 h_D^2; the all-even property of the
    result is checked exactly and returned as the certificate.
    """
    if h_num.ord_t() - h_den.ord_t() != 0:
        raise PreconditionFailed("v_t(h) must be 0")
    h_num, h_den = strip_t(h_num, h_den)
    if h_den.degree - h_num.degree < -2:
        raise PreconditionFailed("v_infinity(h) must be >= -2")
    spread = max(abs(v) for f in (h_num * h_den, h_den * h_den) for _, v in f.valuations())
    max_j = 2 * int(spread) + 2 * (h_den.degree + 2) + ctx.v4 + 8
    for j in range(1, max_j + 1):
        c = ctx.uniformizer ** (-j)
        g = witness_g(h_num, h_den, c)
        polygon = newton_polygon(g)
        if polygon.all_vertices_even():
            return WitnessC(c, j, polygon, g)
    raise PreconditionFailed("no admissible c found; valuation spread exceeded the cap")


def strip_t(h_num: PadicPolynomial, h_den: PadicPolynomial):
    """h_N and h_D divided by their common power of t; h is unchanged."""
    strip = min(h_num.ord_t(), h_den.ord_t())
    return h_num.shift(-strip), h_den.shift(-strip)


def witness_g(h_num: PadicPolynomial, h_den: PadicPolynomial, c) -> PadicPolynomial:
    """g = h_N h_D + c t^2 h_D^2 for t-stripped h_N, h_D."""
    return h_num * h_den + PadicPolynomial.monomial(c, 2, h_num.field) * h_den * h_den


class AnisotropyAtT(NamedTuple):
    """Residue data at t certifying one of the two forms anisotropic."""

    v_t_f: int
    leading_coefficient: Fraction
    phi1_nonzero: bool
    phi2_nonzero: bool
    anisotropic_form: int  # 1 or 2
    first_residue_anisotropic: bool
    second_residue_anisotropic: bool
    c_independent: bool


def anisotropy_at_t(f: RationalFunction, gamma, ctx: PadicContext) -> AnisotropyAtT:
    """Residue forms at t when v_t(f) is odd: one form is anisotropic.

    The second residue forms are phi_1 = <1,pi><-1,-f_n> and
    phi_2 = <1,pi><-1,-gamma f_n> with f_n the leading Laurent
    coefficient; their difference is <f_n><1,pi><1,-gamma> != 0, so one
    of them is nonzero, hence (being scaled 2-fold Pfister forms)
    anisotropic.  Together with the common first residue form
    <1,pi><1,-gamma> this certifies anisotropy of the corresponding form.
    """
    gamma = Fraction(gamma)
    validate_gamma(gamma, ctx)
    vt = f.ord_t()
    if vt is INFINITY or int(vt) % 2 == 0:
        raise EvenValuation(f"v_t(f) = {vt} is not odd")
    fn = f.leading_coefficient_at_t()
    pi = ctx.uniformizer

    phi1 = padicforms.quadform.DiagonalForm.make([-1, -pi, -fn, -pi * fn], ctx)
    phi2 = padicforms.quadform.DiagonalForm.make([-1, -pi, -gamma * fn, -pi * gamma * fn], ctx)
    phi1_nonzero = padicforms.quadform.i2_class(-fn, ctx) == -1
    phi2_nonzero = padicforms.quadform.i2_class(-gamma * fn, ctx) == -1
    if not (phi1_nonzero or phi2_nonzero):
        raise ConditionFailed("difference class is zero")
    which = 1 if phi1_nonzero else 2

    first_res = padicforms.quadform.DiagonalForm.make([1, pi, -gamma, -pi * gamma], ctx)
    second_res = phi1 if which == 1 else phi2
    first_aniso = not padicforms.quadform.isotropic_over_local(first_res)
    second_aniso = not padicforms.quadform.isotropic_over_local(second_res)
    if not (first_aniso and second_aniso):
        raise ConditionFailed("a residue form is isotropic")
    return AnisotropyAtT(
        int(vt),
        fn,
        phi1_nonzero,
        phi2_nonzero,
        which,
        first_aniso,
        second_aniso,
        c_independent=True,  # v_t(c t^2) = 2 > v_t(f), so c never reaches the residue
    )


class PredicateCertificate(NamedTuple):
    verdict: bool
    gamma: Fraction
    v_t_x: object
    report: FReport
    witness: WitnessC | None
    anisotropy: AnisotropyAtT | None
    note: str


WITNESS_NOTE = ("witness certificate: all Newton polygon vertices of g = f h_D^2 are even"
                " (gamma g shares the vertex degrees), which certifies both forms isotropic")
ANISOTROPY_NOTE = ("for every c, v_t(f) = 1 because v_t(c t^2) = 2 > 1 = v_t(h);"
                   " the residue forms at t certify form {} anisotropic")


def predicate_vt_nonneg(x: RationalFunction, ctx: PadicContext, gamma=None, seed: int = 0):
    """Decide v_t(x) >= 0 with a certificate; returns (verdict, certificate).

    Positive instances carry the witness constant c together with the
    all-even Newton polygon of g = f h_D^2 (the hypothesis under which the
    isotropy of both forms is certified; gamma g has the same vertex
    degrees).  Negative instances carry the residue analysis at t, valid
    for every c.  The decision draws nothing at random, so ``seed`` is
    unused; it is accepted for callers that pass one.  The auxiliary
    polynomial of either form is built by
    :func:`padicforms.construct.corollary_isotropy` on ``witness.g`` and
    on gamma times it.
    """
    gamma = Fraction(gamma) if gamma is not None else find_gamma(ctx)
    validate_gamma(gamma, ctx)
    vt_x = x.ord_t()
    report = build_f(x, 0, ctx)

    if report.v_t_h == 0:
        if not (vt_x is INFINITY or vt_x >= 0):
            raise ConditionFailed("case analysis: v_t(h) = 0 but v_t(x) < 0")
        witness = choose_c(report.h_num, report.h_den, ctx)
        report = build_f(x, witness.c, ctx)
        return True, PredicateCertificate(True, gamma, vt_x, report, witness, None, WITNESS_NOTE)

    if report.v_t_h != 1:
        raise ConditionFailed("case analysis: v_t(h) is neither 0 nor 1")
    if vt_x is INFINITY or vt_x > -1:
        raise ConditionFailed("case analysis: v_t(h) = 1 but v_t(x) > -1")
    aniso = anisotropy_at_t(RationalFunction(report.h_num, report.h_den), gamma, ctx)
    note = ANISOTROPY_NOTE.format(aniso.anisotropic_form)
    return False, PredicateCertificate(False, gamma, vt_x, report, None, aniso, note)


def run_predicate_corpus(ctx: PadicContext, cases: int, seed: int) -> dict:
    """Seeded corpus: the predicate against the direct order computation.

    Every true instance must produce a witness-c certificate with an
    all-even polygon, every false instance a c-independent residue
    certificate; any disagreement or missing certificate is a failure.
    """
    padicforms.reciprocity.check_case_count(cases)
    rng = random.Random(seed)
    gamma = find_gamma(ctx)
    passes, failures = 0, []
    for k in range(cases):
        num = padicforms.reciprocity.random_poly(rng, ctx, 4)
        den = padicforms.reciprocity.random_poly(rng, ctx, 4)
        x = RationalFunction(num, den)
        direct = x.ord_t() is INFINITY or x.ord_t() >= 0
        verdict, cert = predicate_vt_nonneg(x, ctx, gamma=gamma)
        ok = verdict == direct
        if verdict:
            ok = ok and cert.witness is not None and cert.witness.polygon.all_vertices_even()
        else:
            ok = ok and cert.anisotropy is not None and cert.anisotropy.c_independent
        if ok:
            passes += 1
        else:
            failures.append({"case": k, "x": x.to_text(), "verdict": verdict, "direct": direct})
    return {
        "law": "predicate",
        "prime": ctx.p,
        "seed": seed,
        "cases": cases,
        "passes": passes,
        "failures": failures,
    }


def elliptic_cubic(y, ctx: PadicContext) -> PadicPolynomial:
    """x^3 - x - y^2, whose root near 0 is the x of the point (x, y) on y^2 = x^3 - x."""
    return PadicPolynomial.from_rationals([-Fraction(y) ** 2, -1, 0, 1], ctx)


def elliptic_constant_point(y, ctx: PadicContext, digits: int | None = None):
    """Solve x^3 - x = y^2 by Hensel lifting from x = 0 (needs v(y) > 0).

    Returns (x approximation, witness): the slack at 0 is 2 v(y) > 0 and
    the residual valuation at the reported x exceeds the digit target.
    """
    y = Fraction(y)
    if y != 0 and ctx.vp(y) <= 0:
        raise PreconditionFailed("v(y) must be positive")
    witness = padicforms.extensions.hensel_lift(elliptic_cubic(y, ctx), Fraction(0), digits)
    return witness.approximate_root, witness
