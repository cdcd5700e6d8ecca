"""Construction of the auxiliary polynomial s making two Pfister forms split.

Given gamma in K* and g in K[t] with g(0) != 0 whose Newton polygon has
only even-degree vertices, this module produces s in K[t] such that both

    <1,pi> <1,-gamma> <1,-s>      and      <1,pi> <1,t g> <1,-t s>

are isotropic over K(t), together with a machine-checkable certificate.
One factor s_i is built per slope block of g.  For a slope with odd
denominator, s_i is found through the graded ring

    R = sum of pi^a t^b O over a >= m b,   P = the same with a > m b,

whose quotient R/P is the polynomial ring k[ubar] over the residue field:
a seeded rejection search finds an irreducible reduction inside a
top-coefficient window and the result is lifted back through Euclidean
division in R.  For a slope with even denominator, each irreducible
factor g_ij is perturbed to s_ij = g_ij + pi^A t g/g_ij mod g_ij with A
large enough that every symbol at every other factor is provably
unchanged (a valuation margin of v(4), checked exactly in the residue
field of that factor).

Everything asserted during the construction is re-verified afterwards by
direct symbol evaluation in :func:`verify_conditions`.  What a certificate
proves is stated once, here: the symbol conditions in
:func:`symbol_obligations` and the two Pfister forms in :func:`pfister_forms`,
which the construction and ``verify`` both read.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import (
    ConditionFailed,
    FactorizationUncertified,
    NotIrreducible,
    OddVertex,
    PreconditionFailed,
)
from .newton import (
    FiniteFieldPoly,
    graded_reduction,
    newton_polygon,
    random_irreducible_search,
)
from .padics import INFINITY, PadicContext, is_prime, is_square_rational
from .polynomials import PadicPolynomial
from .quadform import PfisterSlot, at_place, milnor_isotropy, residue_field
from .reciprocity import legendre_symbol


# ---------------------------------------------------------------------------
# the graded ring R and its reduction to k[ubar]
# ---------------------------------------------------------------------------


class SlopeRing(NamedTuple):
    """The ring R (and prime P) attached to one slope m = num/d."""

    context: PadicContext
    slope: Fraction

    @property
    def d(self) -> int:
        return self.slope.denominator

    def _height(self, f: PadicPolynomial):
        """d times the least v(c_b) - m b over the terms c_b t^b of f, for m = a/d; +infinity for f = 0."""
        a, d = self.slope.numerator, self.slope.denominator
        return min((v * d - a * b for b, v in f.valuations()), default=INFINITY)

    def in_R(self, f: PadicPolynomial) -> bool:
        return self._height(f) >= 0

    def in_P(self, f: PadicPolynomial) -> bool:
        return self._height(f) > 0

    def reduction(self, f: PadicPolynomial) -> FiniteFieldPoly:
        """Image in R/P = k[ubar]; terms strictly above the grading vanish."""
        if not self.in_R(f):
            raise PreconditionFailed("element is not in R")
        return graded_reduction(f, self.slope)

    def lift(self, fbar: FiniteFieldPoly) -> PadicPolynomial:
        """Monomial-wise lift: digit at ubar^j becomes digit u^j (see ``u_pow``)."""
        out = PadicPolynomial.zero(self.context)
        for j, digit in enumerate(fbar.coeffs):
            if digit:
                out = out + self.u_pow(j) * digit
        return out

    def u_pow(self, j: int) -> PadicPolynomial:
        """u^j = pi^(m d j) t^(d j), the monomial that reduces to ubar^j."""
        return PadicPolynomial.monomial(
            self.context.uniformizer ** (self.slope.numerator * j), self.d * j, self.context
        )


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


class GFactor(NamedTuple):
    poly: PadicPolynomial
    evidence: str


class SlopeBlock(NamedTuple):
    slope: Fraction
    denominator: int
    degree: int
    factors: tuple  # GFactor
    product: PadicPolynomial


class ConstructionParams(NamedTuple):
    """Validated inputs: normalized g, certified factors, window integer N."""

    context: PadicContext
    gamma: Fraction
    g_input: PadicPolynomial
    epsilon: Fraction
    g0: PadicPolynomial  # monic, squarefree
    g_norm: PadicPolynomial  # epsilon * g0
    blocks: tuple  # SlopeBlock, slopes increasing
    big_n: int


def certify_factor(f: PadicPolynomial) -> str:
    """Irreducibility evidence for a monic factor, or FactorizationUncertified.

    The verdict is the residue field's own certification of f.
    """
    if f.degree == 1:
        return "linear"
    try:
        field = residue_field(f.monic(), f.field.context)
    except NotIrreducible:
        raise FactorizationUncertified(
            f"cannot certify irreducibility of {f.to_text()}"
        ) from None
    if field.residue_modulus is None:
        return f"one edge of slope {field.slope} with denominator = degree"
    return (
        f"one edge of slope {field.slope}; reduction"
        f" {field.residue_modulus.to_text()} irreducible with matching degree"
    )


def _rational_roots(f: PadicPolynomial):
    """All rational roots of a monic squarefree rational polynomial, by the modular method.

    With F = a_d f integral, each root is a/b with a | a_0 and b | a_d.
    For the least prime l dividing neither a_d nor disc(F), F mod l is
    squarefree, so every root modulo l is simple: each is lifted by
    Newton's iteration on integers modulo l^k > 2 |a_0 a_d|, where F' is a
    unit at every step, recovered by rational reconstruction and
    confirmed exactly (von zur Gathen and Gerhard, Modern Computer
    Algebra, 5.10 and 15.6).  Roots come ordered by |a|, then b, the
    positive one first.
    """
    ints = f.num
    a0, ad = ints[0], ints[-1]
    if a0 == 0:
        raise PreconditionFailed("zero constant term")
    derivative = [i * c for i, c in enumerate(ints)][1:]
    ell = 2
    while ad % ell == 0 or FiniteFieldPoly(ints, ell).gcd(FiniteFieldPoly(derivative, ell)).degree:
        ell += 1
        while not is_prime(ell):
            ell += 1
    bound = 2 * abs(a0 * ad)
    k = 1
    while ell ** k <= bound:
        k += 1
    m = ell ** k

    def mod_m(coeffs, x):  # Horner's rule modulo l^k
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % m
        return acc

    roots = []
    for r in range(ell):
        if mod_m(ints, r) % ell:
            continue
        root = r
        while residual := mod_m(ints, root):
            root = (root - residual * pow(mod_m(derivative, root), -1, m)) % m
        a, b = _reconstruct(root, m, abs(a0))
        if 0 < b <= abs(ad) and math.gcd(a, b) == 1 and not sum(
                c * a ** i * b ** (len(ints) - 1 - i) for i, c in enumerate(ints)):
            roots.append(Fraction(a, b))
    return sorted(roots, key=lambda x: (abs(x.numerator), x.denominator, x < 0))


def _reconstruct(u: int, m: int, bound: int):
    """(a, b) with a = u b modulo m and |a| <= bound, by the half-extended Euclidean algorithm.

    It is the one such pair with 0 < b < m / (2 bound) when there is one.
    """
    r0, r1, t0, t1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _auto_factor(g0: PadicPolynomial):
    """Factor into rational linear pieces plus one certified remainder."""
    base = g0.field
    factors = []
    rest = g0
    for r in _rational_roots(g0):
        lin = PadicPolynomial([-r, Fraction(1)], base)
        quot, rem = divmod(rest, lin)
        if rem.is_zero():
            factors.append(GFactor(lin, "linear"))
            rest = quot
    if rest.degree == 0:
        return factors
    factors.append(GFactor(rest, certify_factor(rest)))
    return factors


def leading_unit(g: PadicPolynomial, ctx: PadicContext) -> Fraction:
    """epsilon: g's leading coefficient divided by its power of the uniformizer."""
    lc = g.leading_coefficient()
    return Fraction(lc) * ctx.uniformizer ** (-ctx.vp(lc))


def prepare(gamma, g: PadicPolynomial, ctx: PadicContext, factors=None, g0=None) -> ConstructionParams:
    """Validate and normalize inputs for the construction.

    Checks the even-vertex precondition on the input polygon, replaces g
    by its squarefree part times the unit part of its leading coefficient
    (both changes preserve the isotropy problem), certifies an
    irreducible factorization (caller-supplied or automatic through
    rational roots plus the polygon criteria) and picks the minimal odd
    window integer N.  g0, g's squarefree odd part, is computed when not given.
    """
    gamma = Fraction(gamma)
    if gamma == 0:
        raise PreconditionFailed("gamma must be nonzero")
    if g.is_zero() or g.constant_coefficient() == 0:
        raise PreconditionFailed("g(0) must be nonzero")
    polygon = newton_polygon(g)
    odd = polygon.odd_vertices()
    if odd:
        raise OddVertex(f"Newton polygon vertices of odd degree: {odd}")

    epsilon = leading_unit(g, ctx)
    g0 = g.squarefree_odd_part() if g0 is None else g0
    g_norm = g0 * epsilon

    if factors is not None:
        gfactors = []
        prod = PadicPolynomial.one(g.field)
        for f in factors:
            if not f.is_monic():
                raise PreconditionFailed("supplied factors must be monic")
            gfactors.append(GFactor(f, certify_factor(f)))
            prod = prod * f
        if prod != g0:
            raise PreconditionFailed(
                "supplied factors do not multiply to the squarefree part of g"
            )
    else:
        gfactors = _auto_factor(g0)

    by_slope = {}
    for gf in gfactors:
        edge = newton_polygon(gf.poly).single_edge()
        by_slope.setdefault(edge.slope, []).append(gf)
    blocks = []
    for slope in sorted(by_slope):
        fs = by_slope[slope]
        prod = PadicPolynomial.one(g.field)
        for gf in fs:
            prod = prod * gf.poly
        n_i = prod.degree
        if n_i % 2:
            raise OddVertex(f"slope block {slope} has odd degree {n_i}")
        blocks.append(SlopeBlock(slope, slope.denominator, n_i, tuple(fs), prod))

    odd_ds = [b.denominator for b in blocks if b.denominator % 2]
    lcm = 1
    for d in odd_ds:
        lcm = lcm * d // math.gcd(lcm, d)
    bound = Fraction(g0.degree)
    slopes = [b.slope for b in blocks]
    if len(slopes) >= 2:
        gap = min(
            abs(s1 - s2) for i, s1 in enumerate(slopes) for s2 in slopes[i + 1 :]
        )
        bound = max(bound, Fraction(ctx.v4) / gap)
    k = 1
    while k * lcm <= bound:
        k += 2
    big_n = k * lcm

    return ConstructionParams(ctx, gamma, g, epsilon, g0, g_norm, tuple(blocks), big_n)


# ---------------------------------------------------------------------------
# the s-factors
# ---------------------------------------------------------------------------


class SFactor(NamedTuple):
    poly: PadicPolynomial
    block_index: int
    case: int
    evidence: str
    data: dict


class CaseOneTrace(NamedTuple):
    """Exact identities witnessing the ring construction of one s_i."""

    a: PadicPolynomial
    b: PadicPolynomial
    q: PadicPolynomial
    r: PadicPolynomial
    c: PadicPolynomial
    h: PadicPolynomial
    e: int
    slope: Fraction


class ConstructionResult(NamedTuple):
    params: ConstructionParams
    s_poly: PadicPolynomial
    s_factors: tuple  # SFactor
    traces: dict  # block_index -> CaseOneTrace
    metrics: dict

    @property
    def factor_blocks(self) -> list:
        """One (g's factors, s's factors) pair per slope block, slopes increasing: what symbol_obligations reads."""
        return [([gf.poly for gf in block.factors], [sf.poly for sf in self.s_factors if sf.block_index == i])
                for i, block in enumerate(self.params.blocks)]


def _case_one(params: ConstructionParams, i: int, rng) -> tuple[SFactor, CaseOneTrace]:
    ctx = params.context
    block = params.blocks[i]
    m, d, n_i = block.slope, block.denominator, block.degree
    ring = SlopeRing(ctx, m)
    pi = ctx.uniformizer

    g_i = block.product
    h_i = g_i * pi ** int(m * n_i)
    if not (ring.in_R(h_i) and not ring.in_P(h_i)):
        raise ConditionFailed("h_i is not a unit of the graded ring")

    cof, rem = divmod(params.g_norm, g_i)
    if not rem.is_zero():
        raise ConditionFailed("block product does not divide g")
    a_exp, b_exp, cap_g = 0, 0, 0
    for mu, other in enumerate(params.blocks):
        if mu == i:
            continue
        if other.slope > m:
            a_exp += int(other.slope * other.degree)
        else:
            b_mu = 2 * d * (-(-other.degree // (2 * d)))  # least multiple of 2d >= n_mu
            a_exp += int(m * b_mu)
            b_exp += b_mu - other.degree
            cap_g += b_mu // d
    x_el = (cof * pi ** a_exp).shift(b_exp)
    if not (ring.in_R(x_el) and not ring.in_P(x_el)):
        raise ConditionFailed("pi^A t^B g/g_i is not a unit of the graded ring")
    xbar = ring.reduction(x_el)
    if not (xbar.degree == cap_g and all(
        c == 0 for k, c in enumerate(xbar.coeffs) if k != cap_g
    )):
        raise ConditionFailed("reduction of pi^A t^B g/g_i is not a monomial")
    rho = xbar.coeffs[cap_g]

    n_prime = params.big_n // d
    a_el = h_i + x_el * ring.u_pow(n_prime)
    b_el = h_i * ring.u_pow(n_prime + cap_g)
    hbar = ring.reduction(h_i)
    if ring.reduction(a_el) != hbar + FiniteFieldPoly((0,) * (n_prime + cap_g) + (rho,), ctx.p):
        raise ConditionFailed("reduction of a is not hbar + rho ubar^(N'+G)")
    if ring.reduction(b_el) != hbar * FiniteFieldPoly((0,) * (n_prime + cap_g) + (1,), ctx.p):
        raise ConditionFailed("reduction of b is not hbar ubar^(N'+G)")

    found = random_irreducible_search(hbar, rho, n_prime, cap_g, rng)
    cbar, e_prime = found.cbar, found.e_prime
    e = d * e_prime

    q1 = ring.lift(found.qbar1)
    rbar1 = cbar - hbar * FiniteFieldPoly((0,) * e_prime + (1,), ctx.p)
    if not (rbar1.is_zero() or d * rbar1.degree <= n_i + e - params.big_n):
        raise ConditionFailed("rbar1 degree exceeds the window")
    r1 = ring.lift(rbar1)
    c_tilde = r1 + h_i * ring.u_pow(e_prime)

    f_err = a_el + q1 * b_el - c_tilde
    if not ring.in_P(f_err):
        raise ConditionFailed("lift error term must vanish modulo P")
    q2, r2 = divmod(f_err, b_el)
    if not ring.in_P(r2):
        raise ConditionFailed("division remainder must vanish modulo P")
    c = c_tilde + r2
    q = q1 - q2
    r = r1 + r2

    if c != a_el + q * b_el:
        raise ConditionFailed("c is not a + q b")
    if c != r + h_i * ring.u_pow(e_prime):
        raise ConditionFailed("c is not r + h_i pi^(m e) t^e")
    if not (r.is_zero() or r.degree <= n_i + e - params.big_n):
        raise ConditionFailed("r degree exceeds the window")
    if newton_polygon(c).single_edge().slope != m:
        raise ConditionFailed("c does not have one edge of the block slope")
    if ring.reduction(c) != cbar:
        raise ConditionFailed("reduction of c is not cbar")

    s_i = c * pi ** int(-m * c.degree)
    if not (s_i.is_monic() and s_i.degree % 2 == 0):
        raise ConditionFailed("s_i is not monic of even degree")
    sf = SFactor(
        s_i,
        i,
        1,
        certify_factor(s_i),
        {
            "e_prime": e_prime,
            "e": e,
            "samples": found.samples,
            "A": a_exp,
            "B": b_exp,
            "G": cap_g,
            "rho": rho,
        },
    )
    return sf, CaseOneTrace(a_el, b_el, q, r, c, h_i, e, m)


def _place_valuation(value: PadicPolynomial, modulus: PadicPolynomial, ctx: PadicContext):
    """v(value(alpha)) at a root alpha of the certified irreducible modulus.

    The valuation of Q_p extends uniquely to Q_p(alpha), so every root
    gives the same value, v_p(N(value(alpha))) / deg(modulus).  It is
    +infinity when the modulus divides value: then the margin it bounds
    holds for every shift A (in case two, t g/g_ij of degree below
    deg g_ij is divisible by every other factor).
    """
    field, v, x = at_place(value, modulus, ctx)
    return INFINITY if v else field.valuation(x)


def _case_two(params: ConstructionParams, i: int) -> list[SFactor]:
    """One s_ij = g_ij + pi^A (t g/g_ij mod g_ij) per factor of an even-denominator block.

    A is the least integer above every margin's bound and at least
    v(4) + 1, so every term of pi^A (t g/g_ij mod g_ij) lies strictly
    above g_ij's edge: s_ij keeps g_ij's edge and reduction, and every
    symbol at every other factor is unchanged.
    """
    ctx = params.context
    block = params.blocks[i]
    pi = ctx.uniformizer
    v4 = ctx.v4
    tpoly = PadicPolynomial.x(ctx)
    out = []
    others_all = [
        gf.poly
        for b in params.blocks
        for gf in b.factors
    ]
    for g_ij_factor in block.factors:
        g_ij = g_ij_factor.poly
        edge = newton_polygon(g_ij).single_edge()
        if edge.slope != block.slope:
            raise ConditionFailed("factor slope differs from its block")
        cof, rem = divmod(params.g_norm, g_ij)
        if not rem.is_zero():
            raise ConditionFailed("block product does not divide g")
        p_base = (tpoly * cof) % g_ij
        if p_base.is_zero():
            raise ConditionFailed("t g/g_ij vanishes modulo g_ij")

        others = [other for other in others_all if other != g_ij]
        v_g = {other: _place_valuation(g_ij, other, ctx) for other in others}
        margin_data = []
        bound = Fraction(v4)  # require A >= v4 + 1 at minimum
        for other in others:
            v_p = _place_valuation(p_base, other, ctx)
            bound = max(bound, v_g[other] + v4 - v_p)
            margin_data.append(
                {
                    "at": other.to_text(),
                    "max_v_g": str(v_g[other]),
                    "min_v_p_base": str(v_p),
                }
            )
        p0 = p_base.constant_coefficient()
        if p0 != 0:
            bound = max(bound, ctx.vp(g_ij.constant_coefficient()) + v4 - ctx.vp(p0))
        for beta, v in p_base.valuations():
            bound = max(bound, edge.line_value(beta) - v)
        a0 = math.floor(bound) + 1

        # a0 > bound meets every margin at once, since v(pi) = 1 in every K(alpha)
        p_ij = p_base * pi ** a0
        c0 = p_ij.constant_coefficient()
        margins_met = (
            all(v > edge.line_value(b) for b, v in p_ij.valuations())
            and (c0 == 0 or ctx.vp(c0) > ctx.vp(g_ij.constant_coefficient()) + v4)
            and all(_place_valuation(p_ij, o, ctx) > v_g[o] + v4 for o in others)
        )
        if not margins_met:
            raise ConditionFailed(f"valuation shift A = {a0} misses a margin for {g_ij.to_text()}")
        s_ij = g_ij + p_ij
        out.append(
            SFactor(s_ij, i, 2, certify_factor(s_ij), {"A": a0, "margins": margin_data})
        )
    return out


def construct_s(params: ConstructionParams, seed: int = 0) -> ConstructionResult:
    """Build s = epsilon * prod s_ij with the certified properties.

    Case 1 (odd slope denominator): one irreducible s_i per block via the
    graded-ring lift; case 2 (even denominator): one s_ij per factor by a
    high-valuation perturbation.  All stated identities are asserted
    exactly during the build.
    """
    rng = random.Random(seed)
    s_factors: list[SFactor] = []
    traces = {}
    for i, block in enumerate(params.blocks):
        if block.denominator % 2:
            sf, trace = _case_one(params, i, rng)
            s_factors.append(sf)
            traces[i] = trace
        else:
            s_factors.extend(_case_two(params, i))

    s_poly = PadicPolynomial.from_rationals([params.epsilon], params.context)
    for sf in s_factors:
        s_poly = s_poly * sf.poly

    seen = set()
    tpoly = PadicPolynomial.x(params.context)
    tg = tpoly * params.g_norm
    for sf in s_factors:
        if sf.poly in seen:
            raise ConditionFailed("duplicate s factor")
        seen.add(sf.poly)
        if sf.poly.gcd(tg).degree != 0:
            raise ConditionFailed("s factor not coprime to t g")

    metrics = {
        "deg_s": s_poly.degree,
        "factor_count": len(s_factors),
        "samples": sum(sf.data.get("samples", 0) for sf in s_factors),
        "seed": seed,
    }
    return ConstructionResult(params, s_poly, tuple(s_factors), traces, metrics)


# ---------------------------------------------------------------------------
# verification of the symbol conditions
# ---------------------------------------------------------------------------


class SymbolCondition(NamedTuple):
    """One symbol identity: <p/q> = rhs, or <p/q> = <rhs_p/rhs_q>."""

    name: str
    p: PadicPolynomial
    q: PadicPolynomial
    lhs: int
    rhs: int
    rhs_p: PadicPolynomial | None = None
    rhs_q: PadicPolynomial | None = None

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs


class ConditionReport(NamedTuple):
    conditions: tuple

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.conditions)


# the seven symbol-condition families, by whether the construction needs <p/q> = 1; the other
# three are the route it derives them by, each <p/q> against a right-hand side.  verify reports
# the first family, in this order, whose conditions a document does not carry as stated.
CONDITION_FAMILIES = {"sg-over-t": True, "ts-over-g-factor": True, "minus-tg-over-s-factor": True,
                      "gamma-over-s-factor": True, "block-equality": False, "t-value-equality": False,
                      "product-property": False}


def symbol_obligations(gamma, epsilon, blocks, ctx: PadicContext, symbol) -> list:
    """The (name, p, q, rhs, p2, q2) of every symbol condition, in the order certificates list them.

    blocks holds one (g's factors, s's factors) pair per slope of g, slopes
    increasing; g = epsilon * prod(g's factors) and s = epsilon * prod(s's
    factors).  A condition is <p/q> = rhs, or <p/q> = <p2/q2> when rhs is
    None: the block equalities <s_i/g_ij> = <t g/g_i / g_ij> and the product
    property <s_i/g_kl> = <g_i/g_kl> for g_kl in another block, where g_i
    and s_i are block i's products.  A needed family's rhs is 1, and
    t-value-equality's is the product of <s_ij/g_kl> over g's factors,
    each symbol(s_ij, g_kl, ctx).
    """
    t, one, unit = PadicPolynomial.x(ctx), PadicPolynomial.one(ctx), PadicPolynomial.from_rationals([epsilon], ctx)
    g_blocks = [math.prod(gs, start=one) for gs, _ in blocks]
    s_blocks = [math.prod(ss, start=one) for _, ss in blocks]
    g_norm, s = math.prod(g_blocks, start=unit), math.prod(s_blocks, start=unit)
    g_factors = [q for gs, _ in blocks for q in gs]
    s_factors = [q for _, ss in blocks for q in ss]
    ts, minus_tg = s.shift(1), -g_norm.shift(1)
    out = [("sg-over-t", s * g_norm, t, 1, None, None)]
    out += [("ts-over-g-factor", ts, q, 1, None, None) for q in g_factors]
    out += [("minus-tg-over-s-factor", minus_tg, q, 1, None, None) for q in s_factors]
    for i, (gs, _) in enumerate(blocks):
        cofactor = (g_norm // g_blocks[i]).shift(1)
        out += [("block-equality", s_blocks[i], q, None, cofactor, q) for q in gs]
        out += [("product-property", s_blocks[i], q, None, g_blocks[i], q)
                for k, (other, _) in enumerate(blocks) if k != i for q in other]
    constant = PadicPolynomial.from_rationals([gamma], ctx)
    for q in s_factors:
        t_value = math.prod(symbol(q, g_kl, ctx) for g_kl in g_factors)
        out += [("t-value-equality", q, t, t_value, None, None), ("gamma-over-s-factor", constant, q, 1, None, None)]
    return out


def verify_conditions(result: ConstructionResult) -> ConditionReport:
    """Evaluate every symbol condition of :func:`symbol_obligations` directly with the symbol.

    Raises ConditionFailed naming the first condition the construction
    needs whose symbol is not 1.
    """
    params = result.params
    ctx = params.context
    conds = []
    for name, p, q, rhs, p2, q2 in symbol_obligations(params.gamma, params.epsilon, result.factor_blocks, ctx,
                                                      legendre_symbol):
        lhs = legendre_symbol(p, q, ctx)
        if CONDITION_FAMILIES[name] and lhs != 1:
            raise ConditionFailed(f"condition {name} fails at q = {q.to_text()}")
        if p2 is not None:
            rhs = legendre_symbol(p2, q2, ctx)
        conds.append(SymbolCondition(name, p, q, lhs, rhs, p2, q2))
    return ConditionReport(tuple(conds))


# ---------------------------------------------------------------------------
# the isotropy corollary
# ---------------------------------------------------------------------------


@dataclass(frozen=True)  # not a NamedTuple: perfbench/test_checks.py uses dataclasses.replace
class CorollaryResult:
    isotropic: bool
    note: str
    construction: ConstructionResult | None
    conditions: ConditionReport | None
    milnor_first: object
    milnor_second: object


# a constructed corollary's note, by whether every residue test vanished
WITT_NOTES = {True: "both Pfister forms vanish in W(K(t)); in the Witt ring the 8-dimensional form"
                    " equals a 4-dimensional one, so it is isotropic",
              False: "residue analysis failed to certify both forms"}


def degenerate_note(gamma: Fraction, g: PadicPolynomial, ctx: PadicContext, g0=None):
    """The note of a corollary that needs no construction, else None.

    None is needed when g is constant, or a constant c times a square (its
    squarefree odd part g0, computed when not given, is constant: g is c up
    to a square, and s = c), or when gamma is a square; gamma = 0 is refused first.
    """
    if gamma == 0:
        raise PreconditionFailed("gamma must be nonzero")
    if g.degree == 0:
        return ("degenerate g in K*: s = g; <1,pi><1,tg><1,-ts> contains the hyperbolic plane"
                " <tg, -tg> and <1,pi><1,-gamma><1,-s> has no residues away from K")
    if g.degree > 0 and (g.squarefree_odd_part() if g0 is None else g0).degree == 0:
        return ("degenerate g = c h^2 with c in K*: s = c; <1,pi><1,tg><1,-ts> contains the hyperbolic plane"
                " <tc, -tc> and <1,pi><1,-gamma><1,-s> has no residues away from K")
    if is_square_rational(gamma, ctx):
        return "gamma is a square: the form contains <1, -1> and is isotropic"
    return None


def pfister_forms(gamma, epsilon, g_factors, s_factors, ctx: PadicContext) -> tuple:
    """The slots (x, y) of the two forms <1,pi><1,x><1,y>: <1,pi><1,-gamma><1,-s> and <1,pi><1,tg><1,-ts>.

    g = epsilon * prod(g_factors) and s = epsilon * prod(s_factors).
    """
    t = ((PadicPolynomial.x(ctx), 1),)
    g_list, s_list = tuple((q, 1) for q in g_factors), tuple((q, 1) for q in s_factors)
    return ((PfisterSlot(-gamma, ()), PfisterSlot(-epsilon, s_list)),
            (PfisterSlot(epsilon, t + g_list), PfisterSlot(-epsilon, t + s_list)))


def corollary_isotropy(gamma, g: PadicPolynomial, ctx: PadicContext, seed: int = 0, factors=None) -> CorollaryResult:
    """Certify that <1,pi><1,-gamma,-t,-g> is isotropic over K(t).

    Runs the construction, verifies the symbol conditions, then certifies
    through the residue analysis that both 3-fold Pfister forms vanish in
    the Witt ring; the 8-dimensional form is then Witt equivalent to a
    4-dimensional one and so isotropic by dimension count.
    """
    gamma = Fraction(gamma)
    g0 = g.squarefree_odd_part() if g.degree > 0 else None
    note = degenerate_note(gamma, g, ctx, g0)
    if note is not None:
        return CorollaryResult(True, note, None, None, None, None)

    params = prepare(gamma, g, ctx, factors=factors, g0=g0)
    result = construct_s(params, seed)
    conditions = verify_conditions(result)

    g_factors = [gf.poly for block in params.blocks for gf in block.factors]
    first, second = (milnor_isotropy(x, y, ctx) for x, y in pfister_forms(
        params.gamma, params.epsilon, g_factors, [sf.poly for sf in result.s_factors], ctx))
    ok = first.isotropic and second.isotropic
    return CorollaryResult(ok, WITT_NOTES[ok], result, conditions, first, second)
