"""Newton polygons, slope factorization and reduction to the residue field.

The Newton polygon of f = a_0 + ... + a_d t^d (a_0 a_d != 0) is the lower
convex hull of the points (i, v(a_i)).  Each edge of slope m and
horizontal length l predicts l roots of valuation -m, and f splits into
monic one-edge factors, one per slope.  They are split off one vertex at
a time, the last edge first, by quadratic Hensel lifting of the factor
pair together with the inverse of one factor modulo the other, on
integers modulo p^K at doubling precision.  Each split is lifted to the
digits that the later splits will lose, so the factors come out right to
a precision fixed by the digit target and the polygon, and are reported
truncated there.

For a monic one-edge polynomial of slope m with denominator d, the
coefficients sitting on the edge reduce to a polynomial over the residue
field in the variable ubar (the image of pi^(m d) t^d).  Irreducibility
of the reduction with matching degree certifies irreducibility of the
polynomial itself, as does d = deg (the Eisenstein-type case).
:func:`polygon_irreducible` is the one place that applies these two
criteria (for residue fields and ``LocalField`` alike); everything that needs
an irreducible polynomial goes through it or through rational linear factors.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import zip_longest
from typing import NamedTuple

import padicforms

from .errors import (
    BadDecomposition,
    ConditionFailed,
    NotIrreducible,
    NotOneEdge,
    PrecisionExhausted,
    PreconditionFailed,
    SearchBudgetExhausted,
    SlopeCollision,
    ZeroEndpoint,
)
from .padics import INFINITY, int_mod_pk, vp_int
from .polynomials import PadicPolynomial, convolve

_IRREDUCIBLE_CACHE_SIZE = 1024  # Ben-Or verdicts kept by finite_field_irreducible


class Edge(NamedTuple):
    """One edge of a Newton polygon, from (i0, v0) to (i1, v1)."""

    i0: int
    v0: Fraction
    i1: int
    v1: Fraction
    slope: Fraction
    length: int

    def line_value(self, beta):
        """Height of the edge's supporting line at abscissa beta."""
        return self.v0 + self.slope * (beta - self.i0)


class NewtonPolygon(NamedTuple):
    """Lower convex hull data: all points, vertices, and edges.

    Vertices include both endpoints; interior points lying on an edge are
    not vertices.  Slopes strictly increase left to right.
    """

    points: tuple
    vertices: tuple
    edges: tuple

    @property
    def slopes(self):
        return tuple(e.slope for e in self.edges)

    def single_edge(self) -> Edge:
        if len(self.edges) != 1:
            raise NotOneEdge(f"polygon has {len(self.edges)} edges")
        return self.edges[0]

    def all_vertices_even(self) -> bool:
        return all(i % 2 == 0 for i, _ in self.vertices)

    def odd_vertices(self):
        return [(i, v) for i, v in self.vertices if i % 2]


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def newton_polygon(f: PadicPolynomial) -> NewtonPolygon:
    """Newton polygon of f; requires a_0 a_d != 0."""
    if f.is_zero() or f.field.is_zero(f.num[0]):
        raise ZeroEndpoint("newton_polygon needs a_0 != 0 and f != 0")
    pts = f.valuations()
    hull = []
    for pt in pts:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], pt) <= 0:
            hull.pop()
        hull.append(pt)
    vertices = tuple(hull)
    edges = []
    for (i0, v0), (i1, v1) in zip(hull, hull[1:]):
        edges.append(Edge(i0, v0, i1, v1, Fraction(v1 - v0, i1 - i0), i1 - i0))
    return NewtonPolygon(tuple(pts), vertices, tuple(edges))


# ---------------------------------------------------------------------------
# slope factorization
# ---------------------------------------------------------------------------


class SlopeFactor(NamedTuple):
    poly: PadicPolynomial
    slope: Fraction
    degree: int
    denominator: int


class SlopeFactorization(NamedTuple):
    """f = unit * prod(factors), each factor monic with one edge.

    The product matches f with residual coefficient valuations above
    ``digits``.  When f has several slopes, every factor coefficient is
    the true factor's coefficient truncated modulo p^N (the handle's ``cut``),
    with N = max(digits + 1 + max(0, -min_k v(f_k)), h + 1) and h the
    largest edge height of f's polygon.  N depends on ``digits`` and f
    alone, so the reported factors do not depend on how they were lifted,
    and each keeps its one edge.  A factor that is f itself (one edge) is
    reported exactly.
    """

    unit: object
    factors: tuple
    digits: int

    def product(self, field) -> PadicPolynomial:
        out = PadicPolynomial((self.unit,), field)
        for fac in self.factors:
            out = out * fac.poly
        return out

    def residual_valuation(self, f: PadicPolynomial):
        diff = self.product(f.field) - f
        return min_coefficient_valuation(diff)


def min_coefficient_valuation(f: PadicPolynomial):
    if f.is_zero():
        return INFINITY
    return min(v for _, v in f.valuations())


def _block_loss(r: int, d: int, m) -> int:
    """Digits lost when a monic polynomial of degree d whose last edge has
    slope m, from the vertex at abscissa r, is split there.

    With c = -ceil(m) the substitution t = p^c x makes every root
    integral; the split then loses v(Res(G, H)) = r (d - r)(ceil(m) - m)
    digits, and scaling back and forth |c| d more.
    """
    c = math.ceil(m)
    return int(r * (d - r) * (c - m)) + abs(c) * d


def _split_loss(vertices) -> int:
    """Digits lost by _split_all on a polynomial with these polygon vertices."""
    return sum(
        _block_loss(r, d, Fraction(v_d - v_r, d - r))
        for (r, v_r), (d, v_d) in zip(vertices[1:-1], vertices[2:])
    )


# Correction steps beyond its doublings that a two-block lift may take: the most measured, by the
# p = 101 input of tests/test_newton.py's cliff test; the 9,000 inputs of its slope_sweep at seeds
# 2021, 1 and 2 (13,931 lifts) need at most 2.
_TRANSIENT_STEPS = 3


def _newton_budget(start, target, transient: int = 0) -> int:
    """The termination rule of both lifts: the loop iterations allowed from ``start`` to ``target`` digits.

    One correction step per doubling of start up to target, ``transient``
    more, and one iteration that measures the result.  hensel_lift's slack
    doubles every step, so it needs no transient; a two-block lift's first
    steps can lose digits (5, 2, 4, 4, 6, 10, ... on the p = 7 input of
    tests/test_newton.py), so it is given _TRANSIENT_STEPS.
    """
    steps = transient + 1
    while start < target:
        start, steps = 2 * start, steps + 1
    return steps


def _add(a, b) -> list:
    return [x + y for x, y in zip_longest(a, b, fillvalue=0)]


def _sub(a, b) -> list:
    return [x - y for x, y in zip_longest(a, b, fillvalue=0)]


def _mul_mod(a, b, g, m: int) -> list:
    """a b modulo the integer list g (top coefficient a unit mod m) and m, trimmed."""
    return _divmod(convolve(a, b), g, m)[1]


def _exact_shift(a, pk: int) -> list:
    out = []
    for c in a:
        q, rem = divmod(c, pk)
        if rem:
            raise ConditionFailed("Newton correction is not divisible by its p-power scale")
        out.append(q)
    return out


def _scaled(nums, den: int, p: int, c: int, top: int, field) -> PadicPolynomial:
    """sum_k nums[k] p^(c (top - k)) t^k / den, for k <= top: p^(c top) times the polynomial at p^(-c) t."""
    if c >= 0:
        return PadicPolynomial.from_integers([a * p ** (c * (top - k)) for k, a in enumerate(nums)], den, field)
    return PadicPolynomial.from_integers([a * p ** (-c * k) for k, a in enumerate(nums)], den * p ** (-c * top), field)


def _two_block_lift(f: PadicPolynomial, r: int, n: int):
    """Split monic f = g * h at the polygon vertex of abscissa r, its last.

    g carries every edge left of the vertex (deg r), h the last edge; both
    are monic, and each lies within p^n of the true factor when f is known
    to n + _block_loss(r, deg f, m) digits.

    With m the last slope and c = -ceil(m), F(x) = p^(-c d) f(p^c x) is
    monic with integral roots, so F and its factors G, H are integer lists
    modulo p^K, K = target + 2 sigma + 2: denominators prime to p are
    scaled out once.  The start is the polygon split G = F[0..r] / F_r,
    H = F[r..d].  One ``half_egcd`` of it, at the precision of that split,
    gives t = 1/H modulo G, carried on the fixed scale T = p^sigma t, where
    sigma >= ceil((ceil(m) - m)(d - 1)) bounds the denominators of every t
    along the way (it is read off the Newton polygon).  Each step is
    quadratic Hensel lifting (von zur Gathen and Gerhard, Modern Computer
    Algebra, section 15.4):

        E = F - G H,  dG = E t mod G,  dH = (E - H dG) div G,
        t <- t + t (1 - t H) mod G   for the new G and H,

    each product one ``convolve`` and one ``_divmod`` by G modulo p^k, k
    twice the digits E has reached (the divisions by p^sigma are exact).
    The stop test reads v(F - G H) exactly, modulo p^K, every step, and
    passes at target = n + _block_loss, which puts G and H within
    p^(n + |c| d) of the true factors (v(Res(G, H)) digits are lost from
    the residual to the factors), and g and h, scaled back, within p^n;
    the caller re-checks the product residual exactly.  Past
    ``_newton_budget(1, target, _TRANSIENT_STEPS)`` iterations the lift
    raises PrecisionExhausted.
    """
    field = f.field
    if field.is_extension:
        raise PreconditionFailed("two-block lifting implemented over Q_p coefficients")
    ctx = field.context
    p, d = ctx.p, f.degree
    m = newton_polygon(f).edges[-1].slope
    c = -math.ceil(m)
    loss = _block_loss(r, d, m)
    target = n + loss
    big_f = _scaled(f.num, f.den, p, -c, d, field)

    # the polygon split and its cofactor, from F at the precision they need
    low = [ctx.cut(a, loss + r + 2) for a in big_f.coeffs]
    g0 = PadicPolynomial(low[: r + 1], field) * (1 / low[r])
    h0 = PadicPolynomial(low[r:], field)
    one, s = g0.half_egcd(h0)
    if one.degree != 0:
        raise PrecisionExhausted("block approximations are not coprime")
    t = (one - s * g0) // h0
    sigma = max(
        [math.ceil((-c - m) * (d - 1))] + [-v for _, v in t.valuations()]
    )
    top = target + 2 * sigma + 2
    shift, full = p ** sigma, p ** top
    big_f, g, h = ([int_mod_pk(a, x.den, p, top) for a in x.num] for x in (big_f, g0, h0))
    t = [int_mod_pk(a * shift, t.den, p, top) for a in t.num]

    for _ in range(_newton_budget(1, target, _TRANSIENT_STEPS)):
        e = _reduced(_sub(big_f, convolve(g, h)), full)
        reached = vp_int(math.gcd(*e), p) if e else top
        if reached >= target:
            return _scaled(g, 1, p, c, r, field), _scaled(h, 1, p, c, d - r, field)
        mod = p ** min(top, 2 * reached + 2 * sigma + d + 2)
        e, g, h, t = (_reduced(x, mod) for x in (e, g, h, t))
        dg = _exact_shift(_mul_mod(e, t, g, mod), shift)
        h = _reduced(_add(h, _divmod(_sub(e, convolve(h, dg)), g, mod)[0]), mod)
        g = _reduced(_add(g, dg), mod)
        dt = _mul_mod(t, _sub([shift], _mul_mod(t, h, g, mod)), g, mod)
        t = _reduced(_add(t, _exact_shift(dt, shift)), mod)
    raise PrecisionExhausted(f"two-block lifting reached {reached} of {target} digits")


def slope_factorization(f: PadicPolynomial, digits: int) -> SlopeFactorization:
    """Factor f according to the slopes of its Newton polygon.

    Returns the leading coefficient as unit and one monic factor per
    slope, each with a one-edge polygon; the product agrees with f to
    coefficient valuations above ``digits``.  Each split is lifted once,
    at the precision its loss bound asks; PrecisionExhausted means a lift
    stalled or the product residual missed ``digits``.
    """
    if digits < 0:
        raise PreconditionFailed(f"digit target {digits} is negative")
    polygon = newton_polygon(f)
    unit = f.leading_coefficient()
    fm = f.monic()
    n_out = _output_precision(f, polygon, digits)

    parts = _split_all(fm, n_out)
    if len(parts) > 1:
        parts = [PadicPolynomial([p.field.cut(c, n_out) for c in p.coeffs], p.field) for p in parts]
    factors = tuple(
        SlopeFactor(p, s, p.degree, s.denominator) for p, s in zip(parts, polygon.slopes)
    )
    result = SlopeFactorization(unit, factors, digits)
    if result.residual_valuation(f) <= digits:
        raise PrecisionExhausted("slope factorization residual below digit target")
    return result


def _output_precision(f: PadicPolynomial, polygon: NewtonPolygon, digits: int) -> int:
    """Digits N of the reported factors.

    Errors of valuation >= N in the factors move the product by at least
    N + min_k v(f_k) > digits, and leave each factor's one edge, whose
    height is at most the largest edge height of f, in place.
    """
    heights = [e.v0 - e.v1 for e in polygon.edges]
    return max(digits + 1 + max(0, -min_coefficient_valuation(f)), int(max(heights, default=0)) + 1)


def _split_all(fm: PadicPolynomial, n: int):
    """The one-edge factors of monic fm, slopes increasing, each within p^n
    of the true factor; fm must be known to n + _split_loss digits, and n
    must exceed every edge height.

    The last edge is split off first.  The left part is lifted to the
    digits its own splits will lose, and beyond its constant term, so
    that its polygon stays exact.
    """
    polygon = newton_polygon(fm)
    if len(polygon.edges) <= 1:
        return [fm]
    (_, v0), (r, vr) = polygon.vertices[0], polygon.vertices[-2]
    left = polygon.vertices[:-1]
    g, h = _two_block_lift(fm, r, max(n + _split_loss(left), int(v0 - vr) + 1))
    return _split_all(g, n) + [h]


# ---------------------------------------------------------------------------
# reduction to the residue field and irreducibility
# ---------------------------------------------------------------------------


def _divmod(a, b, m: int):
    """Quotient and remainder of a by b over Z/mZ, as lists reduced mod m (r trimmed).

    a and b are integer lists, constant term first; b is trimmed and its
    top coefficient must be a unit mod m.  Reduction is lazy: only the
    coefficient about to be cancelled is reduced, and the rest once at
    the end, so no entry grows by more than deg(a) m^2.
    """
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    try:
        inv = pow(b[-1], -1, m)
    except ValueError:
        raise PreconditionFailed(f"leading coefficient {b[-1] % m} is not a unit mod {m}") from None
    r, body = list(a), b[:-1]
    n = len(body)
    q = [0] * max(0, len(r) - n)
    for k in range(len(r) - n - 1, -1, -1):
        c = q[k] = r.pop() * inv % m
        if c:
            for j, y in enumerate(body):
                r[k + j] -= c * y
    return q, _reduced(r, m)


def _gcd(a, b, m: int):
    """A gcd of a and b over F_m by remainders alone, not made monic."""
    while b:
        a, b = b, _divmod(a, b, m)[1]
    return a


def _reduced(r, m: int) -> list:
    """r reduced mod m, without trailing zeros."""
    r = [x % m for x in r]
    while r and not r[-1]:
        r.pop()
    return r


class FiniteFieldPoly:
    """Polynomial over Z/pZ, coefficients in [0, p).

    Division, ``gcd`` and ``pow_mod`` run on integer lists through one
    kernel with lazy reduction (``_divmod``) and wrap one FiniteFieldPoly
    at the end.
    """

    __slots__ = ("coeffs", "p")

    def __init__(self, coeffs, p: int):
        self.coeffs = tuple(_reduced(coeffs, p))
        self.p = p

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __getitem__(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __eq__(self, other):
        return (
            isinstance(other, FiniteFieldPoly)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.coeffs, self.p))

    def __add__(self, other):
        return FiniteFieldPoly([a + b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0)], self.p)

    def __sub__(self, other):
        return FiniteFieldPoly([a - b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0)], self.p)

    def __mul__(self, other):
        if isinstance(other, int):
            return FiniteFieldPoly([c * other for c in self.coeffs], self.p)
        return FiniteFieldPoly(convolve(self.coeffs, other.coeffs), self.p)

    def __divmod__(self, other):
        q, r = _divmod(self.coeffs, other.coeffs, self.p)
        return FiniteFieldPoly(q, self.p), FiniteFieldPoly(r, self.p)

    def __mod__(self, other):
        return FiniteFieldPoly(_divmod(self.coeffs, other.coeffs, self.p)[1], self.p)

    def __floordiv__(self, other):
        return FiniteFieldPoly(_divmod(self.coeffs, other.coeffs, self.p)[0], self.p)

    def gcd(self, other):
        a = _gcd(self.coeffs, other.coeffs, self.p)
        return FiniteFieldPoly(_divmod(a, a[-1:], self.p)[0] if a else a, self.p)  # a / lc(a)

    def pow_mod(self, n: int, mod: "FiniteFieldPoly"):
        b, p = mod.coeffs, self.p
        out, base = None, _divmod(self.coeffs, b, p)[1]
        while n:
            if n & 1:
                out = base if out is None else _divmod(convolve(out, base), b, p)[1]
            n >>= 1
            if n:
                base = _divmod(convolve(base, base), b, p)[1]
        return FiniteFieldPoly([1] if out is None else out, p)

    def to_text(self, var: str = "u") -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self[k]
            if not c:
                continue
            if k == 0:
                body = str(c)
            else:
                head = "" if c == 1 else f"{c}*"
                body = f"{head}{var}" if k == 1 else f"{head}{var}^{k}"
            parts.append(body)
        return " + ".join(parts)

    def __repr__(self):
        return f"FiniteFieldPoly({self.to_text()} over F_{self.p})"


def finite_field_irreducible(g: FiniteFieldPoly) -> bool:
    """Irreducibility over F_p by Ben-Or's test.

    A reducible g of degree n has an irreducible factor of some degree
    k <= n/2, which divides gcd(g, x^(p^k) - x); the test stops at the
    first such k.  Each k costs one ``pow_mod`` with exponent p and one
    ``gcd``, both on integer lists through the lazy-reduction kernel, so
    no step is O(p).  M. Ben-Or, "Probabilistic algorithms in finite
    fields" (1981); S. Gao and D. Panario, "Tests and constructions of
    irreducible polynomials over finite fields" (1997).  Verdicts are
    memoised for the process in ``_ben_or``, an LRU cache of
    ``_IRREDUCIBLE_CACHE_SIZE`` entries keyed by the pair (g.coeffs, g.p).
    """
    return _ben_or(g.coeffs, g.p)


@functools.lru_cache(maxsize=_IRREDUCIBLE_CACHE_SIZE)
def _ben_or(coeffs: tuple, p: int) -> bool:
    g = FiniteFieldPoly(coeffs, p)
    n = g.degree
    if n <= 0:
        return False
    x = FiniteFieldPoly((0, 1), p)
    h = x % g
    for _ in range(n // 2):
        h = h.pow_mod(p, g)
        if len(_gcd(g.coeffs, (h - x).coeffs, p)) > 1:
            return False
    return True


def reduce_one_edge(f: PadicPolynomial) -> FiniteFieldPoly:
    """Reduction of a monic one-edge polynomial to F_p[ubar].

    The coefficient of t^beta contributes res(c_beta pi^(m (deg f - beta)))
    at ubar^(beta/d) when the point (beta, v(c_beta)) lies on the edge;
    off-edge points reduce to zero.  Leading and constant digits always
    survive for a monic one-edge input.
    """
    if f.field.is_extension:
        raise PreconditionFailed("reduction implemented over Q_p coefficients")
    if not f.is_monic():
        raise PreconditionFailed("reduce_one_edge expects a monic polynomial")
    edge = newton_polygon(f).single_edge()
    # pi^(-v(f(0))) f lies in the graded ring of the slope, with its edge on the grading line
    return graded_reduction(f * f.field.context.uniformizer ** int(-edge.v0), edge.slope)


def polygon_irreducible(q: PadicPolynomial, ctx) -> tuple:
    """(slope, residue modulus) of a monic q of degree >= 2 over ctx, certified irreducible, or NotIrreducible.

    One edge, of slope denominator d = deg q (no residue modulus), or q's reduction cbar
    irreducible over F_p with d deg cbar = deg q (cbar is the modulus).
    """
    if q.field.is_extension:
        raise PreconditionFailed("towers of extensions are not supported")
    if q.field.context != ctx:
        raise PreconditionFailed("context mismatch")
    if not q.is_monic() or q.degree < 2:
        raise PreconditionFailed("minimal polynomial must be monic of degree >= 2")
    polygon = newton_polygon(q)
    if len(polygon.edges) != 1:
        raise NotIrreducible("minimal polynomial has several Newton slopes")
    slope = polygon.edges[0].slope
    if slope.denominator == q.degree:
        return slope, None
    cbar = reduce_one_edge(q)
    if slope.denominator * cbar.degree != q.degree or not finite_field_irreducible(cbar):
        raise NotIrreducible("irreducibility not certified by the polygon criteria")
    return slope, cbar


def uniformizer_remainder(q: PadicPolynomial, slope: Fraction) -> PadicPolynomial:
    """alpha^x pi^y modulo the certified q of this slope, of valuation 1/e: v(alpha) = -slope = k/e, x k + y e = 1.

    x = 1/k mod e is taken in (-e/2, e/2], and alpha^(-1) = -(q(t) - q(0)) / (t q(0)).
    """
    ctx, e, k = q.field, slope.denominator, (-slope).numerator
    x = pow(k, -1, e)
    if 2 * x > e:
        x -= e
    base = PadicPolynomial.x(ctx) if x >= 0 else (q - q[0]).shift(-1) * (-1 / q[0])
    return base ** abs(x) % q * ctx.uniformizer ** ((1 - k * x) // e)


def graded_reduction(f: PadicPolynomial, slope: Fraction) -> FiniteFieldPoly:
    """Image of f in R/P = F_p[ubar] for the grading v(c_b) >= m b of slope m.

    R holds the polynomials with every coefficient on or above the line
    v = m b, and P those strictly above it.  A term c t^b on the line maps
    to res(c pi^(-m b)) ubar^(b/d); terms above it vanish.  f must lie in
    R; the caller checks that.
    """
    ctx = f.field.context
    a, d = slope.numerator, slope.denominator
    digits = [0] * (f.degree // d + 1 if not f.is_zero() else 1)
    for b, v in f.valuations():
        if v * d == a * b:
            # on the grading line v = m b integrality forces d | b
            digits[b // d] = ctx.residue(f[b], v)[0]
    return FiniteFieldPoly(digits, ctx.p)


# ---------------------------------------------------------------------------
# one-edge square-class evaluation
# ---------------------------------------------------------------------------


def square_class_at_root_one_edge(f, a, g, z, big_n, alpha):
    """Square class of f(alpha) read off one end of a one-edge polynomial.

    Requires f = a + g t^N + z t^(2N + deg g - deg z) with deg a < N,
    deg z < N, deg g and deg z even, f of even degree with f(0) != 0 and a
    one-edge polygon of slope m != -v(alpha), and N > v(4)/|m + v(alpha)|.
    Then f(alpha) lies in the square class of z(alpha) when m < -v(alpha)
    and of a(alpha) when m > -v(alpha).

    Returns the canonical square-class representative (a rational over the
    base field, or an extension square-class tag).  The zero polynomial is
    allowed for g; its degree is treated as 0 in the shape arithmetic.
    """
    field = f.field
    if f.degree % 2:
        raise BadDecomposition("f must have even degree")
    if field.is_zero(f.constant_coefficient()):
        raise BadDecomposition("f(0) must be nonzero")
    deg_g = g.degree if not g.is_zero() else 0
    deg_z = z.degree if not z.is_zero() else 0
    if z.is_zero():
        raise BadDecomposition("z must be nonzero (it carries the leading term)")
    if deg_g % 2 or deg_z % 2:
        raise BadDecomposition("deg g and deg z must be even")
    if not (a.degree < big_n and deg_z < big_n):
        raise BadDecomposition("deg a and deg z must be below N")
    rebuilt = a + g.shift(big_n) + z.shift(2 * big_n + deg_g - deg_z)
    if rebuilt != f:
        raise BadDecomposition("f does not match a + g t^N + z t^(2N+deg g-deg z)")
    m = newton_polygon(f).single_edge().slope
    point_field = getattr(alpha, "field", field)  # alpha may lie in an extension
    alpha = point_field.coerce(alpha)
    v_alpha = point_field.valuation(alpha)
    if m == -v_alpha:
        raise SlopeCollision(f"slope {m} equals -v(alpha)")
    if big_n <= Fraction(field.context.v4) / abs(m + v_alpha):
        raise BadDecomposition("N does not satisfy N > v(4)/|m + v(alpha)|")
    side = z if m < -v_alpha else a
    value = side.evaluate(alpha)
    if point_field.is_zero(value):
        raise BadDecomposition("degenerate evaluation; preconditions violated")
    return padicforms.extensions.square_class(value, point_field)


# ---------------------------------------------------------------------------
# randomized irreducible search with a top-coefficient window
# ---------------------------------------------------------------------------


class WindowSearchResult(NamedTuple):
    cbar: FiniteFieldPoly
    qbar1: FiniteFieldPoly
    e_prime: int
    samples: int


def random_irreducible_search(
    hbar: FiniteFieldPoly, rho: int, n_prime: int, cap_g: int, rng
) -> WindowSearchResult:
    """Find an irreducible cbar = abar + qbar1 * bbar inside the window.

    Here abar = hbar + rho u^(N'+G) and bbar = hbar u^(N'+G); qbar1 runs
    over u^(e'-N'-G) plus a free part of degree <= e'-2N'-G, with e' even
    escalating from the smallest value making deg cbar >= N' + deg bbar,
    24 times at most, with up to 400 samples for each e'.
    Rejection sampling is seeded and deterministic; prime-polynomial
    density makes termination overwhelmingly likely.  The field built on
    the returned cbar reads back :func:`finite_field_irreducible`'s memo.
    """
    p = hbar.p
    shift = n_prime + cap_g
    abar = hbar + FiniteFieldPoly((0,) * shift + (rho,), p)
    bbar = FiniteFieldPoly((0,) * shift + (1,), p) * hbar
    if abar.gcd(bbar).degree != 0:
        raise PreconditionFailed("abar and bbar are not coprime")

    e0 = 2 * n_prime + cap_g
    if e0 % 2:
        e0 += 1
    samples = 0
    for step in range(24):
        e_prime = e0 + 2 * step
        free_deg = e_prime - 2 * n_prime - cap_g
        space = p ** (free_deg + 1)
        seen = set()
        for _ in range(min(400, 4 * space)):
            free = tuple(rng.randrange(p) for _ in range(free_deg + 1))
            if free in seen and space <= 400:
                continue
            seen.add(free)
            qbar1 = FiniteFieldPoly(
                list(free) + [0] * (e_prime - n_prime - cap_g - free_deg - 1) + [1], p
            )
            cbar = abar + qbar1 * bbar
            samples += 1
            if cbar.degree != hbar.degree + e_prime:
                continue
            if finite_field_irreducible(cbar):
                return WindowSearchResult(cbar, qbar1, e_prime, samples)
    raise SearchBudgetExhausted(
        f"no irreducible polynomial found after {samples} samples"
    )
