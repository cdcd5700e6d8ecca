"""Diagonal quadratic forms: local isotropy, residue maps, Witt-class tests.

Over a local field (Q_p or a certified extension) the standard small-
dimension criteria decide isotropy: dimension 5 and up is always
isotropic, dimension 4 is anisotropic exactly for the forms similar to
the norm form of the quaternion division algebra (square discriminant
plus one Hilbert symbol), dimension 3 reduces to one symbol, dimension 2
to one squareness test.

Over the rational function field K(t), a form is analysed through its
second residue forms at monic irreducible polynomials.  Every polynomial
is read at a place q through :func:`at_place`: the residue field K[t]/(q)
(a :class:`Place`, remainders read through the norm Res(q, r) alone, at
degree 2 or more), the order v_q(f) and the image of f / q^v there, so no
general factorization is needed; the places to visit are enumerated from
the known factors carried by the form's entries.  Only second residue
forms and the square criterion build a ``LocalField`` (:func:`local_field`).
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import NamedTuple

import padicforms

from .errors import FactorizationUncertified, NotIrreducible, PreconditionFailed
from .padics import INFINITY, Immutable, PadicContext, hilbert_digits, unit_digits, vp_rational
from .polynomials import PadicPolynomial, divide, root_norm

# recently used places kept by residue_field; a construction or a verdict
# touches a handful of moduli at a time
_FIELD_CACHE_SIZE = 32


# ---------------------------------------------------------------------------
# forms over a local field
# ---------------------------------------------------------------------------


class DiagonalForm(Immutable):
    """<a_1, ..., a_n> with nonzero entries in Q_p or one extension."""

    __slots__ = _fields = ("entries", "field")  # field: a field handle, a PadicContext (Q_p) or a LocalField

    def __init__(self, entries: tuple, field):
        for a in entries:
            if field.is_zero(a):
                raise PreconditionFailed("form entries must be nonzero")
        self._set(entries, field)

    @classmethod
    def make(cls, entries, field):
        return cls(tuple(field.coerce(a) for a in entries), field)

    @property
    def dim(self):
        return len(self.entries)

    def scaled(self, c):
        c = self.field.coerce(c)
        return DiagonalForm(tuple(e * c for e in self.entries), self.field)

    def discriminant(self):
        d = self.field.one
        for e in self.entries:
            d = d * e
        return d


def isotropic_over_local(form: DiagonalForm) -> bool:
    """Exact isotropy decision over a local field.

    dim >= 5: always isotropic (the u-invariant of a p-adic field is 4).
    dim 4: anisotropic iff the discriminant is a square and the form is
    similar to the quaternion norm form, detected by one Hilbert symbol.
    dim 3: <a,b,c> is isotropic iff (-ac, -bc) = 1.  dim 2: -a1 a2 square.
    """
    n = form.dim
    if n <= 1:
        return False
    if n >= 5:
        return True
    e, field = form.entries, form.field
    if n == 2:
        return field.is_square(-e[0] * e[1])
    if n == 3:
        return field.hilbert_symbol(-e[0] * e[2], -e[1] * e[2]) == 1
    if not field.is_square(form.discriminant()):
        return True
    return field.hilbert_symbol(-e[0] * e[1], -e[0] * e[2]) == 1


def witt_zero(form: DiagonalForm) -> bool:
    """Is the form zero (hyperbolic) in the Witt ring of its local field?

    Implemented for the dimensions the residue analysis produces:
    dim 0, 2 and 4.  A 4-dimensional form is hyperbolic iff it is
    isotropic with square discriminant.
    """
    n = form.dim
    if n == 0:
        return True
    if n % 2:
        return False
    if n == 2:
        return form.field.is_square(-form.entries[0] * form.entries[1])
    if n == 4:
        return form.field.is_square(form.discriminant()) and isotropic_over_local(form)
    raise PreconditionFailed(f"witt_zero not implemented for dimension {n}")


def i2_class(u, field) -> int:
    """Class of <1, pi> <1, -u> in I^2 = Z/2, as +1 or -1.

    Equals the Hilbert symbol (u, -pi); +1 iff <1, pi, -u, -pi u> is
    isotropic.  Multiplying u by powers of pi does not change the value.
    ``field`` is a field handle or a :class:`Place`.  Since -pi lies in Q_p,
    the symbol is the norm projection (N(u), -pi)_{Q_p}.
    """
    ctx = field.context
    n = field.norm(u)
    if not n:
        raise PreconditionFailed("hilbert symbol needs nonzero arguments")
    return hilbert_digits(*unit_digits(n, ctx.p), *ctx.minus_uniformizer_digits, ctx.p)


# ---------------------------------------------------------------------------
# forms over K(t) and residue maps
# ---------------------------------------------------------------------------


class FunctionFieldForm(Immutable):
    """Diagonal form over K(t) with polynomial entries.

    Orders at a place are read by :func:`at_place`, so residue splits
    need no factorization data; Witt-class analyses that must
    enumerate places go through :class:`PfisterSlot`, which carries the
    certified factor multiset of each entry.
    """

    __slots__ = _fields = ("entries", "context")  # PadicPolynomial entries, over a PadicContext

    def __init__(self, entries: tuple, context: PadicContext):
        for e in entries:
            if e.is_zero():
                raise PreconditionFailed("form entries must be nonzero")
        self._set(entries, context)

    @property
    def dim(self):
        return len(self.entries)


class ResidueSplit(NamedTuple):
    """First and second residue forms of a form at a monic irreducible q."""

    place: PadicPolynomial
    first_form: DiagonalForm
    second_form: DiagonalForm
    residue_field: object


class Place:
    """K[t]/(q) for a certified monic irreducible q of degree >= 2; an element is its remainder r by q.

    ``norm`` is N(r(alpha)) = Res(q, r), over the integers, and ``valuation`` v_p(N) / deg q.
    """

    def __init__(self, q: PadicPolynomial, ctx: PadicContext):
        self.slope, self.residue_modulus = padicforms.newton.polygon_irreducible(q, ctx)
        self.modulus, self.context = q, ctx
        self.ramification_index = self.slope.denominator
        self.residue_degree = q.degree // self.ramification_index

    @property
    def evidence(self) -> str:
        cbar = self.residue_modulus
        return ("eisenstein-type: slope denominator equals degree" if cbar is None else
                f"reduction {cbar.to_text()} irreducible over F_{self.context.p} with matching degree")

    @functools.cached_property
    def uniformizer(self) -> PadicPolynomial:
        return padicforms.newton.uniformizer_remainder(self.modulus, self.slope)

    def from_poly(self, f: PadicPolynomial) -> PadicPolynomial:
        """The remainder of f by q: one ``divide``, none when f is already below deg q."""
        q = self.modulus
        if f.degree < q.degree:
            return f
        _, r, d = divide(f.num, f.den, q.num, q.den)
        return PadicPolynomial.from_integers(r, d, self.context)

    is_zero = staticmethod(PadicPolynomial.is_zero)

    def norm(self, x: PadicPolynomial) -> Fraction:
        x = self.from_poly(x)
        return root_norm(self.modulus, x.num, x.den)

    def valuation(self, x: PadicPolynomial):
        v = vp_rational(self.norm(x), self.context.p)
        return v if v is INFINITY else Fraction(v, self.modulus.degree)


def residue_field(q: PadicPolynomial, ctx: PadicContext):
    """K[t]/(q) for a monic irreducible q: Q_p itself (no cache slot) when q is linear, else q's :class:`Place`.

    ``_place`` memoises the place on (q, ctx), so every symbol, residue test
    and factor certificate on a modulus shares one certification, and a
    failed one (NotIrreducible, or a tower or context mismatch) is not cached.
    """
    return ctx if q.degree == 1 else _place(q, ctx)


_place = functools.lru_cache(maxsize=_FIELD_CACHE_SIZE)(Place)


@functools.lru_cache(maxsize=_FIELD_CACHE_SIZE)
def local_field(q: PadicPolynomial, ctx: PadicContext):
    """K[t]/(q) with K's own arithmetic, for its squares: Q_p for a linear q, else a LocalField."""
    return ctx if q.degree == 1 else padicforms.extensions.LocalField(q, ctx)


def certify_factor(f: PadicPolynomial) -> str:
    """Irreducibility evidence for a monic factor, from its place's certification, or FactorizationUncertified."""
    if f.degree == 1:
        return "linear"
    try:
        place = residue_field(f.monic(), f.field.context)
    except NotIrreducible:
        raise FactorizationUncertified(f"cannot certify irreducibility of {f.to_text()}") from None
    cbar = place.residue_modulus
    return (f"one edge of slope {place.slope} with denominator = degree" if cbar is None else
            f"one edge of slope {place.slope}; reduction {cbar.to_text()} irreducible with matching degree")


def at_place(f: PadicPolynomial, q: PadicPolynomial, ctx: PadicContext):
    """(field, v, u): f read at the place q.

    ``field`` is residue_field(q, ctx), v = v_q(f) and u, never zero, the
    image of f / q^v in it.  q must be monic of degree >= 1 and f nonzero.
    The image is read first, as the value at the root when q is linear
    and as the remainder by q (``Place.from_poly``) otherwise, and f is
    divided by q only while it vanishes.
    """
    if not q.is_monic() or q.degree < 1:
        raise PreconditionFailed("place must be a monic polynomial of degree >= 1")
    field = residue_field(q, ctx)
    if f.is_zero():
        raise PreconditionFailed("the zero polynomial has no order at a place")
    root = Fraction(-q.num[0], q.den) if q.degree == 1 else None
    v = 0
    while True:
        u = field.from_poly(f) if root is None else f.evaluate(root)
        if not field.is_zero(u):
            return field, v, u
        f, v = f // q, v + 1


def second_residue(form: FunctionFieldForm, q: PadicPolynomial) -> ResidueSplit:
    """Split a form over K(t) at the place q into its two residue forms.

    Entries with even order at q land (divided by q^v and reduced mod q)
    in the first form, odd orders in the second; the reconstruction
    first + <q> second matches the input up to squares of K(t).
    """
    # read through at_place so that q is checked for a form with no entries too
    at_place(PadicPolynomial.one(form.context), q, form.context)
    field = local_field(q, form.context)
    first, second = [], []
    for entry in form.entries:
        _, v, value = at_place(entry, q, form.context)
        (second if v % 2 else first).append(value)
    return ResidueSplit(
        q,
        DiagonalForm.make(first, field),
        DiagonalForm.make(second, field),
        field,
    )


def springer_anisotropy(form: FunctionFieldForm, q: PadicPolynomial) -> bool:
    """Certify anisotropy over K(t): both residue forms at q anisotropic.

    Residue forms both anisotropic over K[t]/(q) force the form itself to
    be anisotropic; the converse direction is not decided here.
    """
    split = second_residue(form, q)
    return not isotropic_over_local(split.first_form) and not isotropic_over_local(
        split.second_form
    )


# ---------------------------------------------------------------------------
# 3-fold Pfister forms <1,pi> <1,x> <1,y> over K(t): Milnor residue analysis
# ---------------------------------------------------------------------------


class PfisterSlot(NamedTuple):
    """A K(t) entry x = unit * prod(factors), with its factors known."""

    unit: Fraction
    factors: tuple  # (monic PadicPolynomial, exponent) pairs

    def value(self, ctx: PadicContext) -> PadicPolynomial:
        out = PadicPolynomial.from_rationals([self.unit], ctx)
        for poly, exp in self.factors:
            out = out * poly ** exp
        return out


class ResidueTest(NamedTuple):
    place: PadicPolynomial
    parity_x: int
    parity_y: int
    symbol_value: int
    is_zero: bool
    description: str


def pfister_residue_test(
    x_poly: PadicPolynomial, y_poly: PadicPolynomial, q: PadicPolynomial, ctx: PadicContext
) -> ResidueTest:
    """Test whether d_q(<1,pi><1,x><1,y>) vanishes in W(K[t]/(q)).

    With px = v_q(x) mod 2 and py = v_q(y) mod 2 and xb, yb the reduced
    cofactors, the second residue form is, up to a scalar, a 2-fold
    Pfister form with one slot pi, so the test is a single i2 class:

        (0,0): zero.                  (1,0): zero iff i2(-yb) = +1.
        (0,1): zero iff i2(-xb) = +1. (1,1): zero iff i2(-xb yb) = +1.
    """
    field, vx, xb = at_place(x_poly, q, ctx)
    _, vy, yb = at_place(y_poly, q, ctx)
    px, py = vx % 2, vy % 2
    if (px, py) == (0, 0):
        return ResidueTest(q, 0, 0, 1, True, "even orders: residue trivially zero")
    if (px, py) == (1, 0):
        s = i2_class(-yb, field)
        return ResidueTest(q, 1, 0, s, s == 1, "zero iff i2(-y_bar) = +1")
    if (px, py) == (0, 1):
        s = i2_class(-xb, field)
        return ResidueTest(q, 0, 1, s, s == 1, "zero iff i2(-x_bar) = +1")
    s = i2_class(-xb * yb, field)
    return ResidueTest(q, 1, 1, s, s == 1, "zero iff i2(-x_bar y_bar) = +1")


class MilnorVerdict(NamedTuple):
    isotropic: bool
    verdict: str
    tests: tuple
    failing_place: PadicPolynomial | None


def milnor_places(x: PfisterSlot, y: PfisterSlot) -> list:
    """The places <1,pi><1,x><1,y> can have a second residue at: the slots' factors, each once, in order."""
    return list(dict.fromkeys(poly for poly, _ in x.factors + y.factors))


def milnor_isotropy(x: PfisterSlot, y: PfisterSlot, ctx: PadicContext) -> MilnorVerdict:
    """Decide isotropy of the 8-dimensional form <1,pi><1,x><1,y> over K(t).

    If every second residue form vanishes, the form is Witt equivalent to
    a form defined over K of dimension at most 4; an 8-dimensional form
    Witt equivalent to something of dimension <= 4 is isotropic.  If some
    residue does not vanish the verdict is "not decided by this rule" and
    the certificate pinpoints the place.
    """
    x_poly, y_poly = x.value(ctx), y.value(ctx)
    tests = []
    failing = None
    for q in milnor_places(x, y):
        t = pfister_residue_test(x_poly, y_poly, q, ctx)
        tests.append(t)
        if not t.is_zero and failing is None:
            failing = q
    if failing is None:
        return MilnorVerdict(True, "isotropic: all second residue forms vanish, so the class comes from"
                             " W(K) with anisotropic dimension <= 4 < 8", tuple(tests), None)
    return MilnorVerdict(False, "not decided by this rule", tuple(tests), failing)
