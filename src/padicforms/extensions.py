"""Finite extensions of Q_p with exact arithmetic and certified decisions.

A :class:`LocalField` is Q_p[t]/(q) for a monic irreducible q whose
irreducibility is certified at construction by one of the two Newton
polygon criteria (slope denominator equals the degree, or irreducible
reduction with matching degree).  Elements are rational coefficient
vectors; valuations come from exact resultant norms, normalized so that
the base uniformizer has valuation 1 (so values lie in (1/e)Z).

Squareness and Hilbert symbols over extensions are decided exactly.  Write
x = pi_K^w u with u a unit, q = p^f, and chi for the quadratic character
of the residue field F_q = F_p[y]/(cbar), cbar the reduction of the
minimal polynomial (chi(r) = r^((q-1)/2), Euler's criterion):

* for odd p, x is a square iff w is even and chi(u mod pi_K) = 1
  (Hensel), and the square-class tag of u is the least residue of its
  character;
* a Hilbert symbol with one argument from the base field reduces to the
  base symbol through the norm projection formula
  (a, b)_K = (N_{K/Q_p}(a), b)_{Q_p};
* for odd p, a symbol with two irrational arguments is the tame symbol
  (a, b) = chi((-1)^(w(a) w(b)) a^w(b) b^(-w(a)) mod pi_K).

At p = 2 no such formula is used.  There a unit is a square iff some
residue a modulo pi_K^(v(4)+1) has v(a^2 - u) > v(4), a Hensel-conclusive
search over an integral basis lattice; the tag is the least lattice
residue of u s^2; and a symbol with two irrational arguments is decided
by a bounded primitive-triple search modulo pi_K^M whose positive hits
carry a Hensel certificate and whose negative answers are conclusive
because an exact solution would reduce.  The searches run at any p, and
the test suite compares them with the closed forms at odd p.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ConditionFailed,
    NotIrreducible,
    PrecisionExhausted,
    PreconditionFailed,
    SearchExhausted,
)
from .newton import (
    FiniteFieldPoly,
    finite_field_irreducible,
    newton_polygon,
    reduce_one_edge,
    slope_denominator,
)
from .padics import (
    INFINITY,
    PadicContext,
    PadicScalar,
    field_handle,
    hilbert_symbol_qp,
    is_square_rational,
    legendre_int,
    rational_mod_pk,
    square_class_rational,
)
from .polynomials import PadicPolynomial

_SEARCH_CELL_CAP = 1 << 21


def _det(rows):
    """Determinant of a square matrix of Fractions, by exact elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] == 0:
                continue
            factor = m[r][col] * inv
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
    return det


def _inverse(rows):
    """Inverse of an invertible square matrix of Fractions, by Gauss-Jordan."""
    n = len(rows)
    m = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [c * inv for c in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return [row[n:] for row in m]


class LocalField:
    """K = Q_p[t]/(q) with q monic and certified irreducible.

    Exposes the coefficient-field protocol used by
    :class:`padicforms.polynomials.PadicPolynomial`, so polynomials over
    extensions work unchanged.  e * f = deg q always holds; the
    uniformizer element has valuation 1/e and the irreducibility evidence
    records which criterion fired.

    Construction certifies q and sets up multiplication only.  The lattice
    structures (the uniformizer element, the integral basis and the
    inverse of its coordinate matrix) are built on first use and kept:
    squares and square classes read them, while symbols, which go through
    the norm projection, never do.
    """

    is_extension = True

    def __init__(self, minimal_poly: PadicPolynomial, context: PadicContext | None = None):
        if context is None:
            context = minimal_poly.field.context
        if minimal_poly.field.is_extension:
            raise PreconditionFailed("towers of extensions are not supported")
        if minimal_poly.field.context != context:
            raise PreconditionFailed("context mismatch")
        if not minimal_poly.is_monic() or minimal_poly.degree < 2:
            raise PreconditionFailed("minimal polynomial must be monic of degree >= 2")
        self.base_context = context
        self.minimal_poly = minimal_poly
        self.degree = minimal_poly.degree

        polygon = newton_polygon(minimal_poly)
        if len(polygon.edges) != 1:
            raise NotIrreducible("minimal polynomial has several Newton slopes")
        edge = polygon.single_edge()
        self.slope = edge.slope
        d = slope_denominator(edge.slope)
        # F_p[x]/(residue_modulus) is the residue field, x the residue of beta
        # (see _integral_basis); None when f = 1 and it is F_p itself
        self.residue_modulus = None
        if d == self.degree:
            self.irreducibility_evidence = "eisenstein-type: slope denominator equals degree"
        else:
            cbar = self.residue_modulus = reduce_one_edge(minimal_poly)
            if d * cbar.degree != self.degree or not finite_field_irreducible(cbar):
                raise NotIrreducible(
                    "irreducibility not certified by the polygon criteria"
                )
            self.irreducibility_evidence = (
                f"reduction {cbar.to_text()} irreducible over F_{context.p}"
                f" with matching degree"
            )
        self.ramification_index = d
        self.residue_degree = self.degree // d
        self._unit_tags = {}  # quadratic character -> square-class unit tag (odd p)

        # alpha-power reduction rows for alpha^n .. alpha^(2n-2)
        n = self.degree
        top = [-c for c in minimal_poly.coeffs[:-1]]
        rows = [tuple(top)]
        for _ in range(n - 2):
            prev = rows[-1]
            shifted = (Fraction(0),) + prev[: n - 1]
            rows.append(tuple(x + prev[n - 1] * t for x, t in zip(shifted, top)))
        self._power_rows = rows

        self.zero = LocalFieldElement(self, (Fraction(0),) * n)
        self.one = LocalFieldElement(self, (Fraction(1),) + (Fraction(0),) * (n - 1))

    # -- field protocol ------------------------------------------------

    @property
    def context(self):
        return self.base_context

    def coerce(self, x):
        if isinstance(x, LocalFieldElement):
            if x.field != self:
                raise TypeError("element of a different field")
            return x
        if isinstance(x, PadicScalar):
            if x.context != self.base_context:
                raise TypeError("scalar of a different context")
            x = x.value
        if isinstance(x, (int, Fraction)):
            return self.embed(Fraction(x))
        if isinstance(x, tuple):
            return self.element(x)
        raise TypeError(f"cannot coerce {type(x).__name__} into {self!r}")

    def inv(self, x):
        return self.coerce(x).inverse()

    def is_zero(self, x):
        return all(c == 0 for c in self.coerce(x).coeffs)

    def valuation(self, x):
        return self.coerce(x).valuation

    def norm(self, x):
        return self.coerce(x).norm()

    def truncate(self, x, k: int) -> tuple:
        """Coefficients of x in powers of alpha, each reduced modulo p^k.

        ``coerce`` maps the tuple back to an element.
        """
        return tuple(rational_mod_pk(c, self.base_context.p, k) for c in self.coerce(x).coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, LocalField)
            and other.base_context == self.base_context
            and other.minimal_poly.coeffs == self.minimal_poly.coeffs
        )

    def __hash__(self):
        return hash((self.base_context, self.minimal_poly.coeffs))

    def __repr__(self):
        return (
            f"LocalField(Q_{self.base_context.p}[t]/({self.minimal_poly.to_text()}),"
            f" e={self.ramification_index}, f={self.residue_degree})"
        )

    # -- constructors ---------------------------------------------------

    def element(self, coeffs) -> "LocalFieldElement":
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > self.degree:
            raise PreconditionFailed("too many coefficients")
        cs += [Fraction(0)] * (self.degree - len(cs))
        return LocalFieldElement(self, tuple(cs))

    def embed(self, x) -> "LocalFieldElement":
        return self.element([Fraction(x)])

    def gen(self) -> "LocalFieldElement":
        return self.element([0, 1])

    def from_poly(self, f: PadicPolynomial) -> "LocalFieldElement":
        """Image of a base-coefficient polynomial, i.e. f(alpha)."""
        if f.field.is_extension:
            raise PreconditionFailed("expected base-field coefficients")
        r = f % PadicPolynomial(self.minimal_poly.coeffs, f.field)
        return self.element(list(r.coeffs))

    # -- structure ------------------------------------------------------

    @functools.cached_property
    def uniformizer_elt(self) -> "LocalFieldElement":
        """An element of valuation 1/e."""
        e = self.ramification_index
        if e == 1:
            return self.embed(self.base_context.uniformizer)
        k = (-self.slope).numerator  # v(alpha) = k/e in lowest terms
        # x*k + y*e = 1 gives v(alpha^x * pi^y) = 1/e
        x, y = _bezout_int(k, e)
        alpha = self.gen()
        out = alpha ** x if x >= 0 else alpha.inverse() ** (-x)
        return out * self.base_context.uniformizer ** y

    @functools.cached_property
    def _integral_basis(self):
        e, f = self.ramification_index, self.residue_degree
        # beta = alpha^e * pi^(m e) is a unit whose residue generates the
        # residue field; {beta^i pi_K^j} is an integral basis of O_K.
        m = self.slope
        beta = self.gen() ** e * self.base_context.uniformizer ** int(m * e)
        basis = []
        pk = self.uniformizer_elt
        beta_pows = [self.one]
        for _ in range(f - 1):
            beta_pows.append(beta_pows[-1] * beta)
        pk_pows = [self.one]
        for _ in range(e - 1):
            pk_pows.append(pk_pows[-1] * pk)
        for i in range(f):
            for j in range(e):
                basis.append(beta_pows[i] * pk_pows[j])
        return basis

    @functools.cached_property
    def _basis_inverse(self):
        """Inverse of the matrix whose columns are the integral basis in powers of alpha."""
        n = self.degree
        basis = self._integral_basis
        return _inverse([[basis[j].coeffs[i] for j in range(n)] for i in range(n)])

    def lattice_coordinates(self, x: "LocalFieldElement"):
        """Coordinates of x in the integral basis (p-integral iff x in O)."""
        coeffs = self.coerce(x).coeffs
        return [sum(a * c for a, c in zip(row, coeffs)) for row in self._basis_inverse]

    def from_lattice_coordinates(self, coords) -> "LocalFieldElement":
        acc = self.zero
        for c, b in zip(coords, self._integral_basis):
            if c:
                acc = acc + b * Fraction(c)
        return acc


def _bezout_int(a: int, b: int):
    x0, x1, y0, y1 = 1, 0, 0, 1
    aa, bb = a, b
    while bb:
        q, (aa, bb) = aa // bb, (bb, aa % bb)
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if aa != 1:
        raise PreconditionFailed("slope numerator and denominator not coprime")
    return x0, y0


class LocalFieldElement:
    """Element of a LocalField as a rational coefficient vector in alpha."""

    __slots__ = ("field", "coeffs", "_val")

    def __init__(self, field: LocalField, coeffs):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "_val", None)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("LocalFieldElement is immutable")

    def _coerce(self, other):
        try:
            return self.field.coerce(other)
        except TypeError:
            return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return LocalFieldElement(self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return LocalFieldElement(self.field, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return LocalFieldElement(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = self.field.degree
        conv = [Fraction(0)] * (2 * n - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(o.coeffs):
                if b:
                    conv[i + j] += a * b
        out = list(conv[:n])
        for k in range(n, 2 * n - 1):
            c = conv[k]
            if c:
                row = self.field._power_rows[k - n]
                out = [x + c * r for x, r in zip(out, row)]
        return LocalFieldElement(self.field, tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.field.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.coeffs, self.field))

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        q = self.field.minimal_poly
        # u * a = 1 modulo the irreducible q
        _, u = PadicPolynomial(self.coeffs, q.field).half_egcd(q)
        return self.field.element(list(u.coeffs))

    def multiplication_matrix(self):
        """Matrix of y -> x*y in the alpha-power basis (columns x*alpha^k)."""
        cols = []
        cur = self
        alpha = self.field.gen()
        for _ in range(self.field.degree):
            cols.append(cur.coeffs)
            cur = cur * alpha
        return [[cols[j][i] for j in range(self.field.degree)] for i in range(self.field.degree)]

    def norm(self) -> Fraction:
        """Field norm down to Q_p (determinant of multiplication)."""
        return _det(self.multiplication_matrix())

    @property
    def valuation(self):
        """v(x) = v_p(N(x)) / [K : Q_p], with v(pi) = 1; +inf at 0."""
        if self._val is None:
            if self.is_zero():
                object.__setattr__(self, "_val", INFINITY)
            else:
                vp = self.field.base_context.vp(self.norm())
                object.__setattr__(self, "_val", Fraction(vp, self.field.degree))
        return self._val

    def w(self) -> int:
        """Valuation normalized to Z (w(pi_K) = 1)."""
        v = self.valuation
        if v is INFINITY:
            raise PreconditionFailed("w(0) is infinite")
        w = v * self.field.ramification_index
        if w.denominator != 1:
            raise ConditionFailed(f"valuation {v} is not in (1/e)Z")
        return int(w)

    def __repr__(self):
        terms = " + ".join(
            f"({c})*a^{k}" if k else f"({c})" for k, c in enumerate(self.coeffs) if c
        )
        return f"LFE[{terms or '0'}]"


# ---------------------------------------------------------------------------
# generic scalar dispatch: squares, square classes, symbols
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SquareClassTag:
    """Canonical square-class tag for an extension element.

    ``parity`` is w(x) mod 2; ``unit_tag`` is, for u = x pi_K^(-w(x)), the
    lexicographically minimal lattice residue of u * s^2 over units s,
    taken modulo pi_K^(v(4)+1) (residues reduced mod
    p^ceil((e v(4)+1)/e)), which is a complete invariant of the unit
    square class.
    """

    parity: int
    unit_tag: tuple
    field_text: str


def as_base_rational(x):
    """Return a field element x as a Fraction if it lies in Q_p, else None."""
    if isinstance(x, LocalFieldElement):
        return x.coeffs[0] if not any(x.coeffs[1:]) else None
    return Fraction(x)


def _field_for(field, *xs):
    """The field handle to work in: the one given, else the largest of the xs' own.

    A PadicContext stands for Q_p.  Bare rationals carry no field, so with
    no other argument they need one given.
    """
    if field is None:
        owned = [x.field for x in xs if hasattr(x, "field")]
        if not owned:
            raise PreconditionFailed("a context or field is required for bare rationals")
        field = max(owned, key=lambda f: f.is_extension)
    return field_handle(field)


def is_square(x, context=None) -> bool:
    """Exact squareness test in Q_p or a certified extension.

    ``context`` is a PadicContext or a field handle; it may be omitted when
    x carries its own field.
    """
    field = _field_for(context, x)
    x = field.coerce(x)
    if field.is_extension:
        return _is_square_ext(x)
    return is_square_rational(x, field.context)


def square_class(x, context=None):
    """Canonical square-class representative (rational) or extension tag."""
    field = _field_for(context, x)
    x = field.coerce(x)
    if field.is_extension:
        return square_class_of(x)
    return square_class_rational(x, field.context)


def _unit(x: LocalFieldElement, w: int) -> LocalFieldElement:
    """The unit x * pi_K^(-w), for w = w(x)."""
    return x * x.field.uniformizer_elt ** (-w) if w else x


def _character(field: LocalField, digits) -> int:
    """Quadratic character of sum_i digits[i] xbar^i in F_p[x]/(residue_modulus), p odd.

    Euler's criterion: r^((p^f - 1)/2) is 1 for a nonzero square, -1 for
    a non-square, and 0 for r = 0.
    """
    p = field.base_context.p
    if field.residue_modulus is None:
        return legendre_int(digits[0], p)
    half = (p ** field.residue_degree - 1) // 2
    r = FiniteFieldPoly(digits, p).pow_mod(half, field.residue_modulus)
    return {(): 0, (1,): 1, (p - 1,): -1}[r.coeffs]


def _residue_character(u: LocalFieldElement) -> int:
    """Quadratic character (+1 or -1) of the residue of the unit u, p odd.

    The residue is read from u's lattice coordinates at the beta^i
    positions (index i e) as an element of F_p[x]/(residue_modulus); the
    pi_K-multiples of the integral basis reduce to zero.
    """
    field = u.field
    p, e = field.base_context.p, field.ramification_index
    coords = field.lattice_coordinates(u)
    digits = [rational_mod_pk(coords[i * e], p, 1) for i in range(field.residue_degree)]
    chi = _character(field, digits)
    if chi == 0:
        raise ConditionFailed("residue character of a non-unit")
    return chi


def _least_unit_tag(field: LocalField, chi: int) -> tuple:
    """Lattice residue tag of the unit square class of character chi, p odd.

    Modulo p every unit with the same residue character is u * s^2 for a
    unit s (1 + pi_K O_K is a pro-p group, p odd), so the least such
    lattice residue carries the lexicographically least residue vector of
    character chi at the beta^i positions and zeros elsewhere.
    """
    tag = field._unit_tags.get(chi)
    if tag is None:
        p, e = field.base_context.p, field.ramification_index
        digits = next(
            ds for ds in itertools.product(range(p), repeat=field.residue_degree)
            if _character(field, ds) == chi
        )
        tag = field._unit_tags[chi] = tuple(
            0 if i % e else digits[i // e] for i in range(field.degree)
        )
    return tag


def _unit_modulus(field: LocalField) -> int:
    """Power of p whose lattice residues decide unit square classes."""
    e = field.ramification_index
    w4 = e * field.base_context.v4
    return -((w4 + 1) // -e)  # ceil((w4+1)/e)


def _is_square_ext(x: LocalFieldElement) -> bool:
    if x.is_zero():
        raise PreconditionFailed("is_square is undefined at 0")
    w = x.w()
    if w % 2:
        return False
    u = _unit(x, w)
    if x.field.base_context.p == 2:
        return _is_square_search(u)
    return _residue_character(u) == 1


def _is_square_search(u: LocalFieldElement) -> bool:
    """Is the unit u a square: some lattice residue a has w(a^2 - u) > w(4).

    Hensel-conclusive at any p; it decides p = 2 and is the test oracle
    for the residue character at odd p.
    """
    field = u.field
    w4 = field.ramification_index * field.base_context.v4
    q = field.base_context.p ** _unit_modulus(field)
    for coords in itertools.product(range(q), repeat=field.degree):
        a = field.from_lattice_coordinates(coords)
        diff = a * a - u
        if diff.is_zero() or diff.w() > w4:
            return True
    return False


def square_class_of(x: LocalFieldElement) -> SquareClassTag:
    """Deterministic tag: (w mod 2, least lattice residue of u s^2 over units s).

    u = x pi_K^(-w(x)).  For odd p the tag is read off the residue
    character of u; for p = 2 it is found by the lattice search.
    """
    field = x.field
    w = x.w()
    u = _unit(x, w)
    if field.base_context.p == 2:
        tag = _square_class_search(u)
    else:
        tag = _least_unit_tag(field, _residue_character(u))
    return SquareClassTag(w % 2, tag, repr(field))


def _square_class_search(u: LocalFieldElement) -> tuple:
    """Least lattice residue of u * s^2 over units s, modulo p^_unit_modulus.

    Decides p = 2; the test oracle for ``_least_unit_tag`` at odd p.
    """
    field = u.field
    kp = _unit_modulus(field)
    p = field.base_context.p
    e = field.ramification_index
    f = field.residue_degree
    best = None
    for coords in itertools.product(range(p ** kp), repeat=field.degree):
        # unit mask: some pi_K^0-level coordinate must be a p-unit
        if all(coords[i * e] % p == 0 for i in range(f)):
            continue
        s = field.from_lattice_coordinates(coords)
        val = u * s * s
        res = tuple(
            rational_mod_pk(c, p, kp) for c in field.lattice_coordinates(val)
        )
        if best is None or res < best:
            best = res
    if best is None:
        raise ConditionFailed("no unit s found in the square-class search")
    return best


def hilbert_symbol(a, b, field=None) -> int:
    """Hilbert symbol over Q_p or a certified extension, in {-1, +1}.

    With one argument from Q_p: the norm projection
    (a, b)_K = (N(a), b)_{Q_p}, which over Q_p itself (N = id) is the
    classical case formula.  With two irrational arguments and p odd: the
    tame symbol (a, b) = chi((-1)^(w(a) w(b)) a^w(b) b^(-w(a)) mod pi_K),
    chi the quadratic character of F_q, q = p^f.  With two irrational
    arguments and p = 2: the Hensel-certified bounded search.  ``field``
    is a PadicContext or a field handle; it may be omitted when an
    argument carries its field.
    """
    field = _field_for(field, a, b)
    a, b = field.coerce(a), field.coerce(b)
    if field.is_zero(a) or field.is_zero(b):
        raise PreconditionFailed("hilbert symbol needs nonzero arguments")
    rb = as_base_rational(b)
    if rb is not None:
        return hilbert_symbol_qp(field.norm(a), rb, field.context)
    ra = as_base_rational(a)
    if ra is not None:
        return hilbert_symbol_qp(field.norm(b), ra, field.context)
    if field.context.p == 2:
        return _certified_hilbert_search(a, b)
    return _tame_symbol(a, b)


def _tame_symbol(a: LocalFieldElement, b: LocalFieldElement) -> int:
    """(a, b)_K for odd p: chi(-1)^(alpha beta) chi(u)^beta chi(v)^alpha.

    a = pi_K^alpha u and b = pi_K^beta v with u, v units; chi(-1) = -1
    exactly when q = 3 mod 4.
    """
    alpha, beta = a.w(), b.w()
    q = a.field.base_context.p ** a.field.residue_degree
    s = -1 if alpha % 2 and beta % 2 and q % 4 == 3 else 1
    if beta % 2:
        s *= _residue_character(_unit(a, alpha))
    if alpha % 2:
        s *= _residue_character(_unit(b, beta))
    return s


def _certified_hilbert_search(a: LocalFieldElement, b: LocalFieldElement) -> int:
    """Decide z^2 = a x^2 + b y^2 by searching primitive triples mod pi_K^M.

    After normalizing w(a), w(b) into {0, 1}, any primitive residue
    solution modulo pi_K^M with M >= w(4) + 3 carries one coordinate with
    Hensel slack, so a hit certifies +1 and an empty search certifies -1
    (an exact solution would reduce).  M starts at 2 w(4) + 3 and doubles
    up to 8 (w(4) + 1); hitting the cap raises SearchExhausted and is
    treated as a defect.
    """
    import numpy as np

    field = a.field
    ctx = field.base_context
    p = ctx.p
    e = field.ramification_index
    f = field.residue_degree
    n = field.degree
    w4 = e * ctx.v4

    def norm01(x):
        w = x.w()
        return x * field.uniformizer_elt ** (-2 * (w // 2))

    a, b = norm01(a), norm01(b)
    m_cap = max(8 * (w4 + 1), 2 * w4 + 3)
    m = 2 * w4 + 3
    while True:
        kp = -(m // -e)  # ceil(M/e): search modulo p^kp in the lattice
        q = p ** kp
        if q ** n > _SEARCH_CELL_CAP:
            raise SearchExhausted(
                f"lattice of {q ** n} cells exceeds the search cap"
            )
        found = _search_lattice(a, b, q, np)
        if found is None:
            return -1
        x, y, z = found
        fval = z * z - a * x * x - b * y * y
        grads = [z * 2, a * x * 2, b * y * 2]
        res_w = INFINITY if fval.is_zero() else fval.w()
        ok = any(
            not g.is_zero() and res_w > 2 * g.w() for g in grads
        ) or fval.is_zero()
        if ok:
            return 1
        if m >= m_cap:
            raise SearchExhausted("certification failed up to the modulus cap")
        m = min(2 * m, m_cap)


def _search_lattice(a, b, q, np):
    """Find (x, y, z) with z^2 = a x^2 + b y^2 mod p^q-lattice, (x, y) primitive."""
    field = a.field
    p = field.base_context.p
    n = field.degree
    e = field.ramification_index
    f = field.residue_degree

    # integer structure tensor: basis_i * basis_j in lattice coordinates
    tensor = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            prod = field._integral_basis[i] * field._integral_basis[j]
            coords = field.lattice_coordinates(prod)
            row = tuple(rational_mod_pk(c, p, _exp_of(q, p)) for c in coords)
            tensor[i][j] = row
            tensor[j][i] = row
    a_co = [rational_mod_pk(c, p, _exp_of(q, p)) for c in field.lattice_coordinates(a)]
    b_co = [rational_mod_pk(c, p, _exp_of(q, p)) for c in field.lattice_coordinates(b)]

    grids = np.meshgrid(*([np.arange(q)] * n), indexing="ij")
    flat = [g.reshape(-1).astype(np.int64) for g in grids]
    total = flat[0].shape[0]

    def mul_vec(xc, yc):
        out = [np.zeros(total, dtype=np.int64) for _ in range(n)]
        for i in range(n):
            for j in range(n):
                xij = (xc[i] * yc[j]) % q
                row = tensor[i][j]
                for c in range(n):
                    if row[c]:
                        out[c] = (out[c] + xij * row[c]) % q
        return out

    def scale(co, vec):
        # multiply the vectorized element by the fixed element with coords co
        out = [np.zeros(total, dtype=np.int64) for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if co[j]:
                    row = tensor[i][j]
                    for c in range(n):
                        if row[c]:
                            out[c] = (out[c] + vec[i] * co[j] * row[c]) % q
        return out

    def encode(vec):
        out = np.zeros(total, dtype=np.int64)
        for c in range(n):
            out = out * q + vec[c]
        return out

    sq = mul_vec(flat, flat)
    unit_mask = np.zeros(total, dtype=bool)
    for i in range(f):
        unit_mask |= (flat[i * e] % p) != 0

    z_codes = encode(sq)
    square_set = np.zeros(q ** n, dtype=bool)
    square_set[z_codes] = True
    z_example = {}
    for idx in range(total):
        code = int(z_codes[idx])
        if code not in z_example:
            z_example[code] = idx

    ax = encode(scale(a_co, sq))
    by = encode(scale(b_co, sq))

    # shape (q,)*n boolean indicators; sumset via FFT convolution
    shape = (q,) * n
    ax_any = np.zeros(q ** n)
    np.add.at(ax_any, ax, 1.0)
    by_any = np.zeros(q ** n)
    np.add.at(by_any, by, 1.0)
    ax_unit = np.zeros(q ** n)
    np.add.at(ax_unit, ax[unit_mask], 1.0)
    by_unit = np.zeros(q ** n)
    np.add.at(by_unit, by[unit_mask], 1.0)

    def sumset_hits(A, B):
        fa = np.fft.fftn(A.reshape(shape))
        fb = np.fft.fftn(B.reshape(shape))
        conv = np.fft.ifftn(fa * fb).real.reshape(-1)
        return (conv > 0.5) & square_set

    hits = sumset_hits(ax_unit, by_any)
    tag = "xu"
    if not hits.any():
        hits = sumset_hits(ax_any, by_unit)
        tag = "yu"
    if not hits.any():
        return None
    target = int(np.nonzero(hits)[0][0])

    def decode(code):
        out = []
        for _ in range(n):
            out.append(code % q)
            code //= q
        return tuple(reversed(out))

    def encode_vec(vec):
        code = 0
        for c in vec:
            code = code * q + c
        return code

    target_vec = decode(target)

    # recover a concrete triple for the chosen target value
    by_index = {}
    use_unit_y = tag == "yu"
    for idx in range(total):
        if use_unit_y and not unit_mask[idx]:
            continue
        code = int(by[idx])
        if code not in by_index:
            by_index[code] = idx
    for idx in range(total):
        if tag == "xu" and not unit_mask[idx]:
            continue
        ax_vec = decode(int(ax[idx]))
        need = encode_vec([(t - v) % q for t, v in zip(target_vec, ax_vec)])
        j = by_index.get(need)
        if j is not None:
            x = field.from_lattice_coordinates([int(flat[c][idx]) for c in range(n)])
            y = field.from_lattice_coordinates([int(flat[c][j]) for c in range(n)])
            zidx = z_example[target]
            z = field.from_lattice_coordinates([int(flat[c][zidx]) for c in range(n)])
            return x, y, z
    return None


def _exp_of(q, p):
    k = 0
    while q > 1:
        q //= p
        k += 1
    return k


# ---------------------------------------------------------------------------
# Hensel lifting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HenselWitness:
    """Certified refinement of an approximate root.

    ``approximate_root`` is truncated to ``digits`` p-adic digits (an
    integer representative over Q_p, a coordinate-truncated element over
    extensions); ``slack`` is v(f(a)) - 2 v(f'(a)) at the certified
    starting point, and ``residual_valuation`` is v(f(root)) at the
    reported root, which exceeds ``digits``.
    """

    approximate_root: object
    slack: object
    residual_valuation: object
    digits: int
    starting_point: object
    exact_value: object


def hensel_lift(f: PadicPolynomial, a, digits: int | None = None) -> HenselWitness:
    """Refine a to a root of f by Newton iteration with exact rationals.

    Requires v(f(a)) > 2 v(f'(a)) and p-integral coefficients; returns a
    witness whose root satisfies v(f(b)) > digits and v(b - a) > v(f'(a)),
    both checked exactly.  Only the reported root is truncated.
    """
    field = f.field
    ctx = field.context
    if digits is None:
        digits = ctx.precision_digits
    if digits < 0:
        raise PreconditionFailed(f"digit target {digits} is negative")
    if digits > ctx.precision_digits:
        raise PrecisionExhausted(
            f"digit target {digits} exceeds context precision {ctx.precision_digits}"
        )
    a = field.coerce(a)
    for c in f.coeffs:
        if field.valuation(c) < 0:
            raise PreconditionFailed("coefficients must lie in the valuation ring")
    if field.valuation(a) < 0:
        raise PreconditionFailed("starting point must lie in the valuation ring")

    deriv = f.derivative()
    fa = f.evaluate(a)
    fpa = deriv.evaluate(a)
    v_fa = field.valuation(fa)
    v_fpa = field.valuation(fpa)
    if v_fa is INFINITY:
        slack = INFINITY
    else:
        if v_fpa is INFINITY:
            raise PreconditionFailed("f'(a) = 0 at a non-root")
        slack = v_fa - 2 * v_fpa
    if slack is not INFINITY and slack <= 0:
        raise PreconditionFailed(f"Hensel slack {slack} is not positive")

    b = a
    for _ in range(4 * digits + 16):
        fb = f.evaluate(b)
        if field.valuation(fb) > digits:
            break
        b = b - fb * field.inv(deriv.evaluate(b))
    else:
        raise PrecisionExhausted("Newton iteration did not reach the digit target")

    truncated = field.truncate(b, digits + 1)
    root = field.coerce(truncated)
    residual = field.valuation(f.evaluate(root))
    if not residual > digits:
        raise PrecisionExhausted("truncated root lost the residual margin")
    if v_fa is not INFINITY:
        vdiff = field.valuation(root - a)
        if not vdiff > v_fpa:
            raise PrecisionExhausted("root moved outside the Hensel ball")
    return HenselWitness(truncated, slack, residual, digits, a, b)

