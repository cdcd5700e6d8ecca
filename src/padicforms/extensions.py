"""Finite extensions of Q_p with exact arithmetic and certified decisions.

A :class:`LocalField` is Q_p[t]/(q) for a monic irreducible q whose
irreducibility is certified at construction by one of the two Newton
polygon criteria (``newton.polygon_irreducible``; the paper's chain reads
its places through ``quadform.Place`` instead).  Elements are integer coefficient
vectors in powers of alpha over one positive denominator, in lowest terms,
and every kernel (products, inverses, norms, lattice coordinates,
valuations, residues and truncations) runs on those integers.  Products
(``polynomials.convolve``) and images f(alpha) are reduced modulo q by
``polynomials.pseudo_remainder``, which builds no quotient.
Norms are exact resultants Res(q, r) for
x = r(alpha), by ``polynomials.resultant``'s sub-resultants over Z, and valuations are read off the
coordinates in an integral basis, normalized so that the base
uniformizer has valuation 1 (so values lie in (1/e)Z).
Residue digits and truncations are read through the field handle's
``residue`` and ``truncate``.

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
  (a, b) = chi((-1)^(w(a) w(b)) a^w(b) b^(-w(a)) mod pi_K);
* at p = 2, x is a square iff its coordinates in K*/K*^2 = F_2^(n+2)
  vanish (w mod 2, then the unit's residue digits at the odd levels
  below 2e and a trace bit at level 2e; see ``_DyadicClasses``), and the
  square-class tag is that vector;
* at p = 2, a symbol with two irrational arguments is a bilinear form on
  those coordinates, whose Gram matrix is certified once per field from
  the coordinates of exact norms.

Every decision is exact, and no search has a cap that could leave it
undecided.  Brute-force lattice searches, kept in the test suite,
cross-check these closed forms.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import (
    ConditionFailed,
    PrecisionExhausted,
    PreconditionFailed,
)
from .newton import (
    FiniteFieldPoly,
    _add,
    _exact_shift,
    _mul_mod,
    _newton_budget,
    _sub,
    polygon_irreducible,
    uniformizer_remainder,
)
from .padics import (
    INFINITY,
    PadicContext,
    hilbert_symbol_qp,
    int_mod_pk,
    legendre_int,
    square_class_rational,
    vp_int,
)
from .polynomials import PadicPolynomial, convolve, pseudo_remainder, resultant, root_norm


def _lattice_w(coords, p: int, e: int) -> int:
    """min over positions (i, j) of e v_p(c_ij) + j, for integer lattice coordinates c, not all 0.

    The position of beta^i pi_K^j is i e + j.  The residues of the beta^i
    are independent, so for x with lattice coordinates c / d this is
    w(x) + e v_p(d), and w(pi_K) = 1; it reads the same on coordinates
    known modulo a high enough p-power.
    """
    return min(e * vp_int(c, p) + pos % e for pos, c in enumerate(coords) if c)


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


def _integer_rows(rows):
    """Rows of rationals as integer rows over one common denominator: (rows, d)."""
    d = math.lcm(*(c.denominator for row in rows for c in row))
    return [tuple(c.numerator * (d // c.denominator) for c in row) for row in rows], d


class LocalField:
    """K = Q_p[t]/(q) with q monic and certified irreducible.

    Exposes the coefficient-field protocol used by
    :class:`padicforms.polynomials.PadicPolynomial`, so polynomials over
    K add, scale, differentiate, shift and evaluate as over Q_p (all that
    ``hensel_lift`` needs); their products and divisions raise
    PreconditionFailed.  e * f = deg q always holds, and the
    uniformizer element has valuation 1/e.

    Construction certifies q through ``newton.polygon_irreducible`` and
    keeps it as integers, the one modulus
    every product and image is reduced by.  The lattice
    structures (the uniformizer element, the integral basis and the
    inverse of its coordinate matrix) and, over Q_2, the square-class
    coordinates and the Hilbert form are built on first use and kept:
    valuations, squares, square classes and Hilbert symbols with two
    irrational arguments read them.  Only symbols with an argument from
    Q_p, which go through the norm projection, skip them.
    """

    is_extension = True

    def __init__(self, minimal_poly: PadicPolynomial, context: PadicContext | None = None):
        if context is None:
            context = minimal_poly.field.context
        # the residue field is F_p[x]/(residue_modulus), x the residue of beta (see _integral_basis); F_p at None
        self.slope, self.residue_modulus = polygon_irreducible(minimal_poly, context)
        self.base_context = context
        self.minimal_poly = minimal_poly
        self.degree = minimal_poly.degree
        self.ramification_index = self.slope.denominator
        self.residue_degree = self.degree // self.ramification_index
        self._unit_tags = {}  # quadratic character -> square-class unit tag (odd p)

        n = self.degree
        self._zeros = (0,) * (n - 1)
        self.zero = LocalFieldElement(self, (0,) * n)
        self.one = LocalFieldElement(self, (1,) + self._zeros)

    # -- field protocol ------------------------------------------------

    @property
    def context(self):
        return self.base_context

    def coerce(self, x):
        if isinstance(x, LocalFieldElement):
            if x.field is not self and x.field != self:
                raise TypeError("element of a different field")
            return x
        if isinstance(x, (int, Fraction)):
            return self.embed(x)
        if isinstance(x, tuple):
            return self.element(x)
        if isinstance(x, PadicPolynomial):  # a remainder at the place q, as quadform.at_place reads it
            return self.from_poly(x)
        raise TypeError(f"cannot coerce {type(x).__name__} into {self!r}")

    def inv(self, x):
        return self.coerce(x).inverse()

    def is_zero(self, x):
        return not any(self.coerce(x).num)

    def valuation(self, x):
        return self.coerce(x).valuation

    def norm(self, x):
        return self.coerce(x).norm()

    def is_square(self, x) -> bool:
        """Exact squareness test in K (see the module docstring)."""
        x = self.coerce(x)
        if x.is_zero():
            raise PreconditionFailed("is_square is undefined at 0")
        if self.base_context.p == 2:
            return not any(self._dyadic.coords(x))
        w = x.w()
        return w % 2 == 0 and _residue_character(x, w) == 1

    def hilbert_symbol(self, a, b) -> int:
        """(a, b)_K in {-1, +1}; see :func:`hilbert_symbol` for the three cases."""
        a, b = self.coerce(a), self.coerce(b)
        if self.is_zero(a) or self.is_zero(b):
            raise PreconditionFailed("hilbert symbol needs nonzero arguments")
        for x, y in ((a, b), (b, a)):
            r = as_base_rational(y)
            if r is not None:  # the norm projection
                return hilbert_symbol_qp(self.norm(x), r, self.base_context)
        if self.base_context.p == 2:
            return self._dyadic.symbol(a, b)
        return _tame_symbol(a, b)

    def truncate(self, x, k: int) -> tuple:
        """Coefficients of x in powers of alpha, each reduced modulo p^k.

        They must be p-integral.  ``coerce`` maps the tuple back to an element.
        """
        x, p = self.coerce(x), self.base_context.p
        return tuple(int_mod_pk(c, x.den, p, k) for c in x.num)

    def residue(self, x, j: int = 0) -> list:
        """Residue digits of x pi_K^(-j), for w(x) >= j.

        The residue is sum_i digits[i] xbar^i in F_p[x]/(residue_modulus).
        With j = e m + j0 (0 <= j0 < e) and p = pi_K^e eps,
        x pi_K^(-j) = (x / p^m) pi_K^(-j0) eps^m.  The residue of
        (x / p^m) pi_K^(-j0) is read at the beta^i pi_K^j0 positions of the
        lattice coordinates of x / p^m (the other positions reduce to zero),
        and is multiplied by epsbar^m.
        """
        x = self.coerce(x)
        p, e = self.base_context.p, self.ramification_index
        m, j0 = divmod(j, e)
        nums, d = self.lattice_coordinates(x)
        if m > 0:
            d *= p ** m
        scale = p ** -m if m < 0 else 1
        digits = [int_mod_pk(nums[i * e + j0] * scale, d, p, 1) for i in range(self.residue_degree)]
        if m:
            eps = self.residue(self._eps)
            if self.residue_modulus is None:
                return [digits[0] * pow(eps[0], m, p) % p]
            cbar = self.residue_modulus
            q1 = p ** self.residue_degree - 1
            r = FiniteFieldPoly(digits, p) * FiniteFieldPoly(eps, p).pow_mod(m % q1, cbar) % cbar
            digits = list(r.coeffs) + [0] * (self.residue_degree - len(r.coeffs))
        return digits

    @functools.cached_property
    def integer_frame(self) -> tuple:
        """(c, q, loss, rows, d): the integer arithmetic modulo p^k of ``hensel_lift``.

        alpha' = p^c alpha, with c = max(0, ceil(slope)), is integral, and
        its minimal polynomial p^(c n) q(t / p^c) is the integer list q,
        whose top coefficient is a unit.  Every x in O_K has p^loss x in
        Z_p[alpha'] (loss read off the integral basis), and an element with
        alpha'-coordinates y has the lattice coordinates rows y / d.
        """
        p, n = self.base_context.p, self.degree
        c = max(0, math.ceil(self.slope))
        q = self.minimal_poly
        pd = p ** vp_int(q.den, p)
        loss = -min(vp_int(a, p) - c * i - vp_int(y.den, p)
                    for y in self._integral_basis for i, a in enumerate(y.num) if a)
        rows, d = self._basis_inverse
        return (c, [a * p ** (c * (n - i)) // pd for i, a in enumerate(q.num)], loss,
                [[a * p ** (c * i) for i, a in enumerate(row)] for row in rows], d)

    def __eq__(self, other):
        return (
            isinstance(other, LocalField)
            and other.base_context == self.base_context
            and other.minimal_poly == self.minimal_poly
        )

    def __hash__(self):
        return hash((self.base_context, self.minimal_poly))

    def __repr__(self):
        return (
            f"LocalField(Q_{self.base_context.p}[t]/({self.minimal_poly.to_text()}),"
            f" e={self.ramification_index}, f={self.residue_degree})"
        )

    # -- constructors ---------------------------------------------------

    def element(self, coeffs) -> "LocalFieldElement":
        cs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        if len(cs) > self.degree:
            raise PreconditionFailed("too many coefficients")
        f = PadicPolynomial(cs, self.base_context)
        return LocalFieldElement(self, f.num + (0,) * (self.degree - len(f.num)), f.den)

    def embed(self, x) -> "LocalFieldElement":
        """The rational x (an int or a Fraction) as an element."""
        return LocalFieldElement(self, (x.numerator,) + self._zeros, x.denominator)

    def gen(self) -> "LocalFieldElement":
        return self.element([0, 1])

    def from_poly(self, f: PadicPolynomial) -> "LocalFieldElement":
        """Image of a base-coefficient polynomial, i.e. f(alpha): the remainder of f by q, on integers."""
        if f.field.is_extension:
            raise PreconditionFailed("expected base-field coefficients")
        return self._reduce(f.num, f.den)

    def _reduce(self, nums, den) -> "LocalFieldElement":
        """The element (sum_k nums[k] alpha^k) / den: the remainder of the integer list nums by q."""
        q = self.minimal_poly
        r = pseudo_remainder(nums, q.num)  # over lc(q.num)^k = q.den^k, k = len(nums) - deg q or 0
        den *= q.den ** max(0, len(nums) - self.degree)
        return LocalFieldElement(self, r + [0] * (self.degree - len(r)), den)

    # -- structure ------------------------------------------------------

    @functools.cached_property
    def uniformizer_elt(self) -> "LocalFieldElement":
        """An element of valuation 1/e: alpha^x pi^y, ``newton.uniformizer_remainder``."""
        return self.from_poly(uniformizer_remainder(self.minimal_poly, self.slope))

    @functools.cached_property
    def _eps(self) -> "LocalFieldElement":
        """The unit eps = p pi_K^(-e)."""
        return self.embed(self.base_context.p) * self.uniformizer_elt ** (-self.ramification_index)

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
        """Inverse of the matrix whose columns are the integral basis in powers of alpha.

        Integer rows over one denominator.
        """
        n = self.degree
        basis = self._integral_basis
        return _integer_rows(_inverse(
            [[Fraction(basis[j].num[i], basis[j].den) for j in range(n)] for i in range(n)]))

    def lattice_coordinates(self, x: "LocalFieldElement") -> tuple:
        """Coordinates of x in the integral basis: integers over one positive denominator, (c, d).

        x lies in O_K iff every c_i / d is p-integral.
        """
        x = self.coerce(x)
        if x._lat is None:
            rows, d = self._basis_inverse
            num = x.num
            coords = tuple(sum(map(operator.mul, row, num)) for row in rows)
            object.__setattr__(x, "_lat", (coords, d * x.den))
        return x._lat

    def from_lattice_coordinates(self, coords) -> "LocalFieldElement":
        acc = self.zero
        for c, b in zip(coords, self._integral_basis):
            if c:
                acc = acc + b * Fraction(c)
        return acc

    @functools.cached_property
    def _dyadic(self) -> "_DyadicClasses":
        """Square-class coordinates and the Hilbert form (p = 2), built on first use."""
        return _DyadicClasses(self)


class LocalFieldElement:
    """Element of a LocalField: an integer vector in powers of alpha over one denominator.

    ``num`` holds the integer coefficients and ``den`` the positive common
    denominator, in lowest terms (gcd(den, num) = 1), so equal elements
    have equal representations.  Every kernel runs on these integers.  ``coeffs``
    is a read-only view of the same coefficients as lowest-terms
    Fractions, for printing and certificates.
    """

    __slots__ = ("field", "num", "den", "_lat")

    def __init__(self, field: LocalField, num, den: int = 1):
        num = tuple(num)
        g = math.gcd(den, *num)
        if g != 1:
            num = tuple(c // g for c in num)
            den //= g
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_lat", None)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("LocalFieldElement is immutable")

    @property
    def coeffs(self) -> tuple:
        """The coefficients in powers of alpha, as lowest-terms Fractions."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def _coerce(self, other):
        try:
            return self.field.coerce(other)
        except TypeError:
            return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.den, o.den
        return LocalFieldElement(self.field, [x * b + y * a for x, y in zip(self.num, o.num)], a * b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.den, o.den
        return LocalFieldElement(self.field, [x * b - y * a for x, y in zip(self.num, o.num)], a * b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return LocalFieldElement(self.field, [-a for a in self.num], self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.field._reduce(convolve(self.num, o.num), self.den * o.den)

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
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den, self.field))

    def is_zero(self):
        return not any(self.num)

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        field = self.field
        q = field.minimal_poly
        # u * r = 1 modulo the irreducible q for the integer vector r = den * x,
        # so 1/x = den * u
        _, u = PadicPolynomial.from_integers(self.num, 1, q.field).half_egcd(q)
        nums = u.num + (0,) * (field.degree - len(u.num))
        return LocalFieldElement(field, [c * self.den for c in nums], u.den)

    def norm(self) -> Fraction:
        """Field norm down to Q_p: N(r(alpha)) = Res(q, r), q the monic minimal polynomial.

        With q = Q / D and r = N / den for integer polynomials Q and N,
        Res(q, r) = Res(Q, N) / (D^(deg N) den^n).
        """
        return root_norm(self.field.minimal_poly, self.num, self.den)

    @property
    def valuation(self):
        """v(x) = w(x) / e, w read off the lattice coordinates, so v(pi) = 1; +inf at 0."""
        if self.is_zero():
            return INFINITY
        field = self.field
        p, e = field.base_context.p, field.ramification_index
        nums, d = field.lattice_coordinates(self)
        return Fraction(_lattice_w(nums, p, e) - e * vp_int(d, p), e)

    def w(self) -> int:
        """Valuation normalized to Z (w(pi_K) = 1)."""
        v = self.valuation
        if v is INFINITY:
            raise PreconditionFailed("w(0) is infinite")
        return v.numerator * (self.field.ramification_index // v.denominator)

    def __repr__(self):
        terms = " + ".join(
            f"({c})*a^{k}" if k else f"({c})" for k, c in enumerate(self.coeffs) if c
        )
        return f"LFE[{terms or '0'}]"


# ---------------------------------------------------------------------------
# generic scalar dispatch: squares, square classes, symbols
# ---------------------------------------------------------------------------


class SquareClassTag(NamedTuple):
    """Canonical square-class tag for an extension element.

    ``parity`` is w(x) mod 2; ``unit_tag`` is a complete invariant of the
    square class of the unit u = x pi_K^(-w(x)).  For odd p it is the
    lexicographically minimal lattice residue of u * s^2 over units s,
    modulo p, which the residue character determines.  For p = 2 it is
    the tuple of the n + 1 coordinates of u in U/U^2 (one bit per residue
    digit at each odd level below 2e, then the trace bit at level 2e), so
    two tags are equal iff x / y is a square.
    """

    parity: int
    unit_tag: tuple
    field_text: str


def as_base_rational(x):
    """Return a field element x as a Fraction if it lies in Q_p, else None."""
    if isinstance(x, LocalFieldElement):
        return Fraction(x.num[0], x.den) if not any(x.num[1:]) else None
    return Fraction(x)


def _field_for(field, *xs):
    """The field handle to work in: the one given, else the largest of the xs' own.

    A PadicContext is Q_p's handle.  Bare rationals carry no field, so with
    no other argument they need one given.
    """
    if field is not None:
        return field
    owned = [x.field for x in xs if hasattr(x, "field")]
    if not owned:
        raise PreconditionFailed("a context or field is required for bare rationals")
    return max(owned, key=lambda f: f.is_extension)


def is_square(x, context=None) -> bool:
    """Exact squareness test in Q_p or a certified extension.

    ``context`` is a field handle (a PadicContext is Q_p's); it may be
    omitted when x carries its own field.
    """
    return _field_for(context, x).is_square(x)


def square_class(x, context=None):
    """Canonical square-class representative (rational) or extension tag."""
    field = _field_for(context, x)
    x = field.coerce(x)
    if field.is_extension:
        return square_class_of(x)
    return square_class_rational(x, field.context)


def _character(field: LocalField, digits) -> int:
    """Quadratic character of r = sum_i digits[i] xbar^i in F_q = F_p[x]/(residue_modulus), p odd.

    Euler's criterion through the norm: r^((q - 1)/2) = N(r)^((p - 1)/2)
    with N(r) = r^((q - 1)/(p - 1)) = Res(cbar, r) mod p, cbar monic.  So
    it is the Legendre symbol of the norm: 1 for a nonzero square, -1 for
    a non-square, and 0 for r = 0.
    """
    p = field.base_context.p
    if field.residue_modulus is None:
        return legendre_int(digits[0], p)
    return legendre_int(resultant(field.residue_modulus.coeffs, digits), p)


def _residue_character(x: LocalFieldElement, w: int) -> int:
    """Quadratic character (+1 or -1) of the residue of the unit x pi_K^(-w), w = w(x), p odd."""
    field = x.field
    chi = _character(field, field.residue(x, w))
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


def square_class_of(x: LocalFieldElement) -> SquareClassTag:
    """Deterministic tag: w(x) mod 2 and a complete invariant of the unit u = x pi_K^(-w(x)).

    For odd p the unit tag is read off the residue character of u; for
    p = 2 it is u's coordinate vector in U/U^2.
    """
    field = x.field
    if field.base_context.p == 2:
        parity, *bits = field._dyadic.coords(x)
        return SquareClassTag(parity, tuple(bits), repr(field))
    w = x.w()
    tag = _least_unit_tag(field, _residue_character(x, w))
    return SquareClassTag(w % 2, tag, repr(field))


def hilbert_symbol(a, b, field=None) -> int:
    """Hilbert symbol over Q_p or a certified extension, in {-1, +1}.

    With one argument from Q_p: the norm projection
    (a, b)_K = (N(a), b)_{Q_p}, which over Q_p itself (N = id) is the
    classical case formula.  With two irrational arguments and p odd: the
    tame symbol (a, b) = chi((-1)^(w(a) w(b)) a^w(b) b^(-w(a)) mod pi_K),
    chi the quadratic character of F_q, q = p^f.  With two irrational
    arguments and p = 2: the field's bilinear Hilbert form on square-class
    coordinates.  ``field`` is a field handle (a PadicContext is Q_p's);
    it may be omitted when an argument carries its field.
    """
    return _field_for(field, a, b).hilbert_symbol(a, b)


def _tame_symbol(a: LocalFieldElement, b: LocalFieldElement) -> int:
    """(a, b)_K for odd p: chi(-1)^(alpha beta) chi(u)^beta chi(v)^alpha.

    a = pi_K^alpha u and b = pi_K^beta v with u, v units; chi(-1) = -1
    exactly when q = 3 mod 4.
    """
    alpha, beta = a.w(), b.w()
    q = a.field.base_context.p ** a.field.residue_degree
    s = -1 if alpha % 2 and beta % 2 and q % 4 == 3 else 1
    if beta % 2:
        s *= _residue_character(a, alpha)
    if alpha % 2:
        s *= _residue_character(b, beta)
    return s


class _DyadicClasses:
    """K*/K*^2 = F_2^(n+2) for K over Q_2, and the Hilbert symbol as a bilinear form on it.

    The coordinates of x = pi_K^w u are w mod 2 followed by n + 1 bits of
    the unit u.  Integral elements are handled as integer lattice
    coordinates modulo a power of 2 (``table`` multiplies them); u is
    needed only modulo 8, since 8 O_K lies in pi_K^(2e+1) O_K, whose units
    are squares.  With 2 = pi_K^e eps, the unit is peeled one level
    k = w(u - 1) at a time, k = e m + j with 0 <= j < e, d being the
    residue digits of (u - 1) / (2^m pi_K^j):

    * level 0: multiply u by t^2, t a lift of 1/sqrt(ubar), so u = 1 mod pi_K;
    * even k < 2e: multiply by (1 + pi_K^(k/2) r)^2 with r^2 = epsbar^m d,
      which clears the level because 2 pi_K^(k/2) r lies deeper;
    * odd k < 2e: record the f bits of d and multiply by the basis units
      1 + 2^m pi_K^j beta^i whose bit is set;
    * k = 2e: u = 1 + 4 d modulo pi_K^(2e+1) is a square exactly when
      z^2 + z = dbar is solvable in F_q, that is, when
      Tr_{F_q/F_2}(dbar) = 0; that is the last bit.

    Multiplying by a basis unit instead of dividing changes u by a square.
    So u is, up to squares, the product of the basis units whose bits are
    set and of 1 + 4 beta^i0 (Tr(xbar^i0) = 1) if the trace bit is; as
    these n + 1 units generate U/U^2, of order 2^(n+1), they are a basis
    and the bits are its coordinates (O'Meara, Introduction to Quadratic
    Forms, section 63; Serre, Local Fields, ch. XIV).
    """

    # sampled norms are computed modulo 2^_PRECISION in lattice coordinates
    _PRECISION = 32

    def __init__(self, field: LocalField):
        self.field = field
        self.e, self.f = e, f = field.ramification_index, field.residue_degree
        basis = field._integral_basis
        self.table = [[self._lattice(a * b, self._PRECISION) for b in basis] for a in basis]
        # F_q = F_2[x]/(cbar); F_2[x]/(x) when f = 1
        self.cbar = field.residue_modulus or FiniteFieldPoly((0, 1), 2)
        self.eps = self._lattice(field._eps, 3)
        self.eps_bar = self._ff(field.residue(field._eps))
        self.traces = []
        for i in range(f):
            z = self._ff([0] * i + [1])
            trace = z
            for _ in range(f - 1):
                z = (z * z) % self.cbar
                trace = trace + z
            self.traces.append(trace[0])

    def _lattice(self, x: LocalFieldElement, k: int) -> list:
        """The lattice coordinates of an integral x modulo 2^k."""
        nums, d = self.field.lattice_coordinates(x)
        return [int_mod_pk(c, d, 2, k) for c in nums]

    def _digits(self, vec: list, j: int = 0) -> list:
        """Residue digits at the beta^i pi_K^j positions of integer lattice coordinates."""
        return [vec[i * self.e + j] & 1 for i in range(self.f)]

    def _ff(self, digits) -> FiniteFieldPoly:
        return FiniteFieldPoly(digits, 2) % self.cbar

    def _mul(self, x: list, y: list, k: int = 3) -> list:
        """Product of two lattice residues, modulo 2^k."""
        out = [0] * len(x)
        for xa, row in zip(x, self.table):
            if xa:
                for yb, prod in zip(y, row):
                    if yb:
                        c = xa * yb
                        out = [o + c * t for o, t in zip(out, prod)]
        return [o % (1 << k) for o in out]

    def _lift(self, digits, j: int, scale: int = 1, one: int = 0) -> list:
        """Lattice residue of one + scale * sum_i digits[i] beta^i pi_K^j."""
        out = [0] * self.field.degree
        out[0] = one
        for i, d in enumerate(digits):
            out[i * self.e + j] += scale * d
        return out

    def coords(self, x: LocalFieldElement) -> tuple:
        """The n + 2 coordinates of x != 0 in K*/K*^2; all zero exactly for squares."""
        if x.is_zero():
            raise PreconditionFailed("the square class of 0 is undefined")
        return self._coords(*self.field.lattice_coordinates(x))

    def _coords(self, c, d: int = 1) -> tuple:
        """Coordinates of the element with lattice coordinates c / d (exact, or mod 2^_PRECISION)."""
        e = self.e
        w = _lattice_w(c, 2, e) - e * vp_int(d, 2)
        m, j = divmod(w, e)
        # x / 2^m, w = j
        y = [int_mod_pk(v, d << m, 2, 4) if m >= 0 else int_mod_pk(v << -m, d, 2, 4) for v in c]
        if j:
            # pi_K^(-j) = pi_K^(e-j) eps / 2
            y = [v // 2 for v in self._mul(y, self._lift([1], e - j), 4)]
        # x pi_K^(-w) = (x / 2^m) pi_K^(-j) eps^m, and eps^2 is a square
        if (m + (j > 0)) % 2:
            y = self._mul(y, self.eps)
        return (w % 2,) + self._unit_bits([v % 8 for v in y])

    def _unit_bits(self, vec: list) -> tuple:
        e, f = self.e, self.f
        ubar = self._ff(self._digits(vec))
        t = ubar.pow_mod(2 ** (f - 1) - 1, self.cbar)  # t^2 = 1/ubar
        s = self._lift(t.coeffs, 0)
        vec = self._mul(vec, self._mul(s, s))
        bits = []
        for k in range(1, 2 * e + 1):
            m, j = divmod(k, e)
            u1 = [(c - (i == 0)) % 8 >> m for i, c in enumerate(vec)]  # (u - 1) / 2^m
            d = self._digits(u1, j)
            if k == 2 * e:
                bits.append(sum(a * b for a, b in zip(d, self.traces)) % 2)
            elif k % 2:
                bits += d
                for i, b in enumerate(d):
                    if b:
                        vec = self._mul(vec, self._lift([0] * i + [1], j, 2 ** m, one=1))
            elif any(d):
                d = self._ff(d)
                r = ((d * self.eps_bar) % self.cbar if m else d).pow_mod(2 ** (f - 1), self.cbar)
                y = self._lift(r.coeffs, k // 2, one=1)
                vec = self._mul(vec, self._mul(y, y))
        if any((c - (i == 0)) % 4 for i, c in enumerate(vec)):
            raise ConditionFailed("dyadic unit did not reduce to 1 mod 4")
        return tuple(bits)

    def basis_classes(self) -> list:
        """The classes whose coordinates are the unit vectors, in coordinate order."""
        field, e = self.field, self.e
        basis = field._integral_basis
        out = [field.uniformizer_elt]
        for k in range(1, 2 * e, 2):
            m, j = divmod(k, e)
            out += [field.one + basis[i * e + j] * 2 ** m for i in range(self.f)]
        i0 = self.traces.index(1)
        return out + [field.one + basis[i0 * e] * 4]

    @functools.cached_property
    def gram(self) -> list:
        """Bit masks: row i is the normal of the norm hyperplane H_i of basis class b_i.

        (b_i, c) = 1 exactly when c is a norm from K(sqrt b_i), and those
        norms form a hyperplane of K*/K*^2 (index 2, local class field
        theory).  Norms x^2 - b_i y^2 are exact, so once their coordinates
        reach rank n + 1 they span H_i.  Which norms are drawn affects the
        running time only.
        """
        classes = self.basis_classes()
        dim = len(classes)
        if [_mask(self.coords(b)) for b in classes] != [1 << i for i in range(dim)]:
            raise ConditionFailed("dyadic basis classes are not a coordinate basis")
        rows = []
        for b in classes:
            echelon = {}  # leading bit -> row
            for c in self._norm_samples(b):
                while c and c.bit_length() - 1 in echelon:
                    c ^= echelon[c.bit_length() - 1]
                if c:
                    echelon[c.bit_length() - 1] = c
                    if len(echelon) == dim - 1:
                        break
            # the one vector orthogonal to every row: set the free bit, then solve upward
            h = 1 << next(i for i in range(dim) if i not in echelon)
            for lead in sorted(echelon):
                if (echelon[lead] & h).bit_count() % 2:
                    h |= 1 << lead
            rows.append(h)
        if any(rows[i] >> j & 1 != rows[j] >> i & 1 for i in range(dim) for j in range(i)):
            raise ConditionFailed("dyadic Hilbert form is not symmetric")
        return rows

    def _norm_samples(self, b: LocalFieldElement):
        """Coordinate masks of x^2 - b y^2, x and y with lattice coordinates in [0, 64).

        x and y come from a fixed-seed stream.  A norm's class is fixed by
        x and y modulo 64 O_K when w(x^2 - b y^2) <= 2e + 1, and every class
        of H_b is such a norm, so each has a positive share of the pairs.
        """
        k, n = self._PRECISION, self.field.degree
        b = self._lattice(b, k)
        rng = random.Random(0)
        while True:
            x, y = ([rng.getrandbits(6) for _ in range(n)] for _ in range(2))
            norm = [(s - t) % (1 << k) for s, t in
                    zip(self._mul(x, x, k), self._mul(b, self._mul(y, y, k), k))]
            # skip a norm too deep to read modulo 2^k
            gap = math.gcd(*norm)
            if gap and vp_int(gap, 2) < k - 4:
                yield _mask(self._coords(norm))

    def symbol(self, a: LocalFieldElement, b: LocalFieldElement) -> int:
        """(a, b)_K = (-1)^(coords(a) G coords(b))."""
        ca, cb = _mask(self.coords(a)), _mask(self.coords(b))
        acc = 0
        for i, row in enumerate(self.gram):
            if ca >> i & 1:
                acc ^= row
        return -1 if (acc & cb).bit_count() % 2 else 1


def _mask(bits) -> int:
    return sum(b << i for i, b in enumerate(bits))


# ---------------------------------------------------------------------------
# Hensel lifting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)  # not a NamedTuple: perfbench/test_checks.py uses dataclasses.replace
class HenselWitness:
    """Certified refinement of an approximate root.

    ``approximate_root`` is the true root's representative modulo
    p^(digits + 1): an integer in [0, p^(digits + 1)) over Q_p, and over an
    extension the tuple of its coordinates in powers of alpha, each reduced
    modulo p^(digits + 1).  ``slack`` is v(f(a)) - 2 v(f'(a)) at the
    certified starting point, and ``residual_valuation`` is v(f(root)) at
    the reported root, which exceeds ``digits``.  The true root is in the Hensel
    ball v(x - a) > v(f'(a)), so at the reported precision the root r has
    v(r - a) > v(f'(a)) or v(r - a) >= digits + 1.
    """

    approximate_root: object
    slack: object
    residual_valuation: object
    digits: int
    starting_point: object


def hensel_lift(f: PadicPolynomial, a, digits: int | None = None) -> HenselWitness:
    """Refine a to a root of f by Newton iteration at doubling precision.

    Requires v(f(a)) > 2 v(f'(a)) and p-integral coefficients.  The one
    exact inverse is s = 1/f'(a).  The loop runs on integers modulo p^k in
    the field's ``integer_frame`` (Q_p's is one coordinate): b on the
    fixed scale p^loss, s on p^(loss + ceil(v(f'(a)))), each product one
    ``convolve`` and one ``newton._divmod`` by the integral minimal
    polynomial modulo p^k, each rescaling an exact division.  A step
    refines s to s (2 - f'(b) s), squaring its relative error so that s
    keeps pace with b, then b to b - f(b) s (von zur Gathen and Gerhard,
    Modern Computer Algebra, 9.4); the slack v(f(b)) - 2 v(f'(a)) at
    least doubles, and k is the digits that bound promises the next b,
    plus the scales.  The stop test, v(f(b)) - v(f'(a)) >= digits + 1 +
    loss, reads f(b) exactly modulo p^K: it puts every coordinate of b
    within p^(digits + 1) of the root's.  Steps the bound says cannot pass
    skip it, but only a measured pass ends the loop, so the reported root
    is the true root reduced modulo p^(digits + 1) whatever the path.  A
    loop that has not passed after one step per doubling of the slack up
    to the stop and one measuring iteration (``newton._newton_budget``)
    raises PrecisionExhausted.  v(f(root)) > digits and the Hensel ball (see
    HenselWitness) are checked exactly on the reported root; a root whose
    alpha-coordinates are not p-integral raises PreconditionFailed.
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
    if any(v < 0 for _, v in f.valuations()):
        raise PreconditionFailed("coefficients must lie in the valuation ring")
    if field.valuation(a) < 0:
        raise PreconditionFailed("starting point must lie in the valuation ring")

    deriv = f.derivative()
    fpa = deriv.evaluate(a)
    v_fa, v_fpa = field.valuation(f.evaluate(a)), field.valuation(fpa)
    if v_fa is not INFINITY and v_fpa is INFINITY:
        raise PreconditionFailed("f'(a) = 0 at a non-root")
    slack = INFINITY if v_fa is INFINITY else v_fa - 2 * v_fpa
    if slack <= 0:
        raise PreconditionFailed(f"Hensel slack {slack} is not positive")
    b = a if v_fa is INFINITY else _newton_root(f, deriv, a, field.inv(fpa), v_fa, v_fpa, digits)

    try:
        truncated = field.truncate(b, digits + 1)
    except PreconditionFailed as exc:
        raise PreconditionFailed(
            "the root's alpha-coordinates are not p-integral, so the reported"
            " format (coordinates modulo p^(digits + 1)) cannot hold it"
        ) from exc
    root = field.coerce(truncated)
    residual = field.valuation(f.evaluate(root))
    if not residual > digits:
        raise PrecisionExhausted("truncated root lost the residual margin")
    if v_fa is not INFINITY and not ((moved := field.valuation(root - a)) > v_fpa or moved >= digits + 1):
        raise PrecisionExhausted("root moved outside the Hensel ball")
    return HenselWitness(truncated, slack, residual, digits, a)


def _newton_root(f, deriv, a, s, v_fa, v_fpa, digits):
    """hensel_lift's loop from a, with s = 1/f'(a); valuations in units of 1/e, so all integers."""
    field = f.field
    p, e = field.context.p, field.ramification_index
    c, q, loss, rows, d = field.integer_frame
    nu, delta = int(e * v_fa), int(e * v_fpa)
    sigma, stop = -(-delta // e), e * (digits + 1 + loss) + delta
    margin, vd = (f.degree + 2) * loss + sigma + 2, vp_int(d, p)
    top = -(-stop // e) + vd + margin
    # v(f(b)) >= stop iff the lattice numerators of p^loss f(b) lie in these powers of p
    need = stop + e * (vd + loss)
    depths = [p ** -((j % e - need) // e) for j in range(len(rows))]

    def element(x, scale):
        """p^scale x in alpha'-coordinates: integers, reduced modulo p^top when not already."""
        num, den = (x.num, x.den) if field.is_extension else ((x.numerator,), x.denominator)
        return [y * p ** (scale - c * i) if den == 1 and scale >= c * i else
                int_mod_pk(y * p ** max(scale - c * i, 0), den * p ** max(c * i - scale, 0), p, top)
                for i, y in enumerate(num)]

    def poly(g):
        """The coefficient vectors of g on the scale p^loss (over Q_p, loss = 0)."""
        if field.is_extension:
            return [element(x, loss) for x in g.num]
        return [[x if g.den == 1 else int_mod_pk(x, g.den, p, top)] for x in g.num]

    def mul(x, y, m, pk):
        """x y / pk modulo m, and modulo q over an extension."""
        r = _mul_mod(x, y, q, m) if q else [x[0] * y[0] % m]
        return r if pk == 1 else _exact_shift(r, pk)

    def horner(coeffs, m):
        acc = coeffs[-1]
        for x in reversed(coeffs[:-1]):
            acc = _add(mul(acc, b, m, pb), x)
        return acc

    fs, ds = poly(f), poly(deriv)
    b, s, pb, ps = element(a, loss), element(s, loss + sigma), p ** loss, p ** (loss + sigma)
    for _ in range(_newton_budget(nu - 2 * delta, stop - 2 * delta)):
        final = nu >= stop
        m = p ** (top if final else min(top, -((2 * delta - 2 * nu) // e) + margin))
        fb = horner(fs, m)
        if final and all(sum(map(operator.mul, row, fb)) % depth == 0 for row, depth in zip(rows, depths)):
            break
        s = mul(s, _sub([2 * pb], mul(horner(ds, m), s, m, ps)), m, pb)
        b = _sub(b, mul(fb, s, m, ps))
        nu = 2 * nu - 2 * delta
    else:
        raise PrecisionExhausted("Newton iteration did not reach the digit target")
    if not field.is_extension:
        return Fraction(b[0])
    nums = [y * p ** (c * i) for i, y in enumerate(b)]
    return LocalFieldElement(field, nums + [0] * (field.degree - len(nums)), p ** loss)
