"""Exact polynomial and rational-function arithmetic in one variable t.

Coefficients live in a field given by a field handle.  There are two
kinds, with one protocol: a :class:`padicforms.padics.PadicContext` is
Q_p's handle, with elements carried as `Fraction`, and
:class:`padicforms.extensions.LocalField` is a certified finite
extension.  Both expose ``context``, ``is_extension``,
``ramification_index``, ``zero``, ``one``, ``coerce``, ``inv``,
``is_zero``, ``valuation``, ``norm``, ``truncate``, ``residue``, ``cut``
and ``coordinate_margins``.  All arithmetic is exact.  Addition,
subtraction, scalar multiplication, derivatives, evaluation and shifts
work over either handle.  Products, division with remainder and gcd
(and so powers and the squarefree machinery) are over Q_p
only, and raise PreconditionFailed over an extension: they run on
integer vectors over one common denominator, through :func:`convolve`
and :func:`divide`, the one integer product and the one integer
division in the package, which the extension and finite-field kernels
call too.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import PreconditionFailed
from .padics import INFINITY, PadicContext


class PadicPolynomial:
    """A polynomial in t over Q_p or an extension, stored exactly.

    Products and division need Q_p coefficients (see the module docstring).

    Invariant: the last stored coefficient is nonzero unless the
    polynomial is zero (empty coefficient tuple).
    """

    __slots__ = ("coeffs", "field")

    def __init__(self, coeffs, field):
        cs = [field.coerce(c) for c in coeffs]
        while cs and field.is_zero(cs[-1]):
            cs.pop()
        self.coeffs = tuple(cs)
        self.field = field

    # -- construction -------------------------------------------------

    @classmethod
    def from_rationals(cls, coeffs, context: PadicContext):
        return cls([Fraction(c) for c in coeffs], context)

    @classmethod
    def zero(cls, field):
        return cls((), field)

    @classmethod
    def one(cls, field):
        return cls((field.one,), field)

    @classmethod
    def x(cls, field):
        return cls((field.zero, field.one), field)

    @classmethod
    def monomial(cls, c, k, field):
        return cls((field.zero,) * k + (c,), field)

    # -- basic queries -------------------------------------------------

    @property
    def degree(self):
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def is_constant(self):
        return len(self.coeffs) <= 1

    def __getitem__(self, k):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.field.zero

    def leading_coefficient(self):
        if self.is_zero():
            raise PreconditionFailed("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def constant_coefficient(self):
        return self[0]

    def is_monic(self):
        return not self.is_zero() and self.leading_coefficient() == self.field.one

    def ord_t(self):
        """Order of vanishing at t = 0; +infinity for the zero polynomial."""
        if self.is_zero():
            return INFINITY
        for k, c in enumerate(self.coeffs):
            if not self.field.is_zero(c):
                return k
        raise AssertionError("unreachable")

    # -- arithmetic ----------------------------------------------------

    def _check(self, other):
        if isinstance(other, PadicPolynomial):
            if other.field != self.field:
                raise ValueError("mixed coefficient fields")
            return other
        return PadicPolynomial((self.field.coerce(other),), self.field)

    def __add__(self, other):
        other = self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return PadicPolynomial([self[k] + other[k] for k in range(n)], self.field)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return PadicPolynomial([self[k] - other[k] for k in range(n)], self.field)

    def __rsub__(self, other):
        return self._check(other) - self

    def __neg__(self):
        return PadicPolynomial([-c for c in self.coeffs], self.field)

    def __mul__(self, other):
        if not isinstance(other, PadicPolynomial):
            c = self.field.coerce(other)
            return PadicPolynomial([a * c for a in self.coeffs], self.field)
        other = self._check(other)
        if self.field.is_extension:
            raise PreconditionFailed("polynomial products implemented over Q_p coefficients")
        (a, da), (b, db) = integer_vector(self.coeffs), integer_vector(other.coeffs)
        return PadicPolynomial([Fraction(c, da * db) for c in convolve(a, b)], self.field)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        out = PadicPolynomial.one(self.field)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __divmod__(self, other):
        other = self._check(other)
        if self.field.is_extension:
            raise PreconditionFailed("polynomial division implemented over Q_p coefficients")
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        b, db = integer_vector(other.coeffs)
        quot, r, d = divide(*integer_vector(self.coeffs), b, db)
        q = [Fraction(top * db, den * b[-1]) for top, den in quot]
        return PadicPolynomial(q, self.field), PadicPolynomial([Fraction(c, d) for c in r], self.field)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __eq__(self, other):
        if not isinstance(other, PadicPolynomial):
            if self.degree > 0:
                return False
            try:
                other = self._check(other)
            except (TypeError, ValueError):
                return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.coeffs, self.field))

    # -- calculus and evaluation ----------------------------------------

    def derivative(self):
        return PadicPolynomial(
            [k * c for k, c in enumerate(self.coeffs)][1:], self.field
        )

    def evaluate(self, point):
        """Horner evaluation; the point may live in a larger field, whose arithmetic coerces the coefficients."""
        acc = getattr(point, "field", self.field).zero
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def shift(self, k: int) -> "PadicPolynomial":
        """Multiply by t^k (k >= 0), or divide exactly by t^-k."""
        if k >= 0:
            return PadicPolynomial((self.field.zero,) * k + self.coeffs, self.field)
        if self.ord_t() < -k:
            raise PreconditionFailed("shift would truncate nonzero terms")
        return PadicPolynomial(self.coeffs[-k:], self.field)

    def monic(self) -> "PadicPolynomial":
        if self.is_zero():
            raise PreconditionFailed("zero polynomial cannot be made monic")
        return self * self.field.inv(self.leading_coefficient())

    # -- gcd and squarefree machinery -----------------------------------

    def gcd(self, other: "PadicPolynomial") -> "PadicPolynomial":
        """Monic gcd by the Euclidean algorithm (exact)."""
        a, b = self, self._check(other)
        while not b.is_zero():
            a, b = b, a % b
        if a.is_zero():
            return a
        return a.monic()

    def half_egcd(self, other: "PadicPolynomial"):
        """Monic gcd g and the cofactor u with u * self = g modulo other.

        The half-extended Euclidean algorithm.  The cofactor of ``other``
        is (g - u * self) / other, an exact division.
        """
        r0, r1 = self, self._check(other)
        u0, u1 = PadicPolynomial.one(self.field), PadicPolynomial.zero(self.field)
        while not r1.is_zero():
            q, r = divmod(r0, r1)
            r0, r1 = r1, r
            u0, u1 = u1, u0 - q * u1
        if r0.is_zero():
            raise PreconditionFailed("egcd of zero polynomials")
        lc_inv = self.field.inv(r0.leading_coefficient())
        return r0 * lc_inv, u0 * lc_inv

    def squarefree_decomposition(self):
        """Yun's algorithm: returns [(g_k, k)] with self = lc * prod g_k^k.

        Valid in characteristic zero; the g_k are monic, squarefree and
        pairwise coprime.
        """
        if self.is_zero():
            raise PreconditionFailed("zero polynomial")
        f = self.monic()
        out = []
        d = f.derivative()
        a = f.gcd(d)
        b = f // a
        c = d // a
        k = 1
        while b.degree > 0:
            d2 = c - b.derivative()
            g = b.gcd(d2)
            if g.degree > 0:
                out.append((g, k))
            b = b // g
            c = d2 // g
            k += 1
        return out

    def squarefree_odd_part(self) -> "PadicPolynomial":
        """Product of the odd-multiplicity squarefree factors (monic).

        This is self divided by its largest square divisor, so they differ
        by a square; multiplying a form entry by it preserves the entry's
        square class in K(t).
        """
        out = PadicPolynomial.one(self.field)
        for g, k in self.squarefree_decomposition():
            if k % 2:
                out = out * g
        return out

    # -- rendering -------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text: descending powers, reduced fractions.

        Parsing this text with :func:`padicforms.parsing.parse_poly`
        returns an equal polynomial.
        """
        if self.is_zero():
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self[k]
            if self.field.is_zero(c):
                continue
            neg = c < 0
            mag = -c if neg else c
            if k == 0:
                body = str(mag)
            elif mag == 1:
                body = "t" if k == 1 else f"t^{k}"
            else:
                body = f"{mag}*t" if k == 1 else f"{mag}*t^{k}"
            if not parts:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append(("- " if neg else "+ ") + body)
        return " ".join(parts)

    def __repr__(self):
        if self.field.is_extension:
            return f"PadicPolynomial(deg {self.degree} over {self.field!r})"
        return f"PadicPolynomial({self.to_text()!r} over Q_{self.field.p})"


def integer_vector(coeffs):
    """The numerators of Fraction coefficients over their lcm d, and d."""
    d = 1
    for c in coeffs:
        d = math.lcm(d, c.denominator)
    return [c.numerator * (d // c.denominator) for c in coeffs], d


def convolve(a, b) -> list:
    """The product of two integer coefficient lists (constant term first)."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def divide(r, d, b, db):
    """Division with remainder of R / d by B / db, for integer lists R and B with B's top nonzero.

    Returns (quot, rem, d'): R / d = (sum_k q_k t^k)(B / db) + rem / d', rem
    trimmed, d' > 0 when d > 0.  Each q_k is recorded as (top, den), the
    top coefficient and the denominator it was read at, with
    q_k = top db / (den lc(B)); a caller that drops the quotient pays no
    big-integer work for it.  R is rescaled only when lc(B) does not
    divide its top, so d' / d divides |lc(B)|^(deg R - deg B + 1).
    """
    r, lc, body = list(r), b[-1], b[:-1]
    n = len(body)
    quot = [(0, 1)] * max(0, len(r) - n)
    while len(r) > n:
        top = r.pop()  # cancelled exactly by m t^k B below
        k = len(r) - n
        quot[k] = (top, d)
        if top % lc:
            s = abs(lc) // math.gcd(top, lc)
            r = [c * s for c in r]
            d *= s
            top *= s
        m = top // lc
        for j, y in enumerate(body):
            r[k + j] -= m * y
        while r and not r[-1]:
            r.pop()
    return quot, r, d


class RationalFunction:
    """A quotient of polynomials over Q_p, kept as an exact pair.

    The pair is not reduced; orders at t and at infinity are differences
    of exact orders so no cancellation issues arise.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: PadicPolynomial, den: PadicPolynomial):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.field != den.field:
            raise ValueError("mixed coefficient fields")
        self.num = num
        self.den = den

    @classmethod
    def from_poly(cls, p: PadicPolynomial):
        return cls(p, PadicPolynomial.one(p.field))

    @property
    def field(self):
        return self.num.field

    def is_zero(self):
        return self.num.is_zero()

    def __add__(self, other):
        other = self._coerce(other)
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, PadicPolynomial):
            return RationalFunction.from_poly(other)
        return RationalFunction.from_poly(
            PadicPolynomial((self.field.coerce(other),), self.field)
        )

    def ord_t(self):
        """Order at t = 0 (can be negative); +infinity for 0."""
        if self.is_zero():
            return INFINITY
        return self.num.ord_t() - self.den.ord_t()

    def ord_infinity(self):
        """Order at infinity: deg(den) - deg(num); +infinity for 0."""
        if self.is_zero():
            return INFINITY
        return self.den.degree - self.num.degree

    def leading_coefficient_at_t(self):
        """Coefficient of t^ord in the Laurent expansion at t = 0."""
        if self.is_zero():
            raise PreconditionFailed("zero function")
        n = self.num.shift(-self.num.ord_t())
        d = self.den.shift(-self.den.ord_t())
        return n.constant_coefficient() / d.constant_coefficient()

    def equals(self, other) -> bool:
        other = self._coerce(other)
        return (self.num * other.den) == (other.num * self.den)

    def to_text(self) -> str:
        if self.den.is_constant():
            return (self.num * self.field.inv(self.den.constant_coefficient())).to_text()
        return f"({self.num.to_text()})/({self.den.to_text()})"

    def __repr__(self):
        return f"RationalFunction({self.to_text()!r})"
