"""Exact polynomial and rational-function arithmetic in one variable t.

Coefficients live in a field given by a field handle.  There are two
kinds, with one protocol: a :class:`padicforms.padics.PadicContext` is
Q_p's handle, with elements carried as `Fraction`, and
:class:`padicforms.extensions.LocalField` is a certified finite
extension.  Both define ``context``, ``is_extension``, ``ramification_index``,
``zero``, ``one``, ``coerce``, ``inv``, ``is_zero``, ``valuation``, ``norm``,
``truncate``, ``residue``, ``integer_frame``, ``is_square`` and
``hilbert_symbol``.  All arithmetic is exact.

A polynomial over Q_p is one integer numerator vector over one positive
denominator (von zur Gathen and Gerhard, Modern Computer Algebra, ch. 6),
and every Q_p kernel runs on those integers.  Products go through
:func:`convolve`, the one integer product in the package, which the
extension and finite-field kernels call too; ``divmod`` and ``//`` go
through :func:`divide`, and every remainder whose quotient nobody reads
(``%`` and so ``gcd``, the resultant's steps, a place's remainders,
LocalField reductions) through :func:`pseudo_remainder`.  Over an extension the same storage holds
K elements over the denominator 1: sums, scalar products, derivatives,
evaluation and shifts use K's arithmetic, while products, division and
gcd (and so powers and the squarefree machinery) raise PreconditionFailed.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import zip_longest

from .errors import PreconditionFailed
from .padics import INFINITY, PadicContext, vp_int


class PadicPolynomial:
    """A polynomial in t over Q_p or an extension, stored exactly.

    ``num`` and ``den`` are the storage: over Q_p, the coefficient of t^k
    is num[k] / den with integers num[k], den > 0 and
    gcd(den, *num) = 1, so equal polynomials have equal storage; over an
    extension num[k] is the K element itself and den = 1.  ``coeffs`` is
    a read-only view, lowest-terms Fractions over Q_p (built on first use)
    and the K elements over K.  Products and division need Q_p
    coefficients (see the module docstring).

    Invariant: the last stored coefficient is nonzero unless the
    polynomial is zero (empty ``num``).
    """

    __slots__ = ("num", "den", "field", "_coeffs", "_hash")

    def __init__(self, coeffs, field):
        if field.is_extension:
            self._store([field.coerce(c) for c in coeffs], 1, field)
        else:  # an int is its own numerator over 1: no Fraction for it
            cs = [c if isinstance(c, int) else field.coerce(c) for c in coeffs]
            den = math.lcm(*[c.denominator for c in cs])
            self._store([c.numerator * (den // c.denominator) for c in cs], den, field)

    def _store(self, num: list, den: int, field):
        """Keep num / den, trimmed and in lowest terms."""
        while num and field.is_zero(num[-1]):
            num.pop()
        if den != 1:
            g = math.gcd(den, *num)
            if g != 1:
                num = [c // g for c in num]
                den //= g
        self.num, self.den, self.field = tuple(num), den, field
        self._coeffs = self.num if field.is_extension else None
        self._hash = None

    # -- construction -------------------------------------------------

    @classmethod
    def from_integers(cls, num, den: int, field) -> "PadicPolynomial":
        """sum_k num[k] t^k / den, for integers num[k] and den > 0 (over K: K elements and den = 1)."""
        out = object.__new__(cls)
        out._store(list(num), den, field)
        return out

    @classmethod
    def from_rationals(cls, coeffs, context: PadicContext):
        return cls([c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs], context)

    @classmethod
    def zero(cls, field):
        return cls.from_integers((), 1, field)

    @classmethod
    def one(cls, field):
        return cls.monomial(field.one, 0, field)

    @classmethod
    def x(cls, field):
        return cls.monomial(field.one, 1, field)

    @classmethod
    def monomial(cls, c, k, field):
        if field.is_extension:
            return cls((field.zero,) * k + (c,), field)
        c = c if isinstance(c, int) else field.coerce(c)
        return cls.from_integers((0,) * k + (c.numerator,), c.denominator, field)

    # -- basic queries -------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The coefficients, constant term first: Fractions over Q_p, K elements over K."""
        if self._coeffs is None:
            d = self.den
            self._coeffs = tuple(Fraction(c, d) for c in self.num)
        return self._coeffs

    @property
    def degree(self):
        """Degree; -1 for the zero polynomial."""
        return len(self.num) - 1

    def is_zero(self):
        return not self.num

    def is_constant(self):
        return len(self.num) <= 1

    def __getitem__(self, k):
        if 0 <= k < len(self.num):
            return self.coeffs[k]
        return self.field.zero

    def leading_coefficient(self):
        if self.is_zero():
            raise PreconditionFailed("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def constant_coefficient(self):
        return self[0]

    def is_monic(self):
        return bool(self.num) and self.num[-1] == (self.field.one if self.field.is_extension else self.den)

    def ord_t(self):
        """Order of vanishing at t = 0; +infinity for the zero polynomial."""
        if self.is_zero():
            return INFINITY
        return next(k for k, c in enumerate(self.num) if not self.field.is_zero(c))

    def valuations(self) -> list:
        """(k, v(c_k)) for each nonzero coefficient c_k; over Q_p by ``vp_int`` on num and den."""
        field = self.field
        if field.is_extension:
            return [(k, field.valuation(c)) for k, c in enumerate(self.num) if not field.is_zero(c)]
        p = field.p
        vd = vp_int(self.den, p)
        return [(k, vp_int(c, p) - vd) for k, c in enumerate(self.num) if c]

    # -- arithmetic ----------------------------------------------------

    def _check(self, other):
        if isinstance(other, PadicPolynomial):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("mixed coefficient fields")
            return other
        return PadicPolynomial((self.field.coerce(other),), self.field)

    def _combine(self, other, op):
        """op coefficient by coefficient, on the numerators over one common denominator."""
        other = self._check(other)
        a, b, da, db = self.num, other.num, self.den, other.den
        if da != db:
            g = math.gcd(da, db)
            a, b, da = [c * (db // g) for c in a], [c * (da // g) for c in b], da * (db // g)
        zero = self.field.zero if self.field.is_extension else 0
        return PadicPolynomial.from_integers([op(x, y) for x, y in zip_longest(a, b, fillvalue=zero)], da, self.field)

    def __add__(self, other):
        return self._combine(other, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __rsub__(self, other):
        return self._check(other) - self

    def __neg__(self):
        return PadicPolynomial.from_integers([-c for c in self.num], self.den, self.field)

    def __mul__(self, other):
        field = self.field
        if not isinstance(other, PadicPolynomial):
            c = field.coerce(other)
            n, d = (c, 1) if field.is_extension else (c.numerator, c.denominator)
            return PadicPolynomial.from_integers([a * n for a in self.num], self.den * d, field)
        other = self._check(other)
        if field.is_extension:
            raise PreconditionFailed("polynomial products implemented over Q_p coefficients")
        return PadicPolynomial.from_integers(convolve(self.num, other.num), self.den * other.den, field)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        out = None  # the product of the powers taken so far, None while it is 1
        base = self
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:  # no square past the last bit
                base = base * base
        return PadicPolynomial.one(self.field) if out is None else out

    def _divisor(self, other) -> "PadicPolynomial":
        other = self._check(other)
        if self.field.is_extension:
            raise PreconditionFailed("polynomial division implemented over Q_p coefficients")
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        return other

    def __divmod__(self, other):
        other = self._divisor(other)
        field = self.field
        b, db = other.num, other.den
        quot, r, d = divide(self.num, self.den, b, db)
        # q_k = top db / (den lc(b)), and each den divides d
        m = db if b[-1] > 0 else -db
        q = [top * (d // den) * m for top, den in quot]
        return (PadicPolynomial.from_integers(q, d * abs(b[-1]), field),
                PadicPolynomial.from_integers(r, d, field))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        """The remainder by other: a ``pseudo_remainder`` of the numerators, over den lc(B)^k, with no quotient."""
        b = self._divisor(other).num
        k = len(self.num) - len(b) + 1
        if k <= 0:
            return self
        r, s = pseudo_remainder(self.num, b), b[-1] ** k
        return PadicPolynomial.from_integers(r if s > 0 else [-c for c in r], self.den * abs(s), self.field)

    def __eq__(self, other):
        if not isinstance(other, PadicPolynomial):
            if self.degree > 0:
                return False
            try:
                other = self._check(other)
            except (TypeError, ValueError):
                return NotImplemented
        return (self.num == other.num and self.den == other.den
                and (self.field is other.field or self.field == other.field))

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den, self.field.context.p))
        return self._hash

    # -- calculus and evaluation ----------------------------------------

    def derivative(self):
        num = self.num
        return PadicPolynomial.from_integers([k * num[k] for k in range(1, len(num))], self.den, self.field)

    def evaluate(self, point):
        """Horner evaluation; the point may live in a larger field, whose arithmetic coerces the coefficients.

        Over Q_p at a rational u / w it is :func:`horner` on the numerators,
        over den w^deg.
        """
        if self.field.is_extension or not isinstance(point, (int, Fraction)):
            acc = getattr(point, "field", self.field).zero
            for c in reversed(self.coeffs):
                acc = acc * point + c
            return acc
        w = point.denominator
        return Fraction(horner(self.num, point.numerator, w), self.den * w ** max(self.degree, 0))

    def shift(self, k: int) -> "PadicPolynomial":
        """Multiply by t^k (k >= 0), or divide exactly by t^-k."""
        if k >= 0:
            zero = self.field.zero if self.field.is_extension else 0
            return PadicPolynomial.from_integers((zero,) * k + self.num, self.den, self.field)
        if self.ord_t() < -k:
            raise PreconditionFailed("shift would truncate nonzero terms")
        return PadicPolynomial.from_integers(self.num[-k:], self.den, self.field)

    def monic(self) -> "PadicPolynomial":
        if self.is_zero():
            raise PreconditionFailed("zero polynomial cannot be made monic")
        if self.field.is_extension:
            return self * self.field.inv(self.num[-1])
        lc = self.num[-1]
        return PadicPolynomial.from_integers(
            self.num if lc > 0 else [-c for c in self.num], abs(lc), self.field)

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
        den = self.den
        for k in range(self.degree, -1, -1):
            n = self.num[k]
            if not n:
                continue
            g = math.gcd(n, den)
            mag = str(abs(n) // g) if g == den else f"{abs(n) // g}/{den // g}"
            if k == 0:
                body = mag
            elif mag == "1":
                body = "t" if k == 1 else f"t^{k}"
            else:
                body = f"{mag}*t" if k == 1 else f"{mag}*t^{k}"
            if not parts:
                parts.append(("-" if n < 0 else "") + body)
            else:
                parts.append(("- " if n < 0 else "+ ") + body)
        return " ".join(parts)

    def __repr__(self):
        if self.field.is_extension:
            return f"PadicPolynomial(deg {self.degree} over {self.field!r})"
        return f"PadicPolynomial({self.to_text()!r} over Q_{self.field.p})"


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


def horner(num, u: int, w: int) -> int:
    """The homogenized Horner sum sum_k num[k] u^k w^(deg - k) of an integer list: w^deg times its value at u / w."""
    acc, wk = 0, 1
    for c in reversed(num):
        acc = acc * u + c * wk
        wk *= w
    return acc


def divide(r, d, b, db):
    """Division with remainder of R / d by B / db, for integer lists R and B with B's top nonzero.

    Returns (quot, rem, d'): R / d = (sum_k q_k t^k)(B / db) + rem / d', rem
    trimmed, d' > 0 when d > 0.  Each q_k is recorded as (top, den), the
    top coefficient and the denominator it was read at, with
    q_k = top db / (den lc(B)).  R is rescaled only when lc(B) does not
    divide its top, so d' / d divides |lc(B)|^(deg R - deg B + 1).  A
    caller that needs only the remainder calls :func:`pseudo_remainder`.
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


def pseudo_remainder(r, b) -> list:
    """The pseudo-remainder rem of integer lists R by B (B's top nonzero); no quotient is built.

    lc(B)^k R = Q B + rem with Q integral, rem trimmed and k = deg R - deg B + 1;
    when deg R < deg B, k = 0 and rem is R as a list (Cohen, A Course in
    Computational Algebraic Number Theory, algorithm 3.1.2).  R is scaled by
    lc(B)^k once, up front; Q is then an integer list, so each quotient
    coefficient is an exact division of R's top by lc(B), and none at all
    when lc(B) = 1.
    """
    n = len(b) - 1
    k = len(r) - n
    if k <= 0:
        return list(r)
    lc = b[-1]
    if lc == 1:
        r = list(r)
    else:
        s = lc ** k
        r = [c * s for c in r]
    for i in range(k - 1, -1, -1):
        m = r.pop()  # the top, which (m / lc) t^i B cancels
        if m:
            if lc != 1:
                m //= lc
            for j in range(n):
                r[i + j] -= m * b[j]
    while r and not r[-1]:
        r.pop()
    return r


def resultant(a, b) -> int:
    """Res(a, b) of two integer coefficient lists (constant term first), a's top nonzero and deg a > deg b.

    The sub-resultant algorithm (Cohen, A Course in Computational Algebraic
    Number Theory, algorithm 3.3.7): contents are taken out first, each
    :func:`pseudo_remainder` lc(b)^(delta + 1) a mod b is divided exactly
    by g h^delta, and Res(A, c) = c^(deg A) for a constant c ends the
    sequence.
    """
    b = list(b)
    while b and not b[-1]:
        b.pop()
    if not b:
        return 0
    da, db = len(a) - 1, len(b) - 1
    ca, cb = math.gcd(*a), math.gcd(*b)
    t = ca ** db * cb ** da
    if ca != 1:
        a = [x // ca for x in a]
    if cb != 1:
        b = [x // cb for x in b]
    s = 1
    g = h = 1
    while db > 0:
        delta = da - db
        if da & db & 1:
            s = -s
        r = pseudo_remainder(a, b)
        if not r:
            return 0
        div = g * h ** delta
        a, b = b, (r if div == 1 else [x // div for x in r])
        da, db = db, len(b) - 1
        g = a[-1]
        if delta:
            h = g ** delta // h ** (delta - 1)
    return s * t * (b[0] ** da // h ** (da - 1))


def root_norm(q: PadicPolynomial, num, den: int) -> Fraction:
    """N(r(alpha)) = Res(q, r) for monic q = Q / D and r = num / den below deg q: Res(Q, num) / (D^deg r den^deg q)."""
    m = len(num) - 1
    while m >= 0 and not num[m]:
        m -= 1
    return Fraction(resultant(q.num, num), q.den ** m * den ** q.degree) if m >= 0 else Fraction(0)


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
