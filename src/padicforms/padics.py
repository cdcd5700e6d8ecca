"""Exact arithmetic in Q_p: valuations, squares, square classes, Hilbert symbols.

All values are plain rationals (`fractions.Fraction`); nothing is ever
rounded.  A :class:`PadicContext` pins the prime p, the uniformizer pi
(pi = p unless the caller overrides it) and a precision cap used only when
truncated digit expansions are emitted.  The valuation is normalized so
that v(pi) = 1, and extends to finite extensions with values in (1/e)Z.

The Hilbert symbol over Q_p is computed by the classical unit/valuation
case formulas; an independent residue-search oracle lives in
:mod:`padicforms.oracles` and the two are compared in the test suite.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import PreconditionFailed

INFINITY = math.inf


def is_prime(n: int) -> bool:
    """Deterministic primality test, adequate for word-sized primes."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    # deterministic Miller-Rabin for n < 3.3 * 10^24
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def vp_int(n: int, p: int) -> int:
    """p-adic order of a nonzero integer, in O(log v) divisions.

    At p = 2 it is the index of the lowest set bit.  At odd p, up to four
    factors p are stripped one at a time: for v <= 3 that takes no more
    remainders than the block search, and 99% of the odd-p valuations in
    perfbench's symbols, squares and construct workloads are at most 3
    (82-88% are 0).  Past that, blocks p, p^2, p^4, ... are stripped
    while they divide n, then the same blocks are tried again from the
    largest down.
    """
    if n == 0:
        raise ValueError("vp_int(0) is infinite")
    if p == 2:
        return (n & -n).bit_length() - 1
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
        if v == 4:
            break
    else:
        return v
    blocks = [p]
    while n % blocks[-1] == 0:
        n //= blocks[-1]
        v += 1 << (len(blocks) - 1)
        blocks.append(blocks[-1] * blocks[-1])
    for k in range(len(blocks) - 2, -1, -1):
        if n % blocks[k] == 0:
            n //= blocks[k]
            v += 1 << k
    return v


def vp_rational(x, p: int):
    """p-adic order of a rational; +infinity for 0."""
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    if not x:
        return INFINITY
    return vp_int(x.numerator, p) - vp_int(x.denominator, p)


def legendre_int(a: int, p: int) -> int:
    """Legendre symbol (a|p) for odd p, in {-1, 0, 1}."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def int_mod_pk(n: int, d: int, p: int, k: int) -> int:
    """Canonical representative modulo p^k of the p-integral rational n / d (d > 0)."""
    m = p ** k
    if d % p:
        return n * pow(d, -1, m) % m
    ps = p ** vp_int(d, p)
    if n % ps:
        raise PreconditionFailed(f"{Fraction(n, d)} is not p-integral at p={p}")
    return n // ps * pow(d // ps, -1, m) % m


def rational_mod_pk(x, p: int, k: int) -> int:
    """Canonical representative of a p-integral rational modulo p^k."""
    x = Fraction(x)
    return int_mod_pk(x.numerator, x.denominator, p, k)


def unit_split(n: int, d: int, p: int) -> tuple[int, int, int]:
    """(v, a, b) with n / d = p^v a / b and a, b prime to p, for nonzero n and d."""
    v = 0
    if n % p == 0:
        v = vp_int(n, p)
        n //= p ** v
    if d % p == 0:
        s = vp_int(d, p)
        d //= p ** s
        v -= s
    return v, n, d


def cut_int(n: int, d: int, p: int, k: int) -> tuple[int, int]:
    """The valuation-shifted cut of n / d (d > 0) at k digits, as (numerator, denominator).

    With n / d = p^v u, u a unit, it is p^v (u mod p^(k - v)): congruent to
    n / d modulo p^k, with height about p^k, and 0 when v >= k.  The
    denominator is a power of p.
    """
    if not n:
        return 0, 1
    v, a, b = unit_split(n, d, p)
    if v >= k:
        return 0, 1
    m = p ** (k - v)
    r = a * pow(b, -1, m) % m
    return (r * p ** v, 1) if v >= 0 else (r, p ** -v)


@dataclass(frozen=True)
class PadicContext:
    """Fixes the field Q_p: the prime, the uniformizer and a precision cap.

    ``uniformizer`` must be a rational of valuation 1; it defaults to p.
    Symbols depend on this choice, so certificates always record it.
    ``precision_digits`` caps truncated output expansions only; all
    intermediate arithmetic is exact.

    The context is also Q_p's field handle, whose elements are Fractions:
    it implements the protocol of :class:`padicforms.extensions.LocalField`,
    so code written against a field handle runs unchanged over Q_p and
    over its extensions.
    """

    p: int
    precision_digits: int = 64
    uniformizer: Fraction = field(default=None)  # type: ignore[assignment]

    is_extension = False
    ramification_index = 1
    # hensel_lift's integer frame: one coordinate, no modulus; see LocalField.integer_frame
    integer_frame = (0, None, 0, ((1,),), 1)
    zero = Fraction(0)
    one = Fraction(1)

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.uniformizer is None:
            object.__setattr__(self, "uniformizer", Fraction(self.p))
        else:
            object.__setattr__(self, "uniformizer", Fraction(self.uniformizer))
        if vp_rational(self.uniformizer, self.p) != 1:
            raise ValueError(f"uniformizer {self.uniformizer} has valuation != 1")
        if self.precision_digits < 2 * self.v4 + 4:
            raise ValueError("precision_digits below 2*v(4) + 4")

    @functools.cached_property
    def minus_uniformizer(self) -> Fraction:
        """-pi, the second argument of every i2 class."""
        return -self.uniformizer

    @property
    def v4(self) -> int:
        """v(4) = 2 v(2); the Hensel margin for square testing."""
        return 2 if self.p == 2 else 0

    def vp(self, x):
        return vp_rational(x, self.p)

    def least_nonresidue(self) -> int:
        """Smallest positive quadratic nonresidue mod p (odd p only)."""
        if self.p == 2:
            raise PreconditionFailed("no canonical nonresidue for p = 2")
        n = 2
        while legendre_int(n, self.p) == 1:
            n += 1
        return n

    # the field-handle protocol
    valuation = vp

    @property
    def context(self) -> PadicContext:
        return self

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise TypeError(f"cannot coerce {type(x).__name__} into Q_{self.p}")

    def inv(self, c):
        return 1 / c

    def is_zero(self, c):
        return c == 0

    def norm(self, c):
        return c

    def truncate(self, c, k: int) -> int:
        """The representative of c modulo p^k in [0, p^k); ``coerce`` maps it back."""
        return rational_mod_pk(c, self.p, k)

    def residue(self, c, j: int = 0) -> list:
        """The residue digit [c pi^(-j) mod p], for c with v(c) >= j."""
        c = Fraction(c) * self.uniformizer ** -j if j else Fraction(c)
        return [int_mod_pk(c.numerator, c.denominator, self.p, 1)]

    def cut(self, c, k: int) -> Fraction:
        """p^v (u mod p^(k - v)) for c = p^v u: congruent to c modulo p^k, of height about p^k."""
        n, d = cut_int(c.numerator, c.denominator, self.p, k)
        return Fraction(n, d)


def _unit_digits(x: Fraction, p: int) -> tuple[int, int]:
    """(v, u mod p) for x = p^v u, u mod 8 at p = 2: what squares and symbols over Q_p read."""
    v, a, b = unit_split(x.numerator, x.denominator, p)
    m = 8 if p == 2 else p
    return v, a * pow(b, -1, m) % m


def is_square_rational(x, ctx: PadicContext) -> bool:
    """Exact squareness test in Q_p, for x an int or a Fraction.

    x = p^v u is a square iff v is even and the unit u is: for odd p iff
    (u mod p | p) = 1 (Euler's criterion, then Hensel), for p = 2 iff
    u = 1 mod 8.
    """
    if x == 0:
        raise PreconditionFailed("is_square is undefined at 0")
    v, u = _unit_digits(x, ctx.p)
    if v % 2 != 0:
        return False
    return u == 1 if ctx.p == 2 else legendre_int(u, ctx.p) == 1


def square_class_rational(x, ctx: PadicContext) -> Fraction:
    """Canonical square-class representative of x (an int or a Fraction) in Q_p*.

    Odd p: {1, u, p, u p} with u the least positive nonresidue mod p.
    p = 2: {1, 5, -1, -5, 2, 10, -2, -10}.
    The sets are fixed so that emitted certificates are byte-stable.
    """
    if x == 0:
        raise PreconditionFailed("square_class is undefined at 0")
    p = ctx.p
    v, u = _unit_digits(x, p)
    if p != 2:
        unit_rep = 1 if legendre_int(u, p) == 1 else ctx.least_nonresidue()
    else:
        unit_rep = {1: 1, 3: -5, 5: 5, 7: -1}[u]
    return Fraction(unit_rep * (p if v % 2 else 1))


def hilbert_symbol_qp(a, b, ctx: PadicContext) -> int:
    """Hilbert symbol (a, b) over Q_p, in {-1, +1}, for ints or Fractions a and b.

    (a, b) = 1 iff z^2 = a x^2 + b y^2 has a nontrivial solution.
    Classical case formulas: for odd p with a = p^alpha u, b = p^beta w,
        (a, b) = (-1|p)^(alpha beta) (u|p)^beta (w|p)^alpha ;
    for p = 2 the epsilon/omega exponent formula on units mod 8.
    """
    if a == 0 or b == 0:
        raise PreconditionFailed("hilbert symbol needs nonzero arguments")
    p = ctx.p
    al, um = _unit_digits(a, p)
    be, wm = _unit_digits(b, p)
    if p != 2:
        s = legendre_int(-1, p) ** (al * be) * legendre_int(um, p) ** be * legendre_int(wm, p) ** al
        return 1 if s == 1 else -1
    eps_u, eps_w = (um - 1) // 2 % 2, (wm - 1) // 2 % 2
    om_u, om_w = (um * um - 1) // 8 % 2, (wm * wm - 1) // 8 % 2
    return -1 if (eps_u * eps_w + al * om_w + be * om_u) % 2 else 1


def square_class_representatives(ctx: PadicContext) -> list[Fraction]:
    """The canonical representatives of Q_p*/(Q_p*)^2, in fixed order."""
    if ctx.p == 2:
        return [Fraction(r) for r in (1, 5, -1, -5, 2, 10, -2, -10)]
    u = ctx.least_nonresidue()
    return [Fraction(r) for r in (1, u, ctx.p, u * ctx.p)]
