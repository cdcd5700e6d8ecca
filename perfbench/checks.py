"""Independent arithmetic that the benchmark checks the library's answers with.

Nothing here imports padicforms: polynomials are lists of Fractions (lowest
degree first), field elements are coordinate lists in the power basis of a
defining polynomial, and every valuation is counted with plain integer
division.  Each ``check_*`` function takes the answers the library gave, as
plain values, and returns a list of problems; an empty list means the
answers pass.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache

# ---------------------------------------------------------------------------
# valuations and polynomial arithmetic over Q
# ---------------------------------------------------------------------------


def vp_int(n: int, p: int) -> int:
    """p-adic order of a nonzero integer."""
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp(x, p: int):
    """p-adic order of a rational; None stands for +infinity (x = 0)."""
    x = Fraction(x)
    if x == 0:
        return None
    return vp_int(x.numerator, p) - vp_int(x.denominator, p)


def trim(f):
    f = [Fraction(c) for c in f]
    while f and f[-1] == 0:
        f.pop()
    return f


def pmul(f, g):
    if not f or not g:
        return []
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return trim(out)


def psub(f, g):
    n = max(len(f), len(g))
    f = list(f) + [Fraction(0)] * (n - len(f))
    g = list(g) + [Fraction(0)] * (n - len(g))
    return trim([a - b for a, b in zip(f, g)])


def pmod(f, g):
    """Remainder of f by a nonzero g."""
    r = trim(f)
    g = trim(g)
    while len(r) >= len(g):
        c = r[-1] / g[-1]
        k = len(r) - len(g)
        for j, b in enumerate(g):
            r[k + j] -= c * b
        r = trim(r)
    return r


def peval(f, x):
    acc = Fraction(0)
    for c in reversed(f):
        acc = acc * x + c
    return acc


def min_coeff_valuation(f, p: int):
    vals = [vp(c, p) for c in f if c != 0]
    return min(vals) if vals else None


def order_at_t(f) -> int:
    """Index of the lowest nonzero coefficient."""
    return next(i for i, c in enumerate(f) if c != 0)


def newton_slopes(f, p: int):
    """Distinct slopes of the lower convex hull of the points (i, v_p(f_i))."""
    pts = [(i, vp(c, p)) for i, c in enumerate(f) if c != 0]
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return sorted({Fraction(y2 - y1, x2 - x1) for (x1, y1), (x2, y2) in zip(hull, hull[1:])})


_TERM = re.compile(r"([+-])?\s*(?:(\d+)(?:/(\d+))?)?\s*\*?\s*(t(?:\^(\d+))?)?")


def parse_poly_text(text: str):
    """Coefficient list of a polynomial printed as e.g. '3/2*t^2 - t + 4'."""
    coeffs = {}
    pos, text = 0, text.strip()
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot read {text!r} at {pos}")
        sign, num, den, tpart, exp = m.groups()
        c = Fraction(int(num) if num else 1, int(den) if den else 1)
        if sign == "-":
            c = -c
        k = (int(exp) if exp else 1) if tpart else 0
        coeffs[k] = coeffs.get(k, Fraction(0)) + c
        pos = m.end()
        while pos < len(text) and text[pos] == " ":
            pos += 1
    out = [Fraction(0)] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    return trim(out)


def parse_rational(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den) if den else 1)


# ---------------------------------------------------------------------------
# the Hilbert symbol over Q_p, by a residue search
# ---------------------------------------------------------------------------


def _square_class_int(x, p: int) -> int:
    """An integer in the square class of x, with p-adic order 0 or 1."""
    x = Fraction(x)
    n = x.numerator * x.denominator  # x * den^2
    while n % (p * p) == 0:
        n //= p * p
    return n


def hilbert_search(a, b, p: int) -> int:
    """(a, b) over Q_p by searching z^2 = a x^2 + b y^2 modulo p^M.

    With a, b scaled to p-adic order 0 or 1, a primitive solution modulo
    p^M for M = v_p(4) + 3 lifts by Hensel's lemma, and an exact solution
    reduces to one, so the search decides the symbol.
    """
    return _hilbert_search(_square_class_int(a, p), _square_class_int(b, p), p)


@lru_cache(maxsize=4096)
def _hilbert_search(a: int, b: int, p: int) -> int:
    q = p ** (5 if p == 2 else 3)
    a, b = a % q, b % q

    def values(c):
        out = {}
        for x in range(q):
            v = c * x * x % q
            out[v] = out.get(v, False) or x % p != 0
        return out

    squares, ax, by = values(1), values(a), values(b)
    for va, unit_a in ax.items():
        for vb, unit_b in by.items():
            unit_z = squares.get((va + vb) % q)
            if unit_z is not None and (unit_a or unit_b or unit_z):
                return 1
    return -1


def euler_is_square(x, p: int) -> bool:
    """Squareness in Q_p* for odd p by Euler's criterion on the unit part."""
    x = Fraction(x)
    v = vp(x, p)
    if v % 2:
        return False
    u = x / Fraction(p) ** v
    return pow(u.numerator * pow(u.denominator, -1, p) % p, (p - 1) // 2, p) == 1


def is_square_qp(x, p: int) -> bool:
    """Squareness in Q_p*: Euler's criterion for odd p, u = 1 mod 8 for p = 2."""
    if p != 2:
        return euler_is_square(x, p)
    x = Fraction(x)
    v = vp(x, 2)
    u = x / Fraction(2) ** v
    return v % 2 == 0 and u.numerator * u.denominator % 8 == 1


def isotropic_4(entries, p: int) -> bool:
    """A 4-dimensional form <e0, e1, e2, e3> over Q_p.

    It is anisotropic exactly when its discriminant is a square and it is
    then similar to the norm form of the quaternion algebra
    (-e0 e1, -e0 e2), which must be the division algebra.
    """
    e0, e1, e2, e3 = (Fraction(e) for e in entries)
    if not is_square_qp(e0 * e1 * e2 * e3, p):
        return True
    return hilbert_search(-e0 * e1, -e0 * e2, p) == 1


# ---------------------------------------------------------------------------
# elements of K = Q_p[t]/(m) as coordinate lists
# ---------------------------------------------------------------------------


def kmul(x, y, m):
    return pmod(pmul(x, y), m)


def det(rows):
    """Determinant of a square matrix of Fractions, by elimination."""
    rows = [list(r) for r in rows]
    n, d = len(rows), Fraction(1)
    for i in range(n):
        piv = next((k for k in range(i, n) if rows[k][i] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != i:
            rows[i], rows[piv] = rows[piv], rows[i]
            d = -d
        d *= rows[i][i]
        for k in range(i + 1, n):
            c = rows[k][i] / rows[i][i]
            if c:
                rows[k] = [a - c * b for a, b in zip(rows[k], rows[i])]
    return d


def knorm(x, m):
    """N_{K/Q_p}(x) for K = Q_p[t]/(m), m monic: the determinant of
    multiplication by x on the power basis, which is the resultant of m and x."""
    n = len(m) - 1
    rows = []
    for i in range(n):
        row = kmul(x, [Fraction(0)] * i + [Fraction(1)], m)
        rows.append(row + [Fraction(0)] * (n - len(row)))
    return det(rows)


def kvaluation(x, m, p: int, e: int):
    """Valuation of x in K, normalized so that v(p) = 1.

    Valid for the two kinds of field the lifting workload uses: an
    unramified m (e = 1), where the power basis is an integral basis whose
    residues are independent, and an Eisenstein m of degree e, where the
    terms c_i alpha^i have distinct valuations v_p(c_i) + i/e.
    """
    vals = [Fraction(vp(c, p)) + Fraction(i, e) for i, c in enumerate(x) if c != 0]
    return min(vals) if vals else None


def kpoly_eval(coeffs, x, m):
    """Evaluate a polynomial with coefficients in K at x in K."""
    acc = []
    for c in reversed(coeffs):
        acc = psub(kmul(acc, x, m), [-v for v in c])
    return acc


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def sign_problems(name, v):
    return [] if v in (1, -1) else [f"{name} = {v!r} is not +1 or -1"]


def check_symbol_pair(v1, v2, linear_expected=None):
    """<a/q> and <a h^2/q> agree; for linear q both equal the search value."""
    problems = sign_problems("symbol", v1) + sign_problems("symbol", v2)
    if v1 != v2:
        problems.append(f"<a/q> = {v1} but <a h^2/q> = {v2}")
    if linear_expected is not None and v1 != linear_expected:
        problems.append(f"<a/q> = {v1} but the residue search gives {linear_expected}")
    return problems


def check_multiplicativity(values, holds, expected=None):
    """values: lhs, p_over_q, r_over_q; expected: the same keys where known."""
    problems = [m for k in ("lhs", "p_over_q", "r_over_q") for m in sign_problems(k, values[k])]
    law = values["lhs"] == values["p_over_q"] * values["r_over_q"]
    if not law:
        problems.append(f"multiplicativity fails on {values}")
    if holds != law:
        problems.append(f"holds = {holds} but the values say {law}")
    for k, v in (expected or {}).items():
        if values[k] != v:
            problems.append(f"{k} = {values[k]} but the residue search gives {v}")
    return problems


def check_constant_rule(values, holds, expected_c_over_t, expected_lhs=None):
    """values: lhs, c_over_t, deg_q; <c/t> = (c, -p) by the search."""
    problems = sign_problems("lhs", values["lhs"]) + sign_problems("c_over_t", values["c_over_t"])
    law = values["lhs"] == values["c_over_t"] ** values["deg_q"]
    if not law:
        problems.append(f"constant rule fails on {values}")
    if holds != law:
        problems.append(f"holds = {holds} but the values say {law}")
    if values["c_over_t"] != expected_c_over_t:
        problems.append(
            f"<c/t> = {values['c_over_t']} but the residue search gives {expected_c_over_t}"
        )
    if expected_lhs is not None and values["lhs"] != expected_lhs:
        problems.append(f"<c/q> = {values['lhs']} but the residue search gives {expected_lhs}")
    return problems


def check_reciprocity(values, holds, expected_m1t, expected=None):
    """values: p_over_q, minus_one_over_t, q_over_p, exponent."""
    problems = [
        m for k in ("p_over_q", "minus_one_over_t", "q_over_p") for m in sign_problems(k, values[k])
    ]
    law = values["p_over_q"] == values["minus_one_over_t"] ** values["exponent"] * values["q_over_p"]
    if not law:
        problems.append(f"reciprocity fails on {values}")
    if holds != law:
        problems.append(f"holds = {holds} but the values say {law}")
    if values["minus_one_over_t"] != expected_m1t:
        problems.append(
            f"<-1/t> = {values['minus_one_over_t']} but the residue search gives {expected_m1t}"
        )
    for k, v in (expected or {}).items():
        if values[k] != v:
            problems.append(f"{k} = {values[k]} but the residue search gives {v}")
    return problems


def check_square_answers(sq_x, sq_xs2, sq_square, tag_a, tag_b, square_tag):
    """Squareness and square-class tags of x, x s^2, s'^2 over one field.

    sq_x, sq_xs2: is_square(x), is_square(x s^2); sq_square: is_square(s'^2);
    tag_a, tag_b: square-class tags of x s1^2 and x s2^2; square_tag: the
    tag of 1.
    """
    problems = []
    if sq_x != sq_xs2:
        problems.append(f"is_square(x) = {sq_x} but is_square(x s^2) = {sq_xs2}")
    if sq_square is not True:
        problems.append(f"is_square(s^2) = {sq_square}")
    if tag_a != tag_b:
        problems.append(f"square classes of x s1^2 and x s2^2 differ: {tag_a} vs {tag_b}")
    if (tag_a == square_tag) != sq_x:
        problems.append(f"is_square(x) = {sq_x} disagrees with the square-class tag {tag_a}")
    return problems


def check_square_norm(sq_x, norm_x, p):
    """A square of K has a square norm, so is_square(x) is False when N(x) is not."""
    if sq_x and not is_square_qp(norm_x, p):
        return [f"is_square(x) = True but N(x) = {norm_x} is not a square in Q_{p}"]
    return []


def check_hilbert_answers(ab, br_as2, identity_value, norm_a, r, p):
    """(a, b)(b r, a s^2) = (N a, r)_p, and an identity symbol that must equal +1.

    By symmetry, bilinearity and (s^2, a) = 1, (b r, a s^2) = (a, b)(a, r);
    for r in Q_p, (a, r) over K is (N_{K/Q_p} a, r) over Q_p, which the
    residue search decides.
    """
    problems = sign_problems("(a,b)", ab) + sign_problems("(b r,a s^2)", br_as2)
    want = hilbert_search(norm_a, r, p)
    if not problems and ab * br_as2 != want:
        problems.append(f"(a,b) = {ab} and (b r, a s^2) = {br_as2}, but (N a, r) = {want}")
    if identity_value != 1:
        problems.append(f"identity symbol = {identity_value}, expected +1")
    return problems


def check_isotropy_against_symbol(isotropic, symbol):
    """c<1, -a, -b, ab> is isotropic exactly when (a, b) = +1."""
    if isotropic != (symbol == 1):
        return [f"isotropy {isotropic} disagrees with the Hilbert symbol {symbol}"]
    return []


def check_square_criterion(criterion, symbol):
    if criterion != symbol:
        return [f"square criterion {criterion} disagrees with the symbol {symbol}"]
    return []


def check_euler(answer, x, p):
    want = euler_is_square(x, p)
    if answer != want:
        return [f"is_square({x}) = {answer} at p = {p}, Euler's criterion says {want}"]
    return []


def check_construction(isotropic, conditions, epsilon, s_coeffs, factor_coeffs):
    """The corollary's verdict, its conditions and the factor identity of s.

    conditions: (name, holds) pairs; s_coeffs and factor_coeffs are
    coefficient lists of s and of its factors s_ij.
    """
    problems = []
    if isotropic is not True:
        problems.append("an admissible input was not certified isotropic")
    bad = [name for name, holds in conditions if not holds]
    if bad:
        problems.append(f"conditions fail: {bad}")
    prod = [Fraction(epsilon)]
    for f in factor_coeffs:
        prod = pmul(prod, f)
        if (len(f) - 1) % 2:
            problems.append(f"s factor {f} has odd degree")
        if f[0] == 0:
            problems.append(f"s factor {f} is divisible by t")
    if trim(prod) != trim(s_coeffs):
        problems.append("s differs from epsilon times the product of its factors")
    return problems


def check_predicate(verdict, num, den):
    """The predicate's verdict against v_t(num/den) >= 0 read from the lists."""
    want = order_at_t(num) - order_at_t(den) >= 0
    if verdict != want:
        return [f"predicate verdict {verdict}, but v_t(x) >= 0 is {want}"]
    return []


def check_slope_product(f, unit, factors, p, digits):
    """unit * prod(factors) agrees with f above the digit target."""
    prod = [Fraction(unit)]
    for g in factors:
        if Fraction(g[-1]) != 1:
            return [f"factor {g} is not monic"]
        prod = pmul(prod, g)
    v = min_coeff_valuation(psub(prod, f), p)
    if v is not None and not v > digits:
        return [f"product residual valuation {v} is not above {digits}"]
    return []


def check_root(f, root, p, digits):
    """v_p(f(root)) > digits for an integer or rational root over Q_p."""
    v = vp(peval(f, Fraction(root)), p)
    if v is not None and not v > digits:
        return [f"residual valuation {v} is not above {digits}"]
    return []


def check_root_in_field(coeffs, root, m, p, e, digits):
    """v(f(root)) > digits in K = Q_p[t]/(m) for coordinate-list inputs."""
    value = kpoly_eval(coeffs, [Fraction(c) for c in root], m)
    v = kvaluation(value, m, p, e)
    if v is not None and not v > digits:
        return [f"residual valuation {v} in K is not above {digits}"]
    return []


def check_elliptic(x, y, p, digits):
    r = Fraction(x) ** 3 - Fraction(x) - Fraction(y) ** 2
    v = vp(r, p)
    if v is not None and not v > digits:
        return [f"v(x^3 - x - y^2) = {v} is not above {digits}"]
    return []
