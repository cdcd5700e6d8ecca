"""Independent brute-force oracles for isotropy over Q_p.

These deliberately share no code with the Hilbert-symbol formulas: a
diagonal form with entries of valuation 0 or 1 has a nontrivial zero over
Q_p iff it has a primitive zero modulo p^M once M >= v(4) + 3.  Residue
solutions at such a modulus always carry one coordinate with Hensel
slack, so the search is conclusive in both directions.  A positive verdict's
witness is such a solution: :func:`checked_witness` checks one without
searching, which is how ``verify`` reads an isotropic certificate.

A set of residues modulo q = p^M is a q-bit integer, bit r set when r is
in it.  Each entry a gives two masks, of its values a x^2 over all x and
over units x; the masks of the residues reached by the first k entries,
with and without a unit coordinate, compose entry by entry.  A sumset
{r + s mod q} is one shift of one mask per set bit of the sparser mask,
folded once modulo q, so the search stays polynomial in p^M instead of
exponential in the dimension.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ConditionFailed, PreconditionFailed
from .padics import PadicContext, unit_split, vp_rational


# largest modulus p^(v(4)+3) that the CLI cross-checks by residue search, so
# p <= 7; the verifier searches only for an anisotropic verdict, and checks a
# positive one's witness.  A 4-dimensional form takes 0.04-0.05 ms at p = 3,
# 0.3-0.4 ms at p = 7, 1.2-1.9 ms at p = 11 and 0.2-0.3 s at p = 31 (one core
# of a shared 2-core x86 machine).  The budget stays at 7^3 because it decides
# which certificates carry "oracle" and "oracle_witness"
CROSS_CHECK_BUDGET = 7 ** 3


def conclusive_exponent(ctx: PadicContext) -> int:
    """Smallest modulus exponent at which the residue search is decisive."""
    return ctx.v4 + 3


def within_budget(ctx: PadicContext) -> bool:
    """Is the residue search cheap enough to run as a cross-check?"""
    return ctx.p ** conclusive_exponent(ctx) <= CROSS_CHECK_BUDGET


def normalize_entry(a, ctx: PadicContext) -> int:
    """Integer in the square class of a with valuation in {0, 1}: p^(v mod 2) u w for a = p^v u / w."""
    a = Fraction(a)
    if a == 0:
        raise PreconditionFailed("form entries must be nonzero")
    v, u, w = unit_split(a.numerator, a.denominator, ctx.p)
    return ctx.p ** (v % 2) * u * w


def _mask(residues) -> int:
    return sum(1 << r for r in set(residues))


def _sumset(s: int, t: int, q: int) -> int:
    """The mask of {r + u mod q} for r in mask s and u in mask t."""
    if s.bit_count() > t.bit_count():
        s, t = t, s
    out = 0
    while s:
        low = s & -s
        out |= t << low.bit_length() - 1
        s ^= low
    return (out | out >> q) & ((1 << q) - 1)


def isotropic_by_search(entries, ctx: PadicContext, modulus_exp: int | None = None):
    """Decide isotropy of a diagonal form over Q_p by residue search.

    Returns (verdict, witness): the witness for a positive verdict is a
    primitive solution modulo p^M together with the coordinate carrying
    Hensel slack; a negative verdict means no primitive residue zero
    exists at the conclusive modulus, so the form is anisotropic.
    """
    m = modulus_exp if modulus_exp is not None else conclusive_exponent(ctx)
    if m < conclusive_exponent(ctx):
        raise PreconditionFailed(f"modulus exponent {m} is not conclusive")
    p, q = ctx.p, ctx.p ** m
    norm = [normalize_entry(a, ctx) for a in entries]
    # x and q - x have the same square and are units together
    unit_squares = {x * x % q for x in range(q // 2 + 1) if x % p}
    nonunit_squares = {x * x % q for x in range(0, q // 2 + 1, p)}

    reach_any, reach_prim = [1], [0]
    for a in norm:
        unit = _mask(a * s % q for s in unit_squares)
        values = unit | _mask(a * s % q for s in nonunit_squares)
        reach_prim.append(_sumset(reach_prim[-1], values, q) | _sumset(reach_any[-1], unit, q))
        reach_any.append(_sumset(reach_any[-1], values, q))

    if not reach_prim[-1] & 1:
        return False, None

    solution = _recover([a % q for a in norm], q, p, reach_any, reach_prim)
    return True, _slack_witness(norm, solution, p, m)


def _recover(norm, q, p, reach_any, reach_prim):
    """Backtrack a primitive residue solution from the reachability masks."""
    n = len(norm)
    target, need_unit = 0, True
    xs = [0] * n
    for k in range(n - 1, -1, -1):
        a = norm[k]
        for x in range(q):
            rest = (target - a * x * x) % q
            still_need = need_unit and x % p == 0
            pool = reach_prim[k] if still_need else reach_any[k]
            if pool >> rest & 1:
                xs[k], target, need_unit = x, rest, still_need
                break
        else:  # pragma: no cover - reachability guarantees recovery
            raise ConditionFailed("witness recovery failed")
    if target != 0 or need_unit:
        raise ConditionFailed("search target left unmet")
    return xs


def checked_witness(entries, solution, ctx: PadicContext):
    """The witness of a positive verdict, rebuilt from its solution alone; raises unless it proves isotropy.

    The solution must be a primitive zero modulo p^M, M = conclusive_exponent(ctx),
    of the normalized form, with a unit coordinate carrying Hensel slack: Hensel's
    lemma on that coordinate lifts it to a zero over Q_p, whichever zero it is.
    """
    p, m = ctx.p, conclusive_exponent(ctx)
    q = p ** m
    norm = [normalize_entry(a, ctx) for a in entries]
    if type(solution) is not list or len(solution) != len(norm) or any(
            type(x) is not int or not 0 <= x < q for x in solution):
        raise ValueError(f"solution {solution!r} is not {len(norm)} residues modulo {q}")
    if sum(a * x * x for a, x in zip(norm, solution)) % q or all(x % p == 0 for x in solution):
        raise ConditionFailed(f"solution {solution} is not a primitive zero modulo {q}")
    witness = _slack_witness(norm, solution, p, m)
    if witness["slack_coordinate"] is None:
        raise ConditionFailed(f"no coordinate of {solution} has Hensel slack")
    return witness


def _slack_witness(norm, xs, p: int, m: int):
    value = sum(a * x * x for a, x in zip(norm, xs))
    res_v = vp_rational(value, p)
    best = None
    for k, (a, x) in enumerate(zip(norm, xs)):
        if x % p:
            grad_v = vp_rational(2 * a * x, p)
            if res_v > 2 * grad_v and (best is None or grad_v < best[1]):
                best = (k, grad_v)
    return {
        "modulus_exponent": m,
        "normalized_entries": [str(a) for a in norm],
        "solution": list(xs),
        "residual_valuation": "inf" if value == 0 else str(res_v),
        "slack_coordinate": None if best is None else best[0],
    }


def hilbert_by_search(a, b, ctx: PadicContext, modulus_exp: int | None = None) -> int:
    """Hilbert symbol over Q_p via the conic z^2 = a x^2 + b y^2 oracle."""
    verdict, _ = isotropic_by_search([Fraction(a), Fraction(b), Fraction(-1)], ctx, modulus_exp)
    return 1 if verdict else -1
