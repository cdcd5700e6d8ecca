"""Independent brute-force oracles for isotropy over Q_p.

These deliberately share no code with the Hilbert-symbol formulas: a
diagonal form with entries of valuation 0 or 1 has a nontrivial zero over
Q_p iff it has a primitive zero modulo p^M once M >= v(4) + 3.  Residue
solutions at such a modulus always carry one coordinate with Hensel
slack, so the search is conclusive in both directions.  Value sets are
composed entry by entry with a primitivity flag, which keeps the search
polynomial in p^M instead of exponential in the dimension.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ConditionFailed, PreconditionFailed
from .padics import PadicContext, vp_rational


# largest modulus p^(v(4)+3) that the CLI and the verifier cross-check by
# residue search, so p <= 7: the search's cost grows like the cube of the
# modulus, and a 4-dimensional form already takes seconds at p = 17
CROSS_CHECK_BUDGET = 7 ** 3


def conclusive_exponent(ctx: PadicContext) -> int:
    """Smallest modulus exponent at which the residue search is decisive."""
    return ctx.v4 + 3


def within_budget(ctx: PadicContext) -> bool:
    """Is the residue search cheap enough to run as a cross-check?"""
    return ctx.p ** conclusive_exponent(ctx) <= CROSS_CHECK_BUDGET


def normalize_entry(a, ctx: PadicContext) -> int:
    """Integer in the square class of a with valuation in {0, 1}."""
    a = Fraction(a)
    if a == 0:
        raise PreconditionFailed("form entries must be nonzero")
    v = ctx.vp(a)
    a = a / Fraction(ctx.p) ** (2 * (v // 2))
    return a.numerator * a.denominator


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
    q = ctx.p ** m
    norm = [normalize_entry(a, ctx) % q for a in entries]

    per_any, per_unit = [], []
    for a in norm:
        vals_any, vals_unit = set(), set()
        for x in range(q):
            v = a * x * x % q
            vals_any.add(v)
            if x % ctx.p:
                vals_unit.add(v)
        per_any.append(vals_any)
        per_unit.append(vals_unit)

    reach_any = [{0}]
    reach_prim = [set()]
    for k in range(len(norm)):
        nxt_any = {(r + s) % q for r in reach_any[k] for s in per_any[k]}
        nxt_prim = {(r + s) % q for r in reach_prim[k] for s in per_any[k]}
        nxt_prim |= {(r + s) % q for r in reach_any[k] for s in per_unit[k]}
        reach_any.append(nxt_any)
        reach_prim.append(nxt_prim)

    if 0 not in reach_prim[-1]:
        return False, None

    solution = _recover(norm, q, ctx.p, reach_any, reach_prim, per_any, per_unit)
    witness = _slack_witness(entries, solution, ctx, m)
    return True, witness


def _recover(norm, q, p, reach_any, reach_prim, per_any, per_unit):
    """Backtrack a primitive residue solution from the reachability sets."""
    n = len(norm)
    target, need_unit = 0, True
    xs = [0] * n
    for k in range(n - 1, -1, -1):
        a = norm[k]
        found = False
        for x in range(q):
            rest = (target - a * x * x) % q
            still_need = need_unit and x % p == 0
            pool = reach_prim[k] if still_need else reach_any[k]
            if rest in pool:
                xs[k], target, need_unit, found = x, rest, still_need, True
                break
        if not found:  # pragma: no cover - reachability guarantees recovery
            raise AssertionError("witness recovery failed")
    if target != 0 or need_unit:
        raise ConditionFailed("search target left unmet")
    return xs


def _slack_witness(entries, xs, ctx: PadicContext, m: int):
    p = ctx.p
    norm = [Fraction(normalize_entry(a, ctx)) for a in entries]
    value = sum(a * x * x for a, x in zip(norm, xs))
    res_v = vp_rational(value, p)
    best = None
    for k, (a, x) in enumerate(zip(norm, xs)):
        if x % p:
            grad_v = ctx.vp(2 * a * x)
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
