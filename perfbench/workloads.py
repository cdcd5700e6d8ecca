"""The four seeded workloads: their inputs, their operations and their checks.

A workload is built from a seed and yields *rounds*.  A verdict round is a
fixed list of library calls, one or more per query class, with fresh
arguments drawn from the workload's seeded pools; a CLI round is a fixed
list of commands, each run with ``--json`` in a fresh interpreter.  Every
round has the same make-up, so the share of each class among the
operations of a run does not depend on the seed or on the run's length.
No query is issued twice in one process: draws that repeat an earlier
query are drawn again.

The program receives only the generated inputs.  Arguments are built with
the library's own types (``PadicPolynomial``, ``LocalField`` elements),
but every expected answer is computed by :mod:`checks`, which does not
import the library.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import padicforms as pf
from padicforms.quadform import DiagonalForm
from padicforms.reciprocity import certify_modulus

import checks

F = Fraction


@dataclass
class Op:
    """One timed library call: ``padicforms.<fn>(*args, **kwargs)``.

    The function is looked up on the package when the call is made, so a
    traced run sees its wrapped version.
    """

    cls: str
    fn: str
    args: tuple
    kwargs: dict = field(default_factory=dict)
    expect_fail: bool = False


@dataclass
class Round:
    ops: list
    check: Callable[[list], list]  # results aligned with ops -> problems


@dataclass
class Cmd:
    """One CLI command: ``padicforms <argv> --json``, checked on its output."""

    cls: str
    argv: list  # subcommand and options, then "--", then positionals
    check: Callable[[dict], list]
    exit_codes: tuple = (0,)
    mutate: Callable[[dict], dict] | None = None  # a copy verify must reject


def P(coeffs, ctx) -> pf.PadicPolynomial:
    return pf.PadicPolynomial.from_rationals([F(c) for c in coeffs], ctx)


def cli_argv(sub, options, positionals):
    argv = [sub]
    for k, v in options.items():
        argv += [f"--{k}", str(v)]
    return argv + ["--json", "--"] + [str(x) for x in positionals]


class Workload:
    """Shared machinery: the seeded generator and the record of queries."""

    name = ""
    verdict_rounds = 1  # verdict rounds per cycle, before each CLI round
    trace_cycles = 2  # cycles recorded by the traced run

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}-{seed}")
        self.seen = set()
        self.stale = 0
        self.round_index = 0

    def fresh(self, *keys) -> bool:
        """True when none of the queries was issued before; marks them issued.

        Only hashes are kept, so the record stays small however long the run.
        """
        hashes = [hash(k) for k in keys]
        if any(h in self.seen for h in hashes):
            self.stale += 1
            if self.stale > 10000:
                raise RuntimeError(f"{self.name}: no fresh input in 10000 draws")
            return False
        self.seen.update(hashes)
        self.stale = 0
        return True

    def setup(self):
        """Build the pools; admissibility filtering happens here."""

    def verdict_round(self) -> Round:
        raise NotImplementedError

    def cli_round(self) -> list:
        raise NotImplementedError

    def warm_up(self):
        """One call of every query class, so lazy imports and caches fill.

        Its arguments come from a generator of their own, the same for
        every seed, so that the cost of set-up does not follow the seed.
        """
        seeded, self.rng = self.rng, random.Random(f"{self.name}-warm-up")
        try:
            rnd = self.verdict_round()
        finally:
            self.rng = seeded
        results = []
        for op in rnd.ops:
            try:
                results.append(getattr(pf, op.fn)(*op.args, **op.kwargs))
            except pf.PadicFormsError as exc:
                if not op.expect_fail:
                    raise
                results.append(exc)
        problems = rnd.check(results)
        if problems:
            raise RuntimeError(f"warm-up answers fail their checks: {problems[:3]}")

    # -- shared draws ----------------------------------------------------

    def rand_int_poly(self, p, max_deg, lo=-9, hi=9):
        """Nonzero integer coefficients, some scaled by p or p^2."""
        rng = self.rng
        while True:
            deg = rng.randint(0, max_deg)
            cs = []
            for _ in range(deg + 1):
                c = rng.randint(lo, hi)
                if c and rng.random() < 0.3:
                    c *= p ** rng.randint(1, 2)
                cs.append(F(c))
            if cs[-1] != 0:
                return cs


# ---------------------------------------------------------------------------
# symbols
# ---------------------------------------------------------------------------

# Certified moduli, two per prime and degree: the linear ones, then one
# Eisenstein-type and one unramified modulus of each degree 2-4.
SYMBOL_MODULI = {
    2: {1: ["t - 1", "t + 3"], 2: ["t^2 + t + 1", "t^2 + 2*t + 2"],
        3: ["t^3 + t + 1", "t^3 + 2*t + 2"], 4: ["t^4 + t + 1", "t^4 + 2*t + 2"]},
    3: {1: ["t - 1", "t + 4"], 2: ["t^2 + 1", "t^2 + 3*t + 3"],
        3: ["t^3 + 2*t + 1", "t^3 + 3*t + 3"], 4: ["t^4 + t + 2", "t^4 + 3*t + 3"]},
    5: {1: ["t - 2", "t + 6"], 2: ["t^2 + 2", "t^2 + 5*t + 5"],
        3: ["t^3 + t + 1", "t^3 + 5*t + 5"], 4: ["t^4 + 2", "t^4 + 5*t + 5"]},
    7: {1: ["t - 3", "t + 8"], 2: ["t^2 + 1", "t^2 + 7*t + 7"],
        3: ["t^3 + t + 1", "t^3 + 7*t + 7"], 4: ["t^4 + t + 2", "t^4 + 7*t + 7"]},
}


class Symbols(Workload):
    """The polynomial Legendre symbol and its three laws over a fixed pool."""

    name = "symbols"
    verdict_rounds = 8

    def setup(self):
        self.ctx = {p: pf.PadicContext(p) for p in SYMBOL_MODULI}
        self.moduli = {}
        for p, by_deg in SYMBOL_MODULI.items():
            ctx = self.ctx[p]
            for d, texts in by_deg.items():
                polys = [pf.parse_poly(t, ctx) for t in texts]
                for q in polys:
                    certify_modulus(q, ctx)  # raises unless certified
                self.moduli[p, d] = [(q, [F(c) for c in q.coeffs]) for q in polys]
        self.warm_up()

    def coprime_poly(self, p, q_list, max_deg):
        """A numerator coprime to q not yet asked about over q."""
        while True:
            a = self.rand_int_poly(p, max_deg)
            if checks.pmod(a, q_list) and self.fresh(("num", p, tuple(a), tuple(q_list))):
                return a

    def linear_factor(self, q_list):
        """A degree-1 h coprime to q, so that a h^2 differs from a."""
        while True:
            h = [F(self.rng.randint(-9, 9)), F(self.rng.choice([-3, -2, -1, 1, 2, 3]))]
            if checks.pmod(h, q_list):
                return h

    def search(self, x, p):
        return checks.hilbert_search(x, -p, p)

    def verdict_round(self) -> Round:
        ops, expect = [], []
        rng = self.rng
        for p, ctx in self.ctx.items():
            m1t = self.search(-1, p)
            for d in (1, 2, 3, 4):
                q, ql = rng.choice(self.moduli[p, d])
                root = -ql[0] if d == 1 else None
                a = self.coprime_poly(p, ql, 3)
                while True:
                    h = self.linear_factor(ql)
                    ah2 = checks.pmul(a, checks.pmul(h, h))
                    if self.fresh(("num", p, tuple(ah2), tuple(ql))):
                        break
                while True:
                    a2 = self.coprime_poly(p, ql, 3)
                    r2 = self.coprime_poly(p, ql, 3)
                    if self.fresh(("num", p, tuple(checks.pmul(a2, r2)), tuple(ql))):
                        break
                c = F(rng.choice([-1, 1]) * rng.randint(1, 60), rng.randint(1, 30))
                while not self.fresh(("const", p, c, tuple(ql))):
                    c = F(rng.choice([-1, 1]) * rng.randint(1, 600), rng.randint(1, 300))
                r = F(rng.randint(-40, 40), rng.randint(1, 9))
                while (root is not None and r == root) or not self.fresh(("recip", p, r, tuple(ql))):
                    r = F(rng.randint(-400, 400), rng.randint(1, 90))
                lin = [-r, F(1)]
                ops += [
                    Op("legendre", "legendre_symbol", (P(a, ctx), q, ctx)),
                    Op("legendre", "legendre_symbol", (P(ah2, ctx), q, ctx)),
                    Op("multiplicativity", "check_multiplicativity", (P(a2, ctx), P(r2, ctx), q, ctx)),
                    Op("constant-rule", "constant_symbol_check", (c, q, ctx)),
                    Op("reciprocity", "check_reciprocity", (P(lin, ctx), q, ctx)),
                ]
                expect.append((p, root, a, a2, r2, c, r, ql, m1t))

        def check(results):
            problems = []
            for k, (p, root, a, a2, r2, c, r, ql, m1t) in enumerate(expect):
                v1, v2, mult, const, recip = results[5 * k: 5 * k + 5]
                lin_pair = lin_mult = lin_c = lin_recip = None
                if root is not None:
                    lin_pair = self.search(checks.peval(a, root), p)
                    va, vr = checks.peval(a2, root), checks.peval(r2, root)
                    lin_mult = {"p_over_q": self.search(va, p), "r_over_q": self.search(vr, p),
                                "lhs": self.search(va * vr, p)}
                    lin_c = self.search(c, p)
                    lin_recip = {"p_over_q": self.search(root - r, p)}
                recip_expected = {"q_over_p": self.search(checks.peval(ql, r), p)}
                recip_expected.update(lin_recip or {})
                problems += checks.check_symbol_pair(v1, v2, lin_pair)
                problems += checks.check_multiplicativity(mult.values, mult.holds, lin_mult)
                problems += checks.check_constant_rule(
                    const.values, const.holds, self.search(c, p), lin_c)
                problems += checks.check_reciprocity(recip.values, recip.holds, m1t, recip_expected)
            return problems

        self.round_index += 1
        return Round(ops, check)

    def cli_round(self) -> list:
        rng = self.rng
        cmds = []
        for sub, p, d in (("symbol", 2, 2), ("check-mult", 3, 3), ("check-recip", 5, 4)):
            ctx = self.ctx[p]
            q, ql = rng.choice(self.moduli[p, d])
            if sub == "symbol":
                a = self.coprime_poly(p, ql, 3)
                pos = [P(a, ctx).to_text(), q.to_text()]

                def chk(doc):
                    return checks.sign_problems("symbol", doc["result"]["value"])
            elif sub == "check-mult":
                a = self.coprime_poly(p, ql, 3)
                b = self.coprime_poly(p, ql, 3)
                pos = [P(a, ctx).to_text(), P(b, ctx).to_text(), q.to_text()]

                def chk(doc):
                    res = doc["result"]
                    return checks.check_multiplicativity(res["values"], res["holds"])
            else:
                r = F(rng.randint(-400, 400), rng.randint(1, 90))
                while not self.fresh(("recip", p, r, tuple(ql))):
                    r = F(rng.randint(-4000, 4000), rng.randint(1, 900))
                pos = [P([-r, 1], ctx).to_text(), q.to_text()]
                m1t = self.search(-1, p)
                qr = self.search(checks.peval(ql, r), p)

                def chk(doc, m1t=m1t, qr=qr):
                    res = doc["result"]
                    return checks.check_reciprocity(res["values"], res["holds"], m1t, {"q_over_p": qr})
            cmds.append(Cmd(sub, cli_argv(sub, {"prime": p}, pos), chk))
        return cmds


# ---------------------------------------------------------------------------
# squares
# ---------------------------------------------------------------------------

# (p, minimal polynomial, query classes).  "sq": is_square and square_class;
# "hil": Hilbert symbols with two irrational arguments; "iso": 4-dimensional
# isotropy; "esc": the explicit square criterion (odd p).  Two-irrational
# symbols over the unramified cubics of Q_2 and Q_5 take seconds and stay
# in the reference sweep; Q_7[t]/(t^3+t+1) carries the failing class.
SQUARE_FIELDS = [
    (2, [1, 1, 1], ("sq", "hil", "iso")),
    (2, [-2, 0, 1], ("sq", "hil", "iso")),
    (3, [1, 0, 1], ("sq", "hil", "iso", "esc")),
    (3, [-3, 0, 1], ("sq", "hil", "iso", "esc")),
    (3, [1, 2, 0, 1], ("sq", "hil", "iso", "esc")),
    (3, [-3, 0, 0, 1], ("sq", "hil", "iso", "esc")),
    (5, [2, 0, 1], ("sq", "hil", "iso", "esc")),
    (5, [-5, 0, 1], ("sq", "hil", "iso", "esc")),
    (5, [1, 1, 0, 1], ("sq", "esc")),
    (5, [-5, 0, 0, 1], ("sq", "hil", "iso", "esc")),
    (7, [1, 0, 1], ("sq", "esc")),
    (7, [-7, 0, 1], ("sq", "hil", "iso", "esc")),
]
# Hilbert symbols with both arguments outside Q_7 over this unramified
# cubic raise SearchExhausted on every input: the lattice at the first
# modulus (7^3)^3 exceeds the search cap.
FAILING_FIELD = (7, [1, 1, 0, 1])
BIG_PRIME = 10007


class Squares(Workload):
    """Squares, square classes and Hilbert symbols over fixed extensions."""

    name = "squares"
    verdict_rounds = 1

    def setup(self):
        self.fields = []
        for p, m, classes in SQUARE_FIELDS:
            ctx = pf.PadicContext(p)
            K = pf.LocalField(P(m, ctx), ctx)
            self.fields.append((K, ctx, classes, m))
        p, m = FAILING_FIELD
        ctx = pf.PadicContext(p)
        self.failing = pf.LocalField(P(m, ctx), ctx)
        self.big = pf.PadicContext(BIG_PRIME)
        # the tag of the square class of 1, per field
        self.square_tags = [pf.square_class(K.one) for K, *_ in self.fields]
        self.warm_up()

    def element(self, K, irrational=True):
        rng = self.rng
        while True:
            cs = [rng.randint(-9, 9) for _ in range(K.degree)]
            if any(cs[1:]) if irrational else any(cs):
                return K.element(cs)

    def norm(self, i, y):
        """N(y) over Q_p, by the benchmark's own arithmetic, and p."""
        _, ctx, _, m = self.fields[i]
        return checks.knorm([F(c) for c in y.coeffs], [F(c) for c in m]), ctx.p

    @staticmethod
    def key(kind, K, *args):
        return (kind, K.base_context.p, K.minimal_poly.coeffs) + tuple(a.coeffs for a in args)

    def verdict_round(self) -> Round:
        ops, plan = [], []
        rng = self.rng
        for i, (K, ctx, classes, m) in enumerate(self.fields):
            while True:
                x = self.element(K, irrational=False)
                s1, s2, s3, s4 = (self.element(K) for _ in range(4))
                args = (x, x * s1 * s1, s2 * s2, x * s3 * s3, x * s4 * s4)
                if self.fresh(*[self.key("sq", K, y) for y in args[:3]],
                              *[self.key("cls", K, y) for y in args[3:]]):
                    break
            start = len(ops)
            ops += [Op("is_square", "is_square", (y,)) for y in args[:3]]
            ops += [Op("square_class", "square_class", (y,)) for y in args[3:]]
            plan.append(("sq", start, i, x))
            if "hil" in classes:
                while True:
                    a, b, c, s5, s6, k = (self.element(K) for _ in range(6))
                    r = F(rng.choice([1, -1]) * rng.randint(1, 30))
                    ident = [(c, -c), (c, 1 - c), (s6 * s6, c)][i % 3]
                    ba = (b * r, a * s5 * s5)
                    if self.fresh(self.key("hil", K, a, b), self.key("hil", K, *ba),
                                  self.key("hil", K, *ident), self.key("iso", K, k, a, b)):
                        break
                start = len(ops)
                ops += [
                    Op("hilbert", "hilbert_symbol", (a, b)),
                    Op("hilbert", "hilbert_symbol", ba),
                    Op("hilbert", "hilbert_symbol", ident),
                ]
                plan.append(("hil", start, i, a, r))
                if "iso" in classes:
                    form = DiagonalForm.make([k, -k * a, -k * b, k * a * b], K)
                    ops.append(Op("isotropy", "isotropic_over_local", (form,)))
                    plan.append(("iso", len(ops) - 1, start))
            if "esc" in classes:
                ql = [F(c) for c in m]
                while True:
                    u = self.rand_int_poly(ctx.p, 2)
                    h = self.rand_int_poly(ctx.p, 1)
                    uh2 = checks.pmul(u, checks.pmul(h, h))
                    if checks.pmod(u, ql) and checks.pmod(h, ql) and self.fresh(
                            ("esc", ctx.p, tuple(u), tuple(h), tuple(ql))):
                        break
                start = len(ops)
                ops += [
                    Op("square_criterion", "explicit_square_criterion", (P(u, ctx), K.minimal_poly, ctx)),
                    Op("square_criterion", "legendre_symbol", (P(uh2, ctx), K.minimal_poly, ctx)),
                ]
                plan.append(("esc", start, i))
        # the failing class: arguments follow the round index, not the seed
        k = self.round_index
        alpha = self.failing.gen()
        ops.append(Op("hilbert_unramified_cubic", "hilbert_symbol",
                      (alpha + k + 1, alpha * alpha + 2 * k + 1), expect_fail=True))
        big = []
        for _ in range(4):
            while True:
                x = F(rng.randint(1, 10 ** 6) * rng.choice([1, -1]), rng.randint(1, 1000))
                x *= F(BIG_PRIME) ** (2 * rng.randint(-1, 1))
                if self.fresh(("big", x)):
                    break
            big.append(x)
            ops.append(Op("is_square_base", "is_square", (x, self.big)))
        big_start = len(ops) - len(big)

        def check(results):
            problems = []
            for kind, start, i, *args in plan:
                r = results[start:start + 5]
                if kind == "sq":
                    problems += checks.check_square_answers(*r, self.square_tags[i])
                    problems += checks.check_square_norm(r[0], *self.norm(i, args[0]))
                elif kind == "hil":
                    norm_a, p = self.norm(i, args[0])
                    problems += checks.check_hilbert_answers(*r[:3], norm_a, args[1], p)
                elif kind == "iso":
                    problems += checks.check_isotropy_against_symbol(results[start], results[i])
                else:
                    problems += checks.check_square_criterion(*r[:2])
            for j, x in enumerate(big):
                problems += checks.check_euler(results[big_start + j], x, BIG_PRIME)
            return problems

        self.round_index += 1
        return Round(ops, check)

    def cli_round(self) -> list:
        rng = self.rng
        cmds = []
        for sub, p in (("squareclass", 7), ("hilbert", 5), ("isotropy", 3), ("isotropy", 5),
                       ("isotropy", 7)):
            while True:
                vals = [F(rng.randint(1, 200) * rng.choice([1, -1]), rng.randint(1, 20))
                        * F(p) ** rng.randint(0, 1) for _ in range(4)]
                if self.fresh(("cli", sub, p, tuple(vals))):
                    break
            txt = [f"{v.numerator}/{v.denominator}" for v in vals]
            if sub == "squareclass":
                x = vals[0]

                def chk(doc, x=x, p=p):
                    rep = checks.parse_rational(doc["result"]["representative"])
                    return [] if checks.is_square_qp(x * rep, p) else [f"{rep} is not in the class of {x}"]
                cmds.append(Cmd(sub, cli_argv(sub, {"prime": p}, [txt[0]]), chk))
            elif sub == "hilbert":
                want = checks.hilbert_search(vals[0], vals[1], p)

                def chk(doc, want=want):
                    got = doc["result"]["value"]
                    return [] if got == want else [f"hilbert {got}, residue search {want}"]
                cmds.append(Cmd(sub, cli_argv(sub, {"prime": p}, txt[:2]), chk))
            else:
                want = checks.isotropic_4(vals, p)

                def chk(doc, want=want):
                    got = doc["result"]["isotropic"]
                    return [] if got == want else [f"isotropic {got}, the benchmark says {want}"]
                cmds.append(Cmd(sub, cli_argv(sub, {"prime": p}, [",".join(txt)]), chk,
                                exit_codes=(0, 1)))
        return cmds


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

GAMMA = {2: 5, 3: 2, 5: 2}  # constants with (gamma, -p)_p = -1
# (p, construction case, degree of g) of the corollary calls in every round
CONSTRUCT_CLASSES = ((2, 1, 2), (2, 2, 4), (3, 1, 4), (3, 2, 2), (5, 1, 2), (5, 2, 4))
CLI_CLASSES = ((5, 1, 2), (3, 2, 2))  # construct-s commands in every CLI round
SETUP_DRAWS = 200  # g drawn per prime during set-up
REFILL_DRAWS = 50  # g drawn at a time when a class runs out


class Construct(Workload):
    """The isotropy corollary on admissible g, and the valuation predicate."""

    name = "construct"
    verdict_rounds = 3

    def setup(self):
        self.ctx = {p: pf.PadicContext(p) for p in GAMMA}
        for p, g in GAMMA.items():
            if checks.hilbert_search(g, -p, p) != -1:
                raise RuntimeError(f"gamma {g} is not admissible at p = {p}")
        self.pool = {key: [] for key in CONSTRUCT_CLASSES + CLI_CLASSES}
        self.refused = 0
        for p in self.ctx:
            self.fill_pool(p, SETUP_DRAWS)
        self.warm_up()

    def fill_pool(self, p, draws):
        """Run prepare() on `draws` fresh g at p; pool the admissible ones by class.

        The number of draws is fixed, not the number of admissible inputs,
        so the cost of set-up hardly follows the seed.  prepare() refuses
        most draws (odd vertices, uncertified factorizations); refusals are
        answers to bad input, so they are counted here and kept out of the
        timed mix.
        """
        rng, ctx = self.rng, self.ctx[p]
        degrees = sorted({k[2] for k in self.pool if k[0] == p})
        while draws:
            deg = rng.choice(degrees)
            cs = [rng.randint(-9, 9) * p ** rng.choice([0, 0, 1, 2]) for _ in range(deg)] + [1]
            if cs[0] == 0 or not self.fresh(("g", p, tuple(cs))):
                continue
            draws -= 1
            g = P(cs, ctx)
            try:
                params = pf.prepare(GAMMA[p], g, ctx)
            except pf.PadicFormsError:
                self.refused += 1
                continue
            parities = {b.denominator % 2 for b in params.blocks}
            case = 1 if parities == {1} else 2 if parities == {0} else None
            key = (p, case, deg)
            if key in self.pool:
                self.pool[key].append(g)

    def take(self, key):
        while not self.pool[key]:
            self.fill_pool(key[0], REFILL_DRAWS)
        return self.pool[key].pop(0)

    def two_slope(self):
        """(t^2 + 3a t + 3u)(t^2 + b t + c) over Q_3: slopes -1/2 and 0."""
        rng, ctx = self.rng, self.ctx[3]
        while True:
            f1 = [3 * rng.choice([1, 2, 4, 5]), 3 * rng.randint(-3, 3), 1]
            b0, c0 = rng.choice([(0, 1), (1, 2), (2, 2)])
            f2 = [c0 + 3 * rng.randint(-3, 3), b0 + 3 * rng.randint(-3, 3), 1]
            if self.fresh(("two-slope", tuple(f1), tuple(f2))):
                return P(f1, ctx), P(f2, ctx)

    def rational_function(self, p, nonneg):
        rng = self.rng
        while True:
            if nonneg:
                j = rng.randint(0, 2)
                k = j + rng.randint(0, 2)
            else:
                k = rng.randint(0, 2)
                j = k + rng.randint(1, 2)
            num = [F(0)] * k + [F(c) for c in self.unit_poly(p, 2)]
            den = [F(0)] * j + [F(c) for c in self.unit_poly(p, 1)]
            if self.fresh(("x", p, tuple(num), tuple(den))):
                return num, den

    def unit_poly(self, p, max_deg):
        cs = self.rand_int_poly(p, max_deg, -5, 5)
        while cs[0] == 0:
            cs[0] = F(self.rng.randint(1, 5))
        return cs

    def verdict_round(self) -> Round:
        ops, plan = [], []
        rng = self.rng
        for key in CONSTRUCT_CLASSES:
            p, case, deg = key
            ops.append(Op(f"corollary_case{case}_deg{deg}", "corollary_isotropy",
                          (GAMMA[p], self.take(key), self.ctx[p]), {"seed": rng.randint(0, 10 ** 6)}))
            plan.append(("cor", len(ops) - 1))
        f1, f2 = self.two_slope()
        ops.append(Op("corollary_two_slope", "corollary_isotropy", (GAMMA[3], f1 * f2, self.ctx[3]),
                      {"seed": rng.randint(0, 10 ** 6), "factors": [f1, f2]}))
        plan.append(("cor", len(ops) - 1))
        for p, ctx in self.ctx.items():
            for nonneg in (True, False):
                num, den = self.rational_function(p, nonneg)
                x = pf.RationalFunction(P(num, ctx), P(den, ctx))
                ops.append(Op("predicate", "predicate_vt_nonneg", (x, ctx),
                              {"gamma": GAMMA[p], "seed": rng.randint(0, 10 ** 6)}))
                plan.append(("pred", len(ops) - 1, num, den))

        def check(results):
            problems = []
            for item in plan:
                r = results[item[1]]
                if item[0] == "cor":
                    problems += construction_problems(r)
                else:
                    problems += checks.check_predicate(r[0], item[2], item[3])
            return problems

        self.round_index += 1
        return Round(ops, check)

    def cli_round(self) -> list:
        rng = self.rng
        cmds = []
        for key in CLI_CLASSES:
            p, case, _ = key
            argv = cli_argv("construct-s", {"prime": p, "gamma": GAMMA[p],
                                            "seed": rng.randint(0, 10 ** 6)}, [self.take(key).to_text()])
            cmds.append(Cmd(f"construct-s-case{case}", argv, construct_doc_problems,
                            mutate=flip_symbol_condition))
        p = 2
        num, den = self.rational_function(p, rng.random() < 0.5)
        ctx = self.ctx[p]
        x = pf.RationalFunction(P(num, ctx), P(den, ctx))

        def chk(doc, num=num, den=den):
            return checks.check_predicate(doc["result"]["verdict"], num, den)
        cmds.append(Cmd("predicate", cli_argv("predicate", {"prime": p, "gamma": GAMMA[p]},
                                              [x.to_text()]), chk, exit_codes=(0, 1)))
        return cmds


def construction_problems(cor):
    res = cor.construction
    if res is None:
        return [] if cor.isotropic else ["degenerate input not isotropic"]
    conds = [(c.name, c.holds) for c in cor.conditions.conditions]
    if not (cor.milnor_first.isotropic and cor.milnor_second.isotropic):
        conds.append(("milnor residue analysis", False))
    return checks.check_construction(
        cor.isotropic, conds, res.params.epsilon, list(res.s_poly.coeffs),
        [list(sf.poly.coeffs) for sf in res.s_factors])


def construct_doc_problems(doc):
    if doc["result"].get("isotropic") is not True:
        return ["construct-s certificate does not claim isotropy"]
    return []


def flip_symbol_condition(doc):
    """A copy of a construct-s certificate with one symbol value flipped."""
    bad = copy.deepcopy(doc)
    for a in bad["assertions"]:
        if a["kind"] == "symbol-condition":
            a["lhs"] = -a["lhs"]
            return bad
    raise RuntimeError("certificate has no symbol-condition assertion")


# ---------------------------------------------------------------------------
# lifting
# ---------------------------------------------------------------------------

LIFT_FIELDS = [(3, [1, 0, 1], 1), (5, [-2, 0, 1], 1), (2, [-2, 0, 1], 2)]  # (p, minimal poly, e)
# A round's calls fall in three cost clusters: Hensel lifts over Q_p and
# elliptic points (fast), 160-digit slopes and 256-digit lifts over K, and
# 640-digit slopes and 1024-digit lifts over K (slow).  8 fast calls out
# of 20 put the median inside the middle cluster, not at a gap between two.
ELLIPTIC_PRIMES = (3, 5)


class Lifting(Workload):
    """Slope factorization, Hensel lifting and elliptic constant points."""

    name = "lifting"
    verdict_rounds = 2

    def setup(self):
        self.ctx = {p: pf.PadicContext(p, precision_digits=1024) for p in (2, 3, 5, 7)}
        self.fields = []
        for p, m, e in LIFT_FIELDS:
            K = pf.LocalField(P(m, self.ctx[p]), self.ctx[p])
            if K.ramification_index != e:
                raise RuntimeError(f"unexpected ramification for {m} at p = {p}")
            self.fields.append((K, p, [F(c) for c in m], e))
        self.warm_up()

    def multi_slope_quartic(self, p):
        rng = self.rng
        while True:
            cs = [F(rng.choice([1, -1]) * rng.randint(1, 9) * p ** rng.randint(0, 4))
                  for _ in range(4)] + [F(1)]
            if len(checks.newton_slopes(cs, p)) >= 2 and self.fresh(("quartic", p, tuple(cs))):
                return cs

    def quadratic_with_root(self, p):
        """(x - a)(x - b) + p^j d with a, b distinct mod p: a lifts."""
        rng = self.rng
        while True:
            a = rng.randint(-20, 20)
            b = a + rng.choice([k for k in range(1, 2 * p) if k % p])
            d = rng.choice([1, -1]) * rng.randint(1, 30)
            cs = [F(a * b + p ** rng.randint(1, 3) * d), F(-(a + b)), F(1)]
            if self.fresh(("quad", p, tuple(cs))):
                return cs, a

    def field_quadratic(self, K, p):
        rng = self.rng
        while True:
            # a - b = -1 + c alpha is a unit: c is a multiple of p when alpha is
            a = [rng.randint(-5, 5), rng.randint(-5, 5)]
            b = [a[0] + 1, a[1] + rng.randint(-5, 5) * (p if K.ramification_index == 1 else 1)]
            d = [rng.randint(1, 5), rng.randint(-5, 5)]
            if self.fresh(("kquad", p, tuple(a), tuple(b), tuple(d))):
                return a, b, d

    def verdict_round(self) -> Round:
        ops, plan = [], []
        rng = self.rng
        for p in (2, 3, 5):
            ctx = self.ctx[p]
            for digits in (160, 640):
                cs = self.multi_slope_quartic(p)
                ops.append(Op(f"slopes_{digits}", "slope_factorization", (P(cs, ctx), digits)))
                plan.append(("slopes", len(ops) - 1, cs, p, digits))
            for digits in (256, 1024):
                cs, a = self.quadratic_with_root(p)
                ops.append(Op(f"hensel_qp_{digits}", "hensel_lift", (P(cs, ctx), F(a), digits)))
                plan.append(("hensel", len(ops) - 1, cs, p, digits))
        # a ninth fast call puts the median at the middle 160-digit factorization
        cs, a = self.quadratic_with_root(7)
        ops.append(Op("hensel_qp_256", "hensel_lift", (P(cs, self.ctx[7]), F(a), 256)))
        plan.append(("hensel", len(ops) - 1, cs, 7, 256))
        for K, p, m, e in self.fields:
            for digits in (256, 1024):
                a, b, d = self.field_quadratic(K, p)
                ea, eb, ed = K.element(a), K.element(b), K.element(d)
                coeffs = [ea * eb + ed * p, -(ea + eb), K.one]
                f = pf.PadicPolynomial(coeffs, K)
                ops.append(Op(f"hensel_ext_{digits}", "hensel_lift", (f, ea, digits)))
                plan.append(("hensel_k", len(ops) - 1, [list(c.coeffs) for c in coeffs], (m, p, e),
                             digits))
        for p in ELLIPTIC_PRIMES:
            while True:
                y = F(p ** rng.randint(1, 2) * rng.choice([1, -1]) * rng.randint(1, 400))
                if self.fresh(("y", p, y)):
                    break
            ops.append(Op("elliptic", "elliptic_constant_point", (y, self.ctx[p], 256)))
            plan.append(("elliptic", len(ops) - 1, y, p, 256))

        def check(results):
            problems = []
            for kind, i, data, p, digits in plan:
                r = results[i]
                if kind == "slopes":
                    problems += slope_problems(data, r.unit, [list(f.poly.coeffs) for f in r.factors],
                                               p, digits)
                elif kind == "hensel":
                    problems += checks.check_root(data, r.approximate_root, p, digits)
                elif kind == "hensel_k":
                    m, q, e = p
                    problems += checks.check_root_in_field(data, r.approximate_root, m, q, e, digits)
                else:
                    problems += checks.check_elliptic(r[0], data, p, digits)
            return problems

        self.round_index += 1
        return Round(ops, check)

    def cli_round(self) -> list:
        rng = self.rng
        cmds = []
        for digits, p in ((160, 3), (640, 2)):
            cs = self.multi_slope_quartic(p)

            def chk(doc, cs=cs, p=p, digits=digits):
                res = doc["result"]
                factors = [checks.parse_poly_text(f["poly"]) for f in res["factors"]]
                unit = checks.parse_rational(res["unit"])
                return slope_problems(cs, unit, factors, p, digits)
            argv = cli_argv("slopes", {"prime": p, "digits": digits},
                            [P(cs, self.ctx[p]).to_text()])
            cmds.append(Cmd(f"slopes_{digits}", argv, chk))
        p = 5
        while True:
            y = F(p ** rng.randint(1, 2) * rng.choice([1, -1]) * rng.randint(1, 400))
            if self.fresh(("y", p, y)):
                break

        def chk(doc, y=y, p=p):
            x = checks.parse_rational(doc["result"]["x"])
            return checks.check_elliptic(x, y, p, 256)
        argv = cli_argv("elliptic-point", {"prime": p, "digits": 256, "precision": 256},
                        [f"{y.numerator}/{y.denominator}"])
        cmds.append(Cmd("elliptic-point", argv, chk))
        return cmds


def slope_problems(f, unit, factors, p, digits):
    problems = checks.check_slope_product(f, unit, factors, p, digits)
    if len(factors) != len(checks.newton_slopes(f, p)):
        problems.append(f"{len(factors)} factors for {len(checks.newton_slopes(f, p))} slopes")
    return problems


WORKLOADS = {w.name: w for w in (Symbols, Squares, Construct, Lifting)}
