#!/usr/bin/env python3
"""Reference figures: the ROADMAP baseline table and a sweep over p, n and digits.

    python3 perfbench/sweep.py

Run from the root of a checkout.  Every case runs in a fresh interpreter
under a time limit of LIMIT_S seconds; a case that runs out is recorded as ``timeout``, not
dropped.  A case's figure is the median of up to three calls made after
one untimed call (a single call when that first call takes over 1 s).
Results go to ``perfbench/results/sweep.json`` and a markdown table is
printed.  These figures are for reference; the gated numbers come from
``run.py``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from fractions import Fraction as F  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SWEEP_PRIMES = (3, 7, 11, 31, 101, 10007)
SWEEP_DEGREES = (2, 3, 4, 6)
SWEEP_DIGITS = (40, 160, 640, 1024)
LIMIT_S = 5


# ---------------------------------------------------------------------------
# cases: (group, label, kind, params); kinds are run by run_case in a child
# ---------------------------------------------------------------------------


def baseline_cases():
    c = []
    c.append(("baseline", "hilbert_symbol_qp, p = 3", "hilbert_qp", {"p": 3}))
    for p in (101, 10007, 1000003):
        c.append(("baseline", f"is_square_rational, p = {p}", "is_square_qp", {"p": p}))
    c.append(("baseline", "LocalField(t^2-3) construction", "field", {"p": 3, "m": [-3, 0, 1]}))
    c.append(("baseline", "legendre_symbol, degree-2 modulus", "legendre", {"p": 3, "m": [1, 0, 1]}))
    c.append(("baseline", "legendre_symbol, degree-4 modulus", "legendre", {"p": 3, "m": [2, 1, 0, 0, 1]}))
    c.append(("baseline", "extension is_square, unramified, p = 7, n = 3", "is_square_ext",
              {"p": 7, "m": [1, 1, 0, 1]}))
    c.append(("baseline", "extension is_square, p = 3, n = 6", "is_square_ext", {"p": 3, "n": 6}))
    c.append(("baseline", "extension is_square, p = 5, n = 4", "is_square_ext", {"p": 5, "n": 4}))
    c.append(("baseline", "extension Hilbert symbol, two irrational, p = 2, t^4-2", "hilbert_ext",
              {"p": 2, "m": [-2, 0, 0, 0, 1]}))
    for d in (64, 256, 1024):
        c.append(("baseline", f"hensel_lift, cubic, {d} digits", "hensel_cubic", {"p": 3, "digits": d}))
    for d in (40, 160, 640):
        c.append(("baseline", f"slope_factorization, quartic, {d} digits", "slopes", {"p": 3, "digits": d}))
    for p in (3, 11, 31):
        c.append(("baseline", f"isotropic_by_search, 4-dim, p = {p}", "oracle", {"p": p}))
    c.append(("baseline", "CLI hilbert --prime 101 3 5", "cli", {"argv": ["hilbert", "--prime", "101", "3", "5"]}))
    c.append(("baseline", "CLI isotropy --prime 101 1,-2,-3,101", "cli",
              {"argv": ["isotropy", "--prime", "101", "1,-2,-3,101"]}))
    c.append(("baseline", "CLI symbol --json", "cli",
              {"argv": ["symbol", "--prime", "3", "t - 1", "t - 3", "--json"]}))
    c.append(("baseline", "CLI construct-s --json", "cli",
              {"argv": ["construct-s", "--prime", "3", "--gamma", "2", "t^2 - 3", "--json"]}))
    return c


def sweep_cases():
    c = []
    for p in SWEEP_PRIMES:
        c.append(("sweep", f"is_square_rational, p = {p}", "is_square_qp", {"p": p}))
        c.append(("sweep", f"isotropic_by_search, 4-dim, p = {p}", "oracle", {"p": p}))
        for n in SWEEP_DEGREES:
            c.append(("sweep", f"legendre_symbol, unramified n = {n}, p = {p}", "legendre", {"p": p, "n": n}))
            c.append(("sweep", f"extension is_square, unramified n = {n}, p = {p}", "is_square_ext",
                      {"p": p, "n": n}))
            c.append(("sweep", f"extension Hilbert symbol, two irrational, n = {n}, p = {p}",
                      "hilbert_ext", {"p": p, "n": n}))
        for d in SWEEP_DIGITS:
            c.append(("sweep", f"hensel_lift, quadratic, {d} digits, p = {p}", "hensel_quadratic",
                      {"p": p, "digits": d}))
            c.append(("sweep", f"hensel_lift, cubic, {d} digits, p = {p}", "hensel_cubic", {"p": p, "digits": d}))
            c.append(("sweep", f"slope_factorization, quartic, {d} digits, p = {p}", "slopes",
                      {"p": p, "digits": d}))
    return c


# ---------------------------------------------------------------------------
# the child side
# ---------------------------------------------------------------------------


def unramified_modulus(p, n):
    """The first t^n + a t + b (0 <= a, b < p, b != 0) irreducible mod p."""
    from padicforms.newton import FiniteFieldPoly, finite_field_irreducible

    for b in range(1, p):
        for a in range(p):
            coeffs = [b, a] + [0] * (n - 2) + [1]
            if finite_field_irreducible(FiniteFieldPoly(coeffs, p)):
                return coeffs
    raise RuntimeError(f"no irreducible t^{n} + a t + b mod {p}")


def prepare_case(kind, prm):
    """Build the inputs untimed; return the call to time."""
    import padicforms as pf
    from padicforms.oracles import isotropic_by_search

    if kind == "cli":
        env = dict(os.environ, PYTHONPATH=str(SRC))
        return lambda: subprocess.run([sys.executable, "-m", "padicforms.cli", *prm["argv"]],
                                      capture_output=True, cwd=ROOT, env=env)
    p = prm["p"]
    ctx = pf.PadicContext(p, precision_digits=max(64, prm.get("digits", 0)))

    def poly(cs):
        return pf.PadicPolynomial.from_rationals([F(x) for x in cs], ctx)

    nonresidue = ctx.least_nonresidue() if p != 2 else 5
    if kind == "hilbert_qp":
        return lambda: pf.hilbert_symbol_qp(F(6), F(15), ctx)
    if kind == "is_square_qp":
        return lambda: pf.is_square_rational(F(nonresidue), ctx)
    if kind == "oracle":
        return lambda: isotropic_by_search([F(1), F(-nonresidue), F(-p), F(nonresidue * p)], ctx)
    m = prm.get("m") or unramified_modulus(p, prm.get("n", 2))
    if kind == "field":
        return lambda: pf.LocalField(poly(m), ctx)
    if kind == "legendre":
        return lambda: pf.legendre_symbol(poly([1, 1, 2]), poly(m), ctx)
    if kind in ("is_square_ext", "hilbert_ext"):
        K = pf.LocalField(poly(m), ctx)
        if kind == "hilbert_ext":
            a, b = K.element([1, 1]), K.element([nonresidue, 0, 1] if K.degree > 2 else [nonresidue, 1])
            return lambda: pf.hilbert_symbol(a, b)
        # a non-square unit walks the whole lattice.  For unramified K and odd
        # p, a unit is a square exactly when its norm is a square mod p.
        for c in range(1, p):
            u = K.element([c, 1])
            norm = u.norm()
            if ctx.vp(norm) == 0 and not pf.is_square_rational(norm, ctx):
                break
        return lambda: pf.is_square(u)
    digits = prm["digits"]
    if kind == "hensel_quadratic":
        f = poly([2 + p, -3, 1])  # (x - 1)(x - 2) + p
        return lambda: pf.hensel_lift(f, F(1), digits)
    if kind == "hensel_cubic":
        f = poly([-6 + p, 11, -6, 1])  # (x - 1)(x - 2)(x - 3) + p
        return lambda: pf.hensel_lift(f, F(1), digits)
    if kind == "slopes":
        f = poly([p ** 3, p, -p, 1, 1])
        return lambda: pf.slope_factorization(f, digits)
    raise ValueError(kind)


def run_case(kind, prm):
    sys.path.insert(0, str(SRC))
    fn = prepare_case(kind, prm)
    t0 = time.perf_counter()
    fn()
    first = time.perf_counter() - t0
    if first > 1.0:
        return first * 1e3
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


# ---------------------------------------------------------------------------
# the parent side
# ---------------------------------------------------------------------------


def measure(case, limit):
    """Run one case in a fresh interpreter; on timeout, kill it and its children."""
    group, label, kind, prm = case
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--case", json.dumps([kind, prm])],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return "timeout"
    if proc.returncode != 0:
        return "error: " + err.strip().splitlines()[-1][:120]
    return float(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--case", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.case:
        kind, prm = json.loads(args.case)
        print(run_case(kind, prm))
        return 0
    if not (SRC / "padicforms" / "__init__.py").is_file():
        print(f"error: no library at {SRC / 'padicforms'}", file=sys.stderr)
        return 2
    rows = []
    print("| group | case | ms |\n| --- | --- | --- |")
    for case in baseline_cases() + sweep_cases():
        value = measure(case, LIMIT_S)
        rows.append({"group": case[0], "case": case[1], "ms": value})
        shown = f"{value:.3g}" if isinstance(value, float) else value
        print(f"| {case[0]} | {case[1]} | {shown} |", flush=True)
    out = HERE / "results" / "sweep.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "python": platform.python_version(),
        "machine": platform.machine(),
        "limit_s": LIMIT_S,
        "rows": rows,
    }, indent=1) + "\n")
    print(f"written to {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
