"""Command-line interface.

Subcommands cover every public operation; all take --prime, --precision,
--uniformizer and --json, and the seeded ones (construct-s, predicate,
corpus) take --seed, which their certificates record.  Exit codes: 0 for
success and true verdicts, 1 for false verdicts, 2 for usage or
computation errors, internal faults included.  With --json the output is
a certificate document (schema padic-forms/1) whose assertions, each
written by its kind's builder (``certificates.assertion``), construct-s's
at the inputs ``certificates.construct_s_inputs`` lists, re-verify through
the ``verify`` subcommand; identical arguments and seed produce
byte-identical JSON.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

import padicforms

from . import certificates as cert
from .errors import PadicFormsError, ParseError, PreconditionFailed
from .padics import PadicContext
from .parsing import LAWS, parse_poly, parse_rational_function, parse_rational_scalar
from .polynomials import RationalFunction


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads a leading minus sign as part of a value.

    "-1/t" and "-t^2+1" are polynomials, not options: a token that starts
    with a single "-" and does not begin with one of the parser's own short
    options (-p, -h) is a positional argument.
    """

    def _parse_optional(self, arg_string):
        if arg_string[:1] == "-" and arg_string[1:2] != "-" and (
                arg_string[:2] not in self._option_string_actions):
            return None
        return super()._parse_optional(arg_string)


def _context(args) -> PadicContext:
    try:
        uniformizer = None if args.uniformizer is None else Fraction(args.uniformizer)
    except ZeroDivisionError:
        raise PreconditionFailed(f"uniformizer {args.uniformizer!r} has a zero denominator") from None
    return PadicContext(args.prime, args.precision, uniformizer)


def _common(sub):
    sub.add_argument("--prime", "-p", type=int, required=True, help="residue prime p")
    sub.add_argument("--precision", type=int, default=64, help="digit cap (default 64)")
    sub.add_argument("--uniformizer", type=str, default=None, help="uniformizer (default p)")
    sub.add_argument("--json", action="store_true", help="emit a JSON certificate")


def _seeded(sub):
    sub.add_argument("--seed", type=int, default=0, help="seed for randomized searches")


def _write(args, doc, human_lines):
    """Print the certificate document, or the human-readable lines."""
    sys.stdout.write(cert.dump_certificate(doc) if args.json else "".join(f"{line}\n" for line in human_lines))


def _emit(args, command, ctx, assertions, human_lines, seed=None, **given):
    """Print the certificate, whose result the assertions give, or the human-readable lines."""
    _write(args, cert.make_certificate(command, ctx, assertions, seed=seed, **given), human_lines)


def _cmd_newton(args):
    ctx = _context(args)
    claim = cert.assertion("newton-polygon", ctx, poly=parse_poly(args.poly, ctx).to_text())
    vertices = [(i, cert.parse_rat(v)) for i, v in claim["vertices"]]
    human = [f"Newton polygon of {claim['poly']} over Q_{ctx.p}:"]
    human += [f"  vertex at degree {i}, height {v}" for i, v in vertices]
    human += [f"  edge of slope {cert.parse_rat(m)}, length {j - i}"
              for m, (i, _), (j, _) in zip(claim["slopes"], vertices, vertices[1:])]
    _emit(args, "newton", ctx, [claim], human)
    return 0


def _cmd_slopes(args):
    ctx = _context(args)
    poly = parse_poly(args.poly, ctx)
    fac = padicforms.newton.slope_factorization(poly, args.digits)
    claim = cert.assertion("slope-factorization", ctx, poly=poly.to_text(), unit=cert.rat_str(fac.unit),
                           digits=args.digits, factors=[[f.poly.to_text(), cert.rat_str(f.slope)] for f in fac.factors])
    human = [f"slope factorization of {claim['poly']} (residual digits > {args.digits}):"]
    human += [f"  slope {cert.parse_rat(slope)}: {text}" for text, slope in claim["factors"]]
    _emit(args, "slopes", ctx, [claim], human)
    return 0


def _cmd_squareclass(args):
    ctx = _context(args)
    x = parse_rational_scalar(args.value, ctx)
    claim = cert.assertion("square-class", ctx, x=cert.rat_str(x))
    rep = cert.parse_rat(claim["representative"])
    _emit(args, "squareclass", ctx, [claim], [f"square class of {x} in Q_{ctx.p}: {rep}"])
    return 0


def _cmd_hilbert(args):
    ctx = _context(args)
    a = parse_rational_scalar(args.a, ctx)
    b = parse_rational_scalar(args.b, ctx)
    claim = cert.assertion("hilbert-base", ctx, a=cert.rat_str(a), b=cert.rat_str(b))
    value = claim["value"]
    if padicforms.oracles.within_budget(ctx):
        oracle = padicforms.oracles.hilbert_by_search(a, b, ctx)
        if value != oracle:
            raise PadicFormsError(f"formula {value} disagrees with search oracle {oracle}")
    _emit(args, "hilbert", ctx, [claim], [f"({a}, {b})_{ctx.p} = {value:+d}"])
    return 0


def _cmd_symbol(args):
    ctx = _context(args)
    p, q = (parse_poly(text, ctx).to_text() for text in (args.p, args.q))
    claims = [cert.assertion("legendre", ctx, p=p, q=q), cert.assertion("irreducible-certified", ctx, poly=q),
              cert.assertion("coprime", ctx, f=p, g=q)]
    _emit(args, "symbol", ctx, claims, [f"<{p} / {q}> = {claims[0]['value']:+d}"])
    return 0


def _law_command(args, command, law, *names):
    """The law's polynomials are parsed in the order given and recorded in canonical text."""
    ctx = _context(args)
    claim = cert.assertion("law", ctx, law=law, inputs={n: parse_poly(getattr(args, n), ctx).to_text() for n in names})
    holds = claim["holds"]
    _emit(args, command, ctx, [claim], [f"{law}: {'holds' if holds else 'FAILS'}", f"  values: {claim['values']}"])
    return 0 if holds else 1


def _cmd_check_mult(args):
    return _law_command(args, "check-mult", "multiplicativity", "p", "r", "q")


def _cmd_check_recip(args):
    return _law_command(args, "check-recip", "reciprocity", "p", "q")


def _cmd_isotropy(args):
    """The certificate's result runs the residue-search cross-check within the budget."""
    ctx = _context(args)
    entries = [cert.rat_str(parse_rational_scalar(e, ctx)) for e in args.entries.split(",")]
    claim = cert.assertion("isotropy-local", ctx, entries=entries)
    verdict = claim["isotropic"]
    text = "isotropic" if verdict else "anisotropic"
    _emit(args, "isotropy", ctx, [claim], [f"<{args.entries}> over Q_{ctx.p}: {text}"])
    return 0 if verdict else 1


def _cmd_construct_s(args):
    """The construction alone writes the certificate; the human lines and the exit code read its result."""
    ctx = _context(args)
    g = parse_poly(args.g, ctx)
    gamma = parse_rational_scalar(args.gamma, ctx)
    factors = None
    if args.factors:
        factors = [parse_poly(t, ctx) for t in args.factors.split(";")]
    construct, assertions, samples = padicforms.construct, [], None
    g0 = g.squarefree_odd_part() if g.degree > 0 else None
    if construct.degenerate_note(gamma, g, ctx, g0) is None:
        res = construct.construct_s(construct.prepare(gamma, g, ctx, factors=factors, g0=g0), args.seed)
        samples = res.metrics["samples"]
        identities = [{**{n: getattr(trace, n).to_text() for n in "abqrch"}, "e": trace.e,
                       "pi_exponent": int(trace.slope * trace.e)} for trace in res.traces.values()]
        inputs, _ = cert.construct_s_inputs(gamma, g, res.params.epsilon, res.factor_blocks, ctx, identities)
        assertions = [cert.assertion(kind, ctx, **x) for kind, x in inputs]
    doc = cert.make_certificate("construct-s", ctx, assertions, seed=args.seed,
                                gamma=cert.rat_str(gamma), g=g.to_text(), samples=samples)
    result = doc["result"]
    human = [f"gamma = {gamma}, g = {result['g']}: {result['note']}"]
    if assertions:
        conditions = [a for a in assertions if a["kind"] == "symbol-condition"]
        human += [f"s = {result['s']}", f"metrics: {result['metrics']}",
                  f"conditions verified: {len(conditions)}, all hold: {all(a['holds'] for a in conditions)}"]
    _write(args, doc, human)
    return 0 if result["isotropic"] else 1


def _cmd_predicate(args):
    ctx = _context(args)
    x = parse_rational_function(args.x, ctx)
    gamma = parse_rational_scalar(args.gamma, ctx) if args.gamma else None
    verdict, pcert = padicforms.h10.predicate_vt_nonneg(x, ctx, gamma=gamma, seed=args.seed)
    gamma = cert.rat_str(pcert.gamma)
    claims = [cert.assertion("gamma-valid", ctx, gamma=gamma)]
    human = [f"v_t({x.to_text()}) >= 0: {verdict}"]
    if verdict:
        claims.append(cert.assertion("predicate-witness", ctx, x=x.to_text(), c=cert.rat_str(pcert.witness.c)))
        human.append(f"witness c = {pcert.witness.c}; all polygon vertices even")
    else:
        h = pcert.report
        claims.append(cert.assertion("anisotropy-at-t", ctx, f=RationalFunction(h.h_num, h.h_den).to_text(),
                                     gamma=gamma))
        human.append(f"form {claims[1]['anisotropic_form']} anisotropic at t for every c")
    _emit(args, "predicate", ctx, claims, human, seed=args.seed, x=x.to_text())
    return 0 if verdict else 1


def _cmd_elliptic(args):
    ctx = _context(args)
    y = parse_rational_scalar(args.y, ctx)
    x, witness = padicforms.h10.elliptic_constant_point(y, ctx, args.digits)
    root = cert.rat_str(Fraction(x))
    claims = [cert.assertion("elliptic-point", ctx, y=cert.rat_str(y), x=root, digits=witness.digits),
              cert.assertion("hensel", ctx, poly=padicforms.h10.elliptic_cubic(y, ctx).to_text(), start="0/1",
                             root=root, digits=witness.digits)]
    _emit(args, "elliptic-point", ctx, claims, [f"x = {x} (mod p^{witness.digits + 1}) solves x^3 - x = {y}^2"])
    return 0


def _cmd_corpus(args):
    ctx = _context(args)
    claim = cert.assertion("law-corpus", ctx, law=args.law, cases=args.cases, seed=args.seed)
    summary = cert.corpus_summary(ctx, args.law, args.cases, args.seed)
    human = [f"{args.law} corpus over Q_{ctx.p}, seed {args.seed}: {claim['passes']}/{summary['cases']} passed"]
    human += [f"  failure: {f}" for f in summary["failures"][:5]]
    _emit(args, "corpus", ctx, [claim], human, seed=args.seed)
    return 0 if claim["passes"] == summary["cases"] else 1


def _cmd_verify(args):
    try:
        ok, problems = cert.verify_certificate_file(args.file)
    except OSError as exc:  # no document to reject: an input error, as a bad argument is
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if ok:
        print(f"{args.file}: certificate verifies")
        return 0
    print(f"{args.file}: certificate REJECTED", file=sys.stderr)
    for p in problems:
        print(f"  {p}", file=sys.stderr)
    return 1


def _command(sub, name, fn, help, *positionals):
    """A subcommand with the common options and plain positional arguments."""
    s = sub.add_parser(name, help=help)
    _common(s)
    for arg in positionals:
        s.add_argument(arg)
    s.set_defaults(fn=fn)
    return s


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="padicforms",
        description="Exact p-adic quadratic form and reciprocity computations",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    _command(sub, "newton", _cmd_newton, "Newton polygon of a polynomial", "poly")
    s = _command(sub, "slopes", _cmd_slopes, "factorization according to the slopes", "poly")
    s.add_argument("--digits", type=int, default=40)
    _command(sub, "squareclass", _cmd_squareclass, "canonical square-class representative", "value")
    _command(sub, "hilbert", _cmd_hilbert, "Hilbert symbol (a, b) over Q_p", "a", "b")
    _command(sub, "symbol", _cmd_symbol, "the polynomial Legendre symbol <p/q>", "p", "q")
    _command(sub, "check-mult", _cmd_check_mult, "verify <pr/q> = <p/q><r/q>", "p", "r", "q")
    _command(sub, "check-recip", _cmd_check_recip, "verify the reciprocity law", "p", "q")

    s = _command(sub, "isotropy", _cmd_isotropy, "isotropy of a diagonal form over Q_p")
    s.add_argument("entries", help="comma-separated nonzero rationals")

    s = _command(sub, "construct-s", _cmd_construct_s, "build s and certify both Pfister forms", "g")
    s.add_argument("--gamma", required=True)
    s.add_argument("--factors", help="semicolon-separated monic irreducible factors of g")
    _seeded(s)

    s = _command(sub, "predicate", _cmd_predicate, "decide v_t(x) >= 0 with certificate")
    s.add_argument("x", help="rational function in t, e.g. '1/t' or '(t+1)/(t^2-3)'")
    s.add_argument("--gamma", help="constant with i2(gamma) = -1"
                   " (default: 5 at p = 2, else the least nonresidue mod p)")
    _seeded(s)

    s = _command(sub, "elliptic-point", _cmd_elliptic, "solve x^3 - x = y^2 by Hensel lifting", "y")
    s.add_argument("--digits", type=int, default=None)

    s = _command(sub, "corpus", _cmd_corpus, "run a seeded property corpus")
    s.add_argument("law", choices=[*LAWS, "predicate"])
    s.add_argument("--cases", type=int, default=100)
    _seeded(s)

    s = sub.add_parser("verify", help="re-verify a JSON certificate file")
    s.add_argument("file")
    s.set_defaults(fn=_cmd_verify)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error at offset {exc.position}: {exc}", file=sys.stderr)
        return 2
    except (PadicFormsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # an internal fault is not a verdict: never exit 1
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
