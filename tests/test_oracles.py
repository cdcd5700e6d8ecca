"""The residue-search oracle, its witness checker and the Q_p and Q_p[t] commands against perfbench/checks.py.

``checks.py`` is the benchmark's independent arithmetic: it imports nothing
from padicforms, decides the Hilbert symbol by its own residue search,
4-dimensional isotropy through the quaternion norm form, and Newton slopes
by its own lower hull.  It is loaded by
path, so the test needs no package layout under ``perfbench/``.
"""

import importlib.util
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from padicforms import PadicContext, oracles
from padicforms.certificates import verify_certificate
from padicforms.cli import main
from padicforms.errors import ConditionFailed
from padicforms.oracles import checked_witness, conclusive_exponent, hilbert_by_search, isotropic_by_search

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_checks", Path(__file__).resolve().parent.parent / "perfbench" / "checks.py")
checks = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(checks)

PRIMES = (2, 3, 5, 7)


def random_entry(rng, p):
    """A nonzero rational of p-adic valuation -2..2 with a random unit part."""
    u, w = rng.choice((1, -1)) * rng.randint(1, 60), rng.randint(1, 30)
    u, w = (u + 1 if u % p == 0 else u), (w + 1 if w % p == 0 else w)
    return Fraction(u, w) * Fraction(p) ** rng.randint(-2, 2)


def witness_problems(entries, witness, p):
    """What is wrong with a positive verdict's witness, by checks.py's arithmetic."""
    q = p ** witness["modulus_exponent"]
    norm = [int(a) for a in witness["normalized_entries"]]
    xs = witness["solution"]
    if witness["modulus_exponent"] != checks.vp(4, p) + 3:
        return [f"modulus exponent {witness['modulus_exponent']} is not v(4) + 3"]
    if type(xs) is not list or len(xs) != len(entries) or any(type(x) is not int or not 0 <= x < q for x in xs):
        return [f"{xs!r} is not {len(entries)} residues modulo {q}"]
    problems = [f"{n} is not in the square class of {e}" for e, n in zip(entries, norm)
                if checks.vp(n, p) not in (0, 1) or not checks.is_square_qp(e * n, p)]
    value = sum(a * x * x for a, x in zip(norm, xs))
    if value % q or all(x % p == 0 for x in xs):
        problems.append(f"{xs} is not a primitive zero modulo {q}")
    k = witness["slack_coordinate"]
    res_v = checks.vp(value, p)
    if k is None or xs[k] % p == 0:
        problems.append(f"slack coordinate {k} is not a unit coordinate of {xs}")
    elif res_v is not None and not res_v > 2 * checks.vp(2 * norm[k] * xs[k], p):
        problems.append(f"coordinate {k} has no Hensel slack: v(value) = {res_v}")
    if witness["residual_valuation"] != ("inf" if res_v is None else str(res_v)):
        problems.append(f"residual valuation {witness['residual_valuation']}, expected {res_v}")
    return problems


@pytest.mark.parametrize("p", PRIMES)
def test_conic_against_checks_hilbert_search(p):
    """<a, b, -1> is isotropic exactly when checks.py's search gives (a, b) = +1."""
    rng, ctx = random.Random(2400 + p), PadicContext(p)
    for _ in range(40):
        a, b = random_entry(rng, p), random_entry(rng, p)
        want = checks.hilbert_search(a, b, p)
        verdict, witness = isotropic_by_search([a, b, Fraction(-1)], ctx)
        assert verdict == (want == 1) and hilbert_by_search(a, b, ctx) == want, (p, a, b)
        if verdict:
            assert witness["modulus_exponent"] == conclusive_exponent(ctx)
            assert witness_problems([a, b, Fraction(-1)], witness, p) == [], (p, a, b)
        else:
            assert witness is None


@pytest.mark.parametrize("p", PRIMES)
def test_four_dimensional_forms_against_checks(p):
    rng, ctx = random.Random(2410 + p), PadicContext(p)
    verdicts = set()
    for _ in range(40):
        entries = [random_entry(rng, p) for _ in range(4)]
        if rng.random() < 0.5:  # a square discriminant, so anisotropic forms turn up
            entries[3] = entries[0] * entries[1] * entries[2] * rng.choice((1, 4, 9, 25, 49))
        verdict, witness = isotropic_by_search(entries, ctx)
        assert verdict == checks.isotropic_4(entries, p), (p, entries)
        if verdict:
            assert witness_problems(entries, witness, p) == [], (p, entries)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def certified(capsys, command, p, *values):
    """The result block of ``command --json`` at p, and its exit code."""
    code = main([command, "--prime", str(p), "--json", "--", *values])
    return code, json.loads(capsys.readouterr().out)["result"]


@pytest.mark.parametrize("p", PRIMES)
def test_qp_commands_against_checks(capsys, p):
    """hilbert, isotropy and squareclass certify what checks.py computes."""
    rng = random.Random(2420 + p)
    for _ in range(8):
        a, b = random_entry(rng, p), random_entry(rng, p)
        code, result = certified(capsys, "hilbert", p, str(a), str(b))
        assert code == 0 and result["value"] == result["oracle"] == checks.hilbert_search(a, b, p), (p, a, b)

        entries = [random_entry(rng, p) for _ in range(3)]
        entries.append(entries[0] * entries[1] * entries[2] * rng.choice((1, 2, 3)))
        code, result = certified(capsys, "isotropy", p, ",".join(map(str, entries)))
        want = checks.isotropic_4(entries, p)
        assert code == (0 if want else 1) and result["isotropic"] == want, (p, entries)
        if want:
            assert witness_problems(entries, result["oracle_witness"], p) == [], (p, entries)

        code, result = certified(capsys, "squareclass", p, str(a))
        representative = Fraction(result["representative"])
        assert code == 0 and checks.is_square_qp(a * representative, p), (p, a, representative)


def random_poly_text(rng, p):
    """A polynomial of degree 1-5 whose nonzero coefficients have p-adic valuation 0-4."""
    terms = []
    for i in range(rng.randint(1, 5), -1, -1):
        if i and rng.random() < 0.25 and terms:
            continue
        c = rng.randint(1, 40) * p ** rng.randint(0, 4)
        terms.append(f"{rng.choice('+-')} {c}*t^{i}")
    return " ".join(terms)


@pytest.mark.parametrize("p", PRIMES)
def test_qp_t_commands_against_checks(capsys, p):
    """newton's edges and slopes's factors have the slopes checks.py finds, one each.

    Each slopes factor has, by checks.py's hull, the one slope it records, and the
    factors' degrees add up to the polynomial's.
    """
    rng = random.Random(2430 + p)
    for _ in range(20):
        text = random_poly_text(rng, p)
        coeffs = checks.parse_poly_text(text)
        want = checks.newton_slopes(coeffs, p)
        code, result = certified(capsys, "newton", p, text)
        assert code == 0 and [Fraction(e["slope"]) for e in result["edges"]] == want, (p, text)

        code = main(["slopes", "--prime", str(p), "--json", "--digits", "20", "--", text])
        factors = json.loads(capsys.readouterr().out)["result"]["factors"]
        slopes = [Fraction(f["slope"]) for f in factors]
        assert code == 0 and sorted(slopes) == want, (p, text)
        for f, slope in zip(factors, slopes):
            assert checks.newton_slopes(checks.parse_poly_text(f["poly"]), p) == [slope], (p, text, f)
        assert sum(f["degree"] for f in factors) == len(coeffs) - 1, (p, text)


def solutions(witness, p):
    """The search's solution, itself with one unit coordinate x replaced by q - x, and corrupted copies."""
    q = p ** witness["modulus_exponent"]
    xs = witness["solution"]
    k = next(i for i, x in enumerate(xs) if x % p)
    yield xs
    yield xs[:k] + [q - xs[k]] + xs[k + 1:]
    for j in range(len(xs)):
        yield xs[:j] + [(xs[j] + 1) % q] + xs[j + 1:]
        yield xs[:j] + [xs[j] + q] + xs[j + 1:]
    yield [x * p % q for x in xs]
    yield [True] + xs[1:]
    yield xs[:-1]


def accepted_by_checks(entries, witness, xs, p):
    """Is xs, in place of the witness's solution, a zero that checks.py finds no problem with at some coordinate?"""
    v = checks.vp(sum(int(a) * x * x for a, x in zip(witness["normalized_entries"], xs)), p)
    return any(witness_problems(entries, {**witness, "solution": xs, "slack_coordinate": k,
                                          "residual_valuation": "inf" if v is None else str(v)}, p) == []
               for k in range(len(entries)))


@pytest.mark.parametrize("p", PRIMES)
def test_checked_witness_against_checks(p):
    """checked_witness accepts exactly the solutions in which checks.py finds a primitive zero with Hensel slack."""
    rng, ctx = random.Random(2440 + p), PadicContext(p)
    forms = tried = accepted = 0
    for _ in range(30):
        entries = [random_entry(rng, p) for _ in range(rng.choice((3, 4)))]
        verdict, witness = isotropic_by_search(entries, ctx)
        if not verdict:
            continue
        forms += 1
        for xs in solutions(witness, p):
            try:
                rebuilt = checked_witness(entries, xs, ctx)
            except (ValueError, ConditionFailed):
                rebuilt = None
            assert (rebuilt is not None) == accepted_by_checks(entries, witness, xs, p), (p, entries, xs)
            if rebuilt is not None:
                assert rebuilt["solution"] == xs and witness_problems(entries, rebuilt, p) == [], (p, entries, xs)
                accepted += 1
            tried += 1
    # the search's own solution and its q - x copy pass; most corrupted copies fail
    assert forms >= 10 and accepted >= 2 * forms and tried - accepted >= 5 * forms, (forms, tried, accepted)


class Searched(Exception):
    """The residue search ran."""


def test_verify_searches_only_for_an_anisotropic_document(capsys, monkeypatch):
    """An isotropic certificate's witness is checked without the search; an anisotropic one is searched for.

    The CLI, which has no witness yet, searches for both.
    """
    rng, docs = random.Random(2450), []
    for p in PRIMES:
        for _ in range(4):
            entries = [random_entry(rng, p) for _ in range(4)]
            main(["isotropy", "--prime", str(p), "--json", "--", ",".join(map(str, entries))])
            docs.append(json.loads(capsys.readouterr().out))
    golden = Path(__file__).resolve().parent / "golden"
    docs += [json.loads((golden / f"{name}.json").read_text(encoding="utf-8"))
             for name in ("isotropy", "isotropy-isotropic")]
    isotropic = [doc for doc in docs if doc["result"]["isotropic"]]
    assert 0 < len(isotropic) < len(docs)

    calls = []

    def search(*args, **kwargs):
        calls.append(args)
        raise Searched

    monkeypatch.setattr(oracles, "isotropic_by_search", search)
    for doc in docs:
        if doc["result"]["isotropic"]:
            assert verify_certificate(doc) == (True, []), doc
        else:
            with pytest.raises(Searched):
                verify_certificate(doc)
    assert len(calls) == len(docs) - len(isotropic)
    doc = docs[-1]  # another zero proves the same: 7^3 - 37 in place of the golden's 37
    ctx, entries = PadicContext(7), [Fraction(e) for e in doc["result"]["entries"]]
    assert doc["result"]["oracle_witness"]["solution"] == [37, 0, 1, 0]
    doc["result"]["oracle_witness"] = checked_witness(entries, [306, 0, 1, 0], ctx)
    assert verify_certificate(doc) == (True, []) and len(calls) == len(docs) - len(isotropic)
    assert main(["isotropy", "--prime", "7", "1,2,3,5"]) == 2 and len(calls) == len(docs) - len(isotropic) + 1
    capsys.readouterr()
