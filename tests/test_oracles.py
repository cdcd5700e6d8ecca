"""The residue-search oracle and the Q_p commands against perfbench/checks.py.

``checks.py`` is the benchmark's independent arithmetic: it imports nothing
from padicforms, decides the Hilbert symbol by its own residue search and
4-dimensional isotropy through the quaternion norm form.  It is loaded by
path, so the test needs no package layout under ``perfbench/``.
"""

import importlib.util
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from padicforms import PadicContext
from padicforms.cli import main
from padicforms.oracles import conclusive_exponent, hilbert_by_search, isotropic_by_search

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
