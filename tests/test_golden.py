"""Golden certificates: the --json stdout and exit code of fixed CLI runs.

Each case's stdout is compared byte for byte with ``tests/golden/<name>.json``
and its exit code with the one recorded below.  The cases are the README
examples (all but ``verify``) plus symbols over linear, unramified,
ramified and p = 2 moduli, a p = 2 reciprocity check, an isotropic form whose
witness ``verify`` checks without searching, a two-factor
construction whose second factor reaches the case-two valuation margin, a case-one
construction whose residue polynomial comes from the window search, and a
construction over two slope blocks, which carries product-property conditions.  A change that
alters a verdict, a certificate byte or an exit code fails here, and so does
a verifier that no longer accepts a golden certificate, or that accepts one
with a value respelled.
"""

import json
import re
from pathlib import Path

import pytest

from padicforms import PadicContext, PadicPolynomial, newton
from padicforms.certificates import verify_certificate
from padicforms.cli import main
from padicforms.errors import ParseError
from padicforms.parsing import parse_rational_function

GOLDEN = Path(__file__).parent / "golden"

# name -> (argv without --json, exit code)
CASES = {
    "newton": (["newton", "--prime", "3", "t^2+3*t+9"], 0),
    "slopes": (["slopes", "--prime", "3", "t^2 - 12*t + 27", "--digits", "40"], 0),
    "squareclass": (["squareclass", "--prime", "3", "12"], 0),
    "hilbert": (["hilbert", "--prime", "2", "2", "5"], 0),
    "symbol": (["symbol", "--prime", "3", "t - 1", "t - 3"], 0),
    "check-mult": (["check-mult", "--prime", "3", "t - 1", "t + 5", "t - 3"], 0),
    "check-recip": (["check-recip", "--prime", "3", "t - 1", "t - 3"], 0),
    "isotropy": (["isotropy", "--prime", "3", "1,-2,-3,6"], 1),
    "isotropy-isotropic": (["isotropy", "--prime", "7", "1,2,3,5"], 0),
    "construct-s": (["construct-s", "--prime", "3", "--gamma", "2", "t^2 - 3"], 0),
    "construct-s-two-factors": (
        ["construct-s", "--prime", "3", "--gamma", "2", "t^4 - 15*t^2 + 36",
         "--factors", "t^2 - 3;t^2 - 12"],
        0,
    ),
    "construct-s-case-one": (["construct-s", "--prime", "3", "--gamma", "2", "t^2 + 1"], 0),
    "construct-s-two-blocks": (
        ["construct-s", "--prime", "3", "--gamma", "2", "t^4 + 4*t^2 + 3", "--factors", "t^2 + 3;t^2 + 1"],
        0,
    ),
    "predicate": (["predicate", "--prime", "3", "--gamma", "2", "1/t"], 1),
    "elliptic-point": (["elliptic-point", "--prime", "3", "3", "--digits", "40"], 0),
    "corpus": (["corpus", "--prime", "2", "--seed", "7", "--cases", "100", "check-recip"], 0),
    "symbol-ramified-p3": (["symbol", "--prime", "3", "t + 1", "t^2 - 3"], 0),
    "symbol-unramified-p5": (["symbol", "--prime", "5", "t", "t^2 + 2"], 0),
    "symbol-ramified-p2": (["symbol", "--prime", "2", "t + 1", "t^2 - 2"], 0),
    "check-recip-p2": (["check-recip", "--prime", "2", "t^2 - 2", "t^2 + t + 1"], 0),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_certificate(name, capsys):
    argv, code = CASES[name]
    got_code = main(argv + ["--json"])
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert got_code == code
    assert verify_certificate(json.loads(out)) == (True, [])


def test_construct_goldens_do_not_depend_on_the_ben_or_memo(capsys):
    """The construct-s goldens, each from a cold memo and from one warmed by other constructions."""
    names = ("construct-s", "construct-s-two-factors", "construct-s-case-one")
    for warm in (False, True):
        for name in names:
            newton._ben_or.cache_clear()
            if warm:
                for other in names:
                    for seed in ("1", "2", "3"):
                        main(CASES[other][0] + ["--seed", seed, "--json"])
                assert newton._ben_or.cache_info().currsize > 0
            argv, code = CASES[name]
            capsys.readouterr()
            assert main(argv + ["--json"]) == code
            assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


# wrongly typed stand-ins for any field, which a verifier must reject, never crash on: one per
# JSON type, plus a negative number and true, which an echoed input must not let pass for 1;
# each more costs tier-1 about a second
MUTANTS = [None, -1, 2.5, "x", [1], {}, True]

# the fields no assertion determines, so verify accepts any value there: (command, path) -> why
INERT = {
    ("construct-s", ("result", "metrics", "samples")):
        "how many residue polynomials the window search drew; only rerunning the construction counts them",
    ("predicate", ("seed",)): "the decision draws nothing at random, so no field depends on the seed;"
                              " verify holds it to an int",
}


def _slots(node, path=()):
    """(container, key, path) for every value below node: dict members and list items, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in list(items):
        yield node, key, path + (key,)
        yield from _slots(value, path + (key,))


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.stem)
def test_golden_field_mutations_never_crash_the_verifier(path, tmp_path, capsys):
    """Each field replaced by each mutant: verify rejects it, unless the field is INERT, and never crashes.

    The CLI builds its argument parser on every call, so it re-reads only every 29th
    mutant; 29 is prime to the number of mutants, so each mutant reaches it.
    """
    doc = json.loads(path.read_text(encoding="utf-8"))
    command = doc["command"]
    mutated = tmp_path / path.name
    count = 0
    for node, key, slot in _slots(doc):
        original = node[key]
        for value in MUTANTS:
            node[key] = value
            ok, problems = verify_certificate(doc)
            assert isinstance(ok, bool) and isinstance(problems, list), (slot, value)
            if json.dumps(value) != json.dumps(original) and (command, slot) not in INERT:
                assert not ok, (slot, value)
            count += 1
            if count % 29 == 0:
                mutated.write_text(json.dumps(doc), encoding="utf-8")
                assert main(["verify", str(mutated)]) in (0, 1), (slot, value)
        node[key] = original
    capsys.readouterr()


def test_golden_assertions_reject_an_unknown_key():
    """An assertion is its inputs and what its builder computes from them, so an extra key is a difference.

    So is one in the context block, which must be the block its context writes, and one at the top level.
    """
    for path in sorted(GOLDEN.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        for k, a in enumerate(doc["assertions"]):
            a["note"] = "x"
            ok, problems = verify_certificate(doc)
            assert not ok and f"assertion {k} ({a['kind']}).note: recorded \"x\", derived (absent)" in problems
            del a["note"]
        block = json.dumps(doc["context"], sort_keys=True)
        doc["context"]["note"] = "x"
        assert verify_certificate(doc) == (False, [f"invalid context: the block is not {block}"])
        del doc["context"]["note"]
        doc["note"] = "x"
        assert verify_certificate(doc) == (False, ["unknown key 'note'"])


@pytest.mark.parametrize("name", ["construct-s", "construct-s-case-one", "construct-s-two-blocks",
                                  "construct-s-two-factors", "elliptic-point", "newton"])
def test_verify_renders_each_polynomial_text_once(name, monkeypatch):
    """verify renders each polynomial the document spells once, to hold its text to the one spelling.

    The derivations look the document's texts up instead of rendering them again, so every text
    rendered is distinct and one the document holds (s too, which only the result spells).
    """
    doc = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    rendered, to_text = [], PadicPolynomial.to_text
    monkeypatch.setattr(PadicPolynomial, "to_text", lambda f: rendered.append(to_text(f)) or rendered[-1])
    assert verify_certificate(doc) == (True, [])
    held = {node[key] for node, key, _ in _slots(doc) if isinstance(node[key], str)}
    assert rendered and len(set(rendered)) == len(rendered) and set(rendered) <= held


_RATIONAL = re.compile(r"(-?\d+)/(\d+)")


def _respellings(text: str) -> set:
    """Other spellings of the polynomial or rational text: spaces dropped, n/1 written n, n/d written 2n/2d."""
    try:
        parse_rational_function(text, PadicContext(3))
    except ParseError:
        return set()
    doubled = _RATIONAL.sub(lambda m: f"{2 * int(m[1])}/{2 * int(m[2])}", text)
    return {text.replace(" ", ""), _RATIONAL.sub(lambda m: m[1] if m[2] == "1" else m[0], text), doubled} - {text}


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.stem)
def test_golden_respellings_are_rejected(path):
    """Each polynomial and rational has one spelling: another spelling of an equal value is rejected.

    Each value is respelled in one place, and then in every place the document holds it, as a
    writer with another spelling would write it throughout.
    """
    text = path.read_text(encoding="utf-8")
    doc = json.loads(text)
    everywhere = set()
    for node, key, slot in _slots(doc):
        original = node[key]
        if isinstance(original, str):
            for respelled in sorted(_respellings(original)):
                node[key] = respelled
                assert not verify_certificate(doc)[0], (slot, respelled)
                everywhere.add((json.dumps(original), json.dumps(respelled)))
            node[key] = original
    assert everywhere
    for original, respelled in sorted(everywhere):
        assert not verify_certificate(json.loads(text.replace(original, respelled)))[0], (original, respelled)
