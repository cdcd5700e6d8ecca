"""CLI behavior, JSON certificates, re-verification, fault injection."""

import argparse
import ast
import copy
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from padicforms import (PadicContext, PadicFormsError, PadicPolynomial, cli, construct, construct_s, legendre_symbol,
                        newton_polygon, parse_poly, prepare, quadform, reciprocity, run_law_corpus, verify_conditions)
from padicforms.certificates import COMMANDS, assertion, verify_certificate
from padicforms.cli import main
from padicforms.errors import FactorizationUncertified, PreconditionFailed
from padicforms.reciprocity import MAX_CASES
from test_golden import CASES

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    return code, json.loads(out)


def test_newton_command(capsys):
    code, out, _ = run_cli(capsys, "newton", "--prime", "3", "t^2+3*t+9")
    assert code == 0
    assert "slope -1" in out and "degree 0" in out and "degree 2" in out


def test_exit_codes(capsys):
    code, _, _ = run_cli(capsys, "predicate", "--prime", "3", "--gamma", "2", "1/t")
    assert code == 1
    code, _, _ = run_cli(capsys, "predicate", "--prime", "3", "--gamma", "2", "t")
    assert code == 0
    code, _, err = run_cli(capsys, "newton", "--prime", "3", "t^")
    assert code == 2 and "offset 2" in err
    code, _, err = run_cli(capsys, "symbol", "--prime", "3", "t", "t^2-1")
    assert code == 2
    code, _, _ = run_cli(capsys, "isotropy", "--prime", "3", "1,-2,-3,6")
    assert code == 1
    code, _, _ = run_cli(capsys, "isotropy", "--prime", "3", "1,-1")
    assert code == 0
    # --seed is taken only by the commands whose certificates record it
    code, _, _ = run_cli(capsys, "predicate", "--prime", "3", "--gamma", "2", "--seed", "1", "1/t")
    assert code == 1
    for argv in (("symbol", "--prime", "3", "--seed", "1", "t - 1", "t - 3"),
                 ("predicate", "--prime", "3", "--full-construction", "1/t")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "unrecognized arguments" in err


def test_internal_errors_exit_2(capsys, monkeypatch):
    # exit 1 means "false verdict", so no failure may leave with it
    code, _, err = run_cli(capsys, "elliptic-point", "--prime", "3", "3", "--digits", "-3")
    assert code == 2 and err == "error: digit target -3 is negative\n"

    def broken(args):
        raise TypeError("injected fault")

    monkeypatch.setattr(cli, "_cmd_newton", broken)
    code, out, err = run_cli(capsys, "newton", "--prime", "3", "t^2+3*t+9")
    assert code == 2 and out == ""
    assert err == "internal error: TypeError: injected fault\n"


def test_hilbert_and_symbol_commands(capsys):
    code, doc = run_json(capsys, "hilbert", "--prime", "2", "2", "5")
    assert code == 0 and doc["result"]["value"] == -1
    ok, problems = verify_certificate(doc)
    assert ok, problems
    code, doc = run_json(capsys, "symbol", "--prime", "3", "t - 1", "t - 3")
    assert code == 0 and doc["result"]["value"] == -1
    assert verify_certificate(doc)[0]


def test_law_commands(capsys):
    code, doc = run_json(capsys, "check-recip", "--prime", "3", "t - 1", "t - 3")
    assert code == 0 and doc["result"]["holds"]
    assert verify_certificate(doc)[0]
    code, doc = run_json(capsys, "check-mult", "--prime", "2", "t + 1", "t + 3", "t^2 + t + 1")
    assert code == 0 and doc["result"]["holds"]
    assert verify_certificate(doc)[0]


def test_corpus_command(capsys):
    code, doc = run_json(capsys, "corpus", "--prime", "2", "--seed", "7",
                         "--cases", "20", "check-recip")
    assert code == 0
    assert doc["result"]["passes"] == 20
    assert verify_certificate(doc)[0]


def test_corpus_negative_cases_exit_2(capsys):
    # exit 1 means "false verdict"; a negative count is a usage error
    for law in ("predicate", "check-recip"):
        code, out, err = run_cli(capsys, "corpus", "--prime", "3", "--cases", "-1", law)
        assert code == 2 and out == ""
        assert err == "error: the number of cases must be >= 0, got -1\n"
        code, doc = run_json(capsys, "corpus", "--prime", "3", "--cases", "0", law)
        assert code == 0 and doc["result"]["cases"] == doc["result"]["passes"] == 0


def test_case_counts_above_the_cap_are_refused(capsys, tmp_path):
    over = MAX_CASES + 1
    for law in ("predicate", "check-recip"):
        code, out, err = run_cli(capsys, "corpus", "--prime", "3", "--cases", str(over), law)
        assert code == 2 and out == ""
        assert err == f"error: the number of cases must be at most {MAX_CASES}, got {over}\n"
        doc = {"schema": "padic-forms/1", "command": "corpus", "context": _CONTEXT, "assertions": [
            {"kind": "law-corpus", "law": law, "cases": over, "passes": over, "seed": 1}]}
        start = time.perf_counter()
        ok, problems = verify_certificate(doc)
        assert time.perf_counter() - start < 1.0
        assert not ok and problems == [f"assertion 0 (law-corpus): recomputation failed: the number"
                                       f" of cases must be at most {MAX_CASES}, got {over}"]
        path = tmp_path / f"{law}.json"
        path.write_text(json.dumps(doc))
        assert run_cli(capsys, "verify", str(path))[0] == 1


def test_unknown_law_rejected_even_with_no_cases():
    with pytest.raises(PreconditionFailed, match="unknown law 'bogus'"):
        run_law_corpus(PadicContext(3), "bogus", 0, 1)
    doc = {"schema": "padic-forms/1", "command": "corpus", "context": _CONTEXT, "assertions": [
        {"kind": "law-corpus", "law": "bogus", "cases": 0, "passes": 0, "seed": 1}]}
    ok, problems = verify_certificate(doc)
    assert not ok and problems == ["assertion 0 (law-corpus): recomputation failed: unknown law 'bogus'"]


def test_slopes_of_a_constant_is_trivial(capsys):
    code, out, _ = run_cli(capsys, "slopes", "--prime", "3", "--json", "--", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["unit"] == "5/1" and doc["result"]["factors"] == []
    assert verify_certificate(doc) == (True, [])


def test_negative_digit_targets_rejected(capsys):
    code, out, err = run_cli(capsys, "slopes", "--prime", "3", "--digits", "-3", "t^2 - 12*t + 27")
    assert code == 2 and out == ""
    assert err == "error: digit target -3 is negative\n"
    for argv in (("slopes", "--prime", "3", "t^2 - 12*t + 27"),
                 ("elliptic-point", "--prime", "3", "3")):
        _, doc = run_json(capsys, *argv)
        for a in doc["assertions"]:
            a["digits"] = -3
        ok, problems = verify_certificate(doc)
        flagged = [m for m in problems if m.endswith("digit target -3 is negative")]
        assert not ok and len(flagged) == len(doc["assertions"])


def test_slopes_squareclass_elliptic(capsys):
    code, doc = run_json(capsys, "slopes", "--prime", "3", "t^2 - 12*t + 27")
    assert code == 0 and len(doc["result"]["factors"]) == 2
    assert verify_certificate(doc)[0]
    code, doc = run_json(capsys, "squareclass", "--prime", "3", "12")
    assert code == 0 and doc["result"]["representative"] == "3/1"
    code, doc = run_json(capsys, "elliptic-point", "--prime", "3", "3", "--digits", "40")
    assert code == 0
    assert verify_certificate(doc)[0]


def test_json_byte_determinism(capsys):
    _, out1, _ = run_cli(capsys, "construct-s", "--prime", "3", "--gamma", "2",
                         "t^2 - 9", "--seed", "5", "--json")
    _, out2, _ = run_cli(capsys, "construct-s", "--prime", "3", "--gamma", "2",
                         "t^2 - 9", "--seed", "5", "--json")
    assert out1 == out2
    _, outp1, _ = run_cli(capsys, "predicate", "--prime", "2", "t^2 + 1", "--json")
    _, outp2, _ = run_cli(capsys, "predicate", "--prime", "2", "t^2 + 1", "--json")
    assert outp1 == outp2


def test_construct_certificate_verifies(capsys, tmp_path):
    for argv in (
        ("--prime", "3", "--gamma", "2", "t^2 - 3"),
        # t g/g_ij of lower degree than g_ij vanishes at the other factor's roots: that margin holds for every A
        ("--prime", "5", "--gamma", "2", "t^6 - 40*t^4 - 280*t^2 + 11200", "--factors", "t^2 - 40;t^4 - 280"),
    ):
        code, doc = run_json(capsys, "construct-s", *argv)
        assert code == 0 and doc["result"]["isotropic"], argv
        ok, problems = verify_certificate(doc)
        assert ok, problems
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 0
        capsys.readouterr()


ALL_COMMANDS = [
    ("newton", "--prime", "3", "t^2+3*t+9"),
    ("slopes", "--prime", "3", "t^2 - 12*t + 27"),
    ("squareclass", "--prime", "3", "12"),
    ("hilbert", "--prime", "2", "2", "5"),
    ("symbol", "--prime", "3", "t - 1", "t - 3"),
    ("symbol", "--prime", "2", "t + 1", "t^2 + t + 1"),
    ("check-mult", "--prime", "3", "t - 1", "t + 5", "t - 3"),
    ("check-recip", "--prime", "5", "t - 1", "t - 5"),
    ("isotropy", "--prime", "3", "1,-2,-3,6"),
    ("construct-s", "--prime", "2", "--gamma", "5", "t^2 - 2"),
    ("predicate", "--prime", "5", "t^2 + 1/5"),
    ("predicate", "--prime", "2", "(1)/(t^3)"),
    ("elliptic-point", "--prime", "5", "25", "--digits", "30"),
    ("corpus", "--prime", "3", "--seed", "11", "--cases", "8", "pi-invariance"),
    ("corpus", "--prime", "3", "--seed", "11", "--cases", "6", "predicate"),
]


def test_every_command_certificate_reverifies(capsys, tmp_path):
    """Each subcommand's JSON document passes the verify subcommand."""
    for k, argv in enumerate(ALL_COMMANDS):
        code, out, err = run_cli(capsys, *argv, "--json")
        assert code in (0, 1), (argv, err)
        doc = json.loads(out)
        path = tmp_path / f"cert{k}.json"
        path.write_text(out)
        assert main(["verify", str(path)]) == 0, (argv, verify_certificate(doc)[1])
        capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [["predicate", "--prime", "3", "(t)/(0)"],
     ["hilbert", "--prime", "3", "--uniformizer", "1/0", "1", "1"]],
    ids=["rational-function", "uniformizer"],
)
def test_zero_denominators_are_input_errors(argv, capsys):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2 and "zero denominator" in err
    assert "internal error" not in err


def test_verify_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", str(bad)]) == 1
    bad.write_text(json.dumps({"schema": "other/9"}))
    assert main(["verify", str(bad)]) == 1


_CONTEXT = {"prime": 3, "uniformizer": "3/1", "precision": 64}


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {"schema": "padic-forms/1", "command": "hilbert", "context": _CONTEXT, "assertions": 5},
        {"schema": "padic-forms/1", "command": "hilbert", "context": _CONTEXT, "assertions": [5]},
        {"schema": "padic-forms/1", "command": "hilbert", "context": _CONTEXT, "assertions": [
            {"kind": "hilbert-base", "a": 5, "b": "2/1", "value": 1}]},
        {"schema": "padic-forms/1", "command": "hilbert", "context": _CONTEXT, "assertions": [
            {"kind": "hilbert-base", "a": [1], "b": "2/1", "value": 1}]},
        {"schema": "padic-forms/1", "command": "slopes", "context": _CONTEXT, "assertions": [
            {"kind": "slope-factorization", "poly": "t^2 + 3*t + 9", "unit": "1/1",
             "digits": "40", "factors": [["t^2 + 3*t + 9", "-1/1"]]}]},
        {"schema": "padic-forms/1", "command": "newton", "context": _CONTEXT, "assertions": [
            {"kind": "newton-polygon", "poly": 5, "slopes": [], "vertices": [[0, "0/1"]]}]},
        {"schema": "padic-forms/1", "command": "hilbert", "context": _CONTEXT, "assertions": [
            {"kind": ["hilbert-base"], "a": "2/1", "b": "2/1", "value": 1}]},
        {"schema": "padic-forms/1", "command": ["construct-s"], "context": _CONTEXT,
         "assertions": []},
        {"schema": "padic-forms/1", "command": "check-recip", "context": _CONTEXT, "assertions": [
            {"kind": "law", "law": "reciprocity", "inputs": {"p": "t - 1", "q": "t - 3"},
             "values": [1], "holds": True}]},
        {"schema": "padic-forms/1", "command": "predicate", "context": _CONTEXT, "assertions": [
            {"kind": "anisotropy-at-t", "f": 5, "gamma": "2/1", "v_t_f": -1,
             "leading_coefficient": "1/1", "anisotropic_form": True}]},
        {"schema": "padic-forms/1", "command": "predicate", "context": _CONTEXT, "assertions": [
            {"kind": "predicate-witness", "x": ["t"], "c": "1/1", "g": "t"}]},
    ],
    ids=["not-an-object", "assertions-not-a-list", "assertion-not-an-object",
         "payload-number-not-a-string", "payload-list-not-a-string",
         "digits-string-not-a-number", "poly-number-not-a-string", "kind-list-not-a-string",
         "command-list-not-a-string", "law-values-list-not-an-object",
         "rational-function-number-not-a-string", "rational-function-list-not-a-string"],
)
def test_verify_rejects_misshapen_documents(doc, tmp_path, capsys):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 1
    assert "certificate REJECTED" in capsys.readouterr().err
    ok, problems = verify_certificate(doc)
    assert not ok and len(problems) == 1


@pytest.mark.parametrize(
    "slots",
    [
        {"x": "0", "y": "t", "place": "t - 1"},
        {"x": "t - 1", "y": "t", "place": "2*t - 2"},
    ],
    ids=["zero-slot", "place-not-monic"],
)
def test_verify_rejects_residue_tests_it_cannot_read(slots, tmp_path, capsys):
    """A zero slot once hung the verifier; a non-monic place was read at the wrong point."""
    assertion = {"kind": "residue-test", "symbol": 1, "is_zero": True, **slots}
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(
        {"schema": "padic-forms/1", "context": _CONTEXT, "assertions": [assertion]}
    ))
    start = time.perf_counter()
    assert main(["verify", str(path)]) == 1
    assert time.perf_counter() - start < 1
    assert "recomputation failed" in capsys.readouterr().err


@pytest.mark.parametrize("exponents", [{"e": 1000000, "pi_exponent": 0}, {"e": 1, "pi_exponent": -1000000},
                                       {"e": -1, "pi_exponent": 0}],
                         ids=["t-power", "pi-power", "negative-t-power"])
def test_verify_rejects_exponents_past_the_cap(exponents, tmp_path, capsys):
    """A construct-identity assertion of a few hundred bytes once cost seconds and 130 MB before its rejection.

    A negative e was read as e = 0, so c = r + h verified as c = r + h t^-1.
    """
    assertion = {"kind": "construct-identity", "a": "1", "b": "1", "q": "0", "r": "0", "c": "1", "h": "1",
                 **exponents}
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(
        {"schema": "padic-forms/1", "context": _CONTEXT, "assertions": [assertion]}
    ))
    start = time.perf_counter()
    assert main(["verify", str(path)]) == 1
    assert time.perf_counter() - start < 1
    assert "is outside 0..10000" in capsys.readouterr().err


@pytest.fixture(scope="module")
def construct_doc():
    import subprocess, sys

    out = subprocess.run(
        [sys.executable, "-m", "padicforms.cli", "construct-s", "--prime", "3",
         "--gamma", "2", "t^2 - 3", "--json"],
        capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


def _mutate_and_verify(doc, mutate):
    doc = copy.deepcopy(doc)
    mutate(doc)
    ok, _ = verify_certificate(doc)
    return ok


def test_fault_injection(construct_doc, capsys):
    doc = construct_doc
    assert verify_certificate(doc)[0]

    def flip_result_s(d):
        d["result"]["s"] = d["result"]["s"].replace("- 3", "+ 3")

    def flip_assertion_poly(d):
        for a in d["assertions"]:
            if a["kind"] == "irreducible-certified" and "3*t" in a["poly"]:
                a["poly"] = a["poly"].replace("+ 3*t", "- 3*t")
                return

    def flip_symbol(d):
        for a in d["assertions"]:
            if a["kind"] == "symbol-condition":
                a["lhs"] = -a["lhs"]
                return

    def flip_residue(d):
        for a in d["assertions"]:
            if a["kind"] == "residue-test":
                a["symbol"] = -a["symbol"]
                return

    for mut in (flip_result_s, flip_assertion_poly, flip_symbol, flip_residue):
        assert not _mutate_and_verify(doc, mut), mut.__name__


def _flip_sg_over_t_holds(doc):
    for a in doc["assertions"]:
        if a.get("name") == "sg-over-t":
            a["holds"] = not a["holds"]


def _empty_law_values(doc):
    doc["assertions"][0]["values"] = {}


def _empty_isotropy_entries(doc):
    doc["assertions"][0]["entries"] = []


@pytest.mark.parametrize("golden, tamper", [
    ("construct-s", _flip_sg_over_t_holds),
    ("check-mult", _empty_law_values),
    ("isotropy", _empty_isotropy_entries),
], ids=["symbol-condition-holds", "law-values", "isotropy-local-entries"])
def test_verify_rejects_tampered_fields(golden, tamper, tmp_path, capsys):
    """A field a verifier once left unread: the symbol-condition flag without p2,
    the keys of a law's values, and an isotropy-local form with no entries."""
    doc = json.loads((GOLDEN / f"{golden}.json").read_text(encoding="utf-8"))
    tamper(doc)
    assert not verify_certificate(doc)[0]
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify", str(path)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("golden", ["slopes", "elliptic-point"])
def test_verify_rejects_lift_digit_targets(golden, tmp_path, capsys):
    """A lift assertion's digits is a non-negative int, not a bool, equal to result.digits."""
    doc = json.loads((GOLDEN / f"{golden}.json").read_text(encoding="utf-8"))
    assert doc["result"]["digits"] == 40 and verify_certificate(doc) == (True, [])
    path = tmp_path / "tampered.json"
    for slot in [a for a in doc["assertions"] if "digits" in a] + [doc["result"]]:
        for value in (True, 2.5, 0, 41, -1, "40", None):
            slot["digits"] = value
            assert not verify_certificate(doc)[0], (slot, value)
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify", str(path)]) == 1
        slot["digits"] = 40
    capsys.readouterr()


def test_verify_rejects_unknown_commands(tmp_path, capsys):
    """The command names the function that derives the result, so it must write the document's kinds."""
    doc = json.loads((GOLDEN / "construct-s.json").read_text(encoding="utf-8"))
    doc["result"]["s"] = "t^2 + 1"
    assert not verify_certificate(doc)[0]
    doc["command"] = "x"
    assert verify_certificate(doc) == (False, ["unknown command 'x'"])
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify", str(path)]) == 1
    for command in sorted(COMMANDS - {"construct-s"}):
        doc["command"] = command
        assert not verify_certificate(doc)[0], command
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify", str(path)]) == 1, command
    for golden in sorted(GOLDEN.glob("*.json")):
        doc = json.loads(golden.read_text(encoding="utf-8"))
        # check-mult and check-recip both write one law assertion, which names its own law
        twins = {"check-mult", "check-recip"} if doc["command"] in ("check-mult", "check-recip") else set()
        for command in sorted(COMMANDS - {doc["command"]} - twins) + ["verify"]:
            doc["command"] = command
            assert not verify_certificate(doc)[0], (golden.name, command)
        del doc["command"]
        assert not verify_certificate(doc)[0], golden.name
    capsys.readouterr()


def test_certificate_commands_are_the_cli_subcommands():
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert COMMANDS == set(sub.choices) - {"verify"}


def test_positionals_with_a_leading_minus(capsys):
    """A value such as "-1/t" or "-t^2+1" is a positional argument, not an option."""
    code, out, err = run_cli(capsys, "predicate", "--prime", "3", "--gamma", "2", "-1/t")
    assert (code, err) == (1, "") and out.startswith("v_t((-1)/(t)) >= 0: False")
    code, out, err = run_cli(capsys, "symbol", "--prime", "3", "-t^2+1", "t^2+1")
    assert (code, err) == (0, "") and out == "<-t^2 + 1 / t^2 + 1> = +1\n"
    # "--" still ends the options, and -p is still the prime
    assert run_cli(capsys, "symbol", "-p", "3", "--", "-t^2+1", "t^2+1")[1] == out
    assert run_cli(capsys, "symbol", "-p3", "-t^2+1", "t^2+1")[1] == out


def test_oracle_cross_check_budget(capsys):
    """Past p^(v(4)+3) = 7^3 the residue-search cross-check is skipped, and says so."""
    start = time.perf_counter()
    code, doc = run_json(capsys, "hilbert", "--prime", "101", "3", "5")
    assert time.perf_counter() - start < 1
    assert code == 0 and doc["result"]["oracle"] == "skipped: budget"
    code, doc = run_json(capsys, "isotropy", "--prime", "11", "1,-2,-3,11")
    assert code == 0 and doc["result"]["oracle_witness"] == "skipped: budget"
    code, doc = run_json(capsys, "hilbert", "--prime", "7", "3", "7")
    assert doc["result"]["oracle"] == doc["result"]["value"] == -1


def _rename_conditions(assertions):
    return [{**a, "name": a["name"] + "-renamed"} if a["kind"] == "symbol-condition" else a for a in assertions]


# name -> (golden, result fields set, edit of the assertion list); each verified while the result went unchecked
TAMPERINGS = {
    "hilbert-value": ("hilbert", {"value": 1}, None),
    "hilbert-value-no-assertions": ("hilbert", {"value": 1}, lambda assertions: []),
    "predicate-verdict": ("predicate", {"verdict": True}, None),
    "predicate-verdict-no-assertions": ("predicate", {"verdict": True}, lambda assertions: []),
    "construct-s-not-isotropic": ("construct-s", {"isotropic": False}, None),
    "construct-s-condition-names": ("construct-s", {}, _rename_conditions),
    "symbol-value-without-legendre": (
        "symbol", {"value": 1}, lambda assertions: [a for a in assertions if a["kind"] != "legendre"]),
    "elliptic-point-slack": ("elliptic-point", {"slack": "3"}, None),
    "isotropy-oracle-witness": ("isotropy", {"oracle_witness": "skipped: budget"}, None),
    "corpus-failures": ("corpus", {"failures": [{"case": 0}]}, None),
    "newton-all-vertices-even": ("newton", {"all_vertices_even": False}, None),
}


@pytest.mark.parametrize("name", sorted(TAMPERINGS))
def test_verify_derives_the_result(name, tmp_path, capsys):
    """A result that its assertions do not give is rejected, whatever the assertions are."""
    golden, fields, edit = TAMPERINGS[name]
    doc = json.loads((GOLDEN / f"{golden}.json").read_text(encoding="utf-8"))
    doc["result"].update(fields)
    if edit is not None:
        doc["assertions"] = edit(doc["assertions"])
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify", str(path)]) == 1
    assert "certificate REJECTED" in capsys.readouterr().err


def test_results_compare_as_canonical_json():
    """true is not 1, and -1.0 is not -1, although Python's == says they are."""
    for golden, field, value in (("slopes", "digits", 40.0), ("hilbert", "value", -1.0),
                                 ("newton", "all_vertices_even", 1)):
        doc = json.loads((GOLDEN / f"{golden}.json").read_text(encoding="utf-8"))
        assert doc["result"][field] == value
        doc["result"][field] = value
        ok, problems = verify_certificate(doc)
        assert not ok and problems[0].startswith(f"result.{field}: recorded "), problems
    # the same values in an assertion, alone or with the result field the derivation copies from it
    for golden, field, value in (("hilbert", "value", -1.0), ("symbol-ramified-p3", "value", 1.0),
                                 ("symbol-ramified-p3", "value", True), ("isotropy", "isotropic", 0),
                                 ("check-recip", "holds", 1)):
        doc = json.loads((GOLDEN / f"{golden}.json").read_text(encoding="utf-8"))
        assert doc["result"][field] == value, (golden, field)
        claim = next(a for a in doc["assertions"] if field in a)
        claim[field] = value
        assert not verify_certificate(doc)[0], (golden, field, value)
        doc["result"][field] = value
        assert not verify_certificate(doc)[0], (golden, field, value)


def test_predicate_is_tied_to_its_input(capsys):
    """The anisotropy is about the h that result.x gives, and the witness is about result.x."""
    _, negative = run_json(capsys, "predicate", "--prime", "3", "--gamma", "2", "1/t")
    _, other = run_json(capsys, "predicate", "--prime", "3", "--gamma", "2", "1/t^3")
    assert verify_certificate(negative)[0] and verify_certificate(other)[0]
    swapped = copy.deepcopy(negative)
    swapped["result"]["x"], swapped["result"]["v_t_x"] = other["result"]["x"], other["result"]["v_t_x"]
    assert not verify_certificate(swapped)[0]
    swapped = copy.deepcopy(negative)
    swapped["assertions"][1] = other["assertions"][1]
    assert not verify_certificate(swapped)[0]
    _, positive = run_json(capsys, "predicate", "--prime", "3", "--gamma", "2", "t")
    _, other = run_json(capsys, "predicate", "--prime", "3", "--gamma", "2", "t^2")
    assert verify_certificate(positive)[0] and verify_certificate(other)[0]
    swapped = copy.deepcopy(positive)
    swapped["assertions"][1] = other["assertions"][1]
    assert not verify_certificate(swapped)[0]
    both = copy.deepcopy(negative)
    both["result"].update(verdict=True, witness_c="1/1", note=positive["result"]["note"])
    both["assertions"].append(positive["assertions"][1] | {"x": negative["result"]["x"]})
    assert not verify_certificate(both)[0]


def test_symbol_condition_names_are_closed():
    """A name is one of the seven verify_conditions writes, and each family sits at its factors."""
    doc = json.loads((GOLDEN / "construct-s-two-factors.json").read_text(encoding="utf-8"))
    conditions = [a for a in doc["assertions"] if a["kind"] == "symbol-condition"]
    assert verify_certificate(doc) == (True, [])
    for a, b in ((0, 1), (1, 3), (3, 5)):  # two families' members swap names
        conditions[a]["name"], conditions[b]["name"] = conditions[b]["name"], conditions[a]["name"]
        assert not verify_certificate(doc)[0], (a, b)
        conditions[a]["name"], conditions[b]["name"] = conditions[b]["name"], conditions[a]["name"]
    original = conditions[0]["name"]
    conditions[0]["name"] = "sg-over-s"
    ok, problems = verify_certificate(doc)
    assert not ok and "unknown condition 'sg-over-s'" in problems[0]
    conditions[0]["name"] = original
    doc["assertions"].remove(conditions[-1])  # the last factor's gamma-over-s-factor
    assert not verify_certificate(doc)[0]


def test_corpus_seed_is_the_documents_integer():
    """random.Random takes "x", None or True, so the law-corpus seed must be the document's int."""
    doc = json.loads((GOLDEN / "corpus.json").read_text(encoding="utf-8"))
    assert doc["seed"] == doc["assertions"][0]["seed"] == 7 and verify_certificate(doc)[0]
    for value in ("x", None, True, 8):
        doc["assertions"][0]["seed"] = value
        assert not verify_certificate(doc)[0], value
    doc["assertions"][0]["seed"] = 7
    for value in ("7", 7.0, 8, None):
        doc["seed"] = value
        assert not verify_certificate(doc)[0], value


def _assertion_literals(source: str) -> list:
    """Lines of the dict literals and dict(...) calls with a "kind" key."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source))
                  if isinstance(n, ast.Dict) and any(isinstance(k, ast.Constant) and k.value == "kind" for k in n.keys)
                  or isinstance(n, ast.Call) and any(k.arg == "kind" for k in n.keywords))


def test_the_scan_finds_an_assertion_literal():
    source = 'a = [{"kind": "hensel"}, dict(kind="coprime"), {"k": 1}]\nb = {\n"kind": 0}\n'
    assert _assertion_literals(source) == [1, 1, 2]


def test_cli_writes_every_assertion_with_its_builder():
    """The CLI holds no assertion literal: each assertion comes from certificates.assertion."""
    assert _assertion_literals(Path(cli.__file__).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("golden, slopes, identities", [
    ("construct-s-case-one", ["0"], 1), ("construct-s", ["-1/2"], 0), ("construct-s-two-factors", ["-1/2", "-1/2"], 0),
])
def test_ring_identities_sit_at_the_case_one_factors(golden, slopes, identities):
    """An s factor of odd slope denominator carries one identity, whose c times pi^(-m deg c) is that factor."""
    doc = json.loads((GOLDEN / f"{golden}.json").read_text(encoding="utf-8"))
    ctx = PadicContext(3)
    assert [str(newton_polygon(parse_poly(s, ctx)).single_edge().slope) for s in doc["result"]["s_factors"]] == slopes
    found = [a for a in doc["assertions"] if a["kind"] == "construct-identity"]
    assert len(found) == identities and verify_certificate(doc) == (True, [])
    if identities:
        c = parse_poly(found[0]["c"], ctx)
        m = Fraction(found[0]["pi_exponent"], found[0]["e"])
        assert (c * ctx.uniformizer ** int(-m * c.degree)).to_text() == doc["result"]["s_factors"][0]


@pytest.mark.parametrize("edit", [
    lambda assertions: [a for a in assertions if a["kind"] != "construct-identity"],
    lambda assertions: [{"kind": "construct-identity", "a": "1", "b": "1", "q": "0", "r": "1", "c": "1", "h": "0",
                         "e": 1, "pi_exponent": 0} if a["kind"] == "construct-identity" else a for a in assertions],
    lambda assertions: assertions + [a for a in assertions if a["kind"] == "construct-identity"],
], ids=["removed", "replaced", "doubled"])
def test_ring_identities_are_tied_to_s(edit, tmp_path, capsys):
    """An identity that is removed, or true but about no factor of s, or repeated, is rejected."""
    doc = json.loads((GOLDEN / "construct-s-case-one.json").read_text(encoding="utf-8"))
    doc["assertions"] = edit(doc["assertions"])
    ok, problems = verify_certificate(doc)
    assert not ok and problems == ["result: not derivable from the assertions:"
                                   " the ring identities are not one per case-one factor of s, at that factor"]
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify", str(path)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("name, field", [("block-equality", "p"), ("block-equality", "p2"),
                                         ("product-property", "p"), ("product-property", "p2")])
def test_block_conditions_sit_at_the_slope_blocks(name, field):
    """A block condition's p or p2 moved to another factor of the document, its symbols recomputed, is rejected.

    g's slope blocks are its factors grouped by slope, each with the s factors of its slope,
    so the derivation rebuilds both polynomials of every block-equality and product-property.
    """
    doc = json.loads((GOLDEN / "construct-s-two-blocks.json").read_text(encoding="utf-8"))
    ctx = PadicContext(3)
    assert verify_certificate(doc) == (True, [])
    texts = doc["result"]["g_factors"] + doc["result"]["s_factors"]
    moved = 0
    for k, a in enumerate(doc["assertions"]):
        if a.get("name") != name:
            continue
        for text in texts:
            if text in (a[field], a["q"]):
                continue
            inputs = {n: a[n] for n in ("name", "p", "q", "p2", "q2")} | {field: text}
            inputs["rhs"] = legendre_symbol(parse_poly(inputs["p2"], ctx), parse_poly(inputs["q2"], ctx), ctx)
            doc["assertions"][k] = assertion("symbol-condition", ctx, **inputs)
            ok, problems = verify_certificate(doc)
            assert not ok and problems == ["result: not derivable from the assertions: the"
                                           f" {name} conditions are not at the result's polynomials, one per factor"]
            doc["assertions"][k] = a
            moved += 1
    assert moved >= 4


GAMMA = {2: 5, 3: 2, 5: 2}  # (gamma, -p)_p = -1


def _construct_inputs(seed):
    """(p, g, factors): three admissible g at each p in GAMMA, then two two-slope products over Q_3.

    A product is (t^2 + 3a t + 3u)(t^2 + b t + c), of slopes -1/2 and 0, given with its factors.
    """
    rng = random.Random(seed)
    inputs = []
    for p in GAMMA:
        ctx, found = PadicContext(p), 0
        while found < 3:
            cs = [rng.randint(-9, 9) * p ** rng.choice([0, 0, 1, 2]) for _ in range(rng.choice([2, 4]))] + [1]
            g = PadicPolynomial.from_rationals(cs, ctx)
            try:
                prepare(GAMMA[p], g, ctx)
            except PadicFormsError:  # odd vertices, g(0) = 0 or an uncertified factorization
                continue
            inputs.append((p, g.to_text(), None))
            found += 1
    ctx = PadicContext(3)
    for _ in range(2):
        b, c = rng.choice([(0, 1), (1, 2), (2, 2)])
        f1 = PadicPolynomial.from_rationals([3 * rng.choice([1, 2, 4, 5]), 3 * rng.randint(-3, 3), 1], ctx)
        f2 = PadicPolynomial.from_rationals([c + 3 * rng.randint(-3, 3), b + 3 * rng.randint(-3, 3), 1], ctx)
        inputs.append((3, (f1 * f2).to_text(), [f1.to_text(), f2.to_text()]))
    return inputs


def test_construct_documents_list_the_conditions_of_their_construction(capsys):
    """Each CLI document verifies, and its conditions are verify_conditions' of the same construction, in order.

    The CLI groups g's factors into blocks by their Newton polygons (construct.prepare) and
    verify by the closed-form slope of each factor, so this ties the two beyond the goldens.
    """
    two_blocks = 0
    for p, g, factors in _construct_inputs(28):
        argv = ["construct-s", "--prime", str(p), "--gamma", str(GAMMA[p]), g]
        code, doc = run_json(capsys, *argv, *(["--factors", ";".join(factors)] if factors else []))
        assert code == 0 and verify_certificate(doc) == (True, []), argv
        ctx = PadicContext(p)
        params = prepare(GAMMA[p], parse_poly(g, ctx), ctx,
                         factors=factors and [parse_poly(f, ctx) for f in factors])
        rendered = [(c.name, c.p.to_text(), c.q.to_text(), c.rhs_p and c.rhs_p.to_text(),
                     c.rhs_q and c.rhs_q.to_text()) for c in verify_conditions(construct_s(params)).conditions]
        assert [(a["name"], a["p"], a["q"], a.get("p2"), a.get("q2"))
                for a in doc["assertions"] if a["kind"] == "symbol-condition"] == rendered, argv
        two_blocks += len(params.blocks) == 2
    assert two_blocks >= 2


def _counted(calls, name, fn):
    def counting(*args):
        calls[name] += 1
        return fn(*args)
    return counting


def test_construct_s_evaluates_each_obligation_once(capsys, monkeypatch):
    """The CLI evaluates each condition and residue test once, in the builder that writes it.

    Its symbols are the 13 of the builders and the 4 of the t-value products, each taken once
    for the document; each residue test is one residue-test assertion.
    """
    calls = {"symbol": 0, "residue": 0}
    symbol = _counted(calls, "symbol", reciprocity.legendre_symbol)
    monkeypatch.setattr(reciprocity, "legendre_symbol", symbol)
    monkeypatch.setattr(construct, "legendre_symbol", symbol)
    monkeypatch.setattr(quadform, "pfister_residue_test", _counted(calls, "residue", quadform.pfister_residue_test))
    code, doc = run_json(capsys, *CASES["construct-s-two-factors"][0])
    assert code == 0 and doc == json.loads((GOLDEN / "construct-s-two-factors.json").read_text(encoding="utf-8"))
    assert calls["residue"] == sum(a["kind"] == "residue-test" for a in doc["assertions"]) == 7
    assert calls["symbol"] == 17


@pytest.mark.parametrize("golden, symbols", [("construct-s-two-factors", 17), ("construct-s-two-blocks", 17),
                                             ("construct-s", 7), ("construct-s-case-one", 7)])
def test_each_symbol_is_taken_once_per_document(golden, symbols, capsys, monkeypatch):
    """The CLI and verify each evaluate every distinct <p/q> of a construct-s document once.

    The builders and the t-value products share one memo, which each document empties; a
    block product of one factor is that factor, so its symbols are the factor's.
    """
    calls = {"symbol": 0}
    symbol = _counted(calls, "symbol", reciprocity.legendre_symbol)
    monkeypatch.setattr(reciprocity, "legendre_symbol", symbol)
    monkeypatch.setattr(construct, "legendre_symbol", symbol)
    code, doc = run_json(capsys, *CASES[golden][0])
    assert code == 0 and calls["symbol"] == symbols
    calls["symbol"] = 0
    assert verify_certificate(doc) == (True, []) and calls["symbol"] == symbols
    calls["symbol"] = 0
    assert verify_certificate(doc) == (True, []) and calls["symbol"] == symbols  # nothing kept between documents


def test_verify_ties_g_to_its_factors():
    """g must be a constant times its factors times a square: a g with a factor the construction never saw is rejected.

    t^4 - 2 t^2 - 3 = (t^2 - 3)(t^2 + 1) keeps the golden's even vertices and its factor t^2 - 3,
    but the construction refuses it, since t^2 + 1 is no certified factor over Q_3.
    """
    doc = json.loads((GOLDEN / "construct-s.json").read_text(encoding="utf-8"))
    g = "t^4 - 2*t^2 - 3"
    doc["result"]["g"] = next(a for a in doc["assertions"] if a["kind"] == "even-vertices")["poly"] = g
    assert verify_certificate(doc) == (False, ["result: not derivable from the assertions:"
                                               " g is not a constant times a square times its factors, distinct and monic"])
    with pytest.raises(FactorizationUncertified):
        construct.corollary_isotropy(2, parse_poly(g, PadicContext(3)), PadicContext(3))
    # a square part is allowed: g = (t^2 - 3)^3 has the same factor and odd part
    ctx = PadicContext(3)
    cubed = parse_poly("t^2 - 3", ctx) ** 3
    assert construct.degenerate_note(2, cubed, ctx) is None
    assert prepare(2, cubed, ctx).g0 == parse_poly("t^2 - 3", ctx)


@pytest.mark.parametrize("argv", [["--prime", "7", "--gamma", "3", "t^2 + 6*t + 9"],
                                  ["--prime", "3", "--gamma", "2", "7*t^2 + 14*t + 7"]])
def test_a_constant_times_a_square_needs_no_construction(argv, capsys):
    """g = c h^2 is c up to a square: the corollary is degenerate, with no assertion, and verifies."""
    code, doc = run_json(capsys, "construct-s", *argv)
    assert code == 0 and doc["assertions"] == [] and doc["result"]["isotropic"] is True
    assert doc["result"]["note"].startswith("degenerate g = c h^2 with c in K*: s = c;")
    assert verify_certificate(doc) == (True, [])
    doc["assertions"] = [assertion("even-vertices", PadicContext(int(argv[1])), poly=doc["result"]["g"])]
    assert verify_certificate(doc) == (False, ["result: not derivable from the assertions:"
                                               " g and s need factors, g's must divide g, and s's must have even degree"])


def test_gamma_zero_is_refused_before_the_square_test(capsys):
    """The corollary needs gamma in K*: gamma = 0 is refused whatever g is, a constant g or a c h^2 included."""
    ctx = PadicContext(3)
    for g in ("t^2 - 3", "5", "t^2 + 6*t + 9"):
        assert run_cli(capsys, "construct-s", "--prime", "3", "--gamma", "0", g) == (
            2, "", "error: gamma must be nonzero\n")
        with pytest.raises(PreconditionFailed, match="gamma must be nonzero"):
            construct.corollary_isotropy(0, parse_poly(g, ctx), ctx)


def test_verify_rejects_a_gamma_zero_document(capsys):
    """A constant g's document carries no assertion; with gamma 0 its result is not derivable."""
    code, doc = run_json(capsys, "construct-s", "--prime", "3", "--gamma", "2", "5")
    assert code == 0 and doc["assertions"] == [] and verify_certificate(doc) == (True, [])
    doc["result"]["gamma"] = "0/1"
    assert verify_certificate(doc) == (False, ["result: not derivable from the assertions: gamma must be nonzero"])


def _move_first(kind, to):
    def edit(assertions):
        k = next(k for k, a in enumerate(assertions) if a["kind"] == kind)
        assertions.insert(to if to >= 0 else len(assertions), assertions.pop(k))
    return edit


@pytest.mark.parametrize("edit", [_move_first("residue-test", 0), _move_first("symbol-condition", -1)],
                         ids=["residue-test-first", "symbol-condition-last"])
def test_verify_checks_the_assertion_order(edit):
    """Every part of a reordered document is right, but the whole list is not in construct-s's order."""
    doc = json.loads((GOLDEN / "construct-s-two-factors.json").read_text(encoding="utf-8"))
    edit(doc["assertions"])
    assert verify_certificate(doc) == (False, ["result: not derivable from the assertions:"
                                               " the assertions are not in the order construct-s writes them"])


def test_verify_computes_the_t_value_products(monkeypatch):
    """A t-value-equality's rhs is the product of <s_ij/g_kl> over g's factors, and verify computes it.

    <s_0/g_1> of the two-factor golden is evaluated only in that product, so with its value
    flipped the document's t-value-equality conditions no longer hold as recorded.
    """
    doc = json.loads((GOLDEN / "construct-s-two-factors.json").read_text(encoding="utf-8"))
    assert verify_certificate(doc) == (True, [])
    pair, symbol = (doc["result"]["s_factors"][0], doc["result"]["g_factors"][1]), reciprocity.legendre_symbol

    def flipped(p, q, ctx):
        value = symbol(p, q, ctx)
        return -value if (p.to_text(), q.to_text()) == pair else value

    monkeypatch.setattr(reciprocity, "legendre_symbol", flipped)
    monkeypatch.setattr(construct, "legendre_symbol", flipped)
    assert verify_certificate(doc) == (False, ["result: not derivable from the assertions: the t-value-equality"
                                               " conditions are not at the result's polynomials, one per factor"])


@pytest.mark.parametrize("argv", [CASES[name][0] for name in sorted(CASES) if name.startswith("construct-s")] + [
    ["construct-s", "--prime", "3", "--gamma", "2", "7"], ["construct-s", "--prime", "3", "--gamma", "1", "t^2 - 3"]])
def test_construct_s_prints_its_certificates_result(argv, capsys):
    """Without --json the note, s and metrics are the result block's, and the exit code is its verdict.

    A constant g and a square gamma are decided with no construction, and their documents verify.
    """
    code, doc = run_json(capsys, *argv)
    human_code, out, err = run_cli(capsys, *argv)
    result, lines = doc["result"], out.splitlines()
    assert human_code == code == (0 if result["isotropic"] else 1) and err == ""
    assert verify_certificate(doc) == (True, [])
    assert lines[0].endswith(f", g = {result['g']}: {result['note']}")
    if doc["assertions"]:
        assert lines[1:3] == [f"s = {result['s']}", f"metrics: {result['metrics']}"] and len(lines) == 4
    else:
        assert "s" not in result and len(lines) == 1
