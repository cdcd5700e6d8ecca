"""Golden certificates: the --json stdout and exit code of fixed CLI runs.

Each case's stdout is compared byte for byte with ``tests/golden/<name>.json``
and its exit code with the one recorded below.  The cases are the README
examples (all but ``verify``) plus symbols over linear, unramified,
ramified and p = 2 moduli, a p = 2 reciprocity check and a two-factor
construction whose second factor reaches the case-two valuation margin.  A change that
alters a verdict, a certificate byte or an exit code fails here, and so does
a verifier that no longer accepts a golden certificate.
"""

import json
from pathlib import Path

import pytest

from padicforms.certificates import verify_certificate
from padicforms.cli import main

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
    "construct-s": (["construct-s", "--prime", "3", "--gamma", "2", "t^2 - 3"], 0),
    "construct-s-two-factors": (
        ["construct-s", "--prime", "3", "--gamma", "2", "t^4 - 15*t^2 + 36",
         "--factors", "t^2 - 3;t^2 - 12"],
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
