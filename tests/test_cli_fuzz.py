"""A seeded fuzz of the CLI's argument vectors: exit 1 only for a false verdict.

Every subcommand gets arguments drawn from pools of good and bad values: bad
primes, empty and malformed polynomials, zero denominators, exponents past
``MAX_EXPONENT``, unknown laws and case counts past ``MAX_CASES``.  Each run
must exit 0, exit 2 with a message, or exit 1 with a certificate whose verdict
is false (a rejected document, for ``verify``).  No run may end in an internal
error, such as a module the command loads on first use failing to load.
"""

import json
import random
from pathlib import Path

from padicforms.cli import main
from padicforms.parsing import LAWS, MAX_EXPONENT
from padicforms.reciprocity import MAX_CASES

GOLDEN = Path(__file__).parent / "golden"

# each pool: values a command accepts, then bad ones, which a draw takes one time in six
PRIMES = (["2", "3", "5", "7"], ["1", "0", "4", "-3", "x", "3.5", ""])
POLYS = (["t^2+3", "t - 1", "t^2 - 3", "t + 1", "t^2 + 1", "-t^2+1", "t^2 - 12*t + 27", "3"],
         ["0", "", "t^", "t^^2", "2t", "(t", "t*t", "1/0*t", "t - 1/0", f"t^{MAX_EXPONENT + 1}",
          "t^99999999999999", "x"])
SCALARS = (["12", "2", "5", "-3", "3/9", "1/7", "3"], ["0", "1/0", "", "abc", "1e5", "2/-3"])
FUNCTIONS = (["1/t", "t", "(t+1)/(t^2-3)", "t^2 + 1", "3/t^2"],
             ["1/0", "t/(t-t)", "1/(", f"1/t^{MAX_EXPONENT + 1}", ""])
ENTRIES = (["1,-2,-3,6", "1,1,1,1", "1,-1", "2,3,5", "1,2"], ["1,,1", "", "0,1", "1/0,2", "a,b"])
LAW_NAMES = ([*LAWS, "predicate"], ["nolaw", ""])
COUNTS = (["3", "0"], ["-1", str(MAX_CASES + 1), "x"])
DIGITS = (["20", "0"], ["-3", "x"])
SEEDS = (["0", "7"], ["-1", "x"])

# subcommand -> its positionals' pools, and its options with theirs
SLOTS = {
    "newton": ([POLYS], {}),
    "slopes": ([POLYS], {"--digits": DIGITS}),
    "squareclass": ([SCALARS], {}),
    "hilbert": ([SCALARS, SCALARS], {}),
    "symbol": ([POLYS, POLYS], {}),
    "check-mult": ([POLYS, POLYS, POLYS], {}),
    "check-recip": ([POLYS, POLYS], {}),
    "isotropy": ([ENTRIES], {}),
    "construct-s": ([POLYS], {"--gamma": SCALARS, "--seed": SEEDS}),
    "predicate": ([FUNCTIONS], {"--gamma": SCALARS, "--seed": SEEDS}),
    "elliptic-point": ([SCALARS], {"--digits": DIGITS}),
    "corpus": ([LAW_NAMES], {"--cases": COUNTS, "--seed": SEEDS}),
}
# what a certificate's result says when its verdict is false
FALSE_VERDICT = {
    "check-mult": lambda r: r["holds"] is False,
    "check-recip": lambda r: r["holds"] is False,
    "isotropy": lambda r: r["isotropic"] is False,
    "construct-s": lambda r: r["isotropic"] is False,
    "predicate": lambda r: r["verdict"] is False,
    "corpus": lambda r: r["passes"] < r["cases"],
}


def pick(rng, pool):
    good, bad = pool
    return rng.choice(bad if rng.random() < 1 / 6 else good)


def draw(rng, command):
    """Options first, so that a "--" before the positionals ends them."""
    positionals, options = SLOTS[command]
    argv = [command, "--prime", pick(rng, PRIMES)] + ["--json"] * (rng.random() < 0.5)
    for option, pool in options.items():
        argv += [option, pick(rng, pool)] if rng.random() < 0.8 else []
    return argv + ["--"] * (rng.random() < 0.5) + [pick(rng, pool) for pool in positionals]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def exit_problem(capsys, argv, code, out, err):
    """What is wrong with this run's exit, or None."""
    if "internal error" in err:
        return f"an internal error: {err.strip()}"
    if code == 2:
        return None if err and not out else "exit 2 with no message, or with output"
    if code == 0:
        return None
    if code != 1:
        return f"exit {code}"
    if argv[0] == "verify":
        return None if "REJECTED" in err else "verify exits 1 for a document it accepts"
    if argv[0] not in FALSE_VERDICT:
        return f"{argv[0]} has no false verdict, yet exits 1"
    if "--json" not in argv:
        code, out, err = run(capsys, [argv[0], "--json", *argv[1:]])
    if code != 1 or not FALSE_VERDICT[argv[0]](json.loads(out)["result"]):
        return "exit 1 without a false verdict in the certificate"
    return None


def test_cli_exit_codes_under_fuzz(capsys, tmp_path):
    rng = random.Random(2525)
    tampered = tmp_path / "tampered.json"
    doc = json.loads((GOLDEN / "isotropy.json").read_text(encoding="utf-8"))
    doc["result"]["isotropic"] = True
    tampered.write_text(json.dumps(doc), encoding="utf-8")
    documents = [str(GOLDEN / "slopes.json"), str(GOLDEN / "predicate.json"), str(tampered),
                 str(tmp_path / "missing.json"), str(GOLDEN.parent / "conftest.py"), str(tmp_path)]
    commands = [*SLOTS, "verify"]
    problems, codes = [], set()
    for k in range(200):
        command = commands[k % len(commands)]
        argv = ["verify", rng.choice(documents)] if command == "verify" else draw(rng, command)
        code, out, err = run(capsys, argv)
        codes.add(code)
        problem = exit_problem(capsys, argv, code, out, err)
        if problem:
            problems.append(f"{argv}: {problem}")
    assert problems == []
    assert codes == {0, 1, 2}


def test_a_file_verify_cannot_read_is_an_input_error(capsys, tmp_path):
    """A missing file or a directory exits 2 with the reason, not as an internal error."""
    for path in (tmp_path / "missing.json", tmp_path):
        code, out, err = run(capsys, ["verify", str(path)])
        assert code == 2 and out == "" and err.startswith("error: [Errno ") and str(path) in err
