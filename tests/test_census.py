"""Every function in src/padicforms is run by a golden command or by verify, or is listed with a reason.

A fresh interpreter runs each golden's argv (``test_golden.CASES``) with
``--json``, then ``verify`` on every golden, in process, under
``sys.setprofile``, and reports the code objects it entered.  A fresh one,
so that module imports (and the decorators they run) and cold memos count
the same whatever other tests ran before.  A function is named by
its module and qualified name, and found by the first line of its
definition, decorators included.  The census fails on a function reached
by none of those commands that ``UNREACHED`` does not list, and on a
``UNREACHED`` key that names no function or a reached one.  A key names a
function or a whole class.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import padicforms

from test_golden import CASES, GOLDEN

PACKAGE = Path(padicforms.__file__).resolve().parent

_CHILD = r"""
import contextlib, io, json, sys
from pathlib import Path
cases, goldens = json.load(sys.stdin)
entered = set()

def note(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

sys.setprofile(note)
from padicforms.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main(argv + ["--json"]) for argv in cases] + [main(["verify", path]) for path in goldens]
sys.setprofile(None)
reached = sorted({(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in entered})
json.dump([codes, reached], sys.stdout)
"""

_OPERATORS = "operator protocol of a public type, used by tests and library callers"
_EXTENSION = ("the extension field K = Q_p[t]/(q) (squares, square classes and Hilbert symbols over K, "
              "second residues, the square criterion, Hensel lifts over K): public API, used by demos, "
              "tests and the squares and lifting benchmarks; no golden builds one")
_VERIFY_DIFF = "verify's report of a difference: every golden verifies clean, CI's tampered documents reach it"
_CORPUS = "a corpus law other than check-recip, the one the corpus golden runs"
_IMMUTABLE = "the immutability, hashing, pickling and printing of the validated records"
_PREDICATE = "a true predicate verdict or a predicate without --gamma; the predicate golden is false, at gamma 2"

# name -> why no golden command or verify reaches it
UNREACHED = {
    "__init__.__dir__": "module protocol: dir(padicforms) lists the names bound on first use",
    "certificates._diff": _VERIFY_DIFF,
    "certificates._json": _VERIFY_DIFF,
    "certificates._parts": _VERIFY_DIFF,
    "certificates._predicate_witness": _PREDICATE,
    "construct.ConditionReport.all_hold": "public API, used by tests and the construct benchmark",
    "construct.SymbolCondition.holds": "public API, used by tests, demos and the construct benchmark",
    "construct._reconstruct": "a rational root of the residue polynomial, read only when it has a root modulo ell",
    "construct.corollary_isotropy": "public API: the isotropy corollary of a true predicate verdict, demos, benchmark",
    "construct.verify_conditions": "public API, used by tests",
    "extensions.LocalField": _EXTENSION,
    "extensions.LocalFieldElement": _EXTENSION,
    "extensions._DyadicClasses": _EXTENSION,
    "extensions._character": _EXTENSION,
    "extensions._field_for": _EXTENSION,
    "extensions._integer_rows": _EXTENSION,
    "extensions._inverse": _EXTENSION,
    "extensions._lattice_w": _EXTENSION,
    "extensions._least_unit_tag": _EXTENSION,
    "extensions._mask": _EXTENSION,
    "extensions._residue_character": _EXTENSION,
    "extensions._tame_symbol": _EXTENSION,
    "extensions.as_base_rational": _EXTENSION,
    "extensions.hilbert_symbol": _EXTENSION,
    "extensions.is_square": _EXTENSION,
    "extensions.square_class": _EXTENSION,
    "extensions.square_class_of": _EXTENSION,
    "h10.choose_c": _PREDICATE,
    "h10.find_gamma": _PREDICATE,
    "h10.run_predicate_corpus": _CORPUS,
    "h10.strip_t": _PREDICATE,
    "h10.witness_g": _PREDICATE,
    "newton.FiniteFieldPoly.__divmod__": _OPERATORS,
    "newton.FiniteFieldPoly.__floordiv__": _OPERATORS,
    "newton.FiniteFieldPoly.__hash__": _OPERATORS,
    "newton.FiniteFieldPoly.__repr__": _OPERATORS,
    "newton.SlopeFactorization.residual_valuation": ("public API: the exact residual valuation, used by tests;"
                                                     " slope_factorization tests its residual by divisibility"),
    "newton.square_class_at_root_one_edge": "public API: the one-edge square-class evaluation, used by tests",
    "padics.Immutable.__delattr__": _IMMUTABLE,
    "padics.Immutable.__hash__": _IMMUTABLE,
    "padics.Immutable.__reduce__": _IMMUTABLE,
    "padics.Immutable.__repr__": _IMMUTABLE,
    "padics.Immutable.__setattr__": _IMMUTABLE,
    "padics.PadicContext.least_nonresidue": "odd-p square classes and the default gamma, which no golden needs",
    "padics.square_class_representatives": "public API, used by tests",
    "polynomials.PadicPolynomial.__repr__": _OPERATORS,
    "polynomials.PadicPolynomial.__rsub__": _OPERATORS,
    "polynomials.RationalFunction.__repr__": _OPERATORS,
    "polynomials.RationalFunction.equals": "public API, used by tests",
    "quadform.DiagonalForm.scaled": "public API, used by tests",
    "quadform.FunctionFieldForm": "forms over K(t) for the residue analysis, built by the corollary and by tests",
    "quadform.local_field": _EXTENSION,
    "quadform.milnor_isotropy": "the isotropy corollary, see construct.corollary_isotropy",
    "quadform.second_residue": _EXTENSION,
    "quadform.springer_anisotropy": "public API: Springer's theorem over K(t), used by tests",
    "quadform.witt_zero": "public API: Witt-class test over Q_p, used by tests",
    "reciprocity.check_pi_power_invariance": _CORPUS,
    "reciprocity.constant_symbol_check": _CORPUS,
    "reciprocity.explicit_square_criterion": _CORPUS,
    "reciprocity.random_coprime_poly": _CORPUS,
    "reciprocity.random_poly": _CORPUS,
    "reciprocity.random_rational": _CORPUS,
}


def defined_functions() -> dict:
    """(path, first line) -> module.qualname for every def in the package."""
    out = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[str(path), first] = prefix + child.name
                walk(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path, f"{path.stem}.")
    return out


def listed(name: str):
    """The UNREACHED key that covers a function: its own name or its class's."""
    return next((key for key in (name, name.rsplit(".", 1)[0]) if key in UNREACHED), None)


def test_every_function_is_reached_or_listed():
    paths = [str(path) for path in sorted(GOLDEN.glob("*.json"))]
    child = subprocess.run(
        [sys.executable, *(["-O"] if sys.flags.optimize else []), "-c",
         f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r})\n" + _CHILD],
        input=json.dumps([[argv for argv, _ in CASES.values()], paths]),
        capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    codes, reached = json.loads(child.stdout)
    assert codes == [code for _, code in CASES.values()] + [0] * len(paths)
    reached = {tuple(entry) for entry in reached}

    functions = defined_functions()
    missing = sorted(name for key, name in functions.items() if key not in reached and not listed(name))
    assert missing == [], f"reached by no golden command or verify, and not listed: {missing}"
    stale = sorted(
        {listed(name) for key, name in functions.items() if key in reached and listed(name)}
        | (set(UNREACHED) - {listed(name) for name in functions.values()}))
    assert stale == [], f"listed in UNREACHED but reached, or no function: {stale}"
    assert all(reason for reason in UNREACHED.values())
