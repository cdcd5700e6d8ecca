"""Each CLI command loads only the modules it runs, and the package's names resolve on first use.

``padicforms`` binds its public names through a module ``__getattr__``
(PEP 562), and the CLI, ``certificates``, ``h10``, ``newton`` and
``quadform`` reach the modules that only some calls need as
``padicforms.<module>.<name>``.  A module-level import added back to any
of them shows here as a module in the loaded set of a command that does
not run it.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import padicforms

ROOT = Path(__file__).resolve().parent.parent

# a command run the way ``python -m padicforms.cli`` runs it, in a fresh interpreter: its
# exit code, whether ``dataclasses`` is loaded, then the padicforms submodules loaded when it is done
CHILD = """
import contextlib, io, runpy, sys
sys.argv = ["padicforms", *sys.argv[1:]]
code = 0
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("padicforms.cli", run_name="__main__")
    except SystemExit as exc:
        code = exc.code
print(code, "dataclasses" in sys.modules, *sorted(name for name in sys.modules if name.startswith("padicforms.")))
"""

# row -> (argv after its subcommand, exit code, the submodules it loads); a row is named by its
# subcommand, then what sets it apart from that subcommand's other rows, and the cli module
# itself runs as __main__.  slopes and squareclass load no module of the construction, no command
# whose fields are all Q_p loads extensions, and neither do the symbols, the laws or construct-s
# over moduli of degree 2 and more, which read their places through remainders and resultants
LOADS = {
    "newton": (["--prime", "3", "t^2+3*t+9", "--json"], 0,
               "certificates errors newton padics parsing polynomials"),
    "slopes": (["--prime", "3", "t^2 - 12*t + 27", "--json"], 0,
               "certificates errors newton padics parsing polynomials"),
    "squareclass": (["--prime", "3", "12", "--json"], 0, "certificates errors padics parsing polynomials"),
    "hilbert": (["--prime", "2", "2", "5", "--json"], 0, "certificates errors oracles padics parsing polynomials"),
    "symbol": (["--prime", "3", "t - 1", "t - 3", "--json"], 0,
               "certificates errors padics parsing polynomials quadform reciprocity"),
    "symbol over a cubic": (["--prime", "2", "--json", "--", "t^3 + t + 5", "t^2 + t + 1"], 0,
                            "certificates errors newton padics parsing polynomials quadform reciprocity"),
    "check-mult": (["--prime", "3", "t - 1", "t + 5", "t - 3", "--json"], 0,
                   "certificates errors padics parsing polynomials quadform reciprocity"),
    "check-mult over a quadratic": (["--prime", "3", "--json", "--", "t + 1", "t^2 + 2", "t^2 + 1"], 0,
                                    "certificates errors newton padics parsing polynomials quadform reciprocity"),
    "check-recip": (["--prime", "3", "t - 1", "t - 3", "--json"], 0,
                    "certificates errors padics parsing polynomials quadform reciprocity"),
    "isotropy": (["--prime", "3", "1,-2,-3,6", "--json"], 1,
                 "certificates errors oracles padics parsing polynomials quadform"),
    "construct-s": (["--prime", "3", "--gamma", "2", "t^2 - 3", "--json"], 0,
                    "certificates construct errors newton padics parsing polynomials quadform reciprocity"),
    "construct-s at p = 5": (["--prime", "5", "--gamma", "2", "--json", "--", "t^2 + 5*t + 10"], 0,
                             "certificates construct errors newton padics parsing polynomials quadform reciprocity"),
    "predicate": (["--prime", "3", "--gamma", "2", "1/t", "--json"], 1,
                  "certificates errors h10 newton padics parsing polynomials quadform"),
    "elliptic-point": (["--prime", "3", "3", "--digits", "40", "--json"], 0,
                       "certificates errors extensions h10 newton padics parsing polynomials"),
    "corpus": (["--prime", "2", "--cases", "5", "check-recip", "--json"], 0,
               "certificates errors newton padics parsing polynomials quadform reciprocity"),
    "verify": ([str(ROOT / "tests" / "golden" / "slopes.json")], 0,
               "certificates errors newton padics parsing polynomials"),
}

# module -> its one class still built by @dataclass: perfbench/test_checks.py calls dataclasses.replace
# on these three, so they stay dataclasses; every other record is a NamedTuple or an Immutable
DATACLASSES = {"reciprocity": "LawCheck", "extensions": "HenselWitness", "construct": "CorollaryResult"}


# every name the package exported when it imported all its submodules, by defining module
EXPORTED = {
    "errors": "BadDecomposition ConditionFailed EvenValuation FactorizationUncertified NotCoprime NotIrreducible"
              " NotOneEdge OddVertex PadicFormsError ParseError PrecisionExhausted PreconditionFailed"
              " SearchBudgetExhausted SearchExhausted SlopeCollision ZeroEndpoint",
    "padics": "PadicContext hilbert_symbol_qp is_square_rational square_class_rational square_class_representatives",
    "polynomials": "PadicPolynomial RationalFunction",
    "newton": "FiniteFieldPoly NewtonPolygon SlopeFactorization finite_field_irreducible newton_polygon"
              " random_irreducible_search slope_factorization square_class_at_root_one_edge",
    "extensions": "HenselWitness LocalField LocalFieldElement SquareClassTag hensel_lift hilbert_symbol is_square"
                  " square_class",
    "quadform": "DiagonalForm FunctionFieldForm MilnorVerdict PfisterSlot ResidueSplit i2_class isotropic_over_local"
                " milnor_isotropy second_residue springer_anisotropy witt_zero",
    "reciprocity": "check_multiplicativity check_pi_power_invariance check_reciprocity constant_symbol_check"
                   " explicit_square_criterion legendre_symbol run_law_corpus",
    "construct": "ConstructionParams ConstructionResult SlopeRing construct_s corollary_isotropy prepare"
                 " verify_conditions",
    "h10": "anisotropy_at_t build_f choose_c elliptic_constant_point find_gamma predicate_vt_nonneg"
           " run_predicate_corpus",
    "parsing": "parse_poly parse_rational_function parse_rational_scalar",
    "certificates": "SCHEMA dump_certificate make_certificate verify_certificate verify_certificate_file",
}


def _run(*args):
    """A child interpreter that imports the package this test imported."""
    path = os.pathsep.join([str(Path(padicforms.__file__).parent.parent), os.environ.get("PYTHONPATH", "")])
    return subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            env={**os.environ, "PYTHONPATH": path})


def test_each_command_loads_only_the_modules_it_runs():
    """One fresh interpreter per row, all started before any is read."""
    procs = {row: _run("-c", CHILD, row.split()[0], *argv) for row, (argv, _, _) in LOADS.items()}
    bare = _run("-c", "import sys, padicforms; print(*sorted(n for n in sys.modules if n.startswith('padicforms')))")
    got = {row: proc.communicate()[0].split() for row, proc in procs.items()}
    assert bare.communicate()[0].split() == ["padicforms"]  # __init__ itself needs no submodule
    # only the modules holding a DATACLASSES class import dataclasses
    want = {row: [str(code), str(bool(DATACLASSES.keys() & modules.split())),
                  *(f"padicforms.{m}" for m in modules.split())]
            for row, (_, code, modules) in LOADS.items()}
    assert got == want
    qp_only = ("newton", "slopes", "squareclass", "hilbert", "isotropy", "predicate")
    assert {got[command][1] for command in qp_only} == {"False"}
    assert not [command for command in qp_only if "padicforms.extensions" in got[command]]
    places = ("symbol over a cubic", "check-mult over a quadratic", "construct-s", "construct-s at p = 5")
    assert not [row for row in places if "padicforms.extensions" in got[row]]
    assert "padicforms.construct" not in got["symbol over a cubic"]
    construction = {"construct", "h10", "quadform", "reciprocity", "extensions"}
    assert not construction & {*LOADS["slopes"][2].split(), *LOADS["squareclass"][2].split()}


def test_only_the_records_perfbench_replaces_are_dataclasses():
    found = {
        (path.stem, node.name)
        for path in sorted((ROOT / "src" / "padicforms").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        for deco in node.decorator_list
        if "dataclass" in ast.unparse(deco)
    }
    assert found == set(DATACLASSES.items())


def test_the_public_surface_is_what_the_package_exported():
    names = {name: module for module, names in EXPORTED.items() for name in names.split()}
    assert sorted(padicforms.__all__) == sorted(names)
    assert set(names) <= set(dir(padicforms))
    for name, module in names.items():
        assert getattr(padicforms, name) is getattr(importlib.import_module(f"padicforms.{module}"), name), name
    namespace = {}
    exec("from padicforms import *", namespace)
    assert {name: namespace[name] for name in names} == {name: getattr(padicforms, name) for name in names}
    assert padicforms.oracles is importlib.import_module("padicforms.oracles")
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        padicforms.nonexistent
    with pytest.raises(ImportError):
        exec("from padicforms import nonexistent", {})
