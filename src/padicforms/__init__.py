"""Exact arithmetic over p-adic fields and their rational function fields.

The package computes, with no rounding anywhere: valuations and Hensel
lifts over Q_p and certified finite extensions; Newton polygons and
factorizations according to the slopes; Hilbert symbols, square classes
and isotropy of diagonal quadratic forms; a quadratic reciprocity symbol
for polynomials together with its multiplicativity, constant-evaluation
and reciprocity laws; the construction of an auxiliary polynomial making
a pair of 3-fold Pfister forms over K(t) split, with machine-checkable
certificates; and the decision of the predicate "v_t(x) >= 0" through
that machinery.

Names resolve on first use (PEP 562): ``padicforms.X``, for a public name
X or a submodule X, imports the submodule then, and ``import padicforms``
alone imports none.  Modules of the package reach the ones they need only
for some calls the same way, as ``padicforms.newton.newton_polygon``, so a
CLI command loads only the modules it runs.
"""

import sys

__version__ = "0.1.0"

# submodule -> the public names it defines and the package re-exports
_EXPORTS = {
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
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = frozenset(_EXPORTS) | {"oracles", "cli"}
__all__ = list(_HOME)


def __getattr__(name):
    """The submodule or public name, imported now; a public name is then bound here.

    ``__import__``, unlike ``importlib.import_module``, shows the submodule under
    ``python -X importtime``; a submodule is bound here once it is imported.
    """
    module = name if name in _SUBMODULES else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")
    value = sys.modules[f"{__name__}.{module}"]
    if module != name:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
