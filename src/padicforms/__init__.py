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
"""

from .errors import (
    BadDecomposition,
    ConditionFailed,
    EvenValuation,
    FactorizationUncertified,
    NotCoprime,
    NotIrreducible,
    NotOneEdge,
    OddVertex,
    PadicFormsError,
    ParseError,
    PrecisionExhausted,
    PreconditionFailed,
    SearchBudgetExhausted,
    SearchExhausted,
    SlopeCollision,
    ZeroEndpoint,
)
from .padics import (
    PadicContext,
    hilbert_symbol_qp,
    is_square_rational,
    square_class_rational,
    square_class_representatives,
)
from .polynomials import PadicPolynomial, RationalFunction
from .newton import (
    FiniteFieldPoly,
    NewtonPolygon,
    SlopeFactorization,
    finite_field_irreducible,
    newton_polygon,
    random_irreducible_search,
    slope_factorization,
    square_class_at_root_one_edge,
)
from .extensions import (
    HenselWitness,
    LocalField,
    LocalFieldElement,
    SquareClassTag,
    hensel_lift,
    hilbert_symbol,
    is_square,
    square_class,
)
from .quadform import (
    DiagonalForm,
    FunctionFieldForm,
    MilnorVerdict,
    PfisterSlot,
    ResidueSplit,
    i2_class,
    isotropic_over_local,
    milnor_isotropy,
    second_residue,
    springer_anisotropy,
    witt_zero,
)
from .reciprocity import (
    check_multiplicativity,
    check_pi_power_invariance,
    check_reciprocity,
    constant_symbol_check,
    explicit_square_criterion,
    legendre_symbol,
    run_law_corpus,
)
from .construct import (
    ConstructionParams,
    ConstructionResult,
    SlopeRing,
    construct_s,
    corollary_isotropy,
    prepare,
    verify_conditions,
)
from .h10 import (
    anisotropy_at_t,
    build_f,
    choose_c,
    elliptic_constant_point,
    find_gamma,
    predicate_vt_nonneg,
    run_predicate_corpus,
)
from .parsing import parse_poly, parse_rational_function, parse_rational_scalar
from .certificates import (
    SCHEMA,
    dump_certificate,
    make_certificate,
    verify_certificate,
    verify_certificate_file,
)

__version__ = "0.1.0"
