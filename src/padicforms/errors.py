"""Exception hierarchy for the padicforms package.

Every error that a caller can trigger through bad input or an exhausted
search budget has its own class, so tests and the CLI can distinguish
usage errors (exit code 2) from negative verdicts (exit code 1).
"""


class PadicFormsError(Exception):
    """Base class for all package errors."""


class PreconditionFailed(PadicFormsError):
    """An operation's precondition does not hold for the given input."""


class PrecisionExhausted(PadicFormsError):
    """A requested digit target exceeds the context cap, or lifting stalled."""


class SearchExhausted(PadicFormsError):
    """A bounded search hit its cap without deciding (the lattice search oracles)."""


class SearchBudgetExhausted(PadicFormsError):
    """A randomized search used up its sample budget."""


class ZeroEndpoint(PadicFormsError):
    """Newton polygon requested for a polynomial with a_0 * a_d = 0."""


class NotOneEdge(PadicFormsError):
    """A one-edge Newton polygon was required but several edges exist."""


class SlopeCollision(PadicFormsError):
    """The evaluation point valuation equals the negated slope."""


class BadDecomposition(PadicFormsError):
    """A polynomial decomposition does not have the required shape."""


class FactorizationUncertified(PadicFormsError):
    """A required irreducible factorization cannot be certified exactly."""


class OddVertex(PadicFormsError):
    """A Newton polygon vertex of odd degree violates a precondition."""


class NotCoprime(PadicFormsError):
    """Symbol arguments share a nontrivial common factor."""


class NotIrreducible(PadicFormsError):
    """A modulus is reducible, or its irreducibility cannot be certified."""


class ConditionFailed(PadicFormsError):
    """A certified condition re-check failed; the payload names the symbol."""


class EvenValuation(PadicFormsError):
    """An odd order at t was required."""


class ParseError(PadicFormsError):
    """Polynomial text does not match the grammar.

    Attributes:
        position: zero-based offset of the offending token.
        expected: short description of what was expected there.
    """

    def __init__(self, message, position, expected=None):
        super().__init__(message)
        self.position = position
        self.expected = expected
