from fractions import Fraction

import pytest
from hypothesis import settings

from padicforms import PadicContext, PadicPolynomial

# the same examples on every run, and no per-example deadline on a shared runner
settings.register_profile("padicforms", derandomize=True, deadline=None)
settings.load_profile("padicforms")


@pytest.fixture(scope="session")
def c2():
    return PadicContext(2)


@pytest.fixture(scope="session")
def c3():
    return PadicContext(3)


@pytest.fixture(scope="session")
def c5():
    return PadicContext(5)


@pytest.fixture(scope="session")
def contexts(c2, c3, c5):
    return [c2, c3, c5]


def poly(coeffs, ctx):
    return PadicPolynomial.from_rationals([Fraction(c) for c in coeffs], ctx)
