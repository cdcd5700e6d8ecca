"""Newton polygons, slope factorization, reductions, the one-edge evaluation."""

import random
from fractions import Fraction

import pytest

from padicforms import (
    BadDecomposition,
    FiniteFieldPoly,
    LocalField,
    NotIrreducible,
    PadicContext,
    PrecisionExhausted,
    SlopeCollision,
    ZeroEndpoint,
    finite_field_irreducible,
    is_square_rational,
    newton_polygon,
    random_irreducible_search,
    slope_factorization,
    square_class_at_root_one_edge,
    square_class_rational,
)
from padicforms import newton
from padicforms.newton import min_coefficient_valuation, reduce_one_edge
from padicforms.parsing import parse_poly

from conftest import poly


def test_polygon_single_edge(c3):
    pg = newton_polygon(poly([9, 3, 1], c3))
    assert pg.vertices == ((0, 2), (2, 0))
    assert pg.slopes == (Fraction(-1),)
    assert (1, 1) in pg.points  # on the hull but not a vertex
    assert pg.all_vertices_even()


def test_polygon_two_edges(c5):
    pg = newton_polygon(poly([5, 1, 1], c5))  # t^2 + t + p
    assert [e.slope for e in pg.edges] == [Fraction(-1), Fraction(0)]
    assert (1, 0) in pg.vertices  # odd-degree vertex present
    assert not pg.all_vertices_even()


def test_polygon_two_edge_example(c3):
    pg = newton_polygon(poly([27, -12, 1], c3))
    assert [(p, v) for p, v in pg.points] == [(0, 3), (1, 1), (2, 0)]
    assert [e.slope for e in pg.edges] == [Fraction(-2), Fraction(-1)]


def test_polygon_zero_endpoint(c3):
    with pytest.raises(ZeroEndpoint):
        newton_polygon(poly([0, 1], c3))


def test_slope_factorization_exact_roots(c3):
    f = poly([27, -12, 1], c3)  # (t-3)(t-9)
    fac = slope_factorization(f, 40)
    assert [x.slope for x in fac.factors] == [Fraction(-2), Fraction(-1)]
    assert fac.residual_valuation(f) > 40
    # factors approximate t-9 and t-3 to 40 digits
    assert c3.vp(fac.factors[0].poly.constant_coefficient() + 9) > 40
    assert c3.vp(fac.factors[1].poly.constant_coefficient() + 3) > 40


def test_slope_factorization_single_edge_identity(c3):
    f = poly([9, 3, 1], c3)
    fac = slope_factorization(f, 40)
    assert len(fac.factors) == 1
    assert fac.factors[0].poly == f


def test_slope_factorization_mixed(c3):
    f = poly([27, -3, -9, 1], c3)  # (t-9)(t^2-3)
    fac = slope_factorization(f, 40)
    assert [x.slope for x in fac.factors] == [Fraction(-2), Fraction(-1, 2)]
    assert fac.residual_valuation(f) > 40
    target = poly([-3, 0, 1], c3)
    diff = fac.factors[1].poly - target
    assert min_coefficient_valuation(diff) > 40


def test_slope_factorization_random_roundtrip(contexts):
    rng = random.Random(11)
    for ctx in contexts:
        for _ in range(12):
            deg = rng.randint(1, 6)
            coeffs = [Fraction(rng.randint(-9, 9) * ctx.p ** rng.randint(0, 2)) for _ in range(deg)]
            coeffs.append(Fraction(1))
            if coeffs[0] == 0:
                coeffs[0] = Fraction(ctx.p)
            f = poly(coeffs, ctx)
            fac = slope_factorization(f, 40)
            assert fac.residual_valuation(f) > 40
            for x in fac.factors:
                pg = newton_polygon(x.poly)
                assert len(pg.edges) == 1 and pg.edges[0].slope == x.slope
    # several slopes, a leading unit and coefficient valuations -6..20, each split lifted once
    for p in (2, 3, 5, 7, 101):
        ctx = PadicContext(p)
        cases = 0
        while cases < 8:
            deg = rng.randint(2, 10)
            coeffs = [
                Fraction(rng.randint(-99, 99), rng.randint(1, 99)) * Fraction(p) ** rng.randint(-6, 20)
                if k in (0, deg) or rng.random() < 0.7 else 0
                for k in range(deg + 1)
            ]
            if coeffs[0] == 0 or coeffs[-1] == 0:
                continue
            f = poly(coeffs, ctx)
            pg = newton_polygon(f)
            if len(pg.edges) < 2:
                continue
            cases += 1
            digits = rng.randint(0, 120)
            fac = slope_factorization(f, digits)
            assert fac.residual_valuation(f) > digits and fac.unit == coeffs[-1]
            assert [(x.slope, x.degree) for x in fac.factors] == [(e.slope, e.length) for e in pg.edges]
            for x in fac.factors:
                assert newton_polygon(x.poly).slopes == (x.slope,)


def test_slope_factorization_checks_its_residual(c3, monkeypatch):
    """Factors off by 3^20 miss a 40-digit residual: PrecisionExhausted, with no retry."""
    split_all = newton._split_all
    calls = []

    def off(fm, n):
        calls.append(fm.degree)
        *left, last = split_all(fm, n)
        return left + [last + poly([3 ** 20], c3)]

    monkeypatch.setattr(newton, "_split_all", off)
    with pytest.raises(PrecisionExhausted, match="residual"):
        slope_factorization(poly([27, -12, 1], c3), 40)
    assert calls == [2, 1]  # f split once, then its left part


def test_root_valuations_match_slopes(c3):
    # (t-1)(t-3)(t-9): roots of valuation 0, 1, 2
    f = poly([-27, 39, -13, 1], c3)
    pg = newton_polygon(f)
    vals = sorted(-e.slope for e in pg.edges for _ in range(e.length))
    assert vals == [0, 1, 2]


def test_reduction_irreducibility(c3):
    """The two polygon criteria certify a modulus, naming the one that fired, or LocalField refuses it."""
    assert newton.polygon_irreducible(poly([-3, 0, 1], c3), c3) == (Fraction(-1, 2), None)  # eisenstein-type
    with pytest.raises(NotIrreducible):
        LocalField(poly([-1, 0, 1], c3))  # splits
    for a_exp in (1, 2, 5):
        f = poly([-3, 3 ** a_exp, 0], c3) + poly([0, 0, 1], c3)
        assert LocalField(f).ramification_index == 2
    with pytest.raises(NotIrreducible):
        LocalField(poly([27, -12, 1], c3))  # two slopes


def test_reduce_one_edge(c3):
    # t^2 - 9 has slope -1; reduction is u^2 - 1 over F_3
    red = reduce_one_edge(poly([-9, 0, 1], c3))
    assert red == FiniteFieldPoly((2, 0, 1), 3)
    # t^4 + 3 t^2 + 18 has slope -1/2; reduction u^2 + u + 2 over F_3
    red2 = reduce_one_edge(poly([18, 0, 3, 0, 1], c3))
    assert red2 == FiniteFieldPoly((2, 1, 1), 3)


def test_finite_field_irreducible():
    assert finite_field_irreducible(FiniteFieldPoly((1, 0, 1), 3))  # u^2+1
    assert not finite_field_irreducible(FiniteFieldPoly((2, 0, 1), 3))  # u^2-1
    assert finite_field_irreducible(FiniteFieldPoly((1, 1, 1), 2))
    assert not finite_field_irreducible(FiniteFieldPoly((1, 0, 0, 0, 1), 3))  # u^4+1


def test_random_irreducible_search():
    rng = random.Random(13)
    hbar = FiniteFieldPoly((2, 0, 1), 3)  # reduction of t^2 - 9
    found = random_irreducible_search(hbar, 1, 3, 0, rng)
    assert finite_field_irreducible(found.cbar)
    assert found.e_prime % 2 == 0 and found.e_prime >= 6
    assert found.cbar.degree == hbar.degree + found.e_prime


IRREDUCIBILITY_PRIMES = (2, 3, 5, 7, 10007)


def _sympy_irreducible(g):
    import sympy

    return sympy.Poly(list(reversed(g.coeffs)), sympy.Symbol("u"), modulus=g.p).is_irreducible


def _random_ff(rng, p, n, monic):
    top = 1 if monic else rng.randrange(1, p)
    return FiniteFieldPoly([rng.randrange(p) for _ in range(n)] + [top], p)


def _random_irreducible(rng, p, n):
    while True:
        g = _random_ff(rng, p, n, monic=True)
        if _sympy_irreducible(g):
            return g


@pytest.mark.parametrize("p", IRREDUCIBILITY_PRIMES)
def test_finite_field_irreducible_against_sympy(p):
    """Ben-Or's test agrees with sympy's on every kind of input, degrees 1-16."""
    rng = random.Random(p)
    cases = []
    for n in range(1, 17):
        cases += [_random_ff(rng, p, n, monic=True), _random_ff(rng, p, n, monic=False)]
        if n >= 2:
            k = rng.randrange(1, n)
            cases.append(_random_irreducible(rng, p, k) * _random_irreducible(rng, p, n - k))
            cases.append(FiniteFieldPoly((0, 1), p) * _random_ff(rng, p, n - 1, monic=False))
        if n % 2 == 0:
            f = _random_irreducible(rng, p, n // 2)
            cases.append(f * f)
        cases.append(_random_irreducible(rng, p, n))
    for g in cases:
        assert finite_field_irreducible(g) == _sympy_irreducible(g), g


@pytest.mark.parametrize("p", IRREDUCIBILITY_PRIMES)
def test_window_candidates_against_sympy(p, monkeypatch):
    """Every candidate random_irreducible_search tests gets sympy's verdict."""
    import padicforms.newton as newton

    seen = []

    def recording(g):
        seen.append(g)
        return finite_field_irreducible(g)

    monkeypatch.setattr(newton, "finite_field_irreducible", recording)
    for seed in range(6):
        rng = random.Random(seed)
        hbar = FiniteFieldPoly([rng.randrange(1, p), rng.randrange(p), 1], p)
        found = random_irreducible_search(hbar, rng.randrange(1, p), 1 + seed % 4, seed % 2, rng)
        assert seen[-1] == found.cbar
    assert any(not finite_field_irreducible(g) for g in seen)
    for g in seen:
        assert finite_field_irreducible(g) == _sympy_irreducible(g), g


@pytest.mark.parametrize("p, a16, b16, a8, b8, c8", [(10007, 1, 30, 1, 5, 27), (2**61 - 1, 1, 6, 1, 9, 14)])
def test_cliff_irreducible_large_p(p, a16, b16, a8, b8, c8):
    """Degree 16 at a large p, where any step of Ben-Or's test that is O(p) would not finish.

    t^16 + a16 t + b16 is irreducible; (t^8 + a8 t + b8)(t^8 + a8 t + c8) is
    a product of two irreducibles (both checked with sympy when the inputs
    were chosen), so the test runs through every k <= 8 before it answers.
    """
    def trinomial(n, a, b):
        return FiniteFieldPoly([b, a] + [0] * (n - 2) + [1], p)

    newton._ben_or.cache_clear()  # time the test itself, not a memoised verdict

    assert finite_field_irreducible(trinomial(16, a16, b16))
    assert not finite_field_irreducible(trinomial(8, a8, b8) * trinomial(8, a8, c8))


def _assemble(a, g, z, big_n, ctx):
    deg_g = g.degree if not g.is_zero() else 0
    deg_z = z.degree
    return a + g.shift(big_n) + z.shift(2 * big_n + deg_g - deg_z)


def test_prop_one_edge_value_examples(c3):
    f = poly([9, 0, 1], c3)  # t^2 + 9, a = 9, g = 0, z = 1, N = 1
    a = poly([9], c3)
    g = poly([], c3)
    z = poly([1], c3)
    # alpha = 1: slope -1 < -v(1) = 0, so class of z(1) = 1
    assert square_class_at_root_one_edge(f, a, g, z, 1, Fraction(1)) == 1
    assert square_class_rational(f.evaluate(Fraction(1)), c3) == 1  # f(1) = 10 is a square
    assert is_square_rational(Fraction(10), c3)
    # alpha = 9: slope -1 > -v(9) = -2, so class of a(9) = 9 ~ 1
    assert square_class_at_root_one_edge(f, a, g, z, 1, Fraction(9)) == 1
    assert square_class_rational(f.evaluate(Fraction(9)), c3) == 1  # f(9) = 90 = 9 * 10
    with pytest.raises(SlopeCollision):
        square_class_at_root_one_edge(f, a, g, z, 1, Fraction(3))


def test_prop_one_edge_at_a_point_of_an_extension(c2, c3):
    """alpha in Q_3(sqrt 3), Q_2(sqrt 2) or Q_2(zeta_3): f over Q_p is evaluated across fields."""
    from padicforms import square_class

    k3 = LocalField(poly([-3, 0, 1], c3))
    k2 = LocalField(poly([-2, 0, 1], c2))
    k2u = LocalField(poly([1, 1, 1], c2))
    cases = [  # (alpha, a, g, z, N), f = a + g t^N + z t^(2N + deg g - deg z)
        (k3.gen(), [1], [], [1], 1),  # f = 1 + t^2, slope 0 > -1/2: the class of a(alpha)
        (k3.gen(), [2], [], [1], 1),
        (k3.gen(), [2], [3], [1], 1),
        (k3.gen(), [9], [], [2], 1),  # f = 9 + 2 t^2, slope -1 < -1/2: the class of z(alpha)
        (k3.gen(), [27], [], [1], 1),
        (k2.gen(), [3], [], [1], 5),  # v(4) / |m + v(alpha)| = 4 < N
        (k2.gen(), [3 * 2**10], [], [3], 5),
        (k2u.gen(), [1, 2], [], [64], 3),  # alpha a unit, slope 1
        (k2u.gen(), [64], [], [4, 0, 1], 3),  # slope -1
    ]
    sides = set()
    for alpha, a, g, z, big_n in cases:
        a, g, z = poly(a, alpha.field.context), poly(g, alpha.field.context), poly(z, alpha.field.context)
        f = _assemble(a, g, z, big_n, alpha.field.context)
        sides.add(newton_polygon(f).single_edge().slope < -alpha.valuation)
        want = square_class(f.evaluate(alpha), alpha.field)
        assert square_class_at_root_one_edge(f, a, g, z, big_n, alpha) == want, (f.to_text(), alpha)
    assert sides == {True, False}


def test_prop_one_edge_bad_shapes(c3):
    f = poly([9, 0, 1], c3)
    with pytest.raises(BadDecomposition):
        square_class_at_root_one_edge(f, poly([8], c3), poly([], c3), poly([1], c3), 1, Fraction(1))
    with pytest.raises(BadDecomposition):  # odd degree z
        square_class_at_root_one_edge(
            poly([27, 0, 0, 1], c3), poly([27], c3), poly([], c3), poly([0, 1], c3), 1, Fraction(1)
        )


def test_prop_one_edge_random_agreement(contexts):
    """Random admissible decompositions agree with the direct square class."""
    rng = random.Random(17)
    checked = 0
    for ctx in contexts:
        done_here = 0
        for _attempt in range(4000):
            if done_here >= 40:
                break
            big_n = rng.choice([1, 3, 5]) + (2 if ctx.p == 2 else 0)
            deg_z = rng.choice([0, 2])
            if deg_z >= big_n:
                continue
            deg_g = rng.choice([0, 2])
            a_c = [Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(1, big_n))]
            if not a_c or a_c[0] == 0:
                a_c = [Fraction(rng.choice([1, 2, -1]))] + a_c[1:]
            z_c = [Fraction(rng.randint(-9, 9)) for _ in range(deg_z)] + [Fraction(rng.choice([1, -1, 2]))]
            g_c = (
                [Fraction(rng.randint(-9, 9)) for _ in range(deg_g)] + [Fraction(rng.randint(1, 9))]
                if rng.random() < 0.7
                else []
            )
            a = poly(a_c, ctx)
            z = poly(z_c, ctx)
            g = poly(g_c, ctx)
            f = _assemble(a, g, z, big_n, ctx)
            if f.degree % 2 or f.constant_coefficient() == 0:
                continue
            try:
                pg = newton_polygon(f)
                if len(pg.edges) != 1:
                    continue
                m = pg.edges[0].slope
            except ZeroEndpoint:
                continue
            alpha = Fraction(rng.randint(-20, 20) or 1, rng.randint(1, 20))
            v_alpha = ctx.vp(alpha)
            if m == -v_alpha:
                continue
            if big_n <= Fraction(ctx.v4) / abs(m + v_alpha):
                continue
            got = square_class_at_root_one_edge(f, a, g, z, big_n, alpha)
            expected = square_class_rational(f.evaluate(alpha), ctx)
            assert got == expected, (ctx.p, f.to_text(), alpha)
            checked += 1
            done_here += 1
    assert checked >= 120


def test_slope_factorization_degree_eight(contexts):
    """Durability above the acceptance scale: degree 8 at 50 digits."""
    for ctx in contexts:
        rng = random.Random(77 + ctx.p)
        for _ in range(4):
            coeffs = [
                Fraction(rng.randint(-9, 9) * ctx.p ** rng.randint(0, 3)) for _ in range(8)
            ]
            coeffs.append(Fraction(1))
            if coeffs[0] == 0:
                coeffs[0] = Fraction(ctx.p)
            f = poly(coeffs, ctx)
            fac = slope_factorization(f, 50)
            assert fac.residual_valuation(f) > 50


# Two degree-13 inputs whose split between close slopes loses digits for
# three steps (5, 2, 4, 4, 6, 10, ... at p = 7) before the quadratic phase:
# the termination rule must let such a transient pass.
STALL_INPUTS = {
    7: "10/597849*t^13 + 1438511137512729/292*t^11 - 381759/25*t^10 - 915/701092*t^9"
       " - 44/2100875*t^8 - 7203/32*t^6 - 48/4963*t^4 - 316/588245*t^2 - 13176688/479*t"
       " - 686132379821/260",
    101: "-8/7*t^13 + 21409675572507424692562819/11*t^12 - 31/8*t^11 - 4058355639/16*t^10"
         " + 678189785810197164107429772659/55*t^9 - 45978968529504892481859645604*t^8"
         " - 43/3737*t^7 + 17942212135299972911715749802262977015/2*t^5"
         " - 20780020181002857119/41*t^4 + 220712110521/8*t^2"
         " + 341427984129986825360343903/25*t + 19/142814",
}


def _assert_slope_factors(f, digits):
    fac = slope_factorization(f, digits)
    assert fac.residual_valuation(f) > digits
    polygon = newton_polygon(f)
    assert [(x.slope, x.degree) for x in fac.factors] == [(e.slope, e.length) for e in polygon.edges]
    for x in fac.factors:
        assert newton_polygon(x.poly).slopes == (x.slope,)


@pytest.mark.parametrize("p,slopes", [
    (7, [Fraction(-17, 2), Fraction(1, 6), Fraction(1, 5)]),
    (101, [Fraction(1, 7), Fraction(1, 6)]),
])
def test_cliff_two_block_lift_through_a_transient(p, slopes):
    f = parse_poly(STALL_INPUTS[p], PadicContext(p))
    assert list(newton_polygon(f).slopes) == slopes
    for digits in (0, 10, 40, 400):
        _assert_slope_factors(f, digits)


def slope_sweep(seed: int, count: int):
    """Seeded inputs for slope_factorization: (f, digits) with p in {2, 3, 5, 7, 11, 101},
    degrees 4-14, coefficient valuations -6..20 and digit targets 0-200."""
    rng = random.Random(seed)
    while count:
        p = rng.choice([2, 3, 5, 7, 11, 101])
        deg = rng.randint(4, 14)
        coeffs = [
            Fraction(rng.randint(-99, 99), rng.randint(1, 99)) * Fraction(p) ** rng.randint(-6, 20)
            if k in (0, deg) or rng.random() < 0.7 else 0
            for k in range(deg + 1)
        ]
        if coeffs[0] and coeffs[-1]:
            count -= 1
            yield poly(coeffs, PadicContext(p)), rng.randint(0, 200)


def test_slope_sweep():
    """Every sweep input factors, one edge per factor (by hand: python tests/test_newton.py 3000)."""
    for f, digits in slope_sweep(2021, 60):
        _assert_slope_factors(f, digits)


if __name__ == "__main__":
    import sys

    count = int(sys.argv[1]) if len(sys.argv) > 1 else 3000
    for f, digits in slope_sweep(2021, count):
        _assert_slope_factors(f, digits)
    print(f"{count} inputs factored")
