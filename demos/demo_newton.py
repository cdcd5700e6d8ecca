"""Newton polygons and slope factorization, worked in exact arithmetic.

Run:  python demos/demo_newton.py
"""

from fractions import Fraction

from padicforms import PadicContext, PadicPolynomial, newton_polygon, slope_factorization

ctx = PadicContext(3)


def P(coeffs):
    return PadicPolynomial.from_rationals([Fraction(c) for c in coeffs], ctx)


print("The Newton polygon of f is the lower convex hull of (i, v(a_i)).")
print("Each edge of slope m and length l predicts l roots of valuation -m.\n")

for f in (P([9, 3, 1]), P([27, -12, 1]), P([27, -3, -9, 1])):
    pg = newton_polygon(f)
    print(f"f = {f.to_text()}")
    print(f"  points   {[(i, str(v)) for i, v in pg.points]}")
    print(f"  vertices {[(i, str(v)) for i, v in pg.vertices]}")
    for e in pg.edges:
        print(f"  edge slope {e.slope}, length {e.length}"
              f"  ->  {e.length} roots of valuation {-e.slope}")
    print()

print("Factorization according to the slopes (one monic factor per edge),")
print("computed by quadratic Hensel lifting, one polygon vertex at a time,")
print("and reported to 41 digits for a 40-digit target:\n")

f = P([27, -3, -9, 1])  # (t - 9)(t^2 - 3)
fac = slope_factorization(f, 40)
for part in fac.factors:
    approx = [str(c)[:30] + ("..." if len(str(c)) > 30 else "") for c in part.poly.coeffs]
    print(f"  slope {part.slope}: degree {part.degree}, coefficients ~ {approx}")
print(f"\n  product residual valuation: {fac.residual_valuation(f)} (> 40 digits)")
print("  the factor of slope -2 approximates t - 9, the other one t^2 - 3:")
print(f"  v(constant + 9)  = {ctx.vp(fac.factors[0].poly.constant_coefficient() + 9)}")
print(f"  v(constant + 3)  = {ctx.vp(fac.factors[1].poly.constant_coefficient() + 3)}")
