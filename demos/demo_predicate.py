"""Deciding "v_t(x) >= 0" through the two quadratic forms.

With f = (1 + t + t^2 x^3)/(1 + t x^3) + c t^2 and gamma chosen so that
<1,pi><1,-gamma> is anisotropic, the forms <1,pi><1,-gamma,-t,-f> and
<1,pi><1,-gamma,-t,-gamma f> are simultaneously isotropic for some c
exactly when v_t(x) >= 0.

Run:  python demos/demo_predicate.py
"""

from padicforms import PadicContext, corollary_isotropy, elliptic_constant_point, predicate_vt_nonneg
from padicforms.parsing import parse_rational_function

ctx = PadicContext(3)

for x_text in ("t", "0", "1/t", "(t^2 + 1)/(t - 3)", "(1)/(t^2)"):
    x = parse_rational_function(x_text, ctx)
    verdict, cert = predicate_vt_nonneg(x, ctx, gamma=2)
    print(f"x = {x_text:20s} v_t(x) = {str(cert.v_t_x):>4s}  verdict: {verdict}")
    if verdict:
        print(f"    witness c = {cert.witness.c}; polygon vertices "
              f"{[(i, str(v)) for i, v in cert.witness.polygon.vertices]} (all even)")
    else:
        a = cert.anisotropy
        print(f"    v_t(f) = {a.v_t_f} for every c; form {a.anisotropic_form} is"
              f" anisotropic (leading coefficient {a.leading_coefficient})")
print()

print("For x = 0 the witness polynomial g = 1 + t + c t^2 has a certified")
print("factorization, so the full auxiliary-polynomial construction runs too:")
x = parse_rational_function("0", ctx)
verdict, cert = predicate_vt_nonneg(x, ctx, gamma=2)
cor_g = corollary_isotropy(2, cert.witness.g, ctx)
cor_gg = corollary_isotropy(2, cert.witness.g * 2, ctx)
print(f"  s for g       : {cor_g.construction.s_poly.to_text()}")
print(f"  s for gamma*g : {cor_gg.construction.s_poly.to_text()}")
print(f"  both corollary certificates: {cor_g.isotropic}, {cor_gg.isotropic}\n")

print("The constants of K(t) are pinned down by the curve y^2 = x^3 - x:")
for p, y in ((3, 3), (2, 2), (5, 25)):
    c = PadicContext(p)
    x_approx, witness = elliptic_constant_point(y, c, 20)
    print(f"  p={p}, y={y}: x = {x_approx} (mod {p}^21), slack {witness.slack},"
          f" residual valuation {witness.residual_valuation}")
