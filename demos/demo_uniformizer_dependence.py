"""Exploratory report: how the symbol depends on the choice of uniformizer.

The symbol <p/q> is defined relative to a fixed uniformizer pi, and the
definition changes when pi is replaced by u pi for a non-square unit u.
This script compares pi = p against pi = u p on a seeded corpus and
reports how often the two symbols differ.  This is an observation, not an
invariant: nothing in the library assumes any relation between the two.

Run:  python demos/demo_uniformizer_dependence.py
"""

import random
from fractions import Fraction

from padicforms import PadicContext, legendre_symbol
from padicforms.reciprocity import random_certified_irreducible, random_coprime_poly

for p, unit in ((3, 2), (5, 2), (2, 3)):
    ctx_std = PadicContext(p)
    ctx_alt = PadicContext(p, uniformizer=Fraction(unit * p))
    rng = random.Random(42)
    differ = same = 0
    for _ in range(60):
        q = random_certified_irreducible(rng, ctx_std, max_deg=3)
        f = random_coprime_poly(rng, ctx_std, q)
        q_alt = type(q)(q.coeffs, ctx_alt)
        f_alt = type(f)(f.coeffs, ctx_alt)
        s_std = legendre_symbol(f, q, ctx_std)
        s_alt = legendre_symbol(f_alt, q_alt, ctx_alt)
        if s_std == s_alt:
            same += 1
        else:
            differ += 1
    total = same + differ
    print(f"p = {p}: pi = {p} vs pi = {unit * p}: "
          f"{same}/{total} symbols agree, {differ}/{total} differ")

print("\nBoth choices satisfy every law (multiplicativity, constant rule,")
print("reciprocity) separately; certificates always record the uniformizer.")
