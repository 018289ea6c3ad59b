"""
Explicit bases for free mixed Lie algebras
==========================================

The positive part of a free mixed Lie algebra is again free, on an explicit
family of bracket words.  We enumerate that family, check its size against
the generating polynomial, and evaluate a few members inside the enveloping
algebra.
"""

from mild2.oracle import independent_in_degree
from mild2.quadlie import (
    WeightedAlphabet,
    elimination_basis,
    enumerate_y,
    evaluate,
    render_bracket,
    unit_alphabet,
    y_count_poly,
)

# Two weight-1 letters.  Degree 2 holds the squares P(x1), P(x2) and the
# bracket [x1, x2]; from degree 3 on everything is an iterated ad-chain.
X = unit_alphabet(2)
family = enumerate_y(X, 5)
for degree in sorted(family):
    words = [render_bracket(w) for w in family[degree]]
    print(f"degree {degree}: {words}")
print()

# The per-degree counts are the coefficients of 1 - (1+t)^m (1 - sum t^e_i).
counts = y_count_poly(X, 5)
print("predicted counts:", counts[2:])
print("observed counts: ", [len(family.get(k, [])) for k in range(2, 6)])
print()

# Mixed weights are allowed: one weight-1 letter and one weight-2 letter.
Y = WeightedAlphabet((1, 2))
for degree, words in enumerate_y(Y, 4).items():
    print(f"degree {degree}: {[render_bracket(w) for w in words]}")
print()

# Evaluating the degree-3 family in the enveloping algebra over F2 gives
# linearly independent polynomials, as a basis must.
polys = [evaluate(w, X, "F2") for w in family[3]]
for w, p in zip(family[3], polys):
    print(f"{render_bracket(w)} = {p}")
print("rank:", independent_in_degree(polys))
print()

# Eliminating a subset sigma of the letters leaves a free algebra on the
# chains ad(s_1)..ad(s_n)(x) with every s_i in sigma and x outside it.
Z = unit_alphabet(3)
basis = elimination_basis(Z, {1}, 4)
print("eliminate {x1}:", [render_bracket(w) for w in basis])
