"""
The quotient oracle
===================

Every mildness verdict can be cross-checked: build the graded quotient
degree by degree on normal words, row-reduce over GF(2), and compare its
dimensions against the predicted series.
"""

from mild2 import eliminate_generator, koch_presentation, strongly_free_oracle
from mild2.quadlie import F2PI

relators = eliminate_generator(koch_presentation((41, 13, 5, 3, 19))).relators

# Over F2 the quotient dimensions must follow 1/(1 - 4t + 4t^2).
result = strongly_free_oracle(relators, 6)
print(result.profile.table())
print("expected:", list(result.expected_dims))
print("match:   ", result.match)
print()

# Over F2[pi] the relators carry no pi, so the quotient is F2[pi] tensored
# with the F2 one: each degree sums the F2 slices below it, and the
# dimensions follow the same series divided by (1 - t).
result_pi = strongly_free_oracle(relators, 5, ring=F2PI)
print(result_pi.profile.table())
print("expected:", list(result_pi.expected_dims))
print("match:   ", result_pi.match)
print()

# A non-example: {x1^2, [x1,x2]} generates too large an ideal, and the
# oracle pinpoints the first degree where the series prediction breaks.
from mild2.linking import QuadraticRelator

control = (
    QuadraticRelator(2, (1, 0), frozenset()),
    QuadraticRelator(2, (0, 0), {(1, 2)}),
)
bad = strongly_free_oracle(control, 4)
print("control dims:", list(bad.oracle_dims))
print("series says: ", list(bad.expected_dims))
print("mismatch at degree:", bad.mismatch_degree)
