"""
Augmenting a prime set until it is mild
=======================================

A small set of odd primes rarely carries a mild presentation on its own.
Interleaving auxiliary primes, chosen by explicit quadratic-residue
conditions, repairs that: any choice that meets the conditions is mild
(the theorem written next to mild2.linking.augment), so the construction
below takes the smallest one and certifies it.
"""

import json

from mild2 import augment, check_mild, koch_presentation
from mild2.linking import interleave, normalize_seed, validate_augmentation

# Start from the pair {3, 13}.  Normalization orders the seed with the
# primes = 1 (mod 4) first.
seed = normalize_seed((3, 13))
print("normalized seed:", seed)

# The residue conditions can be checked for any candidate tuple directly.
# (41, 5) with final prime 19 satisfies all of them; swapping the auxiliary
# primes breaks condition (b).
for q_aux, q_last in [((41, 5), 19), ((5, 41), 19)]:
    report = validate_augmentation(seed, q_aux, q_last)
    print(f"q_aux={q_aux}, q_last={q_last}: ok={report.ok}")
    for line in report.violations:
        print("  violation:", line)
print()

# The construction scans candidates in ascending order and returns the first
# tuple that meets the conditions: it is mild by the theorem, so attempts is 1.
result = augment(seed)
print("q_aux:   ", result.q_aux)
print("q_last:  ", result.q_last)
print("S:       ", result.S)
print("attempts:", result.attempts)
print(json.dumps(result.to_json_dict()))
print()

# The interleaving convention places each auxiliary prime directly before
# the seed prime it guards.
assert result.S == interleave(seed, result.q_aux, result.q_last)

# And the produced set really is mild, with the parity split as its witness,
# as the theorem's proof says.
report = check_mild(koch_presentation(result.S))
print(report.text())
