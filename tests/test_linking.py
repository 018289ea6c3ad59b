"""Prime linking data, Koch presentations, elimination, augmentation search."""

import itertools
import math
import os
import random
import re
import subprocess
import sys
from collections.abc import Iterable
from pathlib import Path

import pytest

import mild2
from mild2.arith import DEFAULT_PRIME_BOUND, MAX_INPUT, BoundExceededError, _check_range, is_prime, legendre
from mild2.linking import (
    AugmentationResult,
    NoEliminableGeneratorError,
    Presentation,
    QuadraticRelator,
    ValidationReport,
    _candidate_tuples,
    augment,
    eliminate_generator,
    interleave,
    koch_presentation,
    linking_data,
    normalize_seed,
    ordered_prime_set,
    validate_augmentation,
)
from mild2.mildness import MildnessReport, check_mild, find_mild_partition, parity_partition, rank_criterion
from mild2.quadlie import (
    F2,
    NcPoly,
    WeightedAlphabet,
    elimination_basis,
    enumerate_y,
    mul,
    relator_to_poly,
    unit_alphabet,
    y_count_poly,
)
from mild2.series import WeightSignature, power_sums, strongly_free_series

EX1 = (41, 13, 5, 3, 19)
EX2 = (5, 29, 7, 11, 3)


def test_ordered_prime_set_validation():
    assert ordered_prime_set(EX1) == EX1
    with pytest.raises(ValueError):
        ordered_prime_set(())
    with pytest.raises(ValueError):
        ordered_prime_set((3, 3))
    with pytest.raises(ValueError):
        ordered_prime_set((2, 5))
    with pytest.raises(ValueError):
        ordered_prime_set((9, 5))


@pytest.mark.parametrize(
    "build, args",
    [
        (ordered_prime_set, ((41.9, 13, 5, 3, 19),)),
        (koch_presentation, ((41.9, 13, 5, 3, 19),)),
        (koch_presentation, ((41, 13, 5, 3, True),)),
        (normalize_seed, ((13.7, 3),)),
        (augment, ((13.7, 3),)),
        (validate_augmentation, ((13.2, 3.9), (41.5, 5), 19.99)),
        (validate_augmentation, ((13, 3), (41, 5), 19.0)),
        (validate_augmentation, ((13.0, 3), (41, 5), 19)),
        (QuadraticRelator, (2, (0.6, 1.9), {(1, 2)})),
        (QuadraticRelator, (2, (0, 1.0), {(1, 2)})),
        (QuadraticRelator, (2, (0, True), {(1, 2)})),
        (QuadraticRelator, (2, (0, 0), {(1.0, 2)})),
        (QuadraticRelator, (2, (0, 0), {(1, 2)}, 1.0)),
        (Presentation, (2, (), (1.0, 0))),
        (Presentation, (2, (), (True, 0))),
        (WeightSignature, ((1.5, 1),)),
        (WeightSignature, ((1, 1), (2.0,))),
        (WeightSignature, ((True,),)),
        (WeightedAlphabet, ((1.7, 1),)),
        (WeightedAlphabet, ((1, True),)),
        (elimination_basis, (WeightedAlphabet((1, 1, 1)), (1.9,), 3)),
        (elimination_basis, (WeightedAlphabet((1, 1, 1)), (2, 2.0), 3)),
        (augment, ((13, 3), 1e6)),
        (eliminate_generator, (koch_presentation((3, 7)), True)),
        (eliminate_generator, (koch_presentation(EX1), 4.0)),
        (augment, ((13, 3), "5")),
        (augment, ((13, 3), None)),
        (augment, ((13, 3), True)),
        (legendre, (True, 7)),
        (strongly_free_series, (WeightSignature((1, 1), (2,)), True)),
        (strongly_free_series, (WeightSignature((1, 1), (2,)), 3.0)),
        (power_sums, (WeightSignature((1, 1), (2,)), 3.0)),
        (elimination_basis, (WeightedAlphabet((1, 1, 1)), (1,), 3.0)),
        (enumerate_y, (WeightedAlphabet((1, 1, 1)), 3.0)),
        (QuadraticRelator, (2.0, (0, 0), {(1, 2)})),
        (Presentation, (2.0, (), (1, 0))),
        (unit_alphabet, (2.0,)),
        (y_count_poly, (WeightedAlphabet((1, 1, 1)), 3.0)),
    ],
)
def test_non_integer_input_is_refused_not_truncated(build, args):
    with pytest.raises(ValueError):
        build(*args)


def test_linking_data_first_example():
    data = linking_data(EX1)
    assert data.a == (0, 0, 0, 1, 1)
    assert data.ell == (
        (0, 1, 0, 1, 1),
        (1, 0, 1, 0, 1),
        (0, 1, 0, 1, 0),
        (1, 0, 1, 0, 1),
        (1, 1, 0, 0, 0),
    )


def test_linking_data_second_example_rows():
    data = linking_data(EX2)
    assert data.a == (0, 0, 1, 1, 1)
    assert data.ell[0] == (0, 0, 1, 0, 1)
    assert data.ell[1] == (0, 0, 0, 1, 1)


def test_linking_data_unlinked_pair():
    data = linking_data((17, 13))
    assert data.a == (0, 0)
    assert data.ell == ((0, 0), (0, 0))


def test_linking_data_matches_definition_randomly():
    rng = random.Random(2)
    primes_pool = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    while len(primes_pool) < 40:  # and primes up to the 64-bit limit
        q = rng.getrandbits(rng.randint(8, 64)) | 1
        if q > 3 and q not in primes_pool and is_prime(q):
            primes_pool.append(q)
    for _ in range(80):
        subset = tuple(rng.sample(primes_pool, rng.randint(2, 12)))
        data = linking_data(subset)
        for i, p in enumerate(subset):
            assert data.a[i] == (1 if p % 4 == 3 else 0)
            for j, q in enumerate(subset):
                if i == j:
                    assert data.ell[i][j] == 0
                else:
                    assert data.ell[i][j] == (1 if legendre(p, q) == -1 else 0)


@pytest.mark.parametrize("primes", [(), (3, 3), (2, 5), (9, 5), (5, 2**64 + 1)])
def test_linking_data_refuses_what_ordered_prime_set_refuses(primes):
    with pytest.raises(ValueError):
        linking_data(primes)


def test_linking_data_permutation_equivariance():
    rng = random.Random(9)
    base = (41, 13, 5, 3, 19)
    data = linking_data(base)
    for _ in range(10):
        perm = list(range(5))
        rng.shuffle(perm)
        shuffled = linking_data(tuple(base[k] for k in perm))
        for i in range(5):
            assert shuffled.a[i] == data.a[perm[i]]
            for j in range(5):
                assert shuffled.ell[i][j] == data.ell[perm[i]][perm[j]]


def test_linking_text_and_json():
    data = linking_data((17, 13))
    assert data.text() == "S = (17, 13)\na = (0, 0)\nell =\n. 0\n0 ."
    blob = data.to_json_dict()
    assert blob == {"primes": [17, 13], "a": [0, 0], "ell": [[0, 0], [0, 0]]}


def test_quadratic_relator_normalization():
    rel = QuadraticRelator(3, (0, 1, 0), [(3, 2), (2, 1)], owner=2)
    assert rel.comms == frozenset({(2, 3), (1, 2)})
    assert rel.text() == "x2^2[x2,x1][x2,x3]"
    assert not rel.is_zero
    assert QuadraticRelator(3, (0, 0, 0), ()).is_zero
    assert QuadraticRelator(3, (0, 0, 0), ()).text() == "1"
    with pytest.raises(ValueError):
        QuadraticRelator(3, (0, 1), ())
    with pytest.raises(ValueError):
        QuadraticRelator(3, (0, 0, 0), {(1, 1)})
    with pytest.raises(ValueError):
        QuadraticRelator(3, (0, 0, 0), {(1, 4)})
    # a pair's types are checked before it is ordered, so no TypeError escapes
    for pair, shown in (((1, "2"), "(1, 2)"), ((None, 1), "(None, 1)"), ((1, 2.0), "(1, 2.0)")):
        with pytest.raises(ValueError, match=re.escape(f"commutator pair {shown} out of range for d = 3")):
            QuadraticRelator(3, (0, 0, 0), {pair})
    # over GF(2) a commutator named twice cancels: a set would keep one copy
    for comms, shown in ((frozenset({(1, 2), (2, 1)}), "[x1,x2]"), ([(2, 3), (1, 3), (3, 2)], "[x2,x3]")):
        with pytest.raises(ValueError, match=re.escape(f"commutator {shown} named twice")):
            QuadraticRelator(3, (0, 0, 0), comms)


def test_ranking_stores_nothing_on_the_relators():
    # the rank criterion keeps its summary in mild2.mildness: every relator it
    # ranks holds its fields only, with ==, hash, repr and JSON as before
    koch = [koch_presentation(primes) for primes in (EX1, EX2)]
    sets = [(QuadraticRelator(3, (1, 0, 1), {(1, 2)}),)]
    sets += [rels for pres in koch for rels in (pres.relators, eliminate_generator(pres).relators)]
    # the JSON form holds a square at the owner only, as every Koch relator does
    koch_ids = {id(rel) for pres in koch for rel in pres.relators}
    before = [
        (rel, repr(rel), hash(rel), rel.to_json_dict() if id(rel) in koch_ids else None)
        for relators in sets
        for rel in relators
    ]
    for pres in koch:
        check_mild(pres)
    for relators in sets:
        check_mild(Presentation(relators[0].d, relators))
        find_mild_partition(relators)
    for rel, text, digest, blob in before:
        fresh = QuadraticRelator(rel.d, rel.squares, rel.comms, rel.owner)
        assert set(vars(rel)) == set(rel._fields)
        assert rel == fresh and fresh == rel and len({rel, fresh}) == 1
        assert (repr(rel), hash(rel)) == (text, digest) == (repr(fresh), hash(fresh))
        assert blob is None or rel.to_json_dict() == blob == fresh.to_json_dict()


def test_koch_presentation_first_example_text():
    pres = koch_presentation(EX1)
    assert pres.text() == (
        "r1 = [x1,x2][x1,x4][x1,x5]\n"
        "r2 = [x2,x1][x2,x3][x2,x5]\n"
        "r3 = [x3,x2][x3,x4]\n"
        "r4 = x4^2[x4,x1][x4,x3][x4,x5]\n"
        "r5 = x5^2[x5,x1][x5,x2]\n"
        "r = x4x5"
    )
    assert pres.product_relation == (0, 0, 0, 1, 1)


def test_koch_presentation_second_example_includes_computed_link():
    pres = koch_presentation(EX2)
    lines = pres.text().splitlines()
    assert lines[4] == "r5 = x5^2[x5,x1][x5,x2][x5,x3]"
    assert lines[5] == "r = x3x4x5"


def test_koch_presentation_unlinked_pair_is_trivial():
    pres = koch_presentation((17, 13))
    assert all(rel.is_zero for rel in pres.relators)
    assert pres.product_relation == (0, 0)


def test_eliminate_first_example():
    reduced = eliminate_generator(koch_presentation(EX1))
    assert reduced.text() == (
        "r1' = [x1,x2]\n"
        "r2' = [x2,x1][x2,x3][x2,x4]\n"
        "r3' = [x3,x2][x3,x4]\n"
        "r4' = x4^2[x4,x1][x4,x3]"
    )
    assert reduced.d == 4 and reduced.product_relation is None
    assert reduced.history and "x5" in reduced.history[-1]


def test_eliminate_second_example():
    reduced = eliminate_generator(koch_presentation(EX2))
    assert reduced.text() == (
        "r1' = [x1,x4]\n"
        "r2' = [x2,x3]\n"
        "r3' = x3^2[x3,x1][x3,x4]\n"
        "r4' = x4^2[x4,x2][x4,x3]"
    )


def test_eliminate_requires_product_bit():
    pres = koch_presentation((17, 13))  # product relation all zero
    with pytest.raises(NoEliminableGeneratorError):
        eliminate_generator(pres)
    plain = Presentation(2, (QuadraticRelator(2, (0, 0), {(1, 2)}, owner=1),))
    with pytest.raises(NoEliminableGeneratorError):
        eliminate_generator(plain)
    with pytest.raises(ValueError):
        eliminate_generator(koch_presentation(EX1), t=3)  # a_3 = 0


def test_eliminate_unlinked_generator_just_deletes():
    # if nothing links to x_t, elimination only removes row and column t
    rel1 = QuadraticRelator(3, (0, 0, 0), {(1, 2)}, owner=1)
    rel2 = QuadraticRelator(3, (0, 1, 0), {(1, 2)}, owner=2)
    rel3 = QuadraticRelator(3, (0, 0, 1), frozenset(), owner=3)
    pres = Presentation(3, (rel1, rel2, rel3), product_relation=(0, 0, 1))
    reduced = eliminate_generator(pres)
    assert reduced.d == 2
    assert [r.text() for r in reduced.relators] == ["[x1,x2]", "x2^2[x2,x1]"]


def test_eliminate_square_expansion():
    # x_t^2 with x_t = product of c: squares spread onto c and cross terms
    rel1 = QuadraticRelator(3, (0, 0, 0), {(1, 3)}, owner=1)  # [x1,x3]
    rel3 = QuadraticRelator(3, (0, 0, 1), frozenset(), owner=3)  # x3^2
    pres = Presentation(3, (rel1, rel3), product_relation=(1, 1, 1))
    reduced = eliminate_generator(pres, t=3)
    # [x1, x3] -> [x1, x1][x1, x2] = [x1, x2]
    assert [r.text() for r in reduced.relators] == ["[x1,x2]"]

    rel3b = QuadraticRelator(3, (1, 0, 1), frozenset(), owner=3)  # x1^2 + x3^2
    pres_b = Presentation(3, (rel3b,), product_relation=(1, 1, 0))
    reduced_b = eliminate_generator(pres_b, t=1)  # x1 = x2
    assert reduced_b.d == 2
    assert [r.text() for r in reduced_b.relators] == ["x1^2x2^2"]

    # a square at t with two substitution bits picks up the cross commutator:
    # x3^2 -> x1^2 + x2^2 + [x1,x2] when x3 = x1 x2
    rel3c = QuadraticRelator(3, (0, 0, 1), frozenset(), owner=1)
    pres_c = Presentation(3, (rel3c,), product_relation=(1, 1, 1))
    reduced_c = eliminate_generator(pres_c, t=3)
    assert [r.text() for r in reduced_c.relators] == ["x1^2x2^2[x1,x2]"]

    # empty substitution (c = 0): the square at t simply vanishes
    rel_other = QuadraticRelator(3, (0, 0, 1), frozenset(), owner=2)
    pres_d = Presentation(3, (rel_other,), product_relation=(0, 0, 1))
    reduced_d = eliminate_generator(pres_d, t=3)
    assert [r.text() for r in reduced_d.relators] == ["1"]


def substituted(poly, t, c):
    """poly with xt replaced by the sum of xj over j != t with c_j = 1, and the
    letters above t renamed one lower, in the algebra on d - 1 letters."""
    alphabet = poly.alphabet
    image = {i: NcPoly.generator(alphabet, i, F2) for i in range(1, alphabet.d + 1)}
    image[t] = NcPoly.from_monomials(
        alphabet, F2, [(0, (j,)) for j in range(1, alphabet.d + 1) if j != t and c[j - 1]]
    )
    total = NcPoly(alphabet, F2, frozenset())
    for _, word in poly.terms:
        term = image[word[0]]
        for letter in word[1:]:
            term = mul(term, image[letter])
        total = total + term
    shift = lambda i: i - 1 if i > t else i
    renamed = [(k, tuple(shift(i) for i in word)) for k, word in total.terms]
    return NcPoly.from_monomials(unit_alphabet(alphabet.d - 1), F2, renamed)


def random_presentation(rng, d):
    relators = []
    for owner in range(1, d + 1):
        if rng.random() < 0.8:
            squares = [int(rng.random() < 0.3) for _ in range(d)]
            comms = {(i, j) for i in range(1, d + 1) for j in range(i + 1, d + 1) if rng.random() < 0.4}
            relators.append(QuadraticRelator(d, squares, comms, owner=owner))
    product = [0] * d
    while not any(product):
        product = [int(rng.random() < 0.5) for _ in range(d)]
    return Presentation(d, relators, product_relation=product)


def test_elimination_agrees_with_polynomial_substitution():
    # x_t = prod_{j != t, c_j = 1} x_j enters the degree-2 initial forms as
    # x_t -> sum of those x_j; relator t is dropped and the letters above t shift down
    rng = random.Random(316)
    eliminations = 0
    for trial in range(240):
        pres = random_presentation(rng, 2 + trial % 6)
        c = pres.product_relation
        for t in (i for i, bit in enumerate(c, 1) if bit):
            reduced = eliminate_generator(pres, t)
            kept = [rel for rel in pres.relators if rel.owner != t]
            assert len(kept) == len(reduced.relators), (trial, t)
            for rel, new in zip(kept, reduced.relators):
                expected = substituted(relator_to_poly(rel, F2), t, c)
                assert relator_to_poly(new, F2) == expected, (trial, t, rel.text())
            eliminations += 1
    assert eliminations >= 400


def test_presentation_owner_uniqueness():
    rel = QuadraticRelator(2, (0, 0), {(1, 2)}, owner=1)
    with pytest.raises(ValueError):
        Presentation(2, (rel, rel))


def test_presentation_history_is_a_tuple_of_notes():
    rel = QuadraticRelator(2, (0, 0), {(1, 2)}, owner=1)
    pres = Presentation(2, (rel,), (1, 0), history=["eliminated x3"])
    assert pres.history == ("eliminated x3",)
    assert hash(pres) == hash(Presentation(2, (rel,), (1, 0), history=("eliminated x3",)))
    assert eliminate_generator(pres, 1).history == ("eliminated x3", "eliminated x1")
    for history in ("abc", ["x", 3], (None,)):
        with pytest.raises(ValueError, match="history"):
            Presentation(2, (rel,), history=history)


def test_presentation_json_round_trip():
    for primes in (EX1, EX2):
        for pres in (koch_presentation(primes), eliminate_generator(koch_presentation(primes))):
            back = Presentation.from_json_dict(pres.to_json_dict())
            assert back.d == pres.d
            assert back.relators == pres.relators
            assert back.product_relation == pres.product_relation
            assert back.primes == pres.primes


def test_presentation_json_relators_are_authoritative():
    blob = koch_presentation(EX1).to_json_dict()
    blob["a"] = [1, 1, 1, 1, 1]  # corrupted derived data must be ignored
    back = Presentation.from_json_dict(blob)
    assert back.relators == koch_presentation(EX1).relators


def test_presentation_json_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Presentation.from_json_dict({})
    with pytest.raises(ValueError):
        Presentation.from_json_dict({"relators": [{"owner": None, "square": 1, "comms": []}], "a": [1]})
    with pytest.raises(ValueError):
        QuadraticRelator(2, (1, 0), frozenset()).to_json_dict()
    # the schema holds one square bit, on the owner: x2^2 would be dropped
    with pytest.raises(ValueError, match="only at the owner"):
        QuadraticRelator(3, (1, 1, 0), {(1, 2)}, owner=1).to_json_dict()


@pytest.mark.parametrize(
    "blob, message",
    [
        ({"relators": [{"owner": 1, "comms": [["a", "b"]]}], "a": [0]}, "must be integers"),
        ({"relators": [{"owner": 1, "comms": [[1, 10**9]]}], "a": [0, 0]}, "out of range for d = 2"),
        ({"relators": [{"owner": 1, "square": 1, "comms": [[1, 2]]}]}, "array for d"),
        ({"relators": [], "a": [0], "primes": [3, 5]}, "of one length d"),
        ({"relators": [{"comms": [[1, 2], [2, 1]]}], "a": [0, 0]}, r"relator 1: .*pair \[1, 2\] twice"),
        ({"relators": [{}, {"comms": [[2, 3], [1, 3], [2, 3]]}], "a": [0] * 3}, r"relator 2: .*\[2, 3\] twice"),
        ({"primes": [3, 3], "relators": []}, r"'primes' entries must be distinct, got \[3, 3\]"),
        ({"a": [0, 0], "relators": [{"comms": [1, 2]}]}, "relator 1: comms must be an array of index pairs"),
    ],
)
def test_presentation_json_errors_name_the_failing_check(blob, message):
    with pytest.raises(ValueError, match=message):
        Presentation.from_json_dict(blob)


@pytest.mark.parametrize(
    "build, args, kwargs, message",
    [
        (
            Presentation,
            (3, ()),
            {"product_relation": (1, 0)},
            "product relation length does not match generator count",
        ),
        (Presentation, (3, ()), {"primes": (3, 5)}, "primes length does not match generator count"),
        (
            Presentation,
            (3, (QuadraticRelator(4, (0, 0, 0, 0), {(1, 2)}),)),
            {},
            "relator on 4 generators in a presentation with d = 3",
        ),
        (eliminate_generator, (koch_presentation(EX1), 9), {}, "generator index 9 out of range 1..5"),
        (validate_augmentation, ((13,), (5,), 3), {}, "the seed must be normalized (length >= 2)"),
        (validate_augmentation, ((13, 3), (5,), 3), {}, "expected 2 auxiliary primes, got 1"),
    ],
)
def test_malformed_arguments_are_refused_with_the_failing_check(build, args, kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build(*args, **kwargs)


def test_normalize_seed_orders_and_adjoins():
    assert normalize_seed((13, 3)) == (13, 3)
    assert normalize_seed((3, 13)) == (13, 3)
    assert normalize_seed((3, 7)) == (5, 3, 7)  # adjoins a 1 mod 4 prime
    assert normalize_seed((5, 13)) == (5, 13, 3)  # adjoins a 3 mod 4 prime
    assert normalize_seed((3,)) == (5, 3)
    with pytest.raises(ValueError):
        normalize_seed(())


def test_interleave_layout():
    assert interleave((13, 3), (5, 41), 23) == (5, 13, 41, 3, 23)


def test_validate_augmentation_reference_triples():
    # criterion 8's three calls
    assert validate_augmentation((13, 3), (41, 5), 19).ok
    assert validate_augmentation((13, 3), (5, 41), 19).violations == (
        "q_last = 19 is a square mod q'_1 = 5",
        "q_last = 19 is a nonsquare mod q'_2 = 41",
    )
    assert validate_augmentation((13, 3), (41, 5), 7).violations == ("q_last = 7 is a nonsquare mod q'_2 = 5",)
    # condition (b) for q'_2, mod q_1 and mod q_2, and q_last's residue class
    assert validate_augmentation((13, 3), (41, 17), 19).violations == (
        "legendre(41, 17) != +1 (condition (a), i = 1, j = 2)",
        "legendre(17, 41) != +1 (condition (a), i = 2, j = 1)",
        "q'_2 = 17 is a square mod q_1 = 13 (condition (b))",
    )
    assert "q'_2 = 37 is a square mod q_2 = 3 (condition (b))" in validate_augmentation((13, 3), (41, 37), 19).violations
    assert validate_augmentation((13, 3), (41, 5), 17).violations == (
        "q_last = 17 is not 3 (mod 4)",
        "q_last = 17 is a nonsquare mod q'_2 = 5",
    )
    # wrong residue class is caught too
    assert not validate_augmentation((13, 3), (7, 5), 19).ok
    # a repeated prime is the first violation
    repeated = validate_augmentation((13, 3), (13, 5), 19).violations
    assert repeated[0] == "primes are not pairwise distinct: (13, 3, 13, 5, 19)"


def test_augment_frozen_result_and_determinism():
    first = augment((13, 3), 10**5)
    assert first.S == (5, 13, 41, 3, 23)
    assert first.q_aux == (5, 41) and first.q_last == 23
    assert first.attempts == 1
    assert augment((13, 3), 10**5) == first
    assert validate_augmentation(first.seed, first.q_aux, first.q_last).ok


def test_augment_result_is_mild():
    from mild2.mildness import check_mild

    result = augment((13, 3), 10**5)
    assert check_mild(koch_presentation(result.S)).verdict == "mild"


def test_augment_bound_exhaustion():
    with pytest.raises(BoundExceededError):
        augment((13, 3), 20)


def reference_augment(seed, bound):
    """The search loop augment ran before its first tuple was proved mild:
    check_mild on every tuple, in order, until one is mild."""
    s0 = normalize_seed(seed)
    attempts = 0
    for q_aux, q_last in _candidate_tuples(s0, bound):
        attempts += 1
        s = interleave(s0, q_aux, q_last)
        if check_mild(koch_presentation(s)).verdict == "mild":
            assert validate_augmentation(s0, q_aux, q_last).ok
            return AugmentationResult(s0, q_aux, q_last, s, attempts)
    raise BoundExceededError(f"no mild augmentation of seed {s0} with auxiliary primes <= {bound}")


def outcome(search, seed, bound):
    try:
        return search(seed, bound)
    except BoundExceededError as exc:
        return str(exc)


@pytest.mark.parametrize("bound", [20, 50, 200, 1000, 3000])
@pytest.mark.parametrize("seed", [(13, 3), (41,), (859,), (239, 19, 113), (101, 227, 43), (7, 11, 53, 157)])
def test_augment_matches_the_search_loop(seed, bound):
    assert outcome(augment, seed, bound) == outcome(reference_augment, seed, bound)


def test_first_candidate_tuples_pass_the_rank_criterion_on_the_parity_split():
    # the theorem next to augment, on seeded random seeds of 1-8 primes below 3000
    primes = [p for p in range(3, 3000, 2) if is_prime(p)]
    rng = random.Random(11)
    for _ in range(80):
        s0 = normalize_seed(rng.sample(primes, rng.randint(1, 8)))
        tuples = list(itertools.islice(_candidate_tuples(s0, 10**6), 3))
        assert len(tuples) == 3
        for q_aux, q_last in tuples:
            pres = eliminate_generator(koch_presentation(interleave(s0, q_aux, q_last)))
            assert pres.d == 2 * len(s0)
            assert rank_criterion(pres.relators, parity_partition(pres.d)), (s0, q_aux, q_last)


def test_augment_asserts_its_certificate(monkeypatch):
    from mild2 import mildness

    report = check_mild(koch_presentation((5, 13, 41, 3, 23)))
    refused = MildnessReport("not_shown", report.criterion, report.witness, report.oracle_depth, report.notes)
    monkeypatch.setattr(mildness, "check_mild", lambda pres: refused)
    with pytest.raises(AssertionError, match=r"candidate \(5, 13, 41, 3, 23\) is not certified mild"):
        augment((13, 3))


def test_augment_asserts_its_validation(monkeypatch):
    from mild2 import linking

    monkeypatch.setattr(linking, "validate_augmentation", lambda *args: ValidationReport(False, ("planted",)))
    with pytest.raises(AssertionError, match=re.escape("candidate (5, 13, 41, 3, 23) violates ('planted',)")):
        augment((13, 3))


def test_augment_json_shape():
    blob = augment((13, 3), 10**5).to_json_dict()
    assert blob == {
        "seed": [13, 3],
        "q_aux": [5, 41],
        "q_last": 23,
        "S": [5, 13, 41, 3, 23],
        "attempts": 1,
    }


# A general residue-class prime search: the independent scanner under the
# references for normalize_seed and _candidate_tuples.


def next_prime_in_class(
    start: int,
    residue: int,
    modulus: int,
    avoid: Iterable[int] = (),
    bound: int = MAX_INPUT,
) -> int:
    """Smallest prime q >= start with q = residue (mod modulus), q not in avoid, q <= bound.

    Raises BoundExceededError when no such prime exists up to the bound.
    """
    _check_range(start, "start")
    _check_range(bound, "bound")
    if not 0 < residue < modulus:
        raise ValueError(f"residue must satisfy 0 < residue < modulus, got {residue} mod {modulus}")
    if math.gcd(residue, modulus) != 1:
        raise ValueError(f"residue {residue} and modulus {modulus} are not coprime")
    skip = set(avoid)
    q = start + ((residue - start) % modulus)
    while q <= bound:
        if q >= 2 and q not in skip and is_prime(q):
            return q
        q += modulus
    raise BoundExceededError(
        f"no prime = {residue} (mod {modulus}) in [{start}, {bound}] outside the avoid set"
    )


def test_next_prime_in_class_basic():
    assert next_prime_in_class(3, 1, 4) == 5
    assert next_prime_in_class(5, 1, 4) == 5
    assert next_prime_in_class(6, 1, 4) == 13
    assert next_prime_in_class(3, 3, 4) == 3
    assert next_prime_in_class(4, 3, 4) == 7


def test_next_prime_in_class_respects_avoid():
    assert next_prime_in_class(3, 1, 4, avoid=(5, 13)) == 17
    assert next_prime_in_class(2, 3, 4, avoid=(3, 7, 11)) == 19


def test_next_prime_in_class_residue_and_bound():
    rng = random.Random(11)
    for _ in range(200):
        modulus = rng.choice([4, 3, 5, 8, 12])
        residue = rng.choice([r for r in range(1, modulus) if math.gcd(r, modulus) == 1])
        start = rng.randrange(2, 10**6)
        p = next_prime_in_class(start, residue, modulus)
        assert p >= start and p % modulus == residue and is_prime(p)
    assert next_prime_in_class(100, 1, 4, bound=101) == 101  # bound is inclusive
    with pytest.raises(BoundExceededError):
        next_prime_in_class(100, 1, 4, bound=100)


def test_next_prime_in_class_validates_class():
    with pytest.raises(ValueError):
        next_prime_in_class(3, 2, 4)  # gcd(2, 4) > 1
    with pytest.raises(ValueError):
        next_prime_in_class(3, 4, 4)
    with pytest.raises(ValueError):
        next_prime_in_class(3, 0, 4)


def reference_normalize_seed(seed):
    """normalize_seed as a search: the smallest prime of a missing class outside the seed."""
    ps = sorted(set(seed))
    class1 = [p for p in ps if p % 4 == 1] or [next_prime_in_class(3, 1, 4, avoid=ps, bound=DEFAULT_PRIME_BOUND)]
    class3 = [p for p in ps if p % 4 == 3] or [next_prime_in_class(3, 3, 4, avoid=ps, bound=DEFAULT_PRIME_BOUND)]
    return tuple(class1 + class3)


def test_normalize_seed_matches_the_search_reference():
    odd = [p for p in range(3, 3000, 2) if is_prime(p)]
    pools = (odd, [p for p in odd if p % 4 == 1], [p for p in odd if p % 4 == 3])
    seeds = [(3,), (5,), (7,), (13,), (3, 7, 11), (5, 13, 17), (3, 13)]
    for k in range(3000):
        rng = random.Random(k)
        seeds.append(tuple(rng.sample(rng.choice(pools), rng.randint(1, 8))))
    adjoined = set()
    for seed in seeds:
        expected = reference_normalize_seed(seed)
        assert normalize_seed(seed) == expected, seed
        adjoined |= set(expected) - set(seed)
    assert adjoined == {3, 5}  # both fallbacks fire


# The candidate scan as two separate scanners, one per residue class, with
# condition (a) checked in both directions: the reference for _candidate_tuples.


def reference_class1_candidates(s0, chosen, pos, bound):
    m = len(s0)
    avoid = set(s0) | set(chosen)
    q = 2
    while True:
        try:
            q = next_prime_in_class(q + 1, 1, 4, avoid=avoid, bound=bound)
        except BoundExceededError:
            return
        if pos == 0:
            if legendre(q, s0[m - 1]) == -1:
                yield q
        elif (
            all(legendre(q, prev) == 1 and legendre(prev, q) == 1 for prev in chosen)
            and legendre(q, s0[pos]) == -1
            and legendre(q, s0[pos - 1]) == -1
        ):
            yield q


def reference_last_candidates(s0, q_aux, bound):
    avoid = set(s0) | set(q_aux)
    q = 2
    while True:
        try:
            q = next_prime_in_class(q + 1, 3, 4, avoid=avoid, bound=bound)
        except BoundExceededError:
            return
        if legendre(q, q_aux[0]) == -1 and all(legendre(q, qp) == 1 for qp in q_aux[1:]):
            yield q


def never_mild_first_slot(s0, q):
    """q'_1 = q is a nonsquare mod exactly the seed primes = 3 (mod 4)."""
    return all((legendre(q, p) == -1) == (p % 4 == 3) for p in s0)


def reference_tuples(s0, bound, prune):
    def tuples(chosen):
        if len(chosen) == len(s0):
            yield chosen
            return
        for q in reference_class1_candidates(s0, chosen, len(chosen), bound):
            if not (prune and not chosen and never_mild_first_slot(s0, q)):
                yield from tuples(chosen + (q,))

    for q_aux in tuples(()):
        for q_last in reference_last_candidates(s0, q_aux, bound):
            yield q_aux, q_last


@pytest.mark.parametrize("bound", [300, 3000])
@pytest.mark.parametrize("seed", [(13, 3), (41,), (859,), (239, 19, 113), (101, 227, 43), (7, 11, 53, 157)])
def test_candidate_tuples_match_the_two_scanners(seed, bound):
    # at bound 300 the first 200 tuples run through several q'_1, pruned ones among them
    s0 = normalize_seed(seed)
    expected = list(itertools.islice(reference_tuples(s0, bound, prune=True), 200))
    assert expected
    assert list(itertools.islice(_candidate_tuples(s0, bound), 200)) == expected


def test_candidate_tuples_match_the_two_scanners_on_random_seeds():
    primes = [p for p in range(3, 3000, 2) if is_prime(p)]
    rng = random.Random(19)
    found = 0
    for _ in range(20):
        s0 = normalize_seed(rng.sample(primes, rng.randint(2, 6)))
        expected = list(itertools.islice(reference_tuples(s0, 10**4, prune=True), 50))
        assert list(itertools.islice(_candidate_tuples(s0, 10**4), 50)) == expected, s0
        found += len(expected)
    assert found


def test_pruned_first_slot_tuples_are_inapplicable():
    from mild2.mildness import check_mild

    s0 = normalize_seed((13, 3))
    dropped = [
        (q_aux, q_last)
        for q_aux, q_last in itertools.islice(reference_tuples(s0, 300, prune=False), 200)
        if never_mild_first_slot(s0, q_aux[0])
    ]
    assert len(dropped) == 147
    for q_aux, q_last in dropped:
        report = check_mild(koch_presentation(interleave(s0, q_aux, q_last)))
        assert report.verdict == "inapplicable", (q_aux, q_last, report.notes)
        assert validate_augmentation(s0, q_aux, q_last).violations == (
            f"q'_1 = {q_aux[0]} is a nonsquare mod exactly the seed primes = 3 (mod 4) (never mild)",
        )


def test_augment_skips_the_first_slot_that_stalled_the_search():
    # without the prune this seed scans 44612 inapplicable tuples before the first mild one
    src = str(Path(mild2.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "mild2.cli", "augment", "--seed", "7,11,53,157", "--format", "text"],
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["S = (29, 53, 5, 157, 181, 7, 241, 11, 79)", "attempts = 1"]
