"""Mildness certificates: rank and circuit criteria, partition search."""

import itertools
import random
import re
import sys
import threading

import pytest

from mild2 import mildness
from mild2.arith import BoundExceededError, is_prime
from mild2.linking import Presentation, QuadraticRelator, koch_presentation
from mild2.mildness import (
    MAX_ENUMERATION_D,
    MildnessReport,
    Partition,
    check_mild,
    circuit_criterion,
    find_mild_partition,
    parity_partition,
    rank_criterion,
)

EX1 = (41, 13, 5, 3, 19)
EX2 = (5, 29, 7, 11, 3)


def reduced_relators(primes):
    from mild2.linking import eliminate_generator

    return eliminate_generator(koch_presentation(primes)).relators


def cycle_relators(d, a=None):
    """Relators rho_i = a_i xi^2 + [xi, x(i+1 mod d)] on a d-cycle."""
    a = a if a is not None else tuple(1 - i % 2 for i in range(1, d + 1))  # a_i = 0 for odd i
    out = []
    for i in range(1, d + 1):
        squares = tuple(a[i - 1] if k == i else 0 for k in range(1, d + 1))
        j = i % d + 1
        out.append(QuadraticRelator(d, squares, {(min(i, j), max(i, j))}, owner=i))
    return out


def test_partition_validation():
    assert Partition((1, 3), (2, 4)).to_json_dict() == {"S": [1, 3], "Sp": [2, 4]}
    # validity is checked where a partition is ranked: an overlap and a repeat
    # that each still cover 1..d, a gap, and a letter out of range
    cases = [
        (3, Partition((1, 2), (2, 3))),
        (2, Partition((1, 1), (2,))),
        (4, Partition((1, 3), (2,))),
        (2, Partition((1,), (2, 3))),
        # blocks that are not sized sequences of letters
        (2, Partition(([1],), (2,))),
        (2, Partition(None, (2,))),
        (2, Partition(iter((1,)), (2,))),
        # no Partition at all: a pair of blocks has no S or Sp
        (2, ((1,), (2,))),
    ]
    for d, part in cases:
        rel = QuadraticRelator(d, (0,) * d, {(1, 2)})
        with pytest.raises(ValueError, match=f"is not a partition of 1..{d}"):
            rank_criterion((rel,), part)
    # the blocks need not be ascending
    assert rank_criterion(reduced_relators(EX1), Partition((3, 1), (4, 2)))


def test_parity_partition():
    assert parity_partition(4) == Partition((1, 3), (2, 4))
    assert parity_partition(5) == Partition((1, 3, 5), (2, 4))


def test_rank_criterion_on_reduced_examples():
    rel1 = reduced_relators(EX1)
    assert rank_criterion(rel1, Partition((1, 3), (2, 4)))
    rel2 = reduced_relators(EX2)
    assert rank_criterion(rel2, Partition((1, 2), (3, 4)))
    # swapping the roles of S and Sp need not certify: x4^2 = [x4,.] terms
    assert not rank_criterion(rel2, Partition((3, 4), (1, 2)))


def test_rank_criterion_membership_requirement():
    # a relator with a commutator inside S x S fails membership
    rel = QuadraticRelator(4, (0, 0, 0, 0), {(1, 3)}, owner=1)
    assert not rank_criterion((rel,), Partition((1, 3), (2, 4)))
    # squares at S indices violate membership
    sq = QuadraticRelator(4, (1, 0, 0, 0), frozenset(), owner=1)
    assert not rank_criterion((sq,), Partition((1, 3), (2, 4)))
    # a square at an Sp index passes membership but projects to a zero row,
    # so a relator consisting only of it fails on rank instead
    sq_p = QuadraticRelator(4, (0, 1, 0, 0), frozenset(), owner=2)
    assert not rank_criterion((sq_p,), Partition((1, 3), (2, 4)))
    # ... and an Sp square accompanying an honest S-Sp bracket is harmless
    mixed_ok = QuadraticRelator(4, (0, 1, 0, 0), {(1, 2)}, owner=2)
    assert rank_criterion((mixed_ok,), Partition((1, 3), (2, 4)))


def test_rank_criterion_rank_requirement():
    # two copies of the same image are dependent
    r1 = QuadraticRelator(4, (0, 0, 0, 0), {(1, 2)}, owner=1)
    r2 = QuadraticRelator(4, (0, 0, 0, 0), {(1, 2), (1, 4)}, owner=2)
    r3 = QuadraticRelator(4, (0, 0, 0, 0), {(1, 4)}, owner=3)
    assert rank_criterion((r1, r2), Partition((1, 3), (2, 4)))
    assert not rank_criterion((r1, r2, r3), Partition((1, 3), (2, 4)))  # r3 = r1 + r2


def test_rank_criterion_row_operation_invariance():
    rng = random.Random(13)
    rels = list(reduced_relators(EX1))
    part = Partition((1, 3), (2, 4))
    assert rank_criterion(rels, part)
    for _ in range(20):
        i, j = rng.sample(range(len(rels)), 2)
        mixed = list(rels)
        mixed[i] = QuadraticRelator(
            4,
            tuple(a ^ b for a, b in zip(rels[i].squares, rels[j].squares)),
            rels[i].comms ^ rels[j].comms,
        )
        assert rank_criterion(mixed, part)


def test_rank_criterion_empty_cases():
    assert rank_criterion((), Partition((1,), (2,)))
    with pytest.raises(ValueError):
        rank_criterion(reduced_relators(EX1), Partition((1,), (2,)))  # does not cover 1..4


def test_check_mild_oracle_notes_when_skipped_and_on_a_mismatch():
    skipped = check_mild(koch_presentation((3, 5)), oracle_depth=3)
    assert (skipped.verdict, skipped.oracle_depth) == ("inapplicable", None)
    assert skipped.notes[-1] == "oracle skipped: no usable quadratic relators"
    # the negative control {x1^2, [x1, x2]}: no partition, and the oracle refutes at degree 3
    control = (QuadraticRelator(2, (1, 0), frozenset()), QuadraticRelator(2, (0, 0), {(1, 2)}))
    refuted = check_mild(Presentation(2, control), oracle_depth=4)
    assert (refuted.verdict, refuted.oracle_depth) == ("not_shown", 4)
    assert refuted.notes[-1] == "oracle(F2): dimension mismatch at degree 3"


def test_circuit_criterion_on_examples():
    assert circuit_criterion(reduced_relators(EX1)) is True
    # Example 2's reduced relators are not a circuit (odd-odd links present)
    assert circuit_criterion(reduced_relators(EX2)) is not True
    for d in (4, 6):
        assert circuit_criterion(cycle_relators(d)) is True


def test_circuit_criterion_shape_preconditions():
    assert circuit_criterion(cycle_relators(3)) is None  # odd d
    assert circuit_criterion(cycle_relators(4)[:3]) is None  # m != d
    # non-Koch relator shape
    rel = QuadraticRelator(4, (0, 0, 0, 0), {(1, 2), (3, 4)}, owner=1)
    rels = cycle_relators(4)
    assert circuit_criterion((rel,) + tuple(rels[1:])) is None


def test_circuit_criterion_condition_violations():
    # (a) a square on an odd generator
    bad_a = cycle_relators(4, a=(1, 1, 0, 1))
    assert circuit_criterion(bad_a) is False
    # (b) an odd-odd link
    rels = cycle_relators(4)
    bad_b = list(rels)
    bad_b[0] = QuadraticRelator(4, rels[0].squares, rels[0].comms | {(1, 3)}, owner=1)
    assert circuit_criterion(bad_b) is False
    # (c) a missing cycle edge
    bad_c = list(rels)
    bad_c[1] = QuadraticRelator(4, rels[1].squares, {(2, 4)}, owner=2)
    assert circuit_criterion(bad_c) is False
    # (d) the reverse product must vanish: make every reverse edge present
    full = []
    for i in range(1, 5):
        comms = {(min(i, i % 4 + 1), max(i, i % 4 + 1)), (min(i, (i - 2) % 4 + 1), max(i, (i - 2) % 4 + 1))}
        squares = tuple(1 if (k == i and i % 2 == 0) else 0 for k in range(1, 5))
        full.append(QuadraticRelator(4, squares, comms, owner=i))
    assert circuit_criterion(full) is False


def test_find_mild_partition_prefers_parity():
    part = find_mild_partition(reduced_relators(EX1))
    assert part == Partition((1, 3), (2, 4))
    part2 = find_mild_partition(reduced_relators(EX2))
    assert part2 == Partition((1, 2), (3, 4))


def test_find_mild_partition_search_order():
    # relators on 3 generators where {2} works as Sp and is found first
    r1 = QuadraticRelator(3, (0, 0, 0), {(1, 2)}, owner=1)
    r2 = QuadraticRelator(3, (0, 0, 0), {(2, 3)}, owner=3)
    part = find_mild_partition((r1, r2))
    assert part == Partition((1, 3), (2,))


def test_find_mild_partition_none_and_empty():
    control = (
        QuadraticRelator(2, (1, 0), frozenset()),
        QuadraticRelator(2, (0, 0), {(1, 2)}),
    )
    assert find_mild_partition(control) is None
    assert find_mild_partition(()) == Partition((), ())


@pytest.mark.parametrize(
    "decide",
    [lambda rels: rank_criterion(rels, parity_partition(3)), circuit_criterion, find_mild_partition],
    ids=["rank_criterion", "circuit_criterion", "find_mild_partition"],
)
def test_relators_on_different_generator_counts_are_refused(decide):
    relators = (QuadraticRelator(3, (0, 0, 0), {(1, 2)}), QuadraticRelator(4, (0, 0, 0, 0), {(1, 2)}))
    with pytest.raises(ValueError, match=re.escape("relators disagree on the generator count: [3, 4]")):
        decide(relators)


def test_find_mild_partition_guard():
    # the limit guards the enumeration only: a passing parity split is returned at any d
    d = MAX_ENUMERATION_D + 2
    assert find_mild_partition(cycle_relators(d)) == parity_partition(d)
    # a square on every letter fails the parity split, so the enumeration is reached
    with pytest.raises(BoundExceededError, match="limited to d <= 20"):
        find_mild_partition(cycle_relators(d, a=(1,) * d))


def test_check_mild_verdicts():
    rep1 = check_mild(koch_presentation(EX1))
    assert rep1.verdict == "mild" and rep1.criterion == "circuit"
    assert rep1.witness == Partition((1, 3), (2, 4))
    assert rep1.oracle_depth is None
    rep2 = check_mild(koch_presentation(EX2))
    assert rep2.verdict == "mild" and rep2.criterion == "rank"
    assert rep2.witness == Partition((1, 2), (3, 4))
    trivial = check_mild(koch_presentation((17, 13)))
    assert trivial.verdict == "inapplicable" and trivial.criterion == "none"


def test_check_mild_not_shown():
    control = Presentation(
        2,
        (
            QuadraticRelator(2, (1, 0), frozenset(), owner=1),
            QuadraticRelator(2, (0, 0), {(1, 2)}, owner=2),
        ),
    )
    rep = check_mild(control)
    assert rep.verdict == "not_shown" and rep.criterion == "none" and rep.witness is None


def test_check_mild_with_oracle_note():
    rep = check_mild(koch_presentation(EX1), oracle_depth=4)
    assert rep.oracle_depth == 4
    assert any("oracle" in note and "match" in note for note in rep.notes)
    rep_pi = check_mild(koch_presentation(EX1), oracle_depth=4, oracle_ring="F2pi")
    assert any("F2pi" in note for note in rep_pi.notes)


def test_check_mild_eliminates_first():
    rep = check_mild(koch_presentation(EX1))
    assert any("eliminated x5" in note for note in rep.notes)


def test_mildness_report_serialization():
    rep = check_mild(koch_presentation(EX1))
    blob = rep.to_json_dict()
    assert blob["verdict"] == "mild" and blob["criterion"] == "circuit"
    assert blob["witness"] == {"S": [1, 3], "Sp": [2, 4]}
    text = rep.text()
    assert "verdict = mild" in text and "criterion = circuit" in text


def test_circuit_implies_rank_at_parity():
    rng = random.Random(29)
    for _ in range(40):
        d = rng.choice((4, 6))
        # random Koch-shaped relators satisfying the circuit conditions
        ell = [[0] * (d + 1) for _ in range(d + 1)]
        for i in range(1, d + 1):
            ell[i][i % d + 1] = 1
        # optional extra even-odd links beyond the cycle
        for i in range(1, d + 1, 2):
            for j in range(2, d + 1, 2):
                if abs(i - j) != 1 and (i, j) != (1, d) and rng.random() < 0.3:
                    ell[i][j] = 1
        rels = []
        for i in range(1, d + 1):
            squares = tuple(1 if (k == i and i % 2 == 0 and rng.random() < 0.5) else 0 for k in range(1, d + 1))
            comms = {(min(i, j), max(i, j)) for j in range(1, d + 1) if ell[i][j]}
            rels.append(QuadraticRelator(d, squares, comms, owner=i))
        if circuit_criterion(rels) is True:
            assert rank_criterion(rels, parity_partition(d)), rels


def dense_rank(rows):
    """GF(2) rank of 0/1 lists by Gaussian elimination, independent of mild2.gf2."""
    rows, rank = [list(row) for row in rows], 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in rows if r[col]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        rows = [[a ^ b for a, b in zip(r, pivot)] if r[col] else r for r in rows]
        rank += 1
    return rank


def rank_criterion_reference(relators, part):
    """The rank criterion on an explicit basis: one column per pair of S x Sp."""
    s_set = set(part.S)
    for rel in relators:
        if any(rel.squares[i - 1] for i in part.S):
            return False
        if any(i in s_set and j in s_set for i, j in rel.comms):
            return False
    rows = [
        [int((min(i, j), max(i, j)) in rel.comms) for i in part.S for j in part.Sp]
        for rel in relators
    ]
    return dense_rank(rows) == len(relators)


def all_partitions(d):
    everything = range(1, d + 1)
    for size in range(d + 1):
        for sp in itertools.combinations(everything, size):
            yield Partition(tuple(i for i in everything if i not in sp), sp)


def random_koch_sets(rng, count, max_d):
    """Relators of Koch presentations on random primes below 2000, after
    check_mild's elimination when the product relation allows it: d <= max_d."""
    from mild2.linking import eliminate_generator

    primes = [p for p in range(3, 2000, 2) if is_prime(p)]
    for _ in range(count):
        pres = koch_presentation(rng.sample(primes, rng.randint(3, max_d + 1)))
        if any(pres.product_relation):
            pres = eliminate_generator(pres)
        if pres.d <= max_d:
            yield pres.relators


def random_relator_sets(rng, count, min_d, max_d):
    """Seeded random relator sets of 1..d relators on d = min_d..max_d letters."""
    for _ in range(count):
        d = rng.randint(min_d, max_d)
        p_square, p_comm = rng.choice((0.05, 0.2)), rng.choice((0.2, 0.5))
        pairs = list(itertools.combinations(range(1, d + 1), 2))
        yield tuple(
            QuadraticRelator(
                d,
                tuple(int(rng.random() < p_square) for _ in range(d)),
                {pair for pair in pairs if rng.random() < p_comm},
            )
            for _ in range(rng.randint(1, d))
        )


def test_rank_criterion_matches_basis_reference_on_every_partition():
    rng = random.Random(41)
    outcomes = set()
    samples = list(random_relator_sets(rng, 150, 2, 7))
    koch = list(random_koch_sets(rng, 40, 10))
    assert max(rels[0].d for rels in koch) == 10
    for kind, sets in (("random", samples), ("koch", koch)):
        for rels in sets:
            for part in all_partitions(rels[0].d):
                expected = rank_criterion_reference(rels, part)
                assert rank_criterion(rels, part) == expected, (rels, part)
                outcomes.add((kind, expected))
    assert outcomes == {("random", True), ("random", False), ("koch", True), ("koch", False)}


def test_partition_validation_matches_the_sorted_letters_check():
    rng = random.Random(17)
    refused = 0
    for _ in range(3000):
        d = rng.randint(1, 7)
        rel = QuadraticRelator(d, (0,) * d, {(1, 2)} if d > 1 else set())
        letters = list(range(1, d + 1))
        rng.shuffle(letters)
        for _ in range(rng.choice((0, 0, 1, 2))):
            k = rng.randrange(len(letters) + 1)
            change = rng.choice(("repeat", "zero", "negative", "above", "drop"))
            if change == "repeat":
                letters.insert(k, rng.choice(letters or [1]))
            elif change == "zero":
                letters.insert(k, 0)
            elif change == "negative":
                letters.insert(k, -rng.randint(1, d + 1))
            elif change == "above":
                letters.insert(k, d + rng.randint(1, d + 1))
            elif letters:
                letters.pop(k % len(letters))
        cut = rng.randint(0, len(letters))
        part = Partition(tuple(letters[:cut]), tuple(letters[cut:]))
        if sorted(part.S + part.Sp) != list(range(1, d + 1)):
            refused += 1
            with pytest.raises(ValueError) as exc:
                rank_criterion((rel,), part)
            assert str(exc.value) == f"partition {part} is not a partition of 1..{d}"
        else:
            assert rank_criterion((rel,), part) in (True, False)
    assert 1000 < refused < 2500


def test_remembered_summaries_give_the_reference_answers():
    """The same answers whether a set's tuple is reused, two sets alternate
    partition by partition, or each call brings a fresh tuple or a list."""
    rng = random.Random(53)
    sets = list(random_relator_sets(rng, 40, 2, 6)) + [tuple(rels) for rels in random_koch_sets(rng, 12, 8)]
    cases = []
    for rels in sets:
        parts = list(all_partitions(rels[0].d))
        cases.append((rels, [(part, rank_criterion_reference(rels, part)) for part in parts]))
    assert {expected for _, answers in cases for _, expected in answers} == {True, False}
    for rels, answers in cases:  # one tuple object throughout
        for part, expected in answers:
            assert rank_criterion(rels, part) == expected, (rels, part)
    for (a, answers_a), (b, answers_b) in zip(cases[::2], cases[1::2]):
        # the same tuples, a new tuple each call (tuple() of a tuple is itself), a list
        for fresh in (lambda rels: rels, lambda rels: tuple(list(rels)), list):
            for k in range(max(len(answers_a), len(answers_b))):
                for rels, answers in ((a, answers_a), (b, answers_b)):
                    if k < len(answers):
                        part, expected = answers[k]
                        assert rank_criterion(fresh(rels), part) == expected, (rels, part)


def test_refusals_keep_their_order_on_first_calls_and_on_repeats():
    # a square at 1 and [x2, x3]: an S holding either is refused as a
    # partition first when it does not cover 1..4 exactly once
    rels = (QuadraticRelator(4, (1, 0, 0, 0), {(2, 3)}), QuadraticRelator(4, (0, 0, 0, 0), {(1, 4)}))
    invalid = [
        Partition((1, 2), (2, 3, 4)),
        Partition((2, 3), (1,)),
        Partition((1, 2, 3), (3, 4)),
        Partition((2, 3, 5), (1,)),
    ]
    for part in invalid:
        with pytest.raises(ValueError, match="is not a partition of 1..4"):
            rank_criterion(tuple(list(rels)), part)  # a new tuple: its first call
        assert rank_criterion(rels, Partition((2, 4), (1, 3)))
        with pytest.raises(ValueError, match="is not a partition of 1..4"):
            rank_criterion(rels, part)  # the tuple just ranked, again
    assert not rank_criterion(rels, Partition((1, 4), (2, 3)))
    assert not rank_criterion(rels, Partition((2, 3), (1, 4)))
    assert rank_criterion(rels, Partition((2, 4), (1, 3)))
    mixed = (QuadraticRelator(3, (0, 0, 0), {(1, 2)}), QuadraticRelator(4, (0, 0, 0, 0), {(1, 2)}))
    for part in (parity_partition(3), parity_partition(4), Partition((1,), ())):
        for _ in range(2):
            with pytest.raises(ValueError, match=r"relators disagree on the generator count: \[3, 4\]"):
                rank_criterion(mixed, part)
            assert getattr(mildness, "_memo", ((),))[0] is not mixed
    assert rank_criterion(rels, Partition((2, 4), (1, 3)))


def test_two_threads_ranking_two_sets_get_the_reference_answers():
    rng = random.Random(59)
    parts = list(all_partitions(6))
    while True:  # two sets on the same letters whose answers differ often
        a, b = random_relator_sets(rng, 2, 6, 6)
        answers = {rels: [rank_criterion_reference(rels, part) for part in parts] for rels in (a, b)}
        if sum(x != y for x, y in zip(answers[a], answers[b])) >= len(parts) // 4:
            break
    wrong, errors = [], []
    start = threading.Barrier(2)

    def rank_all(rels):
        try:
            start.wait(timeout=30)
            for _ in range(1500):
                for part, expected in zip(parts, answers[rels]):
                    if rank_criterion(rels, part) != expected:
                        wrong.append((rels, part))
        except Exception as exc:  # reported below, not lost in the thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # slices of some tens of calls: memo hits, and switches inside rebuilds
    try:
        threads = [threading.Thread(target=rank_all, args=(rels,)) for rels in (a, b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors and not wrong, (errors, wrong[:3])


def circuit_criterion_reference(relators):
    """The circuit test on an explicit a vector and l matrix, with the branch
    that decided it: 'none', '(a)', '(b)', '(c)' or '(d)'."""
    d, m = relators[0].d, len(relators)
    if d < 4 or d % 2 or m != d:
        return None, "none"
    if any(not rel.has_koch_shape(i) for i, rel in enumerate(relators, 1)):
        return None, "none"
    a = [rel.squares[i - 1] for i, rel in enumerate(relators, 1)]
    ell = [[0] * (d + 1) for _ in range(d + 1)]
    for i, rel in enumerate(relators, 1):
        for j in rel.comm_partners(i):
            ell[i][j] = 1
    if any(a[i - 1] for i in range(1, d + 1, 2)):
        return False, "(a)"
    if any(ell[i][j] for i in range(1, d + 1, 2) for j in range(1, d + 1, 2) if i != j):
        return False, "(b)"
    if not all(ell[i][i + 1] for i in range(1, d)) or not ell[d][1]:
        return False, "(c)"
    reverse = ell[1][d]
    for i in range(d, 1, -1):
        reverse &= ell[i][i - 1]
    return reverse == 0, "(d)"


def random_koch_relators(rng, d):
    """d relators, relator i in Koch shape at i unless a stray term is drawn."""
    p_odd_square = rng.choice((0.0, 0.3))
    p_forward, p_backward, p_other = rng.choice((0.9, 1.0)), rng.choice((0.5, 1.0)), rng.choice((0.0, 0.15))
    rels = []
    for i in range(1, d + 1):
        squares = [0] * d
        squares[i - 1] = int(rng.random() < (p_odd_square if i % 2 else 0.5))
        comms = set()
        for j in range(1, d + 1):
            if j == i % d + 1:
                p = p_forward
            elif i == j % d + 1:
                p = p_backward
            else:
                p = p_other
            if j != i and rng.random() < p:
                comms.add((min(i, j), max(i, j)))
        if rng.random() < 0.03:
            squares[rng.randrange(d)] = 1
        if rng.random() < 0.03:
            comms.add(rng.choice(list(itertools.combinations(range(1, d + 1), 2))))
        rels.append(QuadraticRelator(d, tuple(squares), comms, owner=i))
    return rels


def test_circuit_criterion_matches_matrix_reference_on_every_branch():
    rng = random.Random(43)
    branches = set()
    for _ in range(3000):
        d = rng.choice((3, 4, 5, 6, 8))
        rels = random_koch_relators(rng, d)
        if rng.random() < 0.1:
            rels = rels[:-1] if rng.random() < 0.5 else rels + rels[:1]
        expected, branch = circuit_criterion_reference(rels)
        assert circuit_criterion(rels) == expected, rels
        branches.add((branch, expected))
    assert branches == {
        ("none", None),
        ("(a)", False),
        ("(b)", False),
        ("(c)", False),
        ("(d)", False),
        ("(d)", True),
    }


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_search_ranks_each_partition_once_in_the_documented_order(monkeypatch, d):
    calls = []
    real = mildness.rank_criterion

    def spy(relators, part):
        calls.append(part)
        return real(relators, part)

    monkeypatch.setattr(mildness, "rank_criterion", spy)
    order = [parity_partition(d)] + list(all_partitions(d))
    assert len(order) == 2**d + 1
    rng = random.Random(d)
    pairs = list(itertools.combinations(range(1, d + 1), 2))
    samples = [[QuadraticRelator(d, (0,) * d, {(1, 2)})] * 2]  # dependent: no witness
    samples += [
        [QuadraticRelator(d, tuple(int(rng.random() < 0.2) for _ in range(d)), set(rng.sample(pairs, 1)))
         for _ in range(rng.randint(1, d))]
        for _ in range(20)
    ]
    stops = set()
    for rels in samples:
        calls.clear()
        witness = find_mild_partition(rels)
        stop = next((k for k, part in enumerate(order) if real(rels, part)), None)
        if stop is None:
            assert witness is None and calls == order
        else:
            assert witness == order[stop] and calls == order[: stop + 1]
        stops.add(stop)
    assert None in stops and len(stops) > 2


def full_rows_rank(relators):
    """Rank of the relators' full commutator rows, one column per pair."""
    pairs = sorted(set().union(*(rel.comms for rel in relators)))
    return dense_rank([[int(pair in rel.comms) for pair in pairs] for rel in relators]) if pairs else 0


def dependent_sets():
    """Relator sets whose full commutator rows have rank below m: a repeated
    relator, a square-only relator, and one relator the symmetric difference
    of two others, fixed and seeded at random."""
    r = QuadraticRelator(5, (0,) * 5, {(1, 2), (3, 4)})
    a = QuadraticRelator(5, (0, 0, 1, 0, 0), {(1, 2), (2, 5)})
    b = QuadraticRelator(5, (0,) * 5, {(2, 5), (3, 4), (1, 5)})
    sets = [
        (r, r),
        (r, a, r),
        (QuadraticRelator(5, (1, 0, 0, 0, 0), set()), r),
        (QuadraticRelator(5, (0, 0, 0, 0, 1), set()), a, b),
        (a, b, QuadraticRelator(5, (0,) * 5, a.comms ^ b.comms)),
    ]
    rng = random.Random(61)
    for rels in random_relator_sets(rng, 60, 3, 7):
        if len(rels) >= 2:
            x, y = rng.sample(rels, 2)
            squares = tuple(int(rng.random() < 0.1) for _ in range(x.d))
            sets.append(rels + (QuadraticRelator(x.d, squares, x.comms ^ y.comms),))
    return sets


def is_valid_s(relators, part):
    """No squared letter and no commutator inside S: the criterion's two rejects."""
    return not any(
        any(rel.squares[i - 1] for i in part.S) or any(i in part.S and j in part.S for i, j in rel.comms)
        for rel in relators
    )


def test_dependent_full_rows_give_the_reference_answers_on_every_partition():
    reached = 0
    for rels in dependent_sets():
        assert full_rows_rank(rels) < len(rels), rels
        for part in all_partitions(rels[0].d):
            assert rank_criterion(tuple(rels), part) is rank_criterion_reference(rels, part) is False, (rels, part)
            reached += is_valid_s(rels, part)
    # hundreds of partitions pass both checks: only the bound refuses those
    assert reached > 300


def test_dependent_sets_refuse_an_invalid_partition_first():
    for rels in dependent_sets():
        d, fresh = rels[0].d, tuple(list(rels))  # a new tuple: the first call builds its summary
        for part in (Partition(tuple(range(1, d)), ()), Partition((1,), tuple(range(1, d + 1))), Partition((), (0,))):
            with pytest.raises(ValueError) as exc:
                rank_criterion(fresh, part)
            assert str(exc.value) == f"partition {part} is not a partition of 1..{d}"


def test_search_ranks_rows_only_when_the_full_rows_reach_rank_m(monkeypatch):
    from mild2 import gf2

    calls = []
    real = gf2.echelon

    def spy(rows):
        rows = list(rows)
        calls.append(rows)
        return real(rows)

    monkeypatch.setattr(gf2, "echelon", spy)
    for rels in dependent_sets():
        calls.clear()
        assert find_mild_partition(list(rels)) is None  # a new tuple: its summary is built here
        assert len(calls) == 1 and len(calls[0]) == len(rels), rels

    def d3(pair):
        return QuadraticRelator(3, (0, 0, 0), {pair})

    independent = [
        (d3((1, 2)), d3((1, 3)), d3((2, 3))),  # rank 3 in full, at most 2 for any S: no witness
        tuple(reduced_relators(EX1)),
        tuple(cycle_relators(6)),
        *(rels for rels in random_relator_sets(random.Random(67), 40, 2, 6) if full_rows_rank(rels) == len(rels)),
    ]
    stops = set()
    for rels in independent:
        d = rels[0].d
        order = [parity_partition(d)] + list(all_partitions(d))
        stop = next((k for k, part in enumerate(order) if rank_criterion_reference(rels, part)), len(order) - 1)
        stops.add(stop == len(order) - 1)  # True: no witness
        calls.clear()
        find_mild_partition(list(rels))
        # the summary's full rows, then one ranking per valid partition up to the witness
        assert len(calls) == 1 + sum(is_valid_s(rels, part) for part in order[: stop + 1]), rels
        assert all(len(rows) == len(rels) for rows in calls)
    assert stops == {True, False}
