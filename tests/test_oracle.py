"""Quotient oracle: normal-word recursion against a brute-force span, GF(2) ranks, series checks."""

import itertools
import random
import re
import tracemalloc
from functools import partial

import pytest

from mild2 import gf2, oracle
from mild2.arith import is_prime
from mild2.linking import QuadraticRelator, augment, eliminate_generator, koch_presentation, normalize_seed
from mild2.mildness import check_mild
from mild2.oracle import (
    MemoryGuardError,
    OracleComparison,
    _degree_bytes,
    independent_in_degree,
    quotient_dims,
    strongly_free_oracle,
)
from mild2.quadlie import F2, F2PI, NcPoly, mul, pi_mul, relator_to_poly, unit_alphabet
from mild2.series import WeightSignature, strongly_free_series

EX1 = (41, 13, 5, 3, 19)
EX2 = (5, 29, 7, 11, 3)


def reduced(primes):
    return eliminate_generator(koch_presentation(primes)).relators


def reduced_polys(primes, ring=F2):
    return [relator_to_poly(rel, ring) for rel in reduced(primes)]


def test_gf2_rank_small():
    rows = [0b01, 0b10, 0b11]
    assert gf2.rank(rows) == 2
    assert gf2.echelon(rows) == {0: 0b01, 1: 0b10}
    assert gf2.rank([]) == 0
    assert gf2.rank([0, 0]) == 0  # zero rows


def test_gf2_rank_matches_dense_elimination():
    rng = random.Random(19)
    for _ in range(60):
        m, n = rng.randint(1, 24), rng.randint(1, 200)
        dense = [[rng.randint(0, 1) for _ in range(n)] for _ in range(m)]
        dense += [[0] * n] * rng.randint(0, 2)  # zero rows
        dense += rng.sample(dense, len(dense) // 4)  # dependent rows
        rows = [sum(bit << j for j, bit in enumerate(row)) for row in dense]
        expected = dense_gf2_rank(dense)
        assert gf2.rank(rows) == expected
        assert len(gf2.echelon(iter(rows))) == expected


def dense_gf2_rank(rows):
    mat = [list(r) for r in rows]
    rank, col_count = 0, len(mat[0]) if mat else 0
    for col in range(col_count):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                mat[r] = [a ^ b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def test_gf2_rank_preserves_input_by_default():
    rows = [0b01, 0b11, 0b10]
    for engine in (gf2.rank, gf2.echelon, lambda rows: gf2.quotient_map(rows, 2)):
        engine(rows)
        assert rows == [0b01, 0b11, 0b10]


def test_quotient_dims_without_relators_is_ambient():
    profile = quotient_dims(2, (), 5)
    assert profile.dims().values == (1, 2, 4, 8, 16, 32)
    profile_pi = quotient_dims(2, (), 4, ring=F2PI)
    # F2pi ambient counts pi^k u with k + |u| = n
    assert profile_pi.dims().values == (1, 3, 7, 15, 31)


def test_quotient_dims_first_example():
    profile = quotient_dims(4, reduced_polys(EX1), 5)
    assert profile.dims().values == (1, 4, 12, 32, 80, 192)
    ranks = [entry.rank for entry in profile.per_degree]
    assert ranks == [0, 0, 4, 32, 176, 832]


def test_quotient_dims_row_operation_invariance():
    polys = reduced_polys(EX1)
    mixed = [polys[0] + polys[1]] + polys[1:]
    a = quotient_dims(4, polys, 4).dims().values
    b = quotient_dims(4, mixed, 4).dims().values
    assert a == b


def test_quotient_dims_memory_guard():
    # a middle degree is bounded at about 0.74 MiB at degree 7 and 3.0 MiB at
    # degree 8; the last degree builds no table: about 0.47 and 1.8 MiB
    with pytest.raises(MemoryGuardError, match="degree 8 .* above the 1 MiB cap"):
        quotient_dims(4, reduced_polys(EX1), 8, memory_cap_mib=1)
    with pytest.raises(MemoryGuardError, match="degree 8 .* above the 2 MiB cap"):
        quotient_dims(4, reduced_polys(EX1), 9, memory_cap_mib=2)
    quotient_dims(4, reduced_polys(EX1), 8, memory_cap_mib=2)
    quotient_dims(4, reduced_polys(EX1), 7, memory_cap_mib=1)


def test_pivot_table_estimate_covers_the_measured_peak():
    for primes, n_max in itertools.product((EX1, EX2), (8, 9)):  # degree 8 ranked, then mapped
        polys = reduced_polys(primes)
        tracemalloc.start()
        try:
            profile = quotient_dims(4, polys, n_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        dims = profile.dims().values
        # the estimate the guard applies at each degree, the last one included
        estimate = max(
            _degree_bytes(4 * dims[n - 1], 4 * dims[n - 2] if n > 1 else 0, n == n_max)
            for n in range(1, n_max + 1)
        )
        assert estimate >= peak, (primes, n_max)


def test_last_degree_is_ranked_not_mapped(monkeypatch):
    mapped = []
    quotient_map = gf2.quotient_map

    def spy(rows, n_cols):
        mapped.append(n_cols)
        return quotient_map(rows, n_cols)

    monkeypatch.setattr(gf2, "quotient_map", spy)
    dims = quotient_dims(4, reduced_polys(EX1), 6).dims().values
    assert dims == (1, 4, 12, 32, 80, 192, 448)
    assert mapped == [4 * dims[n - 1] for n in range(1, 6)]


def test_echelon_length_is_the_quotient_dimension():
    rng = random.Random(12)
    for _ in range(300):
        n_cols = rng.randint(0, 150)
        rows = [
            rng.getrandbits(n_cols) & rng.getrandbits(n_cols) >> rng.randint(0, n_cols)
            for _ in range(rng.randint(0, n_cols + 4))
        ]
        rows += rng.sample(rows, len(rows) // 4)  # dependent rows
        assert n_cols - len(gf2.echelon(rows)) == gf2.quotient_map(rows, n_cols)[1]


def spelled_quotient_map(rows, n_cols):
    """The former gf2.quotient_map, kept as the reference: back substitution
    on full-width rows, then each image spelled as a binary string and its
    non-pivot columns cut out."""
    pivots = gf2.echelon(rows)
    mask = 0
    for top in sorted(pivots):
        row = pivots[top]
        bits = row & mask
        row ^= bits | 1 << top
        while bits:
            low = bits.bit_length() - 1
            row ^= pivots[low]
            bits ^= 1 << low
        pivots[top] = row
        mask |= 1 << top
    keep, end = [], n_cols
    for top in sorted(pivots, reverse=True):
        if top + 1 < end:
            keep.append(slice(n_cols - end, n_cols - 1 - top))
        end = top
    if end:
        keep.append(slice(n_cols - end, n_cols))
    images, q = [], 0
    for c in range(n_cols):
        row = pivots.pop(c, None)
        if row is None:
            images.append(1 << q)
            q += 1
        else:
            spelled = f"{row:0{n_cols}b}"
            images.append(int("".join([spelled[run] for run in keep]) or "0", 2))
    return images, q


def random_sparse_matrices(rng):
    """(rows, n_cols) pairs: sparse rows of one to four bits, with duplicates,
    zero rows, no rows, no columns, and full-rank triangular matrices."""
    yield [], 0
    yield [0, 0], 0
    yield [], 7
    yield [0b101, 0b101, 0], 3
    for _ in range(300):
        n_cols = rng.randint(1, 160)
        rows = [
            sum(1 << c for c in rng.sample(range(n_cols), min(n_cols, rng.randint(1, 4))))
            for _ in range(rng.randint(0, n_cols + 5))
        ]
        rows += rng.sample(rows, len(rows) // 3) + [0] * rng.randint(0, 2)
        rng.shuffle(rows)
        yield rows, n_cols
    for _ in range(40):
        n_cols = rng.randint(1, 120)
        # column c's row has top bit c, so the rank is n_cols and q is 0
        rows = [1 << c | rng.getrandbits(c) & rng.getrandbits(c) for c in range(n_cols)]
        rng.shuffle(rows)
        yield rows, n_cols


def test_quotient_map_on_random_sparse_matrices():
    rng = random.Random(2009)
    full_rank = 0
    for rows, n_cols in random_sparse_matrices(rng):
        images, q = gf2.quotient_map(rows, n_cols)
        assert (images, q) == spelled_quotient_map(rows, n_cols), (rows, n_cols)
        pivots = gf2.echelon(rows)
        assert len(images) == n_cols and q == n_cols - len(pivots)
        free = [c for c in range(n_cols) if c not in pivots]
        assert [images[c] for c in free] == [1 << k for k in range(q)]
        assert all(images[c].bit_length() <= c + 1 for c in range(n_cols))
        for row in rows:  # every row lies in the kernel of the projection
            image = 0
            for c in range(n_cols):
                if row >> c & 1:
                    image ^= images[c]
            assert image == 0
        full_rank += n_cols > 0 and q == 0
    assert full_rank >= 40


def numeral(word, d):
    col = 0
    for letter in word:
        col = col * d + letter - 1
    return col


def ideal_rows(d, polys, n):
    """Int rows of u * rho * v in degree n over the d^n words of degree n,
    each word at the bit of its base-d numeral."""
    for rho in polys:
        h = rho.degree()
        cols = [numeral(word, d) for _, word in rho.terms]
        for a in range(n - h + 1):
            v_count = d ** (n - h - a)
            mids = [c * v_count for c in cols]
            for u in range(0, d**n, d ** (n - a)):
                for v in range(v_count):
                    yield sum(1 << u + m + v for m in mids)


def brute_force_profile(d, polys, n_max, ring):
    """The quotient profile from the rank of every u * rho * v in each degree;
    over F2[pi], running sums of the F2 columns."""
    counts = [d**n for n in range(n_max + 1)]
    ranks = [gf2.rank(ideal_rows(d, polys, n)) for n in range(n_max + 1)]
    if ring == F2PI:
        counts, ranks = list(itertools.accumulate(counts)), list(itertools.accumulate(ranks))
    return [(n, counts[n], ranks[n], counts[n] - ranks[n]) for n in range(n_max + 1)]


def random_relators(rng, d, ring):
    """Nonzero relators of degree 2; about one in four restates an earlier
    one (a copy or a sum of two), so the ideal is not strongly free."""
    alphabet = unit_alphabet(d)
    words = list(itertools.product(range(1, d + 1), repeat=2))
    polys = []
    for _ in range(rng.randint(1, 4)):
        if polys and rng.random() < 0.25:
            rho = rng.choice(polys)
            others = [p for p in polys if p != rho]
            if others and rng.random() < 0.5:
                polys.append(rho + rng.choice(others))
            else:
                polys.append(rho)
            continue
        terms = rng.sample(words, rng.randint(1, min(4, len(words))))
        polys.append(NcPoly(alphabet, ring, {(0, w) for w in terms}))
    return polys


def test_normal_word_recursion_matches_brute_force_on_random_relators():
    rng = random.Random(20090)
    not_strongly_free = 0
    for trial in range(160):
        d = 1 + trial % 4
        n_max = 4 if d == 4 else 5
        polys = random_relators(rng, d, F2)
        for ring in (F2, F2PI):
            in_ring = [NcPoly(unit_alphabet(d), ring, p.terms) for p in polys]
            profile = profile_rows(quotient_dims(d, in_ring, n_max, ring))
            assert profile == brute_force_profile(d, in_ring, n_max, ring), (trial, ring)
            if ring == F2:
                dims = tuple(row[3] for row in profile)
        sig = WeightSignature((1,) * d, tuple(p.degree() for p in polys))
        not_strongly_free += dims != strongly_free_series(sig, n_max).coeffs
    assert 20 <= not_strongly_free <= 140


def test_dimensions_keep_anicks_lower_bound_on_random_relators():
    rng = random.Random(1982)
    for trial in range(120):
        d = 1 + trial % 4
        n_max = 7 if d <= 2 else 5
        polys = random_relators(rng, d, F2)
        dims = quotient_dims(d, polys, n_max).dims().values
        floor = strongly_free_series(WeightSignature((1,) * d, (2,) * len(polys)), n_max).coeffs
        positive = next((n for n, c in enumerate(floor) if c <= 0), n_max + 1)
        assert all(dims[n] >= floor[n] for n in range(positive)), trial


@pytest.mark.parametrize("ring", [F2, F2PI])
@pytest.mark.parametrize("n_max", [3, 4])
def test_a_dimension_below_anicks_bound_is_an_oracle_fault(monkeypatch, ring, n_max):
    relator_rows = oracle._relator_rows

    def faulty(words, table, dims, n):
        yield from relator_rows(words, table, dims, n)
        if n == 3:  # every unit row: the quotient of degree 3 drops to 0
            yield from (1 << c for c in range(4 * dims[2]))

    monkeypatch.setattr(oracle, "_relator_rows", faulty)
    # degree 3 is mapped when n_max is 4 and ranked when it is 3
    with pytest.raises(RuntimeError, match="degree 3 has dimension 0, below 32"):
        quotient_dims(4, reduced_polys(EX1, ring), n_max, ring)


def test_anicks_floor_is_the_series_up_to_its_first_nonpositive_coefficient():
    for d in range(1, 6):
        for m in range(0, 8):
            series = strongly_free_series(WeightSignature((1,) * d, (2,) * m), 9).coeffs
            stop = next((n for n, c in enumerate(series) if c <= 0), 10)
            expected = list(series[:stop]) + [0] * (10 - stop)
            assert list(oracle._anick_floor(d, m, 9)) == expected, (d, m)
    assert list(oracle._anick_floor(4, 4, 0)) == [1]


@pytest.mark.parametrize("n_max, cap, degree, mib", [(13, 1024, 12, 1375), (9, 2, 8, 4), (8, 1, 8, 2)])
def test_a_request_refused_on_anicks_floor_builds_no_row(monkeypatch, n_max, cap, degree, mib):
    built, eliminated = [], []
    monkeypatch.setattr(oracle, "_relator_rows", lambda words, table, dims, n: built.append(n) or iter(()))
    # the letter-order probe eliminates too, so it must come after the refusal
    monkeypatch.setattr(gf2, "echelon", lambda rows: eliminated.append(rows) or {})
    with pytest.raises(MemoryGuardError, match=f"^degree {degree} needs about {mib} MiB of rows"):
        quotient_dims(4, reduced_polys(EX1), n_max, memory_cap_mib=cap)
    assert built == eliminated == []


def relabeled(polys, order):
    """The polynomials with letter a renamed order[a - 1]."""
    return [
        NcPoly(p.alphabet, p.ring, {(k, tuple(order[a - 1] for a in word)) for k, word in p.terms})
        for p in polys
    ]


def degree_three_overlaps(d, polys, order):
    """Ordered pairs (u, v), u = v included, of leading words of the
    relabeled degree-2 span with u's last letter v's first.  The leading
    words are the top columns of every nonzero sum of relators (word x_a x_b
    at column (b - 1) * d + (a - 1)), found without elimination."""
    rows = [sum(1 << (b - 1) * d + a - 1 for _, (a, b) in p.terms) for p in relabeled(polys, order)]
    sums = {0}
    for row in rows:
        sums |= {row ^ other for other in sums}
    leading = {((top - 1) % d + 1, (top - 1) // d + 1) for top in map(int.bit_length, sums - {0})}
    return sum(u[1] == v[0] for u in leading for v in leading)


def test_every_letter_order_gives_the_same_profile_on_random_relators(monkeypatch):
    rng = random.Random(25)
    letter_order = oracle._letter_order
    for d, trials, n_max in ((2, 6, 6), (3, 6, 5), (4, 6, 5), (5, 5, 4), (6, 5, 4), (7, 1, 3)):
        for trial in range(trials):
            polys = random_relators(rng, d, F2)
            identity = tuple(range(1, d + 1))
            # the probe takes the first order of fewest overlaps, so never more
            # than the identity's, and keeps the identity from d = 5 on
            chosen = letter_order(d, [[word for _, word in p.terms] for p in polys])
            if d <= 4:
                orders = list(itertools.permutations(identity))
                counts = [degree_three_overlaps(d, polys, order) for order in orders]
                assert chosen == orders[counts.index(min(counts))], (d, trial)
            else:
                orders = [tuple(rng.sample(identity, d)) for _ in range(8)]
                assert chosen == identity
            for ring in (F2, F2PI):
                in_ring = [NcPoly(unit_alphabet(d), ring, p.terms) for p in polys]
                expected = quotient_dims(d, in_ring, n_max, ring)
                for order in orders:
                    # a relabeled input, reduced under the order its own probe picks
                    assert quotient_dims(d, relabeled(in_ring, order), n_max, ring) == expected, (d, trial, order)
                    # the input itself, reduced under this order
                    monkeypatch.setattr(oracle, "_letter_order", lambda d, words, order=order: order)
                    assert quotient_dims(d, in_ring, n_max, ring) == expected, (d, trial, order)
                    monkeypatch.setattr(oracle, "_letter_order", letter_order)


def test_letter_order_keeps_the_identity_from_five_letters():
    # x1 x2 + x2 x2 leads with x2 x2, which overlaps itself; with x1 and x2
    # swapped x2 x1 leads, which does not
    words = [[(1, 2), (2, 2)]]
    assert oracle._letter_order(4, words) == (2, 1, 3, 4)
    assert oracle._letter_order(5, words) == (1, 2, 3, 4, 5)


def pi_span_reference(d, polys, n_max, ring):
    """Quotient profile through degree n_max by spanning pi^k * u * rho * v
    with NcPoly arithmetic (k = 0 over F2), ranked on each degree's monomial
    support."""
    alphabet = unit_alphabet(d)

    def word(w):
        return NcPoly(alphabet, ring, {(0, w)})

    profile = []
    for n in range(n_max + 1):
        products = []
        for rho in polys:
            h = rho.degree()
            for k in range(n - h + 1) if ring == F2PI else range(min(1, n - h + 1)):
                for a in range(n - h - k + 1):
                    for u in itertools.product(range(1, d + 1), repeat=a):
                        for v in itertools.product(range(1, d + 1), repeat=n - h - k - a):
                            product = mul(mul(word(u), rho), word(v))
                            for _ in range(k):
                                product = pi_mul(product)
                            products.append(product)
        ambient = sum(d**j for j in range(n + 1)) if ring == F2PI else d**n
        rank = independent_in_degree(products)
        profile.append((n, ambient, rank, ambient - rank))
    return profile


def profile_rows(profile):
    return [(row.degree, row.ambient, row.rank, row.quotient) for row in profile.per_degree]


def test_f2pi_profile_matches_pi_span_reference():
    for primes in (EX1, EX2):
        polys = reduced_polys(primes, ring=F2PI)
        profile = quotient_dims(4, polys, 4, ring=F2PI)
        assert profile_rows(profile) == pi_span_reference(4, polys, 4, F2PI)


@pytest.mark.parametrize("ring", [F2, F2PI])
def test_word_numerals_match_span_reference_at_one_and_eleven_letters(ring):
    one = unit_alphabet(1)
    x = NcPoly.generator(one, 1, ring)
    polys = [mul(x, x), mul(x, x)]
    assert profile_rows(quotient_dims(1, polys, 5, ring)) == pi_span_reference(1, polys, 5, ring)

    # two-digit letters: a numeral built by joining digit strings would mis-index x10, x11
    eleven = unit_alphabet(11)
    x = [None] + [NcPoly.generator(eleven, i, ring) for i in range(1, 12)]
    polys = [
        mul(x[11], x[11]) + mul(x[1], x[11]) + mul(x[11], x[1]),
        mul(x[10], x[11]) + mul(x[2], x[2]),
        mul(x[3], x[10]) + mul(x[11], x[10]) + mul(x[1], x[1]),
    ]
    profile = quotient_dims(11, polys, 3, ring)
    assert profile_rows(profile) == pi_span_reference(11, polys, 3, ring)


def test_quotient_dims_rejects_pi_bearing_relators():
    alphabet = unit_alphabet(2)
    x1, x2 = (NcPoly.generator(alphabet, i, F2PI) for i in (1, 2))
    with pytest.raises(ValueError, match="carries pi"):
        quotient_dims(2, [mul(x1, x2) + pi_mul(x1)], 3, ring=F2PI)


@pytest.mark.parametrize("degree", [1, 3])
def test_quotient_dims_refuses_relators_of_degree_other_than_two(degree):
    alphabet = unit_alphabet(2)
    x1, x2 = (NcPoly.generator(alphabet, i, F2) for i in (1, 2))
    rho = x1
    for _ in range(degree - 1):
        rho = mul(rho, x2)
    with pytest.raises(
        ValueError, match=f"relator 2 has degree {degree}; the oracle takes quadratic relators only"
    ):
        quotient_dims(2, [mul(x1, x2), rho], 4)


def test_f2pi_memory_guard_sizes_the_f2_matrix():
    # F2[pi] runs the F2 recursion, so it fits the cap that F2 degree 7 fits
    profile = quotient_dims(4, reduced_polys(EX1, ring=F2PI), 7, ring=F2PI, memory_cap_mib=1)
    assert profile.dims().values == (1, 5, 17, 49, 129, 321, 769, 1793)


def test_strongly_free_oracle_examples_match():
    for primes in (EX1, EX2):
        cmp_f2 = strongly_free_oracle(reduced(primes), 5)
        assert cmp_f2.match and cmp_f2.mismatch_degree is None
        assert cmp_f2.oracle_dims == (1, 4, 12, 32, 80, 192)
        assert cmp_f2.expected_dims == cmp_f2.oracle_dims
    cmp_pi = strongly_free_oracle(reduced(EX1), 4, ring=F2PI)
    assert cmp_pi.match and cmp_pi.oracle_dims == (1, 5, 17, 49, 129)


@pytest.mark.parametrize("primes", [EX1, EX2])
def test_degree_eight_certificate(primes):
    cmp = strongly_free_oracle(reduced(primes), 8)
    assert cmp.match and cmp.oracle_dims[-2:] == (1024, 2304)


@pytest.mark.parametrize("primes", [EX1, EX2])
def test_degree_ten_certificate(primes):
    cmp = strongly_free_oracle(reduced(primes), 10)
    assert cmp.match and cmp.oracle_dims[-2:] == (5120, 11264)


def test_strongly_free_oracle_negative_control():
    control = (
        QuadraticRelator(2, (1, 0), frozenset()),
        QuadraticRelator(2, (0, 0), {(1, 2)}),
    )
    cmp = strongly_free_oracle(control, 4)
    assert not cmp.match and cmp.mismatch_degree == 3
    assert cmp.oracle_dims[3] == 2 and cmp.expected_dims[3] == 0


def test_strongly_free_oracle_rejects_zero_relators():
    zero = QuadraticRelator(2, (0, 0), frozenset())
    with pytest.raises(ValueError, match="relator 1 is zero"):
        strongly_free_oracle((zero,), 3)
    with pytest.raises(ValueError, match="at least one relator"):
        strongly_free_oracle((), 3)


X3, X4 = unit_alphabet(3), unit_alphabet(4)
P4 = relator_to_poly(QuadraticRelator(4, (0, 0, 0, 0), {(1, 2)}), F2)
X1 = NcPoly.generator(X3, 1, F2)


@pytest.mark.parametrize(
    "call, args, message",
    [
        (quotient_dims, (4, [P4], -1), "n_max must be nonnegative"),
        (quotient_dims, (3, [P4], 3), "relator 1 lives in a different algebra"),
        (strongly_free_oracle, ([QuadraticRelator(2, (0, 0), {(1, 2)})], 1), "the oracle needs n_max >= 2"),
        (independent_in_degree, ([X1, NcPoly.generator(X4, 1, F2)],), "polynomials live in different algebras"),
        (independent_in_degree, ([X1 + mul(X1, X1)],), "independence check needs homogeneous polynomials"),
        (quotient_dims, (4, [P4], True), "n_max must be an int, got bool"),
        (quotient_dims, (4, [P4], 3.0), "n_max must be an int, got float"),
        (strongly_free_oracle, ([QuadraticRelator(2, (0, 0), {(1, 2)})], 3.0), "n_max must be an int, got float"),
        (partial(check_mild, oracle_depth=3.0), (koch_presentation(EX1),), "oracle_depth must be an int, got float"),
        (
            quotient_dims,
            (3, [X1 + mul(X1, NcPoly.generator(X3, 2, F2))], 3),
            "degree is defined for nonzero homogeneous elements, degrees = (1, 2)",
        ),
        (quotient_dims, (4.0, [P4], 3), "d must be an int, got float"),
        (partial(quotient_dims, memory_cap_mib=True), (4, [P4], 3), "memory_cap_mib must be an int, got bool"),
        (partial(quotient_dims, memory_cap_mib=1.5), (4, [P4], 3), "memory_cap_mib must be an int, got float"),
        (
            partial(strongly_free_oracle, memory_cap_mib=1.5),
            ([QuadraticRelator(2, (0, 0), {(1, 2)})], 3),
            "memory_cap_mib must be an int, got float",
        ),
        (partial(quotient_dims, memory_cap_mib=0), (4, [P4], 3), "memory_cap_mib must be >= 1, got 0"),
        (
            partial(strongly_free_oracle, memory_cap_mib=-3),
            ([QuadraticRelator(2, (0, 0), {(1, 2)})], 3),
            "memory_cap_mib must be >= 1, got -3",
        ),
    ],
)
def test_oracle_refusals_name_the_failing_check(call, args, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(*args)


def test_oracle_comparison_serialization():
    cmp = strongly_free_oracle(reduced(EX1), 3)
    blob = cmp.to_json_dict()
    assert blob["match"] is True and blob["ring"] == "F2"
    assert blob["oracle_dims"] == [1, 4, 12, 32]
    assert blob["expected_dims"] == [1, 4, 12, 32]
    assert blob["mismatch_degree"] is None
    assert isinstance(cmp, OracleComparison)


def test_independent_in_degree():
    alphabet = unit_alphabet(3)
    x = [None] + [NcPoly.generator(alphabet, i, F2) for i in range(1, 4)]
    from mild2.quadlie import bracket, mul

    polys = [bracket(x[1], x[2]), bracket(x[1], x[3]), bracket(x[2], x[3])]
    assert independent_in_degree(polys) == 3
    polys.append(polys[0] + polys[1])
    assert independent_in_degree(polys) == 3
    zero = NcPoly(alphabet, F2, frozenset())
    assert independent_in_degree([zero, zero]) == 0
    with pytest.raises(ValueError, match="degree"):
        independent_in_degree([x[1], mul(x[1], x[2])])
    assert independent_in_degree([]) == 0


def test_oracle_quotient_matches_relator_span_in_degree_two():
    # degree-2 slice: ambient minus span of the relator polynomials themselves
    polys = reduced_polys(EX2)
    span = independent_in_degree(polys)
    profile = quotient_dims(4, polys, 2)
    assert profile.dims().values[2] == 16 - span


def test_oracle_profile_table_shape():
    profile = quotient_dims(4, reduced_polys(EX1), 3)
    table = profile.table()
    lines = table.splitlines()
    assert lines[0].split() == ["degree", "ambient", "rank", "quotient"]
    assert len(lines) == 5


# The converse checks: a mild G_S(2) from the degree-2 criteria means strongly
# free initial forms, so the oracle must read the strongly free series.  A
# failing draw is a finding to report, never a seed to change.


def test_every_mild_verdict_matches_the_oracle_on_random_koch_sets():
    primes = [p for p in range(3, 400, 2) if is_prime(p)]
    rng = random.Random(19)
    certified = 0
    for _ in range(250):
        S = rng.sample(primes, rng.randint(3, 7))
        pres = koch_presentation(S)
        if check_mild(pres).verdict != "mild":
            continue
        if any(pres.product_relation):
            pres = eliminate_generator(pres)  # as check_mild does
        cmp = strongly_free_oracle(pres.relators, 7 if pres.d <= 5 else 6)
        assert cmp.match, (S, cmp.mismatch_degree)
        certified += 1
    assert certified >= 30


def test_every_augment_result_matches_the_oracle():
    primes = [p for p in range(3, 400, 2) if is_prime(p)]
    rng = random.Random(29)
    checked = 0
    while checked < 30:
        seed = rng.sample(primes, rng.randint(1, 3))
        # 4 normalized primes give d = 8, where degree 6 exceeds the 1 GiB guard
        if len(normalize_seed(seed)) > 3:
            continue
        pres = eliminate_generator(koch_presentation(augment(seed).S))
        cmp = strongly_free_oracle(pres.relators, 6)
        assert cmp.match, (seed, cmp.mismatch_degree)
        checked += 1
