"""Free algebra over F2 / F2[pi]: arithmetic, the square operator P, bases."""

import itertools
import random
import re
from bisect import bisect_right
from math import comb

import pytest

from mild2.linking import QuadraticRelator
from mild2.quadlie import (
    F2,
    F2PI,
    Bracket,
    Leaf,
    NcPoly,
    Square,
    WeightedAlphabet,
    _y_count_terms,
    bracket,
    bracket_weight,
    elimination_basis,
    enumerate_y,
    evaluate,
    mul,
    pi_mul,
    relator_to_poly,
    render_bracket,
    square,
    unit_alphabet,
    y_count_poly,
)

X = unit_alphabet(3)


def gen(i, ring=F2, alphabet=X):
    return NcPoly.generator(alphabet, i, ring)


def rand_poly(rng, ring=F2, alphabet=X, max_deg=3):
    monos = []
    for _ in range(rng.randint(1, 6)):
        word = tuple(rng.randint(1, alphabet.d) for _ in range(rng.randint(0, max_deg)))
        k = rng.randint(0, 2) if ring == F2PI else 0
        monos.append((k, word))
    return NcPoly.from_monomials(alphabet, ring, monos)


def test_alphabet_validation():
    a = WeightedAlphabet((1, 1, 2))
    assert a.d == 3 and a.m == 2 and a.weight(3) == 2
    assert a.word_weight((1, 3, 2)) == 4
    with pytest.raises(ValueError):
        WeightedAlphabet((2, 1))  # weights must be nondecreasing
    with pytest.raises(ValueError):
        WeightedAlphabet((0, 1))
    with pytest.raises(ValueError):
        WeightedAlphabet(())
    with pytest.raises(ValueError):
        a.weight(4)


def test_ncpoly_validation():
    with pytest.raises(ValueError):
        NcPoly(X, F2, frozenset({(1, (1,))}))  # pi over F2
    with pytest.raises(ValueError):
        NcPoly(X, F2, frozenset({(0, (4,))}))  # no such letter
    with pytest.raises(ValueError, match=re.escape("ring must be one of ('F2', 'F2pi'), got 'F3'")):
        NcPoly(X, "F3", frozenset())
    with pytest.raises(ValueError, match="alphabet mismatch"):
        gen(1) + NcPoly.generator(unit_alphabet(4), 1, F2)
    with pytest.raises(ValueError, match="ring mismatch: F2 vs F2pi"):
        gen(1) + NcPoly.generator(X, 1, F2PI)


@pytest.mark.parametrize(
    "mono",
    [(1.5, (1,)), (1.0, (1,)), (True, (1,)), (0, (1.0,)), (0, (1, 2.5)), (0, (True,)), ("1", (1,))],
)
def test_ncpoly_refuses_non_integer_exponents_and_letters(mono):
    # neither truncated (1.5 -> 1) nor passed on to fail later as a TypeError
    with pytest.raises(ValueError, match="pi exponents and letters must be integers"):
        NcPoly.from_monomials(X, F2PI, [mono])
    with pytest.raises(ValueError, match="pi exponents and letters must be integers"):
        NcPoly(X, F2PI, {mono})


def test_addition_is_xor():
    x1, x2 = gen(1), gen(2)
    assert (x1 + x1).is_zero
    assert x1 + x2 == x2 + x1
    assert (x1 + x2) + x2 == x1


def test_mul_associative_and_distributive():
    rng = random.Random(17)
    for ring in (F2, F2PI):
        for _ in range(60):
            u, v, w = (rand_poly(rng, ring, max_deg=2) for _ in range(3))
            assert mul(mul(u, v), w) == mul(u, mul(v, w))
            assert mul(u + v, w) == mul(u, w) + mul(v, w)
            assert mul(w, u + v) == mul(w, u) + mul(w, v)


def test_str_rendering():
    x1, x2 = gen(1), gen(2)
    assert str(NcPoly(X, F2, frozenset())) == "0"
    assert str(mul(x1, x2) + mul(x2, x1)) == "x1.x2 + x2.x1"
    # canonical term order: degree, then pi exponent, then word
    y = gen(1, F2PI)
    assert str(pi_mul(y) + mul(y, y)) == "x1.x1 + pi.x1"
    z = pi_mul(pi_mul(y))
    assert str(z) == "pi^2.x1"
    assert str(z + y) == "x1 + pi^2.x1"


def test_bracket_properties():
    rng = random.Random(23)
    for _ in range(60):
        u, v = rand_poly(rng, max_deg=2), rand_poly(rng, max_deg=2)
        assert bracket(u, v) == bracket(v, u)  # char 2
        assert bracket(u, u).is_zero


def test_p_operator_domain_errors():
    x1, x2 = gen(1), gen(2)
    with pytest.raises(ValueError):
        square(x1 + mul(x1, x2))  # not homogeneous
    with pytest.raises(ValueError):
        square(mul(x1, x2))  # degree 2
    with pytest.raises(ValueError):
        square(x1 + x1)  # zero
    with pytest.raises(ValueError):
        pi_mul(x1)  # wrong ring


def test_quadratic_identities_random():
    rng = random.Random(31)
    for _ in range(300):
        picks = lambda: [i for i in range(1, 4) if rng.random() < 0.6] or [1]
        u = NcPoly.from_monomials(X, F2, [(0, (i,)) for i in picks()])
        v = NcPoly.from_monomials(X, F2, [(0, (i,)) for i in picks()])
        s = u + v
        if not s.is_zero:
            assert square(s) == square(u) + square(v) + bracket(u, v)
        w = rand_poly(rng, max_deg=2)
        assert bracket(square(u), w) == bracket(u, bracket(u, w))


def test_mixed_identities_random():
    rng = random.Random(37)
    for _ in range(300):
        picks = lambda: [i for i in range(1, 4) if rng.random() < 0.6] or [2]
        u = NcPoly.from_monomials(X, F2PI, [(0, (i,)) for i in picks()])
        v = NcPoly.from_monomials(X, F2PI, [(0, (i,)) for i in picks()])
        s = u + v
        if not s.is_zero:
            assert square(s) == square(u) + square(v) + bracket(u, v)
        uv = bracket(u, v)
        if not uv.is_zero:
            assert bracket(square(u), v) == square(uv) + bracket(u, uv)


def test_square_shape_over_f2pi():
    x1 = gen(1, F2PI)
    assert square(x1) == mul(x1, x1) + pi_mul(x1)
    x1x2 = mul(x1, gen(2, F2PI))
    assert square(x1x2) == pi_mul(x1x2)


def test_render_bracket_and_weight():
    word = Bracket(Leaf(1), Bracket(Leaf(1), Leaf(2)))
    assert render_bracket(word) == "[x1,[x1,x2]]"
    assert render_bracket(Square(Leaf(2))) == "P(x2)"
    assert bracket_weight(word, X) == 3
    weighted = WeightedAlphabet((1, 2))
    assert bracket_weight(Bracket(Leaf(1), Leaf(2)), weighted) == 3
    assert bracket_weight(Square(Leaf(1)), weighted) == 2


def test_evaluate_square_and_bracket():
    # [x1,[x1,x2]] expands to the two surviving words x1.x1.x2 + x2.x1.x1
    word = Bracket(Leaf(1), Bracket(Leaf(1), Leaf(2)))
    poly = evaluate(word, X, F2)
    x1, x2 = gen(1), gen(2)
    assert poly == mul(mul(x1, x1), x2) + mul(x2, mul(x1, x1))
    # over F2 the same element equals [x1^2, x2]
    assert poly == bracket(square(x1), x2)
    assert str(evaluate(Square(Leaf(1)), X, F2PI)) == "x1.x1 + pi.x1"


def test_evaluate_rejects_square_of_heavy_letter():
    weighted = WeightedAlphabet((1, 2))
    with pytest.raises(ValueError):
        evaluate(Square(Leaf(2)), weighted, F2)


def test_relator_to_poly_reduced_relators():
    # frozen from the first worked prime set after elimination
    alphabet = unit_alphabet(4)
    r1 = QuadraticRelator(4, (0, 0, 0, 0), {(1, 2)}, owner=1)
    p1 = relator_to_poly(r1, F2)
    x = [None] + [NcPoly.generator(alphabet, i, F2) for i in range(1, 5)]
    assert p1 == mul(x[1], x[2]) + mul(x[2], x[1])
    r4 = QuadraticRelator(4, (0, 0, 0, 1), {(1, 4), (3, 4)}, owner=4)
    p4 = relator_to_poly(r4, F2)
    expected = mul(x[4], x[4]) + bracket(x[4], x[1]) + bracket(x[4], x[3])
    assert p4 == expected
    # identical polynomial over F2pi: initial forms never carry pi
    p4_pi = relator_to_poly(r4, F2PI)
    assert sorted(p4_pi.terms) == sorted(p4.terms)
    zero = QuadraticRelator(3, (0, 0, 0), frozenset())
    assert relator_to_poly(zero, F2).is_zero


def test_enumerate_y_frozen_unit_rank2():
    alphabet = unit_alphabet(2)
    grouped = enumerate_y(alphabet, 3)
    assert [render_bracket(w) for w in grouped[2]] == ["P(x1)", "P(x2)", "[x1,x2]"]
    assert sorted(render_bracket(w) for w in grouped[3]) == ["[x1,[x1,x2]]", "[x2,[x2,x1]]"]


def sorted_alphabets(max_d, max_weight):
    for d in range(1, max_d + 1):
        for weights in itertools.combinations_with_replacement(range(1, max_weight + 1), d):
            yield WeightedAlphabet(weights)


def test_enumerate_y_counts_match_poly():
    # 209 alphabets x 7 degree limits = 1463 requests
    for alphabet in sorted_alphabets(6, 4):
        for k_max in range(2, 9):
            grouped = enumerate_y(alphabet, k_max)
            poly = y_count_poly(alphabet, k_max)
            counted = [0] * (k_max + 1)
            for degree, words in grouped.items():
                counted[degree] = len(words)
            assert counted == poly, (alphabet.weights, k_max)
            for degree, words in grouped.items():
                assert words and all(bracket_weight(w, alphabet) == degree for w in words)


def family_count(alphabet, k_max):
    """enumerate_y's word count summed family by family, the reference for the
    word budget's reading of the generating polynomial."""
    m = alphabet.m

    def heavy(limit):
        return len(range(m + 1, bisect_right(alphabet.weights, limit) + 1))

    total = m + comb(m, 2) + heavy(k_max) + m * heavy(k_max - 1)  # families (1) and (2)
    for k in range(3, min(k_max, m + 1) + 1):  # families (3), (4) and (5)
        total += comb(m, k - 2) * (m - k + 2) + comb(m, k) * (k - 1) + comb(m, k - 1) * heavy(k_max - k + 1)
    return total


def test_word_budget_polynomial_matches_family_count():
    # 791 alphabets x 13 degree limits = 10283 requests, up to k_max = 10^9
    for alphabet in sorted_alphabets(7, 5):
        for k_max in (*range(2, 14), 10**9):
            assert sum(_y_count_terms(alphabet, k_max).values()) == family_count(alphabet, k_max), (
                alphabet.weights,
                k_max,
            )


def test_enumerate_y_degrees_and_weights_consistent():
    alphabet = WeightedAlphabet((1, 1, 2))
    grouped = enumerate_y(alphabet, 5)
    for degree, words in grouped.items():
        for w in words:
            assert bracket_weight(w, alphabet) == degree


def test_elimination_basis_frozen_rank2():
    alphabet = unit_alphabet(2)
    words = elimination_basis(alphabet, (1,), 3)
    assert [render_bracket(w) for w in words] == ["x2", "[x1,x2]", "[x1,[x1,x2]]"]
    poly = evaluate(words[2], alphabet, F2)
    x1 = NcPoly.generator(alphabet, 1, F2)
    x2 = NcPoly.generator(alphabet, 2, F2)
    assert poly == mul(mul(x1, x1), x2) + mul(x2, mul(x1, x1))


def test_elimination_basis_counts_rank3():
    # sigma = {1}: ad-chains in x1 applied to x2, x3 -> two words per degree
    alphabet = unit_alphabet(3)
    words = elimination_basis(alphabet, (1,), 4)
    by_degree = {}
    for w in words:
        by_degree.setdefault(bracket_weight(w, alphabet), []).append(w)
    assert {deg: len(ws) for deg, ws in by_degree.items()} == {1: 2, 2: 2, 3: 2, 4: 2}
    # sigma = {1, 2}: chains over two letters on the single target x3
    words = elimination_basis(alphabet, (1, 2), 3)
    by_degree = {}
    for w in words:
        by_degree.setdefault(bracket_weight(w, alphabet), []).append(w)
    assert {deg: len(ws) for deg, ws in by_degree.items()} == {1: 1, 2: 2, 3: 4}


def test_elimination_basis_validates_sigma():
    alphabet = unit_alphabet(3)
    with pytest.raises(ValueError):
        elimination_basis(alphabet, (1, 2, 3), 3)  # not proper
    with pytest.raises(ValueError):
        elimination_basis(alphabet, (0,), 3)
    with pytest.raises(ValueError, match="n_max must be >= 1"):
        elimination_basis(alphabet, (1,), 0)
    # sigma is a set: duplicates collapse
    assert elimination_basis(alphabet, (1, 1), 3) == elimination_basis(alphabet, {1}, 3)
    # empty sigma: just the leaves
    assert [render_bracket(w) for w in elimination_basis(alphabet, (), 3)] == ["x1", "x2", "x3"]


def chain_walk_elimination_basis(alphabet, sigma, n_max):
    """Reference: every chain over sigma of every length, each word built
    whole, filtered by weight."""
    sig = sorted(set(sigma))
    rest = [i for i in range(1, alphabet.d + 1) if i not in sig]
    out = []
    for n in range(n_max):
        for chain in itertools.product(sig, repeat=n):
            base = sum(alphabet.weight(i) for i in chain)
            for target in rest:
                if base + alphabet.weight(target) <= n_max:
                    word = Leaf(target)
                    for idx in reversed(chain):
                        word = Bracket(Leaf(idx), word)
                    out.append(word)
    return out


def test_elimination_basis_matches_the_chain_walk():
    rng = random.Random(2009)
    for _ in range(40):
        d = rng.randint(1, 5)
        alphabet = WeightedAlphabet(sorted(rng.randint(1, 3) for _ in range(d)))
        n_max = rng.randint(1, 8)
        for size in range(d):
            for sigma in itertools.combinations(range(1, d + 1), size):
                expected = chain_walk_elimination_basis(alphabet, sigma, n_max)
                assert elimination_basis(alphabet, sigma, n_max) == expected, (alphabet.weights, sigma, n_max)


def test_elimination_basis_builds_one_bracket_per_word():
    alphabet = WeightedAlphabet((1, 1, 2, 2))
    words = elimination_basis(alphabet, (1, 3), 9)
    brackets, leaves, stack = set(), set(), list(words)
    while stack:
        word = stack.pop()
        if isinstance(word, Bracket):
            if id(word) not in brackets:
                brackets.add(id(word))
                stack.extend((word.left, word.right))
        else:
            leaves.add(id(word))
    assert len(brackets) == sum(isinstance(w, Bracket) for w in words) > 0
    assert len(leaves) == alphabet.d


def test_ql_bridge_between_square_and_bracket():
    # over F2, [P(u), w] = [u, [u, w]] extends to brackets of generators
    rng = random.Random(41)
    alphabet = unit_alphabet(4)
    for _ in range(100):
        i = rng.randint(1, 4)
        u = NcPoly.generator(alphabet, i, F2)
        w = rand_poly(rng, F2, alphabet, max_deg=2)
        assert bracket(square(u), w) == bracket(u, bracket(u, w))
