"""Free associative algebras over F2 and F2[pi], the square/bracket
operators on them, and the basis-word enumerations.

A polynomial is a set of monomials, each with coefficient 1: coefficients
live in F2, so addition is symmetric difference.  A monomial is a pair
(pi_exp, word) where word is a tuple of 1-based letter indices; pi is a
central degree-1 variable, so every monomial normalizes to this form, and
the degree is pi_exp plus the total weight of the word.  Over the plain F2
ring pi_exp is always 0.

One square operator P, `square`, acts on nonzero homogeneous elements and
reads the ring from its operand: over F2[pi] it is P(u) = u*u + pi*u in
degree 1 and P(u) = pi*u in higher degrees; over F2 it is the pi = 0 case
P(u) = u*u, defined in degree 1 only.  Both satisfy, for degree-1 u, v:

    P(u + v) = P(u) + P(v) + [u, v]
    [P(u), v] = [u, [u, v]]          (over F2)
    [P(u), v] = P([u, v]) + [u, [u, v]]   (over F2[pi], degree 1)

and these identities are what the randomized test suites pin down.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from collections import Counter
from math import comb
from typing import Union

from .arith import F2, F2PI, BoundExceededError, _check_int, _check_ring, _Record


class WeightedAlphabet(_Record):
    """Letters x1..xd with positive weights, sorted nondecreasing.

    The first m letters have weight 1; the convention that weight-1 letters
    come first is what the basis enumerations below rely on.
    """

    _fields = ("weights",)

    def __init__(self, weights: tuple[int, ...]):
        weights = tuple(weights)
        # type() rather than int(): 1.7 must not pass as 1, nor True as 1
        if any(type(w) is not int for w in weights):
            raise ValueError(f"letter weights must be integers, got {weights}")
        if not weights:
            raise ValueError("an alphabet needs at least one letter")
        if any(w < 1 for w in weights):
            raise ValueError(f"letter weights must be >= 1, got {weights}")
        if any(a > b for a, b in zip(weights, weights[1:])):
            raise ValueError(f"letter weights must be nondecreasing, got {weights}")
        self.__dict__.update(weights=weights)

    @property
    def d(self) -> int:
        return len(self.weights)

    @property
    def m(self) -> int:
        """Number of weight-1 letters."""
        return sum(1 for w in self.weights if w == 1)

    def weight(self, letter: int) -> int:
        if not 1 <= letter <= self.d:
            raise ValueError(f"letter index {letter} out of range 1..{self.d}")
        return self.weights[letter - 1]

    def word_weight(self, word: tuple[int, ...]) -> int:
        return sum(self.weight(i) for i in word)


def unit_alphabet(d: int) -> WeightedAlphabet:
    """Alphabet of d letters, all of weight 1."""
    _check_int(d, "d")
    return WeightedAlphabet((1,) * d)


Monomial = tuple[int, tuple[int, ...]]


def _mono_str(mono: Monomial) -> str:
    k, word = mono
    parts = []
    if k == 1:
        parts.append("pi")
    elif k > 1:
        parts.append(f"pi^{k}")
    parts.extend(f"x{i}" for i in word)
    return ".".join(parts) if parts else "1"


class NcPoly(_Record):
    """An element of the free associative algebra.

    terms is a frozenset of (pi_exp, word) monomials.
    """

    _fields = ("alphabet", "ring", "terms")

    def __init__(self, alphabet: WeightedAlphabet, ring: str, terms: frozenset):
        _check_ring(ring)
        terms = frozenset(terms)
        for k, word in terms:
            # type() rather than int(), as for letter weights: 1.5 must not pass as 1
            if type(k) is not int or any(type(i) is not int for i in word):
                raise ValueError(f"pi exponents and letters must be integers, got {(k, word)}")
            if k < 0 or (k > 0 and ring == F2):
                raise ValueError(f"bad pi exponent {k} for ring {ring}")
            alphabet.word_weight(word)  # validates letter indices via weight lookup
        self.__dict__.update(alphabet=alphabet, ring=ring, terms=terms)

    def _mono_degree(self, mono: Monomial) -> int:
        k, word = mono
        return k + self.alphabet.word_weight(word)

    @classmethod
    def generator(cls, alphabet: WeightedAlphabet, i: int, ring: str) -> "NcPoly":
        """The letter xi as a polynomial."""
        return cls(alphabet, ring, frozenset({(0, (i,))}))

    @classmethod
    def from_monomials(cls, alphabet, ring, monomials) -> "NcPoly":
        """Build a polynomial from (pi_exp, word) pairs, XOR-folding repeats."""
        acc: set[Monomial] = set()
        for k, word in monomials:
            acc.symmetric_difference_update({(k, tuple(word))})
        return cls(alphabet, ring, frozenset(acc))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted({self._mono_degree(m) for m in self.terms}))

    @property
    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def degree(self) -> int:
        """Degree of a nonzero homogeneous polynomial."""
        degs = self.degrees()
        if len(degs) != 1:
            raise ValueError(f"degree is defined for nonzero homogeneous elements, degrees = {degs}")
        return degs[0]

    def monomials(self) -> list[Monomial]:
        """Support sorted in the canonical order: degree, pi exponent, word."""
        return sorted(self.terms, key=lambda m: (self._mono_degree(m), m[0], m[1]))

    def __add__(self, other: "NcPoly") -> "NcPoly":
        _check_compatible(self, other)
        return NcPoly(self.alphabet, self.ring, self.terms ^ other.terms)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        return " + ".join(_mono_str(m) for m in self.monomials())


def _check_compatible(u: NcPoly, v: NcPoly) -> None:
    if u.alphabet != v.alphabet:
        raise ValueError("alphabet mismatch")
    if u.ring != v.ring:
        raise ValueError(f"ring mismatch: {u.ring} vs {v.ring}")


def mul(u: NcPoly, v: NcPoly) -> NcPoly:
    """Product by concatenation."""
    _check_compatible(u, v)
    products = ((k1 + k2, w1 + w2) for k1, w1 in u.terms for k2, w2 in v.terms)
    return NcPoly.from_monomials(u.alphabet, u.ring, products)


def pi_mul(u: NcPoly) -> NcPoly:
    """Multiply by the central variable pi (F2[pi] ring only)."""
    if u.ring != F2PI:
        raise ValueError("pi_mul is only defined over F2pi")
    return NcPoly(u.alphabet, u.ring, frozenset((k + 1, word) for k, word in u.terms))


def bracket(u: NcPoly, v: NcPoly) -> NcPoly:
    """[u, v] = uv + vu (char 2, so this is also the anticommutator)."""
    return mul(u, v) + mul(v, u)


def square(u: NcPoly) -> NcPoly:
    """The square operator P, the value of a Square word, for nonzero
    homogeneous u: u*u + pi*u in degree 1 and pi*u above over F2[pi]; u*u
    over F2, where P is defined in degree 1 only."""
    if u.is_zero:
        raise ValueError("P is not defined on zero")
    if not u.is_homogeneous:
        raise ValueError(f"P needs a homogeneous element, degrees = {u.degrees()}")
    degree = u.degree()
    if u.ring == F2PI:
        return mul(u, u) + pi_mul(u) if degree == 1 else pi_mul(u)
    if degree != 1:
        raise ValueError(f"P over F2 needs degree 1, got degree {degree}")
    return mul(u, u)


# ---------------------------------------------------------------------------
# Bracket words: formal Lie/square expressions evaluated into the algebra.


class Leaf(_Record):
    _fields = ("index",)

    def __init__(self, index: int):
        self.__dict__.update(index=index)


class Square(_Record):
    _fields = ("arg",)

    def __init__(self, arg: Leaf):
        self.__dict__.update(arg=arg)


class Bracket(_Record):
    _fields = ("left", "right")

    def __init__(self, left: BracketWord, right: BracketWord):
        self.__dict__.update(left=left, right=right)


BracketWord = Union[Leaf, Square, Bracket]


def bracket_weight(word: BracketWord, alphabet: WeightedAlphabet) -> int:
    if isinstance(word, Leaf):
        return alphabet.weight(word.index)
    if isinstance(word, Square):
        return 2 * alphabet.weight(word.arg.index)
    return bracket_weight(word.left, alphabet) + bracket_weight(word.right, alphabet)


def render_bracket(word: BracketWord) -> str:
    if isinstance(word, Leaf):
        return f"x{word.index}"
    if isinstance(word, Square):
        return f"P(x{word.arg.index})"
    return f"[{render_bracket(word.left)},{render_bracket(word.right)}]"


def evaluate(word: BracketWord, alphabet: WeightedAlphabet, ring: str) -> NcPoly:
    """Evaluate a bracket word in the free associative algebra.

    Squares P(xi) require a weight-1 letter.
    """
    if isinstance(word, Leaf):
        return NcPoly.generator(alphabet, word.index, ring)
    if isinstance(word, Square):
        if alphabet.weight(word.arg.index) != 1:
            raise ValueError(f"P(x{word.arg.index}) needs a weight-1 letter")
        return square(evaluate(word.arg, alphabet, ring))
    return bracket(evaluate(word.left, alphabet, ring), evaluate(word.right, alphabet, ring))


def relator_to_poly(relator, ring: str) -> NcPoly:
    """Degree-2 polynomial sum(squares_i * xi*xi) + sum(comms (i,j) of xi*xj + xj*xi)
    in the algebra on relator.d letters of weight 1.

    The relator provides .d, .squares and .comms; pi never appears, and the
    image is zero exactly when the relator is.
    """
    monos: list[Monomial] = []
    for i, bit in enumerate(relator.squares, start=1):
        if bit:
            monos.append((0, (i, i)))
    for i, j in relator.comms:
        monos.append((0, (i, j)))
        monos.append((0, (j, i)))
    return NcPoly.from_monomials(unit_alphabet(relator.d), ring, monos)


# ---------------------------------------------------------------------------
# Basis-word enumerations.

# Most bracket words one enumeration may return.  10^5 words hold about 115 MiB
# as enumerate_y's whole ad-chains, 15 MiB as elimination_basis's shared tails.
MAX_BASIS_WORDS = 10**5


def _check_word_budget(what: str, total: int) -> None:
    """Raise BoundExceededError when total, the words an enumeration would
    return, passes MAX_BASIS_WORDS."""
    if total > MAX_BASIS_WORDS:
        raise BoundExceededError(f"{what} would build more than {MAX_BASIS_WORDS} bracket words")


def _ad_chain(chain: tuple[int, ...], core: BracketWord) -> BracketWord:
    """ad(x_{chain[0]}) ... ad(x_{chain[-1]}) applied to core."""
    word = core
    for idx in reversed(chain):
        word = Bracket(Leaf(idx), word)
    return word


def enumerate_y(alphabet: WeightedAlphabet, k_max: int) -> dict[int, list[BracketWord]]:
    """Free-generator words of the positive part of the free mixed Lie algebra,
    grouped by degree.

    With m weight-1 letters and the remaining letters of weight >= 2 the
    families are, writing ad(u)(v) = [u, v]:

      (1) P(xi), i <= m, and [xi, xj], i < j <= m                (degree 2)
      (2) xj and [xi, xj], i <= m < j                            (degree e_j, e_j + 1)
      (3) ad(x_{i_1})..ad(x_{i_{k-3}}) ad(xj)^2 (x_{i_{k-2}}),
          i_1 > .. > i_{k-2}, j <= m outside the i's             (degree k)
      (4) ad(x_{i_1})..ad(x_{i_{k-1}})(x_{i_k}), i_1 > .. > i_{k-1},
          i_{k-1} < i_k <= m, i_k outside {i_1..i_{k-2}}         (degree k)
      (5) ad(x_{i_1})..ad(x_{i_{k-1}})(xj), i_1 > .. > i_{k-1} <= m < j
                                                                 (degree k - 1 + e_j)

    for k = 3..k_max, keeping only the words of degree <= k_max.  Per degree
    the count matches the coefficient of 1 - (1+t)**m * (1 - sum_i m_i t**e_i).
    """
    _check_int(k_max, "k_max")
    if k_max < 2:
        raise ValueError(f"k_max must be >= 2, got {k_max}")
    m = alphabet.m
    k_top = min(k_max, m + 1)  # every family below is empty for k > m + 1

    def heavy(limit: int) -> range:
        """The letters m+1..d of weight <= limit: a prefix, as weights are sorted."""
        return range(m + 1, bisect_right(alphabet.weights, limit) + 1)

    # the generating polynomial's terms through k_max sum to the words returned
    _check_word_budget("enumerate_y", sum(_y_count_terms(alphabet, k_max).values()))
    grouped: dict[int, list[BracketWord]] = {}

    def put(degree: int, word: BracketWord) -> None:
        grouped.setdefault(degree, []).append(word)

    for i in range(1, m + 1):
        put(2, Square(Leaf(i)))
    for i, j in itertools.combinations(range(1, m + 1), 2):
        put(2, Bracket(Leaf(i), Leaf(j)))
    for j in heavy(k_max):
        put(alphabet.weight(j), Leaf(j))
    for i in range(1, m + 1):
        for j in heavy(k_max - 1):
            put(alphabet.weight(j) + 1, Bracket(Leaf(i), Leaf(j)))
    for k in range(3, k_top + 1):
        for combo in itertools.combinations(range(1, m + 1), k - 2):
            run = tuple(reversed(combo))  # i_1 > ... > i_{k-2}
            for j in range(1, m + 1):
                if j not in combo:
                    core = Bracket(Leaf(j), Bracket(Leaf(j), Leaf(run[-1])))
                    put(k, _ad_chain(run[:-1], core))
        for combo in itertools.combinations(range(1, m + 1), k):
            low = combo[0]
            for i_k in combo[1:]:
                chain = tuple(sorted(set(combo) - {low, i_k}, reverse=True))
                put(k, _ad_chain(chain, Bracket(Leaf(low), Leaf(i_k))))
        for combo in itertools.combinations(range(1, m + 1), k - 1):
            run = tuple(reversed(combo))
            for j in heavy(k_max - k + 1):
                put(k - 1 + alphabet.weight(j), _ad_chain(run, Leaf(j)))
    return {deg: grouped[deg] for deg in sorted(grouped)}


def _y_count_terms(alphabet: WeightedAlphabet, n_max: int) -> Counter:
    """Coefficients through t**n_max of 1 - (1+t)**m * (1 - sum_e m_e t**e),
    with m_e letters of weight e, by degree.  Sparse: a heavy letter costs a
    term per power of (1+t), not a slot for every degree below its weight."""
    out = Counter({0: 1})
    multiplicity = Counter(alphabet.weights)  # keys ascending, as the weights are sorted
    for k in range(min(alphabet.m, n_max) + 1):
        c = comb(alphabet.m, k)
        out[k] -= c
        for e, m_e in multiplicity.items():
            if k + e > n_max:
                break
            out[k + e] += c * m_e
    return out


def y_count_poly(alphabet: WeightedAlphabet, n_max: int) -> list[int]:
    """Coefficients through t**n_max of the polynomial counting enumerate_y per degree."""
    _check_int(n_max, "n_max")
    terms = _y_count_terms(alphabet, n_max)
    return [terms[n] for n in range(n_max + 1)]


def elimination_basis(
    alphabet: WeightedAlphabet, sigma: tuple[int, ...] | list[int] | set[int], n_max: int
) -> list[BracketWord]:
    """Free-generator words ad(s_1)..ad(s_n)(x), s_i in sigma, x outside sigma,
    of weight <= n_max, ordered by (n, chain indices, target index).

    Level n + 1 is [x_s, w] for s in sigma ascending and w in level n in
    order, which keeps that order; each word shares its tail w and leaves.
    """
    _check_int(n_max, "n_max")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    sig = sorted(set(sigma))  # type() on every entry: the set merges 1.0 and True into 1
    if any(type(i) is not int for i in sigma) or any(not 1 <= i <= alphabet.d for i in sig):
        raise ValueError(f"sigma {tuple(sig)} is not a subset of the alphabet 1..{alphabet.d}")
    rest = [i for i in range(1, alphabet.d + 1) if i not in sig]
    if not rest:
        raise ValueError("sigma must be a proper subset of the alphabet")
    ads = [(alphabet.weight(s), Leaf(s)) for s in sig]
    level = [(alphabet.weight(x), Leaf(x)) for x in rest if alphabet.weight(x) <= n_max]
    out: list[BracketWord] = []
    while level:
        out.extend(word for _, word in level)
        next_size = sum(w + e <= n_max for e, _ in ads for w, _ in level)
        _check_word_budget("elimination_basis", len(out) + next_size)
        level = [(w + e, Bracket(ad, word)) for e, ad in ads for w, word in level if w + e <= n_max]
    return out
