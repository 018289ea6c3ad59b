"""Linking data of odd prime sets, the quadratic presentations they induce,
generator elimination, and the augmentation construction.

For an ordered set of odd primes S = (p_1, ..., p_d):

  a_i   = 1  iff p_i = 3 (mod 4)
  l_ij  = 1  iff p_i is a nonsquare mod p_j   (i != j)

Relator i has square part a_i * xi^2 and one commutator [xi, xj] for every
j != i with l_ij = 1; the product relation says prod_i xi^(a_i) is a square
times commutators, and eliminating one generator that appears in it rewrites
the remaining relators by

  l'_ij = l_ij  XOR  (l_it AND c_j)        (j != i, t; squares unchanged)

where t is the eliminated index and c_j its substitution bits.
"""

from __future__ import annotations

import itertools

from .arith import (
    DEFAULT_PRIME_BOUND,
    BoundExceededError,
    _check_int,
    _check_range,
    _Record,
    _record_json,
    check_odd_prime,
    is_prime,
    legendre,
)


class NoEliminableGeneratorError(ValueError):
    """The presentation has no usable product relation to eliminate with."""


def ordered_prime_set(primes) -> tuple[int, ...]:
    """Validate an ordered tuple of distinct odd primes."""
    out = tuple(primes)
    if not out:
        raise ValueError("at least one prime is required")
    for p in out:
        check_odd_prime(p)  # also refuses non-integers and booleans
    if len(set(out)) != len(out):
        raise ValueError(f"primes must be distinct, got {out}")
    return out


class LinkingData(_Record):
    """Square classes a and linking matrix ell of an ordered odd prime set."""

    _fields = ("primes", "a", "ell")

    def __init__(self, primes: tuple[int, ...], a: tuple[int, ...], ell: tuple[tuple[int, ...], ...]):
        self.__dict__.update(primes=primes, a=a, ell=ell)

    @property
    def d(self) -> int:
        return len(self.primes)

    to_json_dict = _record_json

    def text(self) -> str:
        lines = [f"S = ({', '.join(str(p) for p in self.primes)})"]
        lines.append(f"a = ({', '.join(str(x) for x in self.a)})")
        lines.append("ell =")
        for i, row in enumerate(self.ell):
            cells = ["." if i == j else str(v) for j, v in enumerate(row)]
            lines.append(" ".join(cells))
        return "\n".join(lines)


def _nonsquare(p: int, q: int) -> bool:
    """Euler's criterion for a modulus q the caller has validated as an odd
    prime, so not legendre, which tests q again: any integer p is a nonsquare
    mod q iff p^((q-1)/2) = -1 (a multiple of q gives 0, so it is not)."""
    return pow(p, (q - 1) // 2, q) == q - 1


def linking_data(primes) -> LinkingData:
    """Compute square classes and the linking matrix (diagonal fixed to 0).

    One Euler criterion per unordered pair: quadratic reciprocity gives
    (p/q)(q/p) = -1 exactly when p = q = 3 (mod 4), so l_ji = l_ij XOR
    (a_i AND a_j)."""
    ps = ordered_prime_set(primes)
    a = tuple(1 if p % 4 == 3 else 0 for p in ps)
    ell = [[0] * len(ps) for _ in ps]
    for i, j in itertools.combinations(range(len(ps)), 2):
        ell[i][j] = int(_nonsquare(ps[i], ps[j]))
        ell[j][i] = ell[i][j] ^ (a[i] & a[j])
    return LinkingData(ps, a, tuple(map(tuple, ell)))


class QuadraticRelator(_Record):
    """Degree-2 initial form: squares vector plus a set of commutator pairs.

    comms holds pairs (i, j) with i < j, 1-based; owner tags the generator the
    relator belongs to in a presentation, when there is one.
    """

    _fields = ("d", "squares", "comms", "owner")

    def __init__(self, d: int, squares: tuple[int, ...], comms: frozenset, owner: int | None = None):
        _check_int(d, "d")
        squares = tuple(squares)
        if len(squares) != d:
            raise ValueError(f"squares vector has length {len(squares)}, expected {d}")
        # type() rather than int(): 0.6 must not pass as 0, nor True as 1
        if any(type(b) is not int or b not in (0, 1) for b in squares):
            raise ValueError("squares entries must be the integers 0 or 1")
        # types first, so that ordering a pair cannot raise TypeError
        pairs = [(min(i, j), max(i, j)) if type(i) is type(j) is int else (i, j) for i, j in comms]
        for i, j in pairs:
            if not (type(i) is type(j) is int and 1 <= i < j <= d):
                raise ValueError(f"commutator pair {(i, j)!r} out of range for d = {d}")
        # over GF(2) a commutator named twice cancels, which a set would hide
        comms = frozenset(pairs)
        if len(comms) < len(pairs):
            twice = next(pair for k, pair in enumerate(pairs) if pair in pairs[:k])
            raise ValueError("commutator [x%d,x%d] named twice" % twice)
        if owner is not None and (type(owner) is not int or not 1 <= owner <= d):
            raise ValueError(f"owner {owner} out of range 1..{d}")
        self.__dict__.update(d=d, squares=squares, comms=comms, owner=owner)

    @property
    def is_zero(self) -> bool:
        return not any(self.squares) and not self.comms

    def has_koch_shape(self, i: int) -> bool:
        """True when the square (if any) sits at i and every commutator involves i."""
        if any(self.squares[k] for k in range(self.d) if k != i - 1):
            return False
        return all(i in pair for pair in self.comms)

    def comm_partners(self, i: int) -> list[int]:
        """Indices j with [xi, xj] present, ascending."""
        return sorted(a + b - i for a, b in self.comms if i in (a, b))

    def text(self) -> str:
        """Canonical text: owner square first as xi^2, then [xi,xj] ascending j."""
        if self.is_zero:
            return "1"
        if self.owner is not None and self.has_koch_shape(self.owner):
            o = self.owner
            parts = [f"x{o}^2"] if self.squares[o - 1] else []
            parts.extend(f"[x{o},x{j}]" for j in self.comm_partners(o))
            return "".join(parts)
        parts = [f"x{i}^2" for i in range(1, self.d + 1) if self.squares[i - 1]]
        parts.extend(f"[x{i},x{j}]" for i, j in sorted(self.comms))
        return "".join(parts)

    def to_json_dict(self) -> dict:
        """JSON form.  The schema records one square bit, attached to the
        owner index, so a relator with a square anywhere else (or with squares
        but no owner) does not fit and is rejected rather than silently
        truncated."""
        if any(b for i, b in enumerate(self.squares, 1) if i != self.owner):
            raise ValueError(f"{self.text()}: the JSON form holds a square only at the owner index")
        return {
            "owner": self.owner,
            "square": self.squares[self.owner - 1] if self.owner else 0,
            "comms": [list(pair) for pair in sorted(self.comms)],
        }


class Presentation(_Record):
    """Relators over generators x1..xd, with an optional product relation.

    product_relation is the exponent vector of prod xi^(a_i); primes records
    the source primes and history the eliminations performed.
    """

    _fields = ("d", "relators", "product_relation", "primes", "history")

    def __init__(
        self,
        d: int,
        relators: tuple[QuadraticRelator, ...],
        product_relation: tuple[int, ...] | None = None,
        primes: tuple[int, ...] | None = None,
        history: tuple[str, ...] = (),
    ):
        _check_int(d, "d")
        relators = tuple(relators)
        if product_relation is not None:
            product_relation = tuple(product_relation)
            if len(product_relation) != d:
                raise ValueError("product relation length does not match generator count")
            if any(type(b) is not int or b not in (0, 1) for b in product_relation):
                raise ValueError("product relation entries must be the integers 0 or 1")
        if primes is not None:
            primes = tuple(primes)
            if len(primes) != d:
                raise ValueError("primes length does not match generator count")
        # a bare string would pass tuple() as one note per character
        if isinstance(history, str):
            raise ValueError(f"history must be a sequence of notes, got the string {history!r}")
        history = tuple(history)
        if any(type(note) is not str for note in history):
            raise ValueError(f"history notes must be strings, got {history}")
        for rel in relators:
            if rel.d != d:
                raise ValueError(f"relator on {rel.d} generators in a presentation with d = {d}")
        owners = [r.owner for r in relators if r.owner is not None]
        if len(set(owners)) != len(owners):
            raise ValueError(f"owner tags must be distinct, got {owners}")
        self.__dict__.update(
            d=d, relators=relators, product_relation=product_relation, primes=primes, history=history
        )

    def _label(self, i: int) -> str:
        return f"r{i}" + "'" * len(self.history)

    def product_text(self) -> str:
        if self.product_relation is None or not any(self.product_relation):
            return "1"
        return "".join(f"x{i}" for i, b in enumerate(self.product_relation, 1) if b)

    def text(self) -> str:
        lines = [f"{self._label(i)} = {rel.text()}" for i, rel in enumerate(self.relators, 1)]
        if self.product_relation is not None:
            lines.append(f"r = {self.product_text()}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        a = [0] * self.d
        ell = [[0] * self.d for _ in range(self.d)]
        for rel in self.relators:
            if rel.owner is not None and rel.has_koch_shape(rel.owner):
                i = rel.owner
                a[i - 1] = rel.squares[i - 1]
                for j in rel.comm_partners(i):
                    ell[i - 1][j - 1] = 1
        return {
            "primes": list(self.primes) if self.primes is not None else None,
            "a": a,
            "ell": ell,
            "relators": [rel.to_json_dict() for rel in self.relators],
            "product_relation": list(self.product_relation)
            if self.product_relation is not None
            else None,
        }

    @classmethod
    def from_json_dict(cls, data) -> "Presentation":
        """Rebuild from the JSON form; the relators array is authoritative
        (a and ell are derived data: only a's length is read).  d is the
        length of a, product_relation or primes: at least one must be
        present, and those present must agree on d."""
        if not isinstance(data, dict):
            raise ValueError("presentation JSON must be an object")
        relators_raw = data.get("relators")
        if not isinstance(relators_raw, list) or not all(isinstance(r, dict) for r in relators_raw):
            raise ValueError("presentation JSON needs a 'relators' array of objects")
        product, primes = data.get("product_relation"), data.get("primes")
        vectors = [v for v in (data.get("a"), product, primes) if v is not None]
        if not vectors:
            raise ValueError("presentation JSON needs an 'a', 'product_relation' or 'primes' array for d")
        if not all(isinstance(v, list) for v in vectors) or len({len(v) for v in vectors}) > 1:
            raise ValueError("'a', 'product_relation' and 'primes' must be arrays of one length d")
        if primes is not None:
            for p in primes:
                check_odd_prime(p, "'primes' entry")  # also refuses non-integers and booleans
            if len(set(primes)) != len(primes):
                raise ValueError(f"'primes' entries must be distinct, got {primes}")
        d = len(vectors[0])
        relators = []
        for k, raw in enumerate(relators_raw, 1):
            owner, square, comms = raw.get("owner"), raw.get("square", 0), raw.get("comms", [])
            if not isinstance(comms, list) or not all(
                isinstance(pair, list) and len(pair) == 2 for pair in comms
            ):
                raise ValueError(f"relator {k}: comms must be an array of index pairs")
            indices = [i for pair in comms for i in pair]
            ints = (square, *indices) if owner is None else (owner, square, *indices)
            if any(type(i) is not int for i in ints):
                raise ValueError(f"relator {k}: owner, square and comms entries must be integers")
            if square and owner is None:
                raise ValueError(f"relator {k}: a square bit needs an owner index to attach to")
            # the record refuses a square bit other than 0/1, an owner or index
            # out of 1..d and a pair listed twice; the refusal names the relator
            squares = [square if i == owner else 0 for i in range(1, d + 1)]
            try:
                relators.append(QuadraticRelator(d, squares, comms, owner))
            except ValueError as exc:
                raise ValueError(f"relator {k}: {exc}") from None
        return cls(d, relators, product, primes)


def koch_presentation(primes) -> Presentation:
    """Presentation induced by the linking data of an ordered odd prime set."""
    data = linking_data(primes)
    d = data.d
    relators = []
    for i in range(1, d + 1):
        squares = tuple(data.a[i - 1] if k == i - 1 else 0 for k in range(d))
        comms = frozenset(
            (min(i, j), max(i, j)) for j in range(1, d + 1) if j != i and data.ell[i - 1][j - 1]
        )
        relators.append(QuadraticRelator(d, squares, comms, owner=i))
    return Presentation(d, tuple(relators), product_relation=data.a, primes=data.primes)


def _eliminate_from(rel: QuadraticRelator, t: int, support: tuple[int, ...]) -> QuadraticRelator:
    """Rewrite one relator under xt -> prod_(j in support) xj (t not in
    support), then drop xt and shift the indices above t down by one."""
    squares = list(rel.squares)
    comms = set(rel.comms)
    if squares[t - 1]:
        # xt^2 expands through the square of the substituted product:
        # sum xj^2 over the support plus cross commutators [xj, xj'].
        for j in support:
            squares[j - 1] ^= 1
        for j, jp in itertools.combinations(support, 2):
            comms ^= {(j, jp)}
    for pair in [p for p in comms if t in p]:
        comms.remove(pair)
        other = pair[0] + pair[1] - t
        for j in support:
            if j != other:
                comms ^= {(min(other, j), max(other, j))}
    del squares[t - 1]
    shift = lambda i: i - 1 if i > t else i
    comms = frozenset((shift(i), shift(j)) for i, j in comms)
    owner = shift(rel.owner) if rel.owner is not None else None
    return QuadraticRelator(rel.d - 1, tuple(squares), comms, owner)


def eliminate_generator(pres: Presentation, t: int | None = None) -> Presentation:
    """Remove one generator that appears in the product relation.

    t defaults to the largest index with product exponent 1.  Relator t is
    discarded; every remaining relator is rewritten by the substitution the
    product relation defines, then indices above t shift down by one.  The
    result has no product relation.
    """
    prod = pres.product_relation
    if prod is None or not any(prod):
        raise NoEliminableGeneratorError("the presentation has no nonzero product relation")
    if t is None:
        t = max(i for i, b in enumerate(prod, 1) if b)
    _check_int(t, "generator index")
    if not 1 <= t <= pres.d:
        raise ValueError(f"generator index {t} out of range 1..{pres.d}")
    if not prod[t - 1]:
        raise NoEliminableGeneratorError(f"generator x{t} does not appear in the product relation")
    support = tuple(j for j, b in enumerate(prod, 1) if b and j != t)
    relators = tuple(_eliminate_from(rel, t, support) for rel in pres.relators if rel.owner != t)
    primes = None
    note = f"eliminated x{t}"
    if pres.primes is not None:
        primes = tuple(p for k, p in enumerate(pres.primes, 1) if k != t)
        note = f"eliminated x{t} (prime {pres.primes[t - 1]})"
    return Presentation(
        pres.d - 1, relators, None, primes, pres.history + (note,)
    )


# ---------------------------------------------------------------------------
# Seed normalization, augmentation checks and the augmentation construction.


def normalize_seed(seed) -> tuple[int, ...]:
    """Order a seed set: primes = 1 (mod 4) ascending, then = 3 (mod 4) ascending.

    If either class is missing, its smallest prime is adjoined: 5 when no
    prime = 1 (mod 4) is in the seed, 3 when no prime = 3 (mod 4) is, neither
    of which can then be in it.  So the result always has both classes and
    length >= 2.
    """
    ps = sorted({check_odd_prime(p) for p in seed})  # also refuses non-integers and booleans
    if not ps:
        raise ValueError("the seed must contain at least one odd prime")
    class1 = [p for p in ps if p % 4 == 1]
    class3 = [p for p in ps if p % 4 == 3]
    if not class1:
        class1 = [5]
    if not class3:
        class3 = [3]
    return tuple(class1 + class3)


def _relator_one_vanishes(s0, q1: int) -> bool:
    """Eliminating x_last (c_j = a_j; l_(1,last) = 1 by q_last's condition and
    reciprocity) leaves relator 1 = sum_j (l_1j + a_j)[x1, xj], where (a) gives
    l_1j = a_j = 0 on the auxiliary primes: it is zero, and every completion
    inapplicable, iff q'_1 = q1 is a nonsquare mod exactly the seed primes = 3 (mod 4).
    A q1 in s0 is not a nonsquare mod itself, as with legendre's 0."""
    return all(_nonsquare(q1, p) == (p % 4 == 3) for p in s0)


class ValidationReport(_Record):
    _fields = ("ok", "violations")

    def __init__(self, ok: bool, violations: tuple[str, ...] = ()):
        self.__dict__.update(ok=ok, violations=violations)


def validate_augmentation(s0, q_aux, q_last: int) -> ValidationReport:
    """Check the augmentation conditions for a normalized seed s0 = (q_1..q_m),
    auxiliary primes q_aux = (q'_1..q'_m) and final prime q_last, reporting
    every violation:

      each q'_i = 1 (mod 4), all primes distinct from each other and s0;
      (a) legendre(q'_i, q'_j) = +1 for all i != j;
      (b) q'_1 nonsquare mod q_m; q'_i nonsquare mod q_i and mod q_{i-1}
          for i >= 2;
      q_last = 3 (mod 4), nonsquare mod q'_1, square mod q'_i for i >= 2;
      q'_1 not a nonsquare mod exactly the seed primes = 3 (mod 4) (never mild).
    """
    s0, q_aux = tuple(s0), tuple(q_aux)
    m = len(s0)
    bad: list[str] = []
    if m < 2:
        raise ValueError("the seed must be normalized (length >= 2)")
    if len(q_aux) != m:
        raise ValueError(f"expected {m} auxiliary primes, got {len(q_aux)}")
    everything = s0 + q_aux + (q_last,)
    for q in everything:
        check_odd_prime(q)  # also refuses non-integers and booleans
    if len(set(everything)) != len(everything):
        bad.append(f"primes are not pairwise distinct: {everything}")
    for i, q in enumerate(q_aux, 1):
        if q % 4 != 1:
            bad.append(f"q'_{i} = {q} is not 1 (mod 4)")
    for i, j in itertools.permutations(range(m), 2):
        if legendre(q_aux[i], q_aux[j]) != 1:
            bad.append(f"legendre({q_aux[i]}, {q_aux[j]}) != +1 (condition (a), i = {i + 1}, j = {j + 1})")
    if legendre(q_aux[0], s0[m - 1]) != -1:
        bad.append(f"q'_1 = {q_aux[0]} is a square mod q_{m} = {s0[m - 1]} (condition (b))")
    for i in range(1, m):
        if legendre(q_aux[i], s0[i]) != -1:
            bad.append(f"q'_{i + 1} = {q_aux[i]} is a square mod q_{i + 1} = {s0[i]} (condition (b))")
        if legendre(q_aux[i], s0[i - 1]) != -1:
            bad.append(f"q'_{i + 1} = {q_aux[i]} is a square mod q_{i} = {s0[i - 1]} (condition (b))")
    if q_last % 4 != 3:
        bad.append(f"q_last = {q_last} is not 3 (mod 4)")
    if legendre(q_last, q_aux[0]) != -1:
        bad.append(f"q_last = {q_last} is a square mod q'_1 = {q_aux[0]}")
    for i in range(1, m):
        if legendre(q_last, q_aux[i]) != 1:
            bad.append(f"q_last = {q_last} is a nonsquare mod q'_{i + 1} = {q_aux[i]}")
    if _relator_one_vanishes(s0, q_aux[0]):
        bad.append(f"q'_1 = {q_aux[0]} is a nonsquare mod exactly the seed primes = 3 (mod 4) (never mild)")
    return ValidationReport(not bad, tuple(bad))


def interleave(s0, q_aux, q_last: int) -> tuple[int, ...]:
    """Augmented ordered set (q'_1, q_1, q'_2, q_2, ..., q'_m, q_m, q_last)."""
    out = []
    for q_new, q_old in zip(q_aux, s0):
        out.extend((q_new, q_old))
    out.append(q_last)
    return tuple(out)


class AugmentationResult(_Record):
    _fields = ("seed", "q_aux", "q_last", "S", "attempts")

    def __init__(self, seed: tuple[int, ...], q_aux: tuple[int, ...], q_last: int, S: tuple[int, ...], attempts: int):
        self.__dict__.update(seed=seed, q_aux=q_aux, q_last=q_last, S=S, attempts=attempts)

    to_json_dict = _record_json


def _candidate_tuples(s0, bound: int):
    """(q_aux, q_last) pairs for augment, in its order, each slot filtered once.

    Each slot walks its class mod 4 and tests primality last, once its
    conditions (one pow each) have refused most candidates.  Every modulus
    there is a seed prime or a chosen q', so Euler's criterion is exact on any
    integer, and is_prime refuses a composite that passes."""

    def slots(chosen: tuple[int, ...]):
        i = len(chosen)
        avoid = set(s0) | set(chosen)
        if i == len(s0):
            for q in range(3, bound + 1, 4):
                if _nonsquare(q, chosen[0]) and not any(_nonsquare(q, qp) for qp in chosen[1:]):
                    if q not in avoid and is_prime(q):
                        yield chosen, q
            return
        for q in range(5, bound + 1, 4):
            # (b) mod s0[i - 1] (q_m when i = 0) and mod s0[i] (i >= 1); (a) needs
            # one symbol per pair, both primes being 1 (mod 4): reciprocity.
            if (
                _nonsquare(q, s0[i - 1])
                and (i == 0 or _nonsquare(q, s0[i]))
                and not any(_nonsquare(q, prev) for prev in chosen)
                and not (i == 0 and _relator_one_vanishes(s0, q))  # the prune
                and q not in avoid
                and is_prime(q)
            ):
                yield from slots(chosen + (q,))

    return slots(())


# Theorem: every tuple _candidate_tuples yields is mild; the parity split
# passes the rank criterion (Labute, Crelle 596, 2006).
#
# Setup.  s0 = (q_1..q_m) with m >= 2 and q_m = 3 (mod 4), so a_m = 1, and
# S = (q'_1, q_1, ..., q'_m, q_m, q_last).  check_mild eliminates x_last with
# c_j = a_j, so l'_ij = l_ij + l_(i,last) a_j.  Write L_kl = l(q'_k, q_l),
# which equals l(q_l, q'_k) by reciprocity, since q'_k = 1 (mod 4).  The
# partition is S = {q'_k} (odd positions) and Sp = {q_l} (even positions).
#
# Valid.  No q'_k has a square, since each is 1 (mod 4).  l'(q'_k, q'_l) =
# l(q'_k, q'_l) = 0 by (a), since a vanishes on the q'.  Every pair in a
# q_l-relator contains q_l, in Sp.
#
# Rows.  Lay the crossing columns {q'_k, q_l} out as an m x m grid.  The
# q'_k-relator is row k, with entries L_kl + [k = 1] a_l: l(q'_k, q_last) = 1
# iff k = 1, by q_last's conditions and reciprocity.  The q_l-relator is
# column l, with entries L_kl.
#
# Independence.  Suppose sum alpha_k row_k + sum beta_l col_l = 0.  At (k, l)
# with k >= 2 this reads (alpha_k + beta_l) L_kl = 0.  (b) gives
# L_kk = L_(k,k-1) = 1 for k >= 2, so every beta_l equals one beta, and
# alpha_k = beta for k >= 2.  Row 1 then reads alpha_1 (L_1l + a_l) = beta L_1l
# for every l.
#   (alpha_1, beta) = (0, 1) contradicts L_1m = 1, which is (b).
#   (1, 0) means L_1l = a_l for all l: the q'_1 that _relator_one_vanishes prunes.
#   (1, 1) means a = 0, which contradicts a_m = 1.
# So the 2m rows are independent, the rank criterion holds on the parity
# split, and S is mild.


def augment(seed, bound: int = DEFAULT_PRIME_BOUND) -> AugmentationResult:
    """Deterministic mild augmentation of a seed set: the first candidate tuple.

    Tuples (q'_1..q'_m, q_last) for the normalized seed (q_1..q_m) are
    scanned lexicographically, last slot fastest, over primes up to bound:
    q'_i = 1 (mod 4), new, a nonsquare mod q_{i-1} and q_i (q'_1: mod q_m
    only) and a square mod each earlier q'_j; q_last = 3 (mod 4), a nonsquare
    mod q'_1 and a square mod q'_2..q'_m.  A q'_1 that is a nonsquare mod
    exactly the seed primes = 3 (mod 4) is skipped: relator 1 then vanishes
    after elimination, so all its tuples are inapplicable.  Every other tuple
    is mild by the theorem above, so the first one is returned (attempts = 1)
    once validate_augmentation and check_mild confirm it; AssertionError if
    they do not.  Raises BoundExceededError when no tuple exists up to the
    bound, and ValueError when the bound is not an int in [3, 2^64 - 1].
    """
    from .mildness import check_mild  # runtime import: mildness depends on this module

    s0 = normalize_seed(seed)
    _check_range(bound, "bound")  # ahead of bound < 3 and the scan's range(): TypeError on "5" or 1e6
    if bound < 3:
        raise ValueError(f"auxiliary primes are odd, so the bound must be >= 3, got {bound}")
    first = next(_candidate_tuples(s0, bound), None)
    if first is None:
        raise BoundExceededError(f"no mild augmentation of seed {s0} with auxiliary primes <= {bound}")
    q_aux, q_last = first
    s = interleave(s0, q_aux, q_last)
    report = validate_augmentation(s0, q_aux, q_last)
    if not report.ok:
        raise AssertionError(f"internal error: candidate {s} violates {report.violations}")
    if check_mild(koch_presentation(s)).verdict != "mild":
        raise AssertionError(f"internal error: candidate {s} is not certified mild")
    return AugmentationResult(s0, q_aux, q_last, s, 1)
