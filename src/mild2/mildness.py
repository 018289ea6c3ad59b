"""Mildness certificates for quadratic relator systems.

Two sufficient criteria are implemented.  The rank criterion takes a
partition {1..d} = S u Sp: every relator must avoid xi^2 for i in S and
[xi, xj] for i, j both in S, and the m rows, one per relator holding its
crossing commutators [xi, xj] with i in S and j in Sp, must have rank m over
GF(2).  The circuit criterion is a closed-form special case for d even >= 4,
m = d and relators in Koch shape:

  (a) a_i = 0 for odd i,
  (b) l_ij = 0 for i, j both odd,
  (c) l_12 = l_23 = ... = l_{d-1,d} = l_{d1} = 1,
  (d) l_{1d} * l_{d,d-1} * ... * l_{32} * l_{21} = 0,

in which case the parity partition (S odd, Sp even) witnesses the rank
criterion.  check_mild chains elimination, the criteria and an optional
quotient-dimension oracle into one report.

A set of letters is one int, letter i at bit i (bit 0 unused).  The rank
criterion reads a relator tuple through a summary kept for the last tuple
ranked: d; the OR of the square bits; one code per letter i, its bit below
the bits of its neighbours (the letters sharing a commutator with i), so
that one OR over S shows a square or a commutator inside S; and per relator,
per commutator [xi, xj], i < j, its pair bits i and j and its column bit
1 << (i - 1) * d + j - 1 in a GF(2) int row of d * d columns.  For an S that
passes, each nonzero pair & S adds a crossing commutator's column to the row.
"""

from __future__ import annotations

import itertools

from . import gf2
from .arith import DEFAULT_MEMORY_CAP_MIB, F2, BoundExceededError, _check_int, _check_memory_cap, _check_ring
from .arith import _Record, _record_json
from .linking import Presentation, eliminate_generator

MAX_ENUMERATION_D = 20


class Partition(_Record):
    """Two blocks of the generators 1..d, each in any order, stored as given; rank_criterion checks them."""

    _fields = ("S", "Sp")

    def __init__(self, S: tuple[int, ...], Sp: tuple[int, ...]):
        self.__dict__.update(S=S, Sp=Sp)

    to_json_dict = _record_json


def parity_partition(d: int) -> Partition:
    return Partition(tuple(range(1, d + 1, 2)), tuple(range(2, d + 1, 2)))


def _check_same_d(relators) -> int:
    d = relators[0].d
    for rel in relators:
        if rel.d != d:
            ds = sorted({rel.d for rel in relators})
            raise ValueError(f"relators disagree on the generator count: {ds}")
    return d


# the last relator tuple ranked and its summary, read and replaced as one
# tuple; holding the tuple keeps its identity from passing to another set
_memo: tuple = ((), None)


def rank_criterion(relators, part: Partition) -> bool:
    """Rank test for one partition; True certifies strong freeness (mildness).
    This is the partition's validity check: ValueError unless its blocks hold
    each of 1..d exactly once.  With no relators there is no d: True.

    S is ORed from the letter codes of the summary (module docstring); only a
    partition with no square and no neighbour in S builds its rows from the
    column bits of its crossing commutators and ranks them."""
    global _memo
    relators = tuple(relators)
    if not relators:
        return True
    memo = _memo
    if memo[0] is not relators:
        d = _check_same_d(relators)
        squares, near, entries = 0, [0] * (d + 1), []
        for rel in relators:
            squares |= sum(b << i for i, b in enumerate(rel.squares, 1))
            for i, j in rel.comms:
                near[i] |= 1 << j
                near[j] |= 1 << i
            entries.append([(1 << i | 1 << j, 1 << (i - 1) * d + j - 1) for i, j in rel.comms])
        memo = _memo = (relators, (d, squares, {i: 1 << i | near[i] << d + 1 for i in range(1, d + 1)}, entries))
    d, squares, code, entries = memo[1]
    s = sp = 0
    try:
        for i in part.S:
            s |= code[i]
        for i in part.Sp:
            sp |= code[i]
        size = len(part.S) + len(part.Sp)
    except (KeyError, TypeError):  # a letter outside 1..d, or a block that is no sized sequence of letters
        size = -1
    # d letters whose bits fill bits 1..d are d distinct letters
    if size != d or (s | sp) & ((2 << d) - 1) != (2 << d) - 2:
        raise ValueError(f"partition {part} is not a partition of 1..{d}")
    if squares & s or s >> d + 1 & s:
        return False
    rows = []
    for pairs in entries:
        row = 0
        for pair, col in pairs:
            if pair & s:
                row |= col
        rows.append(row)
    return len(gf2.echelon(rows)) == len(relators)


def circuit_criterion(relators) -> bool | None:
    """Closed-form circuit test; None when the shape preconditions fail
    (d odd or < 4, m != d, or some relator not in Koch shape)."""
    relators = tuple(relators)
    if not relators:
        return None
    d = _check_same_d(relators)
    m = len(relators)
    if d < 4 or d % 2 or m != d:
        return None
    if any(not rel.has_koch_shape(i) for i, rel in enumerate(relators, 1)):
        return None

    def ell(i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in relators[i - 1].comms

    odd = range(1, d + 1, 2)
    if any(relators[i - 1].squares[i - 1] for i in odd):  # (a)
        return False
    if any(ell(i, j) for i in odd for j in odd if i != j):  # (b)
        return False
    if not all(ell(i, i % d + 1) for i in range(1, d + 1)):  # (c)
        return False
    return not all(ell(i, (i - 2) % d + 1) for i in range(1, d + 1))  # (d)


def find_mild_partition(relators) -> Partition | None:
    """First partition satisfying the rank criterion, or None.

    Order: the parity split (S odd, Sp even) first, then every subset Sp by
    ascending size and lexicographically within one size.  Only that
    enumeration is limited to d <= MAX_ENUMERATION_D; the parity split is
    ranked at any d.
    """
    relators = tuple(relators)
    if not relators:
        return Partition((), ())
    d = _check_same_d(relators)
    first = parity_partition(d)
    if rank_criterion(relators, first):
        return first
    if d > MAX_ENUMERATION_D:
        raise BoundExceededError(f"exhaustive partition search is limited to d <= {MAX_ENUMERATION_D}")
    everything = range(1, d + 1)
    for size in range(d + 1):
        # the complements of the size-subsets in lexicographic order are the
        # (d - size)-subsets in reverse lexicographic order
        blocks = list(itertools.combinations(everything, d - size))
        for sp, s in zip(itertools.combinations(everything, size), reversed(blocks)):
            part = Partition(s, sp)
            if rank_criterion(relators, part):
                return part
    return None


class MildnessReport(_Record):
    """Outcome of the mildness pipeline.

    verdict: 'mild', 'not_shown' or 'inapplicable'; criterion: 'circuit',
    'rank' or 'none'; witness: the certifying partition when there is one.
    """

    _fields = ("verdict", "criterion", "witness", "oracle_depth", "notes")

    def __init__(
        self, verdict: str, criterion: str, witness: Partition | None, oracle_depth: int | None, notes: tuple[str, ...]
    ):
        self.__dict__.update(
            verdict=verdict, criterion=criterion, witness=witness, oracle_depth=oracle_depth, notes=notes
        )

    to_json_dict = _record_json

    def text(self) -> str:
        lines = [f"verdict = {self.verdict}", f"criterion = {self.criterion}"]
        if self.witness is not None:
            lines.append(
                f"witness: S = {{{', '.join(map(str, self.witness.S))}}},"
                f" Sp = {{{', '.join(map(str, self.witness.Sp))}}}"
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def check_mild(
    presentation: Presentation,
    *,
    oracle_depth: int | None = None,
    oracle_ring: str = F2,
    memory_cap_mib: int = DEFAULT_MEMORY_CAP_MIB,
) -> MildnessReport:
    """Full pipeline: eliminate through the product relation when one is
    present and nonzero, reject zero relators as inapplicable, then try the
    circuit criterion and the partition search.  With oracle_depth set, the
    quotient-dimension oracle runs on the final relators and its agreement
    is recorded in the notes.
    """
    if oracle_depth is not None:
        # the oracle's arguments are refused before the partition search, which
        # can take seconds, and also where the oracle is then skipped
        _check_int(oracle_depth, "oracle_depth")
        if oracle_depth < 2:
            raise ValueError(f"oracle_depth must be >= 2, got {oracle_depth}")
        _check_ring(oracle_ring)
        _check_memory_cap(memory_cap_mib)
    notes: list[str] = []
    pres = presentation
    if pres.product_relation is not None and any(pres.product_relation):
        before = pres.d
        pres = eliminate_generator(pres)
        notes.append(f"{pres.history[-1]}; d: {before} -> {pres.d}")
    relators = pres.relators
    zero_at = [i for i, rel in enumerate(relators, 1) if rel.is_zero]
    witness: Partition | None = None
    if zero_at:
        verdict, criterion = "inapplicable", "none"
        notes.append(
            "relator(s) %s have zero quadratic part (initial form of higher degree);"
            " the degree-2 criteria do not apply" % ", ".join(str(i) for i in zero_at)
        )
    else:
        circuit = circuit_criterion(relators)
        if circuit is True:
            verdict, criterion = "mild", "circuit"
            witness = parity_partition(pres.d)
        else:
            # an empty relator set passes the rank criterion on every
            # partition, so the first in the search order, the parity split,
            # is the witness
            witness = find_mild_partition(relators) if relators else parity_partition(pres.d)
            if witness is not None:
                verdict, criterion = "mild", "rank"
            else:
                verdict, criterion = "not_shown", "none"
                notes.append("no partition satisfies the rank criterion; mildness undecided")
    if oracle_depth is not None:
        if verdict == "inapplicable" or not relators:
            notes.append("oracle skipped: no usable quadratic relators")
            oracle_depth = None
        else:
            from .oracle import strongly_free_oracle  # loaded only when the oracle runs

            cmp = strongly_free_oracle(
                relators, oracle_depth, ring=oracle_ring, memory_cap_mib=memory_cap_mib
            )
            if cmp.match:
                notes.append(f"oracle({oracle_ring}): dimensions match through degree {oracle_depth}")
            else:
                notes.append(
                    f"oracle({oracle_ring}): dimension mismatch at degree {cmp.mismatch_degree}"
                )
    return MildnessReport(verdict, criterion, witness, oracle_depth, tuple(notes))
