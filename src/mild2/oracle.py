"""Brute-force graded dimensions of relator-ideal quotients.

For relators rho_1..rho_m in the truncated free algebra on d letters of
weight 1, the degree-n slice of the two-sided ideal they generate is spanned
by the products u * rho * v with monomial words u, v.  Each product becomes
one GF(2) row over the d^n words of degree n, streamed into the rank one row
at a time; the quotient dimension is the ambient count minus the rank.  This
is the independent check the certificate criteria are compared against: a
strongly free relator sequence must reproduce

    1 / (1 - sum t^{e_i} + sum t^{h_j})        over F2
    the same divided by (1 - t)                over F2[pi]

degree by degree, and any mismatch degree is reported.

A word is indexed by its base-d numeral, letter i being digit i - 1, so the
column order is the lexicographic order of the words.  The product u * w * v
with |w| = h and |v| = b sits at column u * d^(h+b) + w * d^b + v, so rows
are built by arithmetic and no word list is ever materialised.

Only pi-free relators are accepted, so over F2[pi] the quotient is
F2[pi] (x) Q with Q the F2 quotient: its degree-n slice is the sum of
pi^(n-j) Q_j over j <= n.  The F2[pi] profile is therefore the running sum
of the F2 one, and no F2[pi] matrix is ever built.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import accumulate

from . import gf2
from .quadlie import F2, F2PI, relator_to_poly, unit_alphabet
from .series import DimensionSequence, WeightSignature, gamma_series, strongly_free_series


DEFAULT_MEMORY_CAP_MIB = 1024


class MemoryGuardError(MemoryError):
    """The estimated pivot table for a degree exceeds the configured cap."""


@dataclass(frozen=True)
class DegreeRank:
    degree: int
    ambient: int
    rank: int
    quotient: int


@dataclass(frozen=True)
class RankProfile:
    ring: str
    per_degree: tuple[DegreeRank, ...]

    def dims(self) -> DimensionSequence:
        return DimensionSequence(
            "quotient_dims", 0, tuple(row.quotient for row in self.per_degree)
        )

    def to_json_dict(self) -> dict:
        return {
            "ring": self.ring,
            "per_degree": [
                {
                    "degree": row.degree,
                    "ambient": row.ambient,
                    "rank": row.rank,
                    "quotient": row.quotient,
                }
                for row in self.per_degree
            ],
        }

    def table(self) -> str:
        lines = ["degree  ambient  rank  quotient"]
        for row in self.per_degree:
            lines.append(f"{row.degree:>6}  {row.ambient:>7}  {row.rank:>4}  {row.quotient:>8}")
        return "\n".join(lines)


def _check_relators(alphabet, relators, ring) -> list[int]:
    degrees = []
    for k, rel in enumerate(relators, 1):
        if rel.alphabet != alphabet or rel.ring != ring:
            raise ValueError(f"relator {k} lives in a different algebra")
        if rel.is_zero:
            raise ValueError(f"relator {k} is zero")
        if any(pi_exp for pi_exp, _ in rel.terms):
            raise ValueError(f"relator {k} carries pi; the oracle takes pi-free relators only")
        deg = rel.degree()  # raises on inhomogeneous input
        if deg < 2:
            raise ValueError(f"relator {k} has degree {deg}; relators must have degree >= 2")
        degrees.append(deg)
    return degrees


def _pivot_table_bytes(n_cols: int) -> int:
    """Upper bound on gf2.rank's pivot table: at most one pivot per column, the
    one with top bit t holding t + 1 bits, and per pivot an int header, an int
    key and a dict slot (at most 60 bytes at CPython's worst load factor)."""
    info = sys.int_info
    digits = n_cols * (n_cols + 1) // 2 * info.sizeof_digit // info.bits_per_digit
    return digits + n_cols * (2 * sys.getsizeof(1) + 64)


def _numeral(word: tuple[int, ...], d: int) -> int:
    col = 0
    for letter in word:
        col = col * d + letter - 1
    return col


def _ideal_rows(d: int, relators, degrees, n: int):
    """Column lists of u * rho * v in degree n: relator, then |u| ascending,
    then u and v in lexicographic order."""
    for rel, h in zip(relators, degrees):
        cols = [_numeral(word, d) for _, word in rel.terms]
        for a in range(n - h + 1):
            v_count = d ** (n - h - a)
            mids = [c * v_count for c in cols]
            for u in range(0, d**n, d ** (n - a)):
                for v in range(v_count):
                    yield [u + m + v for m in mids]


def quotient_dims(
    d: int,
    relators,
    n_max: int,
    ring: str = F2,
    *,
    memory_cap_mib: int = DEFAULT_MEMORY_CAP_MIB,
) -> RankProfile:
    """Graded dimensions of the quotient of the free algebra on d letters of
    weight 1 by the two-sided ideal (rho_1..rho_m), for degrees 0..n_max,
    with the rank bookkeeping per degree.

    Relators must be nonzero, pi-free, homogeneous of degree >= 2, and all in
    that algebra.  Rows are built over the d^n words of each degree, indexed
    by their base-d numerals; over F2[pi] every column of the profile is the
    running sum of the F2 one.  Rows are streamed, so only the pivot table of
    each degree is held; its size is bounded before any row is built, and
    crossing memory_cap_mib raises MemoryGuardError.
    """
    relators = tuple(relators)
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    degrees = _check_relators(unit_alphabet(d), relators, ring)
    counts = [d**n for n in range(n_max + 1)]
    for n, count in enumerate(counts):
        estimate = _pivot_table_bytes(count)
        if estimate > memory_cap_mib * 2**20:
            raise MemoryGuardError(
                f"degree {n} needs about {-(-estimate // 2**20)} MiB of rows,"
                f" above the {memory_cap_mib} MiB cap"
            )
    ranks = [
        gf2.rank_of_rows(_ideal_rows(d, relators, degrees, n), counts[n]) for n in range(n_max + 1)
    ]
    if ring == F2PI:
        counts, ranks = list(accumulate(counts)), list(accumulate(ranks))
    return RankProfile(
        ring,
        tuple(DegreeRank(n, counts[n], ranks[n], counts[n] - ranks[n]) for n in range(n_max + 1)),
    )


def independent_in_degree(polys) -> int:
    """GF(2) rank of equally graded polynomials on their degree's monomial basis.

    Zero polynomials contribute zero rows; any two nonzero inputs must agree
    in degree (and algebra), otherwise a degree mismatch is raised.
    """
    polys = tuple(polys)
    nonzero = [p for p in polys if not p.is_zero]
    if not nonzero:
        return 0
    first = nonzero[0]
    degs = set()
    for p in nonzero:
        if p.alphabet != first.alphabet or p.ring != first.ring:
            raise ValueError("polynomials live in different algebras")
        if not p.is_homogeneous:
            raise ValueError("independence check needs homogeneous polynomials")
        degs.add(p.degree())
    if len(degs) != 1:
        raise ValueError(f"degree mismatch: {sorted(degs)}")
    support = sorted(
        set().union(*(p.terms for p in nonzero)), key=lambda mono: (mono[0], mono[1])
    )
    index = {mono: col for col, mono in enumerate(support)}
    rows = [[index[mono] for mono in p.terms] for p in polys]
    return gf2.rank_of_rows(rows, len(support))


@dataclass(frozen=True)
class OracleComparison:
    ring: str
    n_max: int
    oracle_dims: tuple[int, ...]
    expected_dims: tuple[int, ...]
    match: bool
    mismatch_degree: int | None
    profile: RankProfile

    def to_json_dict(self) -> dict:
        return {
            "ring": self.ring,
            "n_max": self.n_max,
            "oracle_dims": list(self.oracle_dims),
            "expected_dims": list(self.expected_dims),
            "match": self.match,
            "mismatch_degree": self.mismatch_degree,
            "profile": self.profile.to_json_dict(),
        }


def strongly_free_oracle(
    relators,
    n_max: int,
    ring: str = F2,
    *,
    d: int | None = None,
    memory_cap_mib: int = DEFAULT_MEMORY_CAP_MIB,
) -> OracleComparison:
    """Compare brute-force quotient dimensions of quadratic relators against
    the strongly free prediction (gamma variant over F2[pi]).

    Relators are degree-2 objects with .d/.squares/.comms; each must have a
    nonzero quadratic part.  Pass d explicitly for an empty relator list.
    """
    relators = tuple(relators)
    if n_max < 2:
        raise ValueError("the oracle needs n_max >= 2")
    if relators:
        inferred = {rel.d for rel in relators}
        if len(inferred) != 1:
            raise ValueError(f"relators disagree on the generator count: {sorted(inferred)}")
        if d is not None and d != inferred.pop():
            raise ValueError("explicit d contradicts the relators")
        d = relators[0].d
    elif d is None:
        raise ValueError("an empty relator list needs an explicit d")
    polys = []
    for k, rel in enumerate(relators, 1):
        poly = relator_to_poly(rel, ring, n_max)
        if poly.is_zero:
            raise ValueError(f"relator {k} has zero quadratic part; the oracle needs degree-2 forms")
        polys.append(poly)
    profile = quotient_dims(d, polys, n_max, ring, memory_cap_mib=memory_cap_mib)
    sig = WeightSignature((1,) * d, (2,) * len(relators))
    series = strongly_free_series(sig, n_max) if ring == F2 else gamma_series(sig, n_max)
    oracle = profile.dims().values
    expected = series.coeffs
    mismatch = next((n for n in range(n_max + 1) if oracle[n] != expected[n]), None)
    return OracleComparison(ring, n_max, oracle, expected, mismatch is None, mismatch, profile)
