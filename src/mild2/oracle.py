"""Graded dimensions of quadratic relator-ideal quotients, degree by degree on normal words.

For quadratic relators rho_1..rho_m in the free algebra A on d letters of
weight 1, the quotient Q = A / I by the two-sided ideal they generate is the
independent check the certificate criteria are compared against: a strongly
free relator sequence must reproduce

    1 / (1 - d*t + m*t^2)        over F2
    the same divided by (1 - t)  over F2[pi]

degree by degree, and any mismatch degree is reported.

The dimensions come from the normal-word recursion.  Every product u * rho * v
with v nonempty lies in I_{n-1} * A_1, so I_n = I_{n-1} * A_1 + A_{n-2} * rho,
and I_{n-2} * rho already lies in I_{n-1} * A_1.  Hence Q_n is the span of the
columns (a, q), a letter a after a normal word q of degree n - 1, modulo the
rows q' * rho for every relator and every normal word q' of degree n - 2:
m * dim Q_{n-2} rows over d * dim Q_{n-1} columns, where the ideal slice
itself has about m * n * d^(n-2) rows over d^n.  Column (a, q) sits at
(a - 1) * dim Q_{n-1} + index(q), so appending a letter to a vector over
Q_{n-1} is one shift.  Each degree's echelon form gives a table holding the
normal form of every column, read off in one ascending pass
(gf2.quotient_map); the non-pivot columns are the normal words of Q_n.  A
relator term x_a * x_b then costs one lookup in the table of degree n - 1 and
one shift, so only that one table is held.  No degree reads the table of the
last one, so the last degree is ranked, not mapped: forward elimination alone
gives its dimension.

Before the first degree is reduced the letters are relabeled.  A permutation
of the letters is an automorphism of the free algebra; it maps the ideal of
the relators onto the ideal of the relabeled ones, so no dim Q_n changes.
It does permute the columns, and the column order decides which bit of a row
is its pivot, so it decides how much fill-in elimination makes.  The
leading words of the relators (the pivot columns of their degree-2 span)
interact in degree 3 wherever one ends in the letter another starts with,
and each such overlap forces reductions in every degree above; with none,
the echelon form of the degree-2 span is already a Groebner basis of the
ideal, as no ambiguity is left to resolve (Bergman's diamond lemma).  So
_letter_order picks the relabeling whose degree-2 leading words overlap
least, trying all d! orders up to d = 4 and keeping the identity above.  It
is a cheap heuristic, not a bound: through degree 7 it cuts the XORs of
elimination from 5883 to 642 on the first worked example and from 9101 to 0
on the second, but on 2 of 30 random Koch sets with d = 3 or 4 it cost more
than the identity, at worst 732 XORs against 683.

The recursion also bounds each dimension from below: the rows of degree n
are m * dim Q_{n-2}, so dim Q_n >= d * dim Q_{n-1} - m * dim Q_{n-2}, and
therefore (Anick, J. Algebra 78, 1982) dim Q_n is at least the coefficient
of t^n in 1 / (1 - d*t + m*t^2) up to the first nonpositive one.  A
dimension below that bound is a fault of the oracle and raises RuntimeError.
The same bound sizes every degree before the first is reduced: the memory a
degree holds grows with the dimensions, so a degree whose estimate on the
bound already passes the memory cap is refused up front.

Only pi-free relators are accepted, so over F2[pi] the quotient is
F2[pi] (x) Q with Q the F2 quotient: its degree-n slice is the sum of
pi^(n-j) Q_j over j <= n.  The F2[pi] profile is therefore the running sum
of the F2 one, and no F2[pi] matrix is ever built.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import accumulate, permutations

from . import gf2
from .arith import DEFAULT_MEMORY_CAP_MIB, F2, F2PI, MemoryGuardError, _check_int, _record_json
from .quadlie import relator_to_poly, unit_alphabet
from .series import DimensionSequence, WeightSignature, check_series_size, gamma_series, strongly_free_series


@dataclass(frozen=True)
class DegreeRank:
    degree: int
    ambient: int
    rank: int
    quotient: int

    to_json_dict = _record_json


@dataclass(frozen=True)
class RankProfile:
    ring: str
    per_degree: tuple[DegreeRank, ...]

    def dims(self) -> DimensionSequence:
        return DimensionSequence(
            "quotient_dims", 0, tuple(row.quotient for row in self.per_degree)
        )

    to_json_dict = _record_json

    def table(self) -> str:
        lines = ["degree  ambient  rank  quotient"]
        for row in self.per_degree:
            lines.append(f"{row.degree:>6}  {row.ambient:>7}  {row.rank:>4}  {row.quotient:>8}")
        return "\n".join(lines)


def _check_relators(alphabet, relators, ring) -> None:
    for k, rel in enumerate(relators, 1):
        if rel.alphabet != alphabet or rel.ring != ring:
            raise ValueError(f"relator {k} lives in a different algebra")
        if rel.is_zero:
            raise ValueError(f"relator {k} is zero")
        if any(pi_exp for pi_exp, _ in rel.terms):
            raise ValueError(f"relator {k} carries pi; the oracle takes pi-free relators only")
        deg = rel.degree()  # raises on inhomogeneous input
        if deg != 2:
            raise ValueError(f"relator {k} has degree {deg}; the oracle takes quadratic relators only")


def _degree_bytes(n_cols: int, prev_cols: int, last: bool) -> int:
    """Upper bound on what a degree holds while it is reduced: the echelon
    form over its n_cols columns and the table of the previous degree (over
    prev_cols columns), plus the normal-form table being built unless the
    degree is the last, which is only ranked.

    Row t of the echelon form and entry t of a table hold at most t + 1 bits.
    Each echelon row also costs an int header, an int key and a dict slot (at
    most 60 bytes at CPython's worst load factor); each table entry an int
    header and a list slot.
    """
    info = sys.int_info

    def triangle(cols: int, per_entry: int) -> int:
        digits = cols * (cols + 1) // 2 * info.sizeof_digit // info.bits_per_digit
        return digits + cols * (sys.getsizeof(1) + per_entry)

    echelon = triangle(n_cols, sys.getsizeof(1) + 64)
    return echelon + triangle(prev_cols, 8) + (0 if last else triangle(n_cols, 8))


def _guard(n: int, estimate: int, memory_cap_mib: int) -> None:
    if estimate > memory_cap_mib * 2**20:
        raise MemoryGuardError(
            f"degree {n} needs about {-(-estimate // 2**20)} MiB of rows,"
            f" above the {memory_cap_mib} MiB cap"
        )


def _anick_floor(d: int, m: int, n_max: int):
    """Anick's lower bound on dim Q_0..dim Q_n_max, one degree at a time (not
    series.expand_rational, which is eager and bounded): the coefficients c_n
    of 1 / (1 - d*t + m*t^2) up to the first nonpositive one, 0 from there on.
    Once they stop rising they never rise again: with real roots r1 >= r2 >= 0,
    c_(n+1) = r1 * c_n + r2^(n+1) rises unless d = 1 (then r1 = 1, r2 = 0);
    with complex roots c_(n+1) / c_n falls until a coefficient is nonpositive."""
    before, floor = 0, 1
    for _ in range(n_max + 1):
        yield floor
        before, floor = floor, max(d * floor - m * before, 0)


def _relator_rows(words, table, dims, n: int):
    """q' * rho in degree n for every relator rho and every normal word q' of
    degree n - 2, as a row over the columns (a, q); table is degree n - 1's."""
    if n == 1:
        return  # no relator fits in degree 1
    below, width = dims[n - 2], dims[n - 1]
    for terms in words:
        # term x_a * x_b reads entry (a - 1) * below + i and shifts it to letter b
        shifts = [((a - 1) * below, (b - 1) * width) for a, b in terms]
        for i in range(below):
            row = 0
            for at, shift in shifts:
                row ^= table[at + i] << shift
            yield row


def _letter_order(d: int, words) -> tuple[int, ...]:
    """The relabeling of letters 1..d (letter a becomes order[a - 1]) under
    which the leading words of the degree-2 relator span overlap least.

    Each candidate order relabels the relator words and reduces their
    degree-2 rows, word x_a * x_b at column (b - 1) * d + (a - 1); each pivot's
    top bit is a leading word (a, b).  An ordered pair (u, v) of leading
    words, u = v included, whose letters meet (u ends in the letter v starts
    with) is an overlap of degree 3, which forces reductions in every degree
    above.  All d! orders are tried for d <= 4, in permutations() order from
    the identity, and the first with the fewest overlaps wins; 0 stops the
    search.  From d = 5 on the identity is kept.
    """
    identity = tuple(range(1, d + 1))
    if d > 4:
        return identity
    best, fewest = identity, None
    for order in permutations(identity):
        pivots = gf2.echelon(
            sum(1 << (order[b - 1] - 1) * d + order[a - 1] - 1 for a, b in terms) for terms in words
        )
        first, last = [0] * d, [0] * d
        for top in pivots:
            first[top % d] += 1
            last[top // d] += 1
        overlaps = sum(f * g for f, g in zip(first, last))
        if fewest is None or overlaps < fewest:
            best, fewest = order, overlaps
            if not overlaps:
                break
    return best


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

    Relators must be nonzero, pi-free, homogeneous of degree 2, and all in
    that algebra; a strongly free sequence of them gives the series
    1 / (1 - d*t + m*t^2).  Degree n is reduced over the d * dim Q_{n-1}
    columns (a, q) modulo q' * rho for the normal words q' of degree n - 2,
    since I_n = I_{n-1} * A_1 + A_{n-2} * rho; only degree n - 1's
    normal-form table is held, and degree n_max is ranked, not mapped.  The
    rank reported is d^n - dim Q_n.  Over F2[pi] every column of the profile
    is the running sum of the F2 one.  What a degree holds is bounded before
    its rows are built, and crossing memory_cap_mib raises MemoryGuardError;
    the bound is first taken on Anick's floor for every degree, so a request
    it already refuses builds nothing, and so does an n_max whose profile
    fails series.check_series_size (BoundExceededError).  Only then are the
    letters relabeled by _letter_order, which changes the work, not the
    dimensions.  An F2 dimension below Anick's lower bound for d letters and
    m relators is an oracle fault and raises RuntimeError.
    """
    relators = tuple(relators)
    _check_int(n_max, "n_max")
    _check_int(memory_cap_mib, "memory_cap_mib")
    if memory_cap_mib < 1:
        raise ValueError(f"memory_cap_mib must be >= 1, got {memory_cap_mib}")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    _check_relators(unit_alphabet(d), relators, ring)
    words = [[word for _, word in rel.terms] for rel in relators]
    m = len(relators)
    # The estimates grow with the dimensions, and no dimension is below the
    # floor: a degree refused on the floor is refused before any row is built.
    # Degree n reads the floor at n - 1 and n - 2; once it has not risen from
    # n - 3 to n - 2 it never rises again, so no later degree is estimated
    # above degree n - 1, and the floor is read no further.
    floors = _anick_floor(d, m, n_max)
    floor = [next(floors)]
    for n, bound in enumerate(floors, 1):
        if n > 2 and floor[n - 2] <= floor[n - 3]:
            break
        prev_cols = d * floor[n - 2] if n > 1 else 0
        _guard(n, _degree_bytes(d * floor[n - 1], prev_cols, n == n_max), memory_cap_mib)
        floor.append(bound)
    # a floor that reaches 0 refuses no degree; this bounds n_max all the same
    check_series_size(d + m, 2, n_max)
    # a relabeling leaves every dimension as it is and sets the column order
    order = _letter_order(d, words)
    words = [[(order[a - 1], order[b - 1]) for a, b in terms] for terms in words]
    floor = list(_anick_floor(d, m, n_max))
    dims = [1]
    table: list[int] = []
    for n in range(1, n_max + 1):
        n_cols, last = d * dims[n - 1], n == n_max
        _guard(n, _degree_bytes(n_cols, len(table), last), memory_cap_mib)
        rows = _relator_rows(words, table, dims, n)
        if last:
            dim = n_cols - len(gf2.echelon(rows))
        else:
            table, dim = gf2.quotient_map(rows, n_cols)
        if dim < floor[n]:
            raise RuntimeError(
                f"oracle fault: degree {n} has dimension {dim}, below {floor[n]},"
                f" Anick's lower bound for {d} letters and {m} quadratic relators"
            )
        dims.append(dim)
    counts = [d**n for n in range(n_max + 1)]
    ranks = [count - dim for count, dim in zip(counts, dims)]
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
    nonzero = [p for p in polys if not p.is_zero]
    degs = set()
    for p in nonzero:
        if p.alphabet != nonzero[0].alphabet or p.ring != nonzero[0].ring:
            raise ValueError("polynomials live in different algebras")
        if not p.is_homogeneous:
            raise ValueError("independence check needs homogeneous polynomials")
        degs.add(p.degree())
    if len(degs) > 1:
        raise ValueError(f"degree mismatch: {sorted(degs)}")
    # one column bit per monomial; the rank does not depend on their order
    bit = {mono: 1 << col for col, mono in enumerate(set().union(*(p.terms for p in nonzero)))}
    return gf2.rank(sum(bit[mono] for mono in p.terms) for p in nonzero)


@dataclass(frozen=True)
class OracleComparison:
    ring: str
    n_max: int
    oracle_dims: tuple[int, ...]
    expected_dims: tuple[int, ...]
    match: bool
    mismatch_degree: int | None
    profile: RankProfile

    to_json_dict = _record_json


def strongly_free_oracle(
    relators,
    n_max: int,
    ring: str = F2,
    *,
    memory_cap_mib: int = DEFAULT_MEMORY_CAP_MIB,
) -> OracleComparison:
    """Compare the quotient dimensions of quadratic relators against the
    strongly free prediction (gamma variant over F2[pi]).

    Relators are degree-2 objects with .d/.squares/.comms, at least one,
    all on the same d generators and each nonzero.
    """
    relators = tuple(relators)
    _check_int(n_max, "n_max")
    if n_max < 2:
        raise ValueError("the oracle needs n_max >= 2")
    if not relators:
        raise ValueError("the oracle needs at least one relator")
    d = relators[0].d
    polys = [relator_to_poly(rel, ring) for rel in relators]
    profile = quotient_dims(d, polys, n_max, ring, memory_cap_mib=memory_cap_mib)
    sig = WeightSignature((1,) * d, (2,) * len(relators))
    series = strongly_free_series(sig, n_max) if ring == F2 else gamma_series(sig, n_max)
    oracle = profile.dims().values
    expected = series.coeffs
    mismatch = next((n for n in range(n_max + 1) if oracle[n] != expected[n]), None)
    return OracleComparison(ring, n_max, oracle, expected, mismatch is None, mismatch, profile)
