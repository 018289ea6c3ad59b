"""Partition search times of mild2, in process: the median microseconds per
partition of ``find_mild_partition``.

    python tools/search_times.py --d 12 --d 13 --d 14
    python tools/search_times.py --d 16 --d 20 --koch 0 --src old/src

Two cases.  The worst-case family is three copies of {[x1,x2],[x3,x4]} on d
letters: no partition passes, so all 2^d + 1 are ranked.  The Koch sample is
``--koch`` Koch presentations of random prime sets below 2000 (seed 1), d = 4..12
in turn, each eliminated through its product relation when that is nonzero,
as ``check_mild`` does; its figure is the time of the whole sample over the
partitions it ranks.  Each case is timed ``--repeats`` times after one
untimed pass, which counts the partitions ranked and checks every verdict:
None for the worst case, and for a Koch set a witness exactly when a maximal
valid S (one avoiding the squared letters and every commutator) passes an
explicit-basis rank test written here, which the witness must pass too.  A
mismatch stops the script with exit 1.  The last column counts the sets
whose full commutator rows are dependent (rank < m): the rank criterion
refuses their partitions without ranking rows, so the figure depends on the mix.
"""

from __future__ import annotations

import argparse
import os
import platform
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KOCH_D = range(4, 13)
SEED = 1


def worst_case(d: int) -> tuple:
    from mild2.linking import QuadraticRelator

    rel = QuadraticRelator(d, (0,) * d, frozenset({(1, 2), (3, 4)}))
    return (rel, rel, rel)


def koch_sample(count: int) -> list[tuple]:
    from mild2.arith import is_prime
    from mild2.linking import eliminate_generator, koch_presentation

    rng = random.Random(SEED)
    primes = [p for p in range(3, 2000, 2) if is_prime(p)]
    sample = []
    for k in range(count):
        # d + 1 primes lose one generator to the elimination when it applies
        pres = koch_presentation(rng.sample(primes, KOCH_D[k % len(KOCH_D)] + 1))
        if any(pres.product_relation):
            pres = eliminate_generator(pres)
        sample.append(pres.relators)
    return sample


def passes(relators, S: frozenset) -> bool:
    """The rank criterion on an explicit basis, one column per pair of S x Sp."""
    d = relators[0].d
    Sp = [j for j in range(1, d + 1) if j not in S]
    if any(rel.squares[i - 1] for rel in relators for i in S):
        return False
    if any(i in S and j in S for rel in relators for i, j in rel.comms):
        return False
    columns = {(min(i, j), max(i, j)): k for k, (i, j) in enumerate((i, j) for i in sorted(S) for j in Sp)}
    return independent([sum(1 << columns[pair] for pair in rel.comms if pair in columns) for rel in relators])


def full_rows_dependent(relators) -> bool:
    """The relators' full commutator rows, every pair of each, have rank < m:
    then no S passes, since S's rows are their restriction to S x Sp."""
    pairs = sorted(set().union(*(rel.comms for rel in relators)))
    return not independent([sum(1 << k for k, pair in enumerate(pairs) if pair in rel.comms) for rel in relators])


def independent(rows) -> bool:
    """Whether int rows are linearly independent over GF(2)."""
    basis: dict[int, int] = {}  # leading bit -> row
    for row in rows:
        while row and row.bit_length() in basis:
            row ^= basis[row.bit_length()]
        if not row:
            return False
        basis[row.bit_length()] = row
    return True


def maximal_valid_sets(relators):
    """Maximal sets of unsquared letters holding no commutator (Bron-Kerbosch)."""
    d = relators[0].d
    near = {i: {i} for i in range(1, d + 1)}
    for rel in relators:
        for i, j in rel.comms:
            near[i].add(j)
            near[j].add(i)
    free = {i for i in range(1, d + 1) if not any(rel.squares[i - 1] for rel in relators)}

    def grow(chosen, open_, closed):
        if not open_ and not closed:
            yield frozenset(chosen)
        for v in sorted(open_):
            yield from grow(chosen | {v}, open_ - near[v], closed - near[v])
            open_, closed = open_ - {v}, closed | {v}

    yield from grow(frozenset(), frozenset(free), frozenset())


def counted_pass(mildness, sets, expect) -> int:
    """One untimed search of every set: partitions ranked, verdicts checked."""
    real, calls = mildness.rank_criterion, [0]

    def counting(relators, part):
        calls[0] += 1
        return real(relators, part)

    mildness.rank_criterion = counting
    try:
        for relators in sets:
            witness = mildness.find_mild_partition(relators)
            problem = expect(relators, witness)
            if problem:
                raise SystemExit(f"d = {relators[0].d}, {[rel.text() for rel in relators]}: {problem}")
    finally:
        mildness.rank_criterion = real
    return calls[0]


def expect_none(relators, witness) -> str | None:
    return None if witness is None else f"expected no witness, got {witness}"


def expect_reference(relators, witness) -> str | None:
    mild = any(passes(relators, S) for S in maximal_valid_sets(relators))
    if witness is None:
        return "a maximal valid S passes, yet no witness" if mild else None
    if not passes(relators, frozenset(witness.S)):
        return f"witness {witness} fails the explicit-basis rank test"
    return None if mild else "a witness, yet no maximal valid S passes"


def timed(mildness, sets, repeats: int) -> list[float]:
    seconds = []
    for _ in range(repeats):
        started = time.perf_counter()
        for relators in sets:
            mildness.find_mild_partition(relators)
        seconds.append(time.perf_counter() - started)
    return seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--d",
        action="append",
        type=int,
        help="a worst-case d, 4..MAX_ENUMERATION_D of the measured tree (repeatable; default 12, 13, 14)",
    )
    parser.add_argument("--koch", type=int, default=90, help="Koch sets in the sample, 0 for none (default 90)")
    parser.add_argument("--repeats", type=int, default=7, help="timed passes per case (default 7)")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="source tree holding mild2/ (default: src)")
    args = parser.parse_args(argv)
    ds = args.d or [12, 13, 14]
    if args.koch < 0 or args.repeats < 1:
        parser.error("--koch must be >= 0 and --repeats >= 1")
    src = args.src.resolve()
    if not (src / "mild2" / "mildness.py").is_file():
        parser.error(f"{src} holds no mild2 package")
    sys.path.insert(0, str(src))
    from mild2 import mildness

    # the worst-case family needs letters 1..4; the search refuses d past its limit
    if any(not 4 <= d <= mildness.MAX_ENUMERATION_D for d in ds):
        parser.error(f"--d must lie in 4..{mildness.MAX_ENUMERATION_D}")
    cases = [(f"worst d={d}", [worst_case(d)], expect_none) for d in ds]
    if args.koch:
        cases.append((f"koch x{args.koch}", koch_sample(args.koch), expect_reference))
    print(
        f"# {args.repeats} timed passes per case after one checked pass,"
        f" Python {platform.python_version()}, {os.cpu_count()} CPUs"
    )
    print(f"# {src}")
    print(f"{'case':<20}{'partitions':>11}{'median ms':>11}{'us/part':>9}{'q1':>7}{'q3':>7}{'dependent':>11}")
    for name, sets, expect in cases:
        partitions = counted_pass(mildness, sets, expect)
        per_part = sorted(s / partitions * 1e6 for s in timed(mildness, sets, args.repeats))
        q1, _, q3 = statistics.quantiles(per_part, n=4) if len(per_part) > 1 else per_part * 3
        median = statistics.median(per_part)
        mix = f"{sum(map(full_rows_dependent, sets))}/{len(sets)}"
        print(
            f"{name:<20}{partitions:>11}{median * partitions / 1e3:>11.2f}{median:>9.2f}{q1:>7.2f}{q3:>7.2f}{mix:>11}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
