"""Linear algebra over GF(2) on Python-int rows.

A row is a Python int whose bit c is column c, so adding two rows is one
XOR however wide they are.  Rank is plain Gaussian elimination against a
table of pivot rows keyed by their highest set bit: every incoming row is
reduced until it is zero or its top bit starts a new pivot.  Rows are
consumed one at a time, so only the pivot table stays in memory.  One
engine serves every caller in the package, from 4x4 toy matrices up to the
brute-force ideal slices with tens of thousands of rows.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator


def pack_rows(rows: Iterable[Iterable[int]], n_cols: int) -> Iterator[int]:
    """Yield each row, given as an iterable of set-column indices, as an int.

    Repeated column indices within one row toggle (GF(2) semantics).  Rows
    are read and packed lazily, as the consumer asks for them.
    """
    if n_cols < 0:
        raise ValueError("n_cols must be nonnegative")
    for cols in rows:
        row = 0
        for c in cols:
            if not 0 <= c < n_cols:
                raise IndexError(f"column {c} out of range 0..{n_cols - 1}")
            row ^= 1 << c
        yield row


def rank(rows: Iterable[int]) -> int:
    """GF(2) rank of int rows, as produced by pack_rows."""
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = row
                break
            row ^= pivot
    return len(pivots)


def rank_of_rows(rows: Iterable[Iterable[int]], n_cols: int) -> int:
    """GF(2) rank of rows given as iterables of set-column indices."""
    return rank(pack_rows(rows, n_cols))
