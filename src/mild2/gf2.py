"""Linear algebra over GF(2) on Python-int rows.

A row is a Python int whose bit c is column c, so adding two rows is one
XOR however wide they are.  Rank is plain Gaussian elimination against a
table of pivot rows keyed by their highest set bit: every incoming row is
reduced until it is zero or its top bit starts a new pivot.  Rows are
consumed one at a time, so only the pivot table stays in memory; echelon
returns that table, and a caller that needs only a rank or a dimension stops
there (the oracle ranks its last degree this way).  Back substitution turns
the table into the fully reduced echelon form, from which quotient_map reads
the normal form of every column modulo the row span.  One engine serves
every caller in the package, from the 4x4 toy matrices of the partition
search up to the oracle's quotient slices with tens of thousands of columns.
"""

from __future__ import annotations

from collections.abc import Iterable


def echelon(rows: Iterable[int]) -> dict[int, int]:
    """Forward elimination of int rows: the echelon form {top bit: row}, one
    row per pivot column, so its length is the rank."""
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = row
                break
            row ^= pivot
    return pivots


def rank(rows: Iterable[int]) -> int:
    """GF(2) rank of int rows, bit c of a row being column c."""
    return len(echelon(rows))


def quotient_map(rows: Iterable[int], n_cols: int) -> tuple[list[int], int]:
    """The projection of F2^n_cols onto its quotient by the span of int rows.

    Returns the image of each unit vector e_0..e_{n_cols-1} and the
    quotient's dimension q.  The basis of the quotient is the non-pivot
    columns of the fully reduced echelon form in increasing order, so a
    non-pivot column maps to one bit and a pivot column to the non-pivot
    bits of its row.  Image c has at most c + 1 bits.
    """
    pivots = echelon(rows)
    mask = 0
    for top in sorted(pivots):
        # Back substitution in ascending order: every lower pivot row already
        # holds only non-pivot bits once its own pivot bit is dropped.
        row = pivots[top]
        bits = row & mask
        row ^= bits | 1 << top
        while bits:
            low = bits.bit_length() - 1
            row ^= pivots[low]
            bits ^= 1 << low
        pivots[top] = row
        mask |= 1 << top
    # Spell each image with column n_cols - 1 first and keep the runs of
    # non-pivot columns; the pivot columns of a quotient slice fall in few runs.
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
