"""Linear algebra over GF(2) on Python-int rows.

A row is a Python int whose bit c is column c, so adding two rows is one
XOR however wide they are.  Rank is plain Gaussian elimination against a
table of pivot rows keyed by their highest set bit: every incoming row is
reduced until it is zero or its top bit starts a new pivot.  Rows are
consumed one at a time, so only the pivot table stays in memory; echelon
returns that table, and a caller that needs only a rank or a dimension stops
there (the oracle ranks its last degree this way).  quotient_map reads the
normal form of every column modulo the row span from that table in one
ascending pass: each pivot row is split into its non-pivot bits, shifted
down a run of non-pivot columns at a time, and its lower pivot bits, whose
images the pass has already computed; the rows are never fully reduced.
One engine serves every caller in the package, from the 4x4 toy matrices of
the partition search up to the oracle's quotient slices with tens of
thousands of columns.
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
    columns of the echelon form in increasing order, so a non-pivot column
    maps to one bit.  The row of pivot column c lies in the span and has c as
    its top bit, so pi(e_c) is the sum of pi(e_b) over its lower bits b: its
    non-pivot bits, moved down to their quotient indices one run of
    consecutive non-pivot columns at a time, plus the images of its pivot
    bits, which the ascending pass has already computed.  Image c has at
    most c + 1 bits.
    """
    pivots = echelon(rows)
    runs: list[tuple[int, int, int]] = []  # (first column, ones, quotient index)
    images: list[int] = []
    lower_pivots = q = col = 0
    for top in sorted(pivots):
        if top > col:  # columns col..top-1 are a run of non-pivot columns
            runs.append((col, (1 << top - col) - 1, q))
            images.extend(1 << i for i in range(q, q + top - col))
            q += top - col
        row = pivots.pop(top)
        image = 0
        for first, ones, at in runs:
            image |= (row >> first & ones) << at
        bits = row & lower_pivots
        while bits:
            low = bits.bit_length() - 1
            image ^= images[low]
            bits ^= 1 << low
        images.append(image)
        lower_pivots |= 1 << top
        col = top + 1
    images.extend(1 << i for i in range(q, q + n_cols - col))
    return images, q + n_cols - col
