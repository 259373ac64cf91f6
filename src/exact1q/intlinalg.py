"""Exact integer linear algebra: one fraction-free elimination kernel.

Rows are integer lists [a_1 .. a_k | b]. Elimination follows Bareiss
(1968, Math. Comp. 22): after pivot k every entry of a row not yet
pivoted is a (k+1)-minor of the input, so each division by the previous
pivot is exact and no `Fraction` is formed while eliminating. A minor
is a nonzero multiple of the matching Gauss-Jordan entry, so the same
pivots are found as by rational elimination with the same pivot rule.

Both exact solvers use it: the presolve of the feasibility LP
(`echelon` then `reduce_pivot_rows`) and the square vertex solves of
witness-first classification (`solve_square`).
"""

from __future__ import annotations

from typing import Sequence


def echelon(rows: list[list[int]], ncols: int) -> tuple[list[tuple[int, int]], int]:
    """Forward fraction-free elimination of `rows` in place over the first
    `ncols` columns.

    Pivot rule: for each column in order, the first row not yet pivoted,
    in input order, with a nonzero entry. Returns the pivots as
    (row index, column) in column order and the last pivot value, which is
    the determinant of the pivot block up to sign. Afterwards each pivot
    row is zero on the columns of earlier pivots, and every other row is
    a nonzero multiple of its residual, so zero on all `ncols` columns.

    A row whose entry under the pivot is zero is left as it is and brought
    up to date only when it is next touched: a row last updated with
    divisor d is a multiple d' / d of its current minors, so the next
    update divides by d and a pivot row is first lifted by prev / d.
    """
    free = list(range(len(rows)))
    div = [1] * len(rows)
    pivots: list[tuple[int, int]] = []
    prev = 1
    for col in range(ncols):
        for pos, r in enumerate(free):
            if rows[r][col]:
                break
        else:
            continue
        del free[pos]
        p = rows[r]
        if div[r] != prev:
            rows[r] = p = [v * prev // div[r] for v in p]
        pv = p[col]
        for i in free:
            row = rows[i]
            f = row[col]
            if f:
                d = div[i]
                rows[i] = [(pv * x - f * y) // d for x, y in zip(row, p)]
                div[i] = pv
        pivots.append((r, col))
        prev = pv
    return pivots, prev


def reduce_pivot_rows(
    rows: Sequence[Sequence[int]], pivots: Sequence[tuple[int, int]], det: int
) -> list[list[int]]:
    """det times the reduced row echelon form of the pivot rows, one row
    per pivot in pivot order, by back-substitution after `echelon`.

    det times the inverse of the pivot block is its adjugate, an integer
    matrix, so every division here is exact.
    """
    out: list[list[int]] = [[] for _ in pivots]
    for j in range(len(pivots) - 1, -1, -1):
        r, c = pivots[j]
        row = rows[r]
        acc = [det * v for v in row]
        for l in range(j + 1, len(pivots)):
            f = row[pivots[l][1]]
            if f:
                acc = [a - f * x for a, x in zip(acc, out[l])]
        pc = row[c]
        out[j] = [a // pc for a in acc]
    return out


def solve_square(rows: Sequence[Sequence[int]], n: int) -> tuple[tuple[int, ...], int] | None:
    """Solve n integer rows [a | b] in Cramer form: the solution is
    nums / det with det > 0, or None when the matrix is singular.

    The square case of `echelon`, with back-substitution of the right-hand
    side only: det * x is an integer vector, so it stays exact.
    """
    a = [list(r) for r in rows]
    pivots, det = echelon(a, n)
    if len(pivots) < n:
        return None
    nums = [0] * n
    for r, c in reversed(pivots):
        row = a[r]
        nums[c] = (det * row[n] - sum(row[j] * nums[j] for j in range(c + 1, n))) // row[c]
    if det < 0:
        return tuple(-v for v in nums), -det
    return tuple(nums), det
