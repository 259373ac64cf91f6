"""Exact integer linear algebra: one fraction-free elimination kernel.

Rows are integer lists [a_1 .. a_k | b]. Elimination follows Bareiss
(1968, Math. Comp. 22): after pivot k every entry of a row not yet
pivoted is a (k+1)-minor of the input, so each division by the previous
pivot is exact and no `Fraction` is formed while eliminating. A minor
is a nonzero multiple of the matching Gauss-Jordan entry, so the same
pivots are found as by rational elimination with the same pivot rule.

Every elimination is one row step (`extend_echelon`): a row is
eliminated against a prefix of pivot rows and appended to it, and
`reduce_pivot_rows` back-substitutes the result. The presolve of the
feasibility LP feeds it the equality rows one by one, with the
right-hand side as a last column, so a pivot there is a contradiction.
Witness-first classification walks many systems that share rows, so a
prefix of rows is eliminated once for every system that starts with it.
n - 1 independent rows leave a solution line (`solution_line`), and each
last row meets that line in one point (`close_line`); a line with no
point in the open region {x > 0, sum(x) <= total} is skipped before any
close (`line_meets_interior`). `solve_square` is the row step applied to
all n rows.
"""

from __future__ import annotations

import math
from operator import mul
from typing import Sequence

#: A prefix in echelon form: (pivot row, pivot column) pairs in pivot order.
Prefix = tuple[tuple[Sequence[int], int], ...]


def reduce_pivot_rows(
    pivots: Sequence[tuple[Sequence[int], int]], det: int, cols: Sequence[int] | None = None
) -> list[list[int]]:
    """det times the reduced row echelon form of the pivot rows, one row
    per (pivot row, pivot column) pair in pivot order, restricted to the
    columns `cols` (default: every column), by back-substitution.

    Each pivot row must be zero on the columns of the pivots before it, as
    `extend_echelon` leaves it. det times the inverse of the pivot block is
    its adjugate, an integer matrix, so every division here is exact.
    """
    out: list[list[int]] = [[] for _ in pivots]
    for j in range(len(pivots) - 1, -1, -1):
        row, c = pivots[j]
        acc = [det * v for v in row] if cols is None else [det * row[k] for k in cols]
        for l in range(j + 1, len(pivots)):
            f = row[pivots[l][1]]
            if f:
                acc = [a - f * x for a, x in zip(acc, out[l])]
        pc = row[c]
        out[j] = [a // pc for a in acc]
    return out


def extend_echelon(prefix: Prefix, row: Sequence[int], n: int) -> Prefix | None:
    """The row step: `row` [a | b] eliminated against the pivot rows of
    `prefix` and appended to it, or None when a is a combination of the
    prefix's coefficient rows.

    Bareiss one row at a time: step k replaces the row by
    (pv_k * row - row[c_k] * p_k) // pv_(k-1), an exact division, so after
    k steps each entry is a (k+1)-minor. The new pivot is the first
    nonzero of the n coefficient columns; when there is none, every system
    that completes the prefix with more rows is singular too. Passing the
    row's full length as n makes b a column too, so a pivot on it is the
    contradiction 0 = b != 0.
    """
    prev = 1
    for p, c in prefix:
        pv = p[c]
        f = row[c]
        if f:
            row = [(pv * x - f * y) // prev for x, y in zip(row, p)]
        elif pv != prev:
            row = [pv * x // prev for x in row]
        prev = pv
    for c in range(n):
        if row[c]:
            return prefix + ((row, c),)
    return None


def pivot_value(prefix: Prefix) -> int:
    """The last pivot of a prefix: its pivot block's determinant up to sign."""
    if not prefix:
        return 1
    row, c = prefix[-1]
    return row[c]


def solution_line(prefix: Prefix, n: int) -> tuple[list[int], list[int], int]:
    """The solutions of n - 1 independent rows over n columns as the line
    x = (w + t * u) / det, t rational, with w and u integer vectors.

    u spans the null space: it is det on the one free column and minus
    det times the reduced row's free-column entry on each pivot column; w
    is zero on the free column and det times the reduced right-hand side
    on each pivot column. One back-substitution of those two columns.
    """
    det = pivot_value(prefix)
    pivoted = {c for _, c in prefix}
    free = next(c for c in range(n) if c not in pivoted)
    w = [0] * n
    u = [0] * n
    u[free] = det
    for (_, c), (rf, rb) in zip(prefix, reduce_pivot_rows(prefix, det, (free, n))):
        w[c] = rb
        u[c] = -rf
    return w, u, det


def close_line(
    line: tuple[Sequence[int], Sequence[int], int], row: Sequence[int]
) -> tuple[tuple[int, ...], int] | None:
    """The point where `row` [a | b] meets the line in lowest-terms Cramer
    form (nums, den), den > 0, or None when a . u = 0 (the square system
    of the line's rows and this one is singular).

    a . (w + t * u) / det = b gives t = (b * det - a . w) / (a . u), so the
    point is (w * s + (b * det - a . w) * u) / (det * s) with s = a . u:
    two dot products.
    """
    w, u, det = line
    # map stops at the shorter argument, so the dot products skip b
    s = sum(map(mul, row, u))
    if not s:
        return None
    t = row[-1] * det - sum(map(mul, row, w))
    den = det * s
    if den < 0:
        s, t, den = -s, -t, -den
    nums = [x * s + t * y for x, y in zip(w, u)]
    g = math.gcd(den, *nums)
    if g > 1:
        return tuple([v // g for v in nums]), den // g
    return tuple(nums), den


def line_meets_interior(line: tuple[Sequence[int], Sequence[int], int], total: int) -> bool:
    """Whether some point x = (w + t * u) / det of the line, t rational,
    has every x_i > 0 and sum(x) <= total.

    With det > 0 (negate w, u and det otherwise) each x_i > 0 bounds t
    strictly, from below at -w_i / u_i when u_i > 0 and from above when
    u_i < 0, and is w_i > 0 when u_i = 0; sum(x) <= total bounds t by
    sum(u) * t <= total * det - sum(w). At most one bound is non-strict, so
    the interval is nonempty iff its greatest lower bound is below its
    least upper bound. Bounds p / q, q > 0, are compared in integers.
    """
    w, u, det = line
    if det < 0:
        w, u, det = [-v for v in w], [-v for v in u], -det
    # (p, q) stands for p / q; None for no bound
    lo = hi = None
    for a, b in zip(w, u):
        if b > 0:
            if lo is None or -a * lo[1] > lo[0] * b:
                lo = -a, b
        elif b < 0:
            if hi is None or a * hi[1] < hi[0] * -b:
                hi = a, -b
        elif a <= 0:
            return False
    s, c = sum(u), total * det - sum(w)
    if s > 0:
        if hi is None or c * hi[1] < hi[0] * s:
            hi = c, s
    elif s < 0:
        if lo is None or -c * lo[1] > lo[0] * -s:
            lo = -c, -s
    elif c < 0:
        return False
    return lo is None or hi is None or lo[0] * hi[1] < hi[0] * lo[1]


def solve_square(rows: Sequence[Sequence[int]], n: int) -> tuple[tuple[int, ...], int] | None:
    """Solve n integer rows [a | b] in Cramer form: the solution is
    nums / det with det = |det(a)| > 0, or None when a is singular.

    The row step applied to every row, then back-substitution of the
    right-hand side only: det * x is an integer vector, so it stays exact.
    Since det is |det(a)|, the form does not depend on the pivots taken.
    """
    prefix: Prefix = ()
    for row in rows:
        prefix = extend_echelon(prefix, row, n)
        if prefix is None:
            return None
    det = pivot_value(prefix)
    nums = [0] * n
    for (_, c), (v,) in zip(prefix, reduce_pivot_rows(prefix, det, (n,))):
        nums[c] = v
    if det < 0:
        return tuple(-v for v in nums), -det
    return tuple(nums), det
