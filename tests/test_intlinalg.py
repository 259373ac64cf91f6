"""The row-at-a-time elimination kernel against Fraction oracles.

Seeded random small integer systems, a third of their rows built as
integer combinations of earlier rows so that singular and rank-deficient
systems are common. The oracles are `bruteforce._solve_exact` (rational
Gauss-Jordan), a Leibniz determinant and `bruteforce.bf_line_meets_interior`
(Fractions at every breakpoint); none shares code with `intlinalg`.
"""

import itertools
import math
import random
from fractions import Fraction

from bruteforce import _solve_exact, bf_line_meets_interior
from hypothesis import example, given, settings, strategies as st

from exact1q.intlinalg import close_line, extend_echelon, line_meets_interior, solution_line, solve_square


def _det(matrix):
    """Leibniz expansion: sum over permutations of signed products."""
    n = len(matrix)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, p in enumerate(perm):
            term *= matrix[i][p]
        total += term
    return total


def _system(rng, n, m):
    rows = []
    for _ in range(m):
        if len(rows) >= 2 and rng.random() < 0.35:
            x, y = rng.sample(rows, 2)
            p, q = rng.randint(-2, 2), rng.randint(-2, 2)
            coeffs = [p * a + q * b for a, b in zip(x[:n], y[:n])]
        elif rng.random() < 0.5:
            coeffs = [rng.randint(0, 1) for _ in range(n)]  # arrangement-like rows
        else:
            coeffs = [rng.randint(-4, 4) for _ in range(n)]
        rows.append(tuple(coeffs) + (rng.randint(-6, 6),))
    return rows


def _oracle(rows, n):
    return _solve_exact([(list(r[:n]), r[n]) for r in rows], list(range(n)))


def _independent(rows, n):
    """k coefficient rows are independent iff some n - k unit rows complete
    them to a nonsingular square system."""
    units = [tuple(int(i == j) for j in range(n)) + (0,) for i in range(n)]
    return any(
        _oracle(list(rows) + list(extra), n) is not None
        for extra in itertools.combinations(units, n - len(rows))
    )


def _cases(count=400, seed=20261018):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 5)
        yield n, _system(rng, n, n)


def test_solve_square_is_cramer_form():
    singular = 0
    for n, rows in _cases():
        sol = solve_square(rows, n)
        expected = _oracle(rows, n)
        det = _det([r[:n] for r in rows])
        assert (sol is None) == (expected is None) == (det == 0), rows
        if sol is None:
            singular += 1
            continue
        nums, d = sol
        assert d == abs(det)
        assert [Fraction(v, d) for v in nums] == expected
    assert 50 < singular < 350


def test_row_step_detects_dependent_rows():
    dependent = 0
    for n, rows in _cases():
        prefix = ()
        for k, row in enumerate(rows):
            longer = extend_echelon(prefix, row, n)
            if longer is None:
                # the prefix is independent, so the new row is what breaks it
                assert not _independent(rows[: k + 1], n), rows[: k + 1]
                dependent += 1
                break
            assert _independent(rows[: k + 1], n), rows[: k + 1]
            prefix = longer
    assert dependent > 50


def test_line_satisfies_its_rows_and_closes_like_solve_square():
    lines = closed = 0
    for n, rows in _cases():
        prefix = ()
        for row in rows[:-1]:
            prefix = extend_echelon(prefix, row, n)
            if prefix is None:
                break
        if prefix is None:
            continue
        lines += 1
        w, u, det = solution_line(prefix, n)
        assert det != 0 and any(u)
        for t in (Fraction(0), Fraction(1), Fraction(-7, 3), Fraction(5, 2)):
            x = [(a + t * b) / det for a, b in zip(w, u)]
            for r in rows[:-1]:
                assert sum(c * v for c, v in zip(r, x)) == r[n], (rows, t)
        point = close_line((w, u, det), rows[-1])
        square = solve_square(rows, n)
        assert (point is None) == (square is None) == (_oracle(rows, n) is None)
        if point is not None:
            closed += 1
            nums, den = point
            snums, sdet = square
            g = math.gcd(sdet, *snums)
            assert point == (tuple(v // g for v in snums), sdet // g)
            assert [Fraction(v, den) for v in nums] == _oracle(rows, n)
    assert lines > 150 and closed > 100


_small = st.integers(-3, 3)


def _vectors(n):
    return st.lists(_small, min_size=n, max_size=n)


@settings(max_examples=400, deadline=None)
@given(
    st.integers(1, 4).flatmap(lambda n: st.tuples(_vectors(n), _vectors(n))),
    _small.filter(bool),
    st.integers(-1, 3),
)
# u_i = 0 with w_i = 0: x_i is 0 on the whole line
@example(([0, 1], [0, 1]), 1, 2)
# sum(u) = 0: the sum is fixed, at the bound or past it
@example(([1, 1], [1, -1]), 1, 2)
@example(([2, 1], [1, -1]), 1, 2)
# tangent at a breakpoint: x_1 > 0 needs t > 0, x_2 > 0 needs t < 0
@example(([0, 0], [1, -1]), 1, 2)
# tangent at the sum wall's breakpoint: x_1 > 0 needs t > 0, the sum t <= 0
@example(([0, 1], [1, 1]), 1, 1)
# det < 0: x = (t, 1 + t) as above, and x = (1 + t, 1 + t) for -1 < t <= 1/2
@example(([0, -1], [-1, -1]), -1, 1)
@example(([-1, -1], [-1, -1]), -1, 3)
def test_line_meets_interior_matches_breakpoint_oracle(wu, det, total):
    w, u = wu
    assert line_meets_interior((w, u, det), total) == bf_line_meets_interior(w, u, det, total)

