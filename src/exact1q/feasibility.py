"""Exact rational feasibility of the one-query weight system.

A reduced function with support S is decidable by a single exact quantum
query iff there are non-negative rationals z_1..z_n with

    sum(z_i for i with bit i of x set) == 1/2   for every x in S,
    z_1 + ... + z_n <= 1.

This module decides that system exactly, returning either a weight-vector
witness or a Farkas-style certificate (row multipliers whose combination
has non-negative coefficients on every variable and a strictly negative
constant). Both answers re-verify by plain arithmetic in `verify_result`,
which shares no code with the solver.

The solver works in w = 2z, where every row is integral: one row
[bits of x | 1] per x in S (the rows of the arrangement that
witness-first classification walks), restricted to the free columns when
bits are pinned to 0, and the fixed sum row w_1 + ... + w_n <= 2. Its
answers are given in z: a witness is w / 2, and since each w row is twice
its z row, a certificate of the w rows is one of the z rows up to a
positive factor (`_solve_nonneg`).

`decide` answers an arbitrary promise function through its reduced form
and lifts the answer to the unreduced system over z_0..z_n (one
sign-vector row per XOR difference); a certificate's multipliers
(mu_d..., mu_le) lift to (mu_le + sum(mu_d)/2, -mu_d/2 ...). The
unreduced system is only checked, by `verify_decision`, never solved.

Arithmetic is exact and never uses floats, and the solver's inner loops
hold only ints: the presolve eliminates fraction-free (`intlinalg`), and
the simplex keeps every tableau row as an integer vector up to a positive
factor (an integer-preserving tableau, cf. Azulay & Pique 2001, ACM TOMS
27), with the cost row over one positive denominator. `Fraction`s are
formed only for the answer. `verify_result` and `verify_decision` scale
the answer to ints by the lcm of its denominators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from .core import PartialBooleanFn, diff_set, mask_bits
from .errors import InternalError, SchemaError
from .intlinalg import extend_echelon, pivot_value, reduce_pivot_rows, solve_square
from .reduction import ReducedFn, reduce

_ONE = Fraction(1)
_ZERO = Fraction(0)


@dataclass(frozen=True)
class WeightVector:
    """Non-negative weights z_1..z_n with z_0 = 1 - sum(z) as derived slack."""

    z: tuple[Fraction, ...]

    def __post_init__(self):
        if any(v < 0 for v in self.z):
            raise SchemaError("weight vector entries must be non-negative")
        if sum(self.z, _ZERO) > 1:
            raise SchemaError("weight vector entries must sum to at most 1")

    @property
    def z0(self) -> Fraction:
        return _ONE - sum(self.z, _ZERO)


@dataclass(frozen=True)
class FarkasWitness:
    """One multiplier per row of the standardized system, in row order.

    For a reduced system the rows are the support equations in sorted mask
    order followed by the sum row; for the unreduced system of `decide`
    they are the normalization row followed by the difference-set rows,
    lifted from the reduced multipliers (mu_d..., mu_le) as
    (mu_le + sum(mu_d)/2, -mu_d/2 ...).
    """

    multipliers: tuple[Fraction, ...]


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    witness: WeightVector | None = None
    certificate: FarkasWitness | None = None


# ---------------------------------------------------------------------------
# Solver core: phase-1 simplex on an integer tableau after a fraction-free
# presolve, both in w = 2z.
# ---------------------------------------------------------------------------

def _presolve(eq_rows, nvars):
    """Row-reduce the integer equality rows [a | b] in integers.

    The rows are eliminated fraction-free, one row step at a time
    (`intlinalg.extend_echelon`), with b as the last column. A row pivots
    on the first column where it leaves the span of the rows before it,
    so the pivot rows are the first rows that span the system and their
    pivot columns are those of the reduced row echelon form. Returns
    ('infeasible', multipliers) when the equalities alone are
    contradictory, the multipliers scaled so that the combined constant
    is -1, else ('reduced', (rows, pivots)): one integer row [a | b] per
    pivot (row index, column), in column order, equal to |det| times the
    matching row of the reduced row echelon form. Its entry on its own
    pivot column is |det| > 0, the factor to divide by.
    """
    prefix = ()
    pivots = []  # (row index, column), in row order
    for r, row in enumerate(eq_rows):
        longer = extend_echelon(prefix, row, nvars + 1)
        if longer is None:
            continue  # a combination of the rows before it, b included
        c = longer[-1][1]
        if c == nvars:
            # 0 == b with b != 0: row r minus its combination of the pivot
            # rows certifies, scaled so the constant is -1.
            y = _pivot_combination(eq_rows, pivots, [row[col] for _, col in pivots], 1)
            comb = [-v for v in y]
            comb[r] = _ONE
            constant = sum(m * e[-1] for m, e in zip(comb, eq_rows))
            return "infeasible", [-m / constant for m in comb]
        prefix = longer
        pivots.append((r, c))

    det = pivot_value(prefix)
    rows = reduce_pivot_rows(prefix, det)
    if det < 0:
        rows = [[-v for v in row] for row in rows]
    order = sorted(range(len(pivots)), key=lambda j: pivots[j][1])
    return "reduced", ([rows[j] for j in order], [pivots[j] for j in order])


def _pivot_combination(eq_rows, pivots, nums, den):
    """Multipliers over the equality rows, nonzero on the pivot rows p_j
    only, whose combination equals nums / den on the pivot columns c_j:
    one square solve against the transposed pivot block.
    """
    system = [[eq_rows[p][c] for p, _ in pivots] + [v] for v, (_, c) in zip(nums, pivots)]
    sol, det = solve_square(system, len(pivots))
    mult = [_ZERO] * len(eq_rows)
    for v, (p, _) in zip(sol, pivots):
        mult[p] = Fraction(v, det * den)
    return mult


def _primitive(row):
    """`row` divided by the gcd of its entries (a positive factor)."""
    g = math.gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _solve_nonneg(eq_rows, nvars):
    """Feasibility of {A w = b, w >= 0, w_1 + ... + w_nvars <= 2} for
    integer rows [A | b], the weight system in w = 2z, by a phase-1
    simplex on an integer tableau.

    Returns (True, z, None) or (False, None, multipliers), both in z: the
    witness is w / 2, and the multipliers are one per eq row then one for
    the sum row, oriented so that the combined z row has coefficients >= 0
    and constant < 0. Each w row is twice its z row, so a certificate of
    the w rows certifies the z rows times any positive factor: the
    simplex's phase-1 duals are kept as they are, and the presolve's
    multipliers, whose w constant is -1, are doubled to make the z
    constant -1.
    """
    status, presolved = _presolve(eq_rows, nvars)
    if status == "infeasible":
        return False, None, [2 * m for m in presolved] + [_ZERO]
    reduced, pivots = presolved

    # Every tableau row is an integer vector known only up to a positive
    # factor: the rational row is the integer one divided by its entry on
    # its basic column. The slack starts basic on the sum row
    # [1 ... 1 | 1 | 0 ... | 2], artificials on the reduced equality rows,
    # each row negated where needed so that its rhs is >= 0; the
    # multipliers of an infeasible answer fold the sign back in.
    n_eq = len(reduced)
    n_cols = nvars + 1 + n_eq  # w, the slack, artificials
    rows = [[1] * (nvars + 1) + [0] * n_eq + [2]]
    basis = [nvars]
    # The phase-1 cost row (minimize the artificial sum) has its basic
    # columns priced out and one positive denominator: the rational cost
    # is cost / cden, and cost[-1] / cden is -objective. Every reduced row
    # comes with the factor |det|, so that is the first denominator.
    cost = [0] * (n_cols + 1)
    cden = 1
    for j, (red, (_, c)) in enumerate(zip(reduced, pivots)):
        cden = red[c]
        if red[-1] < 0:
            red = [-v for v in red]
        row = red[:-1] + [0] * (1 + n_eq) + [red[-1]]
        row[nvars + 1 + j] = cden
        cost = [a - b for a, b in zip(cost, row)]
        rows.append(_primitive(row))
        basis.append(nvars + 1 + j)
    for j in range(nvars + 1, n_cols):
        cost[j] += cden

    # Bland's rule on a fixed column order guarantees termination and a
    # reproducible basic solution. Ratios are compared cross-multiplied,
    # where the row factors cancel, so the rational tableau's minimum ratio
    # and basic-index tie-break pick the same leaving row.
    while True:
        enter = -1
        for j in range(n_cols):
            if cost[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        for r, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                if leave < 0:
                    leave, num, den = r, row[-1], a
                    continue
                lhs, rhs = row[-1] * den, num * a
                if lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                    leave, num, den = r, row[-1], a
        if leave < 0:
            raise InternalError("phase-1 objective is bounded; no ratio row is a bug")
        # The pivot row needs no update: with its factor now pc it is
        # already the rational row divided by pc. Every other row r becomes
        # pc * row - row[enter] * prow, which is its rational update times
        # pc times its factor, then is divided by the gcd of its entries.
        prow = rows[leave]
        pc = prow[enter]
        for r, row in enumerate(rows):
            f = row[enter]
            if f and r != leave:
                rows[r] = _primitive([pc * a - f * b for a, b in zip(row, prow)])
        f = cost[enter]
        cost = [pc * a - f * b for a, b in zip(cost, prow)]
        cden *= pc
        g = math.gcd(cden, *cost)
        if g > 1:
            cost = [v // g for v in cost]
            cden //= g
        basis[leave] = enter

    if cost[-1] == 0:
        z = [_ZERO] * nvars
        for row, b in zip(rows, basis):
            if b < nvars:
                z[b] = Fraction(row[-1], 2 * row[b])
        return True, z, None

    # Infeasible: the reduced costs of the initial basis columns are the
    # row multipliers over cden. A reduced row is (pivot block)^-1 times
    # the pivot rows, so its multipliers, with each row's sign flip folded
    # in, go back to the eq rows by one solve on the pivot columns.
    nums = [
        (cden - v if red[-1] < 0 else v - cden)
        for v, red in zip(cost[nvars + 1:n_cols], reduced)
    ]
    mult = _pivot_combination(eq_rows, pivots, nums, cden)
    return False, None, mult + [Fraction(cost[nvars], cden)]


def _solve_reduced_system(n, support, fixed):
    # the rows [bits | 1] of the arrangement in w = 2z, on the free columns;
    # duplicate rows need no filter: the presolve never pivots on a later
    # copy, which eliminates to 0 == 0 and gets multiplier 0
    free = [i for i in range(1, n + 1) if i not in fixed]
    rows = [mask_bits(m, n) + (1,) for m in support]
    if fixed:
        rows = [[row[i - 1] for i in free] + [1] for row in rows]
    feasible, x, mult = _solve_nonneg(rows, len(free))
    if feasible:
        z = [_ZERO] * n
        for i, v in zip(free, x):
            z[i - 1] = v
        return FeasibilityResult(True, witness=WeightVector(tuple(z)))
    return FeasibilityResult(False, certificate=FarkasWitness(tuple(mult)))


@lru_cache(maxsize=1 << 17)
def _decide_cached(n: int, support: tuple[int, ...], fixed: frozenset[int]):
    result = _solve_reduced_system(n, support, fixed)
    if not _verify_reduced(n, support, result, fixed):
        raise InternalError(f"solver self-check failed for support {support}")
    return result


def decide_reduced(g: ReducedFn) -> FeasibilityResult:
    """Decide the weight system of a reduced function.

    Deterministic: a fixed row/column order plus Bland's pivot rule means
    the same input always returns the same witness or certificate.
    """
    return _decide_cached(g.n, g.support, frozenset())


def decide_with_fixed_zeros(g: ReducedFn, fixed: Iterable[int]) -> FeasibilityResult:
    """Decide the weight system with z_i pinned to 0 for every i in `fixed`.

    A feasible answer means the function is computable by an algorithm
    that never gives query weight to those bits.
    """
    return _decide_cached(g.n, g.support, _fixed_bit_set(g.n, fixed))


def _fixed_bit_set(n: int, bits: Iterable[int]) -> frozenset[int]:
    """`bits` as a set of bit indices, or SchemaError if one is outside 1..n."""
    fixed = frozenset(bits)
    if not fixed <= set(range(1, n + 1)):
        raise SchemaError(f"fixed bits {sorted(fixed)} outside 1..{n}")
    return fixed


def decide(f: PartialBooleanFn) -> FeasibilityResult:
    """Decide an arbitrary non-constant promise function.

    By the reduction law this is `decide_reduced(reduce(f))`, answered in
    the format of the unreduced system over z_0..z_n: the normalization
    row sum(z_j) == 1 followed by one sign-vector row per XOR difference
    d, in sorted order. A witness is the reduced one, with z_0 = 1 - sum(z).
    A certificate is lifted: each difference row is the normalization row
    minus twice its reduced row, so reduced multipliers (mu_d..., mu_le)
    become (mu_le + sum(mu_d)/2, -mu_d/2 ...). That keeps the reduced
    combined constant (< 0) and the reduced coefficient on every z_i, with
    mu_le on z_0 (all >= 0). The unreduced system is only checked, by
    `verify_decision`, never solved.
    """
    result = decide_reduced(reduce(f))  # raises ConstantFunctionError when needed
    if not result.feasible:
        *mu_d, mu_le = result.certificate.multipliers
        lifted = [mu_le + sum(mu_d, _ZERO) / 2] + [-m / 2 for m in mu_d]
        result = FeasibilityResult(False, certificate=FarkasWitness(tuple(lifted)))
    if not verify_decision(f, result):
        raise InternalError("solver self-check failed for unreduced system")
    return result


# ---------------------------------------------------------------------------
# Independent verification (no solver code shared).
# ---------------------------------------------------------------------------

def _verify_reduced(n, support, result, fixed):
    """`verify_result` in ints: the answer is scaled by the lcm of its
    denominators (`_scaled`), so each 1/2 right-hand side becomes a
    comparison with twice a row sum."""
    if result.feasible:
        w = result.witness
        if w is None or result.certificate is not None or len(w.z) != n:
            return False
        z, scale = _scaled(w.z)
        if any(v < 0 for v in z) or any(z[i - 1] for i in fixed) or sum(z) > scale:
            return False
        for mask in support:
            if 2 * sum(v for v, b in zip(z, mask_bits(mask, n)) if b) != scale:
                return False
        return True

    cert = result.certificate
    if cert is None or result.witness is not None:
        return False
    if len(cert.multipliers) != len(support) + 1:
        return False
    *mult, mu_le = _scaled(cert.multipliers)[0]
    # combined constant mu_le + sum(mult) / 2, times 2
    if mu_le < 0 or 2 * mu_le + sum(mult) >= 0:
        return False
    cols = [mu_le] * n
    for mu, mask in zip(mult, support):
        for i, b in enumerate(mask_bits(mask, n)):
            if b:
                cols[i] += mu
    return all(c >= 0 for i, c in enumerate(cols, start=1) if i not in fixed)


def verify_result(g: ReducedFn, result: FeasibilityResult, fixed: Iterable[int] = ()) -> bool:
    """Re-check a reduced-system answer with plain exact arithmetic.

    Feasible answers are checked against every support equation, the sign
    constraints and the sum bound; infeasible answers are checked by
    multiplying out the certificate. Returns False on any violation, and
    raises SchemaError for a fixed bit outside 1..n.
    """
    return _verify_reduced(g.n, g.support, result, _fixed_bit_set(g.n, fixed))


def _scaled(values):
    """`values` times the lcm of their denominators, as ints, and that lcm."""
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def verify_decision(f: PartialBooleanFn, result: FeasibilityResult) -> bool:
    """Re-check an answer from `decide` against the unreduced system.

    The system is the normalization row sum(z_j) == 1 over z_0..z_n and
    one row sign_vector(d) . z == 0 per XOR difference d, in sorted order.
    The answer is scaled to integers by the lcm of its denominators and
    checked in int arithmetic: a witness on every row and sign, a
    certificate on its combined constant (< 0) and every column sum
    (>= 0). Returns False on any violation.
    """
    n = f.n
    diffs = diff_set(f)
    if result.feasible:
        w = result.witness
        if w is None or result.certificate is not None or len(w.z) != n:
            return False
        z, scale = _scaled(w.z)
        full = [scale - sum(z)] + z  # z_0 = 1 - sum(z), so the normalization row holds
        if any(v < 0 for v in full):
            return False
        for d in diffs:
            row = full[0] + sum(-v if b else v for v, b in zip(z, mask_bits(d, n)))
            if row != 0:
                return False
        return True

    cert = result.certificate
    if cert is None or result.witness is not None:
        return False
    if len(cert.multipliers) != len(diffs) + 1:
        return False
    mult, _ = _scaled(cert.multipliers)
    if mult[0] >= 0:  # the combined constant: only the normalization row has one
        return False
    cols = [mult[0]] * (n + 1)
    for m, d in zip(mult[1:], diffs):
        cols[0] += m
        for i, b in enumerate(mask_bits(d, n), start=1):
            cols[i] += -m if b else m
    return all(c >= 0 for c in cols)
