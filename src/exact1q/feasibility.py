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

`decide` answers an arbitrary promise function through its reduced form
and lifts the answer to the unreduced system over z_0..z_n (one
sign-vector row per XOR difference); a certificate's multipliers
(mu_d..., mu_le) lift to (mu_le + sum(mu_d)/2, -mu_d/2 ...). The
unreduced system is only checked, by `verify_decision`, never solved.

Arithmetic is exact and never uses floats: the presolve eliminates in
integers (`intlinalg`, fraction-free), the simplex and `verify_result`
work in `fractions.Fraction`, and `verify_decision` scales the answer to
ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from .core import PartialBooleanFn, diff_set, mask_bits
from .errors import InternalError, SchemaError
from .intlinalg import echelon, reduce_pivot_rows, solve_square
from .reduction import ReducedFn, reduce

_HALF = Fraction(1, 2)
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
# Solver core: phase-1 simplex with an exact fraction-free presolve.
# ---------------------------------------------------------------------------

def _presolve(eq_rows, nvars):
    """Row-reduce the equality rows in integers.

    Each row (integer coeffs, rational rhs) is scaled by its rhs
    denominator and eliminated fraction-free (`intlinalg.echelon`). Returns
    ('infeasible', multipliers) when the equalities alone are
    contradictory, else ('reduced', (rows, pivots)): rows are the reduced
    row echelon form of the pivot rows as (coeffs, rhs) Fractions, one per
    pivot (row index, column) in column order.
    """
    work = []
    for coeffs, rhs in eq_rows:
        rhs = Fraction(rhs)
        scale = rhs.denominator
        work.append([scale * v for v in coeffs] + [rhs.numerator])
    pivots, det = echelon(work, nvars)

    pivoted = {r for r, _ in pivots}
    for r, row in enumerate(work):
        if r not in pivoted and row[-1]:
            # 0 == rhs with rhs != 0: row r minus its combination of the
            # pivot rows certifies, scaled so the constant is -1.
            y = _pivot_combination(eq_rows, pivots, [eq_rows[r][0][c] for _, c in pivots])
            comb = [-v for v in y]
            comb[r] = _ONE
            constant = sum((m * rhs for m, (_, rhs) in zip(comb, eq_rows)), _ZERO)
            return "infeasible", [-m / constant for m in comb]

    rows = [
        ([Fraction(v, det) for v in out[:-1]], Fraction(out[-1], det))
        for out in reduce_pivot_rows(work, pivots, det)
    ]
    return "reduced", (rows, pivots)


def _pivot_combination(eq_rows, pivots, target):
    """Multipliers over the equality rows, nonzero on the pivot rows p_j
    only, whose combination equals `target` on the pivot columns c_j: one
    square solve against the transposed pivot block, with `target` scaled
    to integers by the lcm of its denominators.
    """
    target = [Fraction(v) for v in target]
    scale = math.lcm(*(v.denominator for v in target))
    system = [
        [eq_rows[p][0][c] for p, _ in pivots] + [int(v * scale)]
        for v, (_, c) in zip(target, pivots)
    ]
    nums, det = solve_square(system, len(pivots))
    mult = [_ZERO] * len(eq_rows)
    for v, (p, _) in zip(nums, pivots):
        mult[p] = Fraction(v, det * scale)
    return mult


def _eq_multipliers(eq_rows, pivots, reduced, mu_red):
    """Multipliers over the equality rows equal to the combination mu_red
    of the reduced rows, each taken with rhs >= 0 as the simplex uses it.

    A reduced row is (pivot block)^-1 times the pivot rows, so the
    combination is the one of the pivot rows that equals mu_red, with each
    row's sign flip folded in, on the pivot columns.
    """
    signed = [-m if rhs < 0 else m for m, (_, rhs) in zip(mu_red, reduced)]
    return _pivot_combination(eq_rows, pivots, signed)


def _solve_nonneg(eq_rows, le_rows, nvars):
    """Feasibility of {A_eq x = b_eq, A_le x <= b_le, x >= 0} over Fractions,
    for integer A_eq and rational b_eq.

    Returns (True, x, None) or (False, None, multipliers) where the
    multipliers are per input row, ordered eq rows then le rows, oriented
    so that the combined row has coefficients >= 0 and constant < 0.
    """
    for coeffs, rhs in le_rows:
        if rhs < 0:
            raise InternalError("le rows with negative rhs are not used here")

    status, presolved = _presolve(eq_rows, nvars)
    if status == "infeasible":
        return False, None, list(presolved) + [_ZERO] * len(le_rows)
    reduced, pivots = presolved

    # Normalize reduced equality rows to rhs >= 0; the multipliers of an
    # infeasible answer fold the sign back in.
    red = [
        ([-v for v in coeffs], -rhs) if rhs < 0 else (list(coeffs), rhs)
        for coeffs, rhs in reduced
    ]

    n_eq = len(red)
    n_le = len(le_rows)
    n_cols = nvars + n_le + n_eq  # x, slacks, artificials
    rows = []
    basis = []
    for k, (coeffs, rhs) in enumerate(le_rows):
        row = [Fraction(v) for v in coeffs] + [_ZERO] * (n_le + n_eq) + [rhs]
        row[nvars + k] = _ONE
        rows.append(row)
        basis.append(nvars + k)
    for j, (coeffs, rhs) in enumerate(red):
        row = list(coeffs) + [_ZERO] * (n_le + n_eq) + [rhs]
        row[nvars + n_le + j] = _ONE
        rows.append(row)
        basis.append(nvars + n_le + j)

    # Phase-1 cost row (minimize the artificial sum), with basic columns
    # already priced out; cost[-1] is -objective.
    cost = [_ZERO] * (n_cols + 1)
    for j in range(n_le, n_le + n_eq):
        row = rows[j]
        for c in range(n_cols + 1):
            cost[c] -= row[c]
    for j in range(nvars + n_le, n_cols):
        cost[j] += _ONE

    # Bland's rule on a fixed column order guarantees termination and a
    # reproducible basic solution.
    while True:
        enter = -1
        for j in range(n_cols):
            if cost[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best = None
        for r, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                ratio = row[-1] / a
                if best is None or ratio < best or (
                    ratio == best and basis[r] < basis[leave]
                ):
                    best = ratio
                    leave = r
        if leave < 0:
            raise InternalError("phase-1 objective is bounded; no ratio row is a bug")
        prow = rows[leave]
        pc = prow[enter]
        if pc != 1:
            rows[leave] = prow = [v / pc for v in prow]
        for r, row in enumerate(rows):
            if r != leave and row[enter] != 0:
                f = row[enter]
                rows[r] = [a - f * b for a, b in zip(row, prow)]
        if cost[enter] != 0:
            f = cost[enter]
            cost = [a - f * b for a, b in zip(cost, prow)]
        basis[leave] = enter

    objective = -cost[-1]
    if objective == 0:
        x = [_ZERO] * nvars
        for r, b in enumerate(basis):
            if b < nvars:
                x[b] = rows[r][-1]
        return True, x, None

    # Infeasible: recover row multipliers from the reduced costs of the
    # initial basis columns, then push them back through the presolve.
    mu_le = [cost[nvars + k] for k in range(n_le)]
    mu_red = [cost[nvars + n_le + j] - _ONE for j in range(n_eq)]
    return False, None, _eq_multipliers(eq_rows, pivots, reduced, mu_red) + mu_le


def _solve_reduced_system(n, support, fixed):
    free = [i for i in range(1, n + 1) if i not in fixed]
    nvars = len(free)
    # duplicate rows need no filter: the presolve never pivots on a later
    # copy, which eliminates to 0 == 0 and gets multiplier 0
    rows = []
    for m in support:
        bits = mask_bits(m, n)
        rows.append(([bits[i - 1] for i in free], _HALF))
    feasible, x, mult = _solve_nonneg(rows, [([1] * nvars, _ONE)], nvars)
    if feasible:
        z = [_ZERO] * n
        for pos, i in enumerate(free):
            z[i - 1] = x[pos]
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
    fixed_set = frozenset(fixed)
    if not fixed_set <= set(range(1, g.n + 1)):
        raise SchemaError(f"fixed bits {sorted(fixed_set)} outside 1..{g.n}")
    return _decide_cached(g.n, g.support, fixed_set)


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
    if result.feasible:
        w = result.witness
        if w is None or result.certificate is not None or len(w.z) != n:
            return False
        if any(v < 0 for v in w.z):
            return False
        if any(w.z[i - 1] != 0 for i in fixed):
            return False
        if sum(w.z, _ZERO) > 1:
            return False
        for mask in support:
            total = sum(v for v, b in zip(w.z, mask_bits(mask, n)) if b)
            if total != _HALF:
                return False
        return True

    cert = result.certificate
    if cert is None or result.witness is not None:
        return False
    mult = cert.multipliers
    if len(mult) != len(support) + 1:
        return False
    mu_le = mult[-1]
    if mu_le < 0:
        return False
    combined_rhs = mu_le * _ONE
    for mu, mask in zip(mult, support):
        combined_rhs += mu * _HALF
    if combined_rhs >= 0:
        return False
    bits = [mask_bits(mask, n) for mask in support]
    for i in range(1, n + 1):
        if i in fixed:
            continue
        coef = mu_le
        for mu, row in zip(mult, bits):
            if row[i - 1]:
                coef += mu
        if coef < 0:
            return False
    return True


def verify_result(g: ReducedFn, result: FeasibilityResult, fixed: Iterable[int] = ()) -> bool:
    """Re-check a reduced-system answer with plain exact arithmetic.

    Feasible answers are checked against every support equation, the sign
    constraints and the sum bound; infeasible answers are checked by
    multiplying out the certificate. Returns False on any violation.
    """
    return _verify_reduced(g.n, g.support, result, frozenset(fixed))


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
