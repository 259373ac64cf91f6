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
# Solver core: phase-1 simplex on an integer tableau after a fraction-free
# presolve.
# ---------------------------------------------------------------------------

def _presolve(eq_rows, nvars):
    """Row-reduce the equality rows in integers.

    Each row (integer coeffs, rational rhs) is scaled by its rhs
    denominator and eliminated fraction-free, one row step at a time
    (`intlinalg.extend_echelon`), with the rhs as the last column. A row
    pivots on the first column where it leaves the span of the rows
    before it, so the pivot rows are the first rows that span the system
    and their pivot columns are those of the reduced row echelon form.
    Returns ('infeasible', multipliers) when the equalities alone are
    contradictory, else ('reduced', (rows, pivots)): one integer row
    [coeffs | rhs] per pivot (row index, column), in column order, equal
    to |det| times the matching row of the reduced row echelon form. Its
    entry on its own pivot column is |det| > 0, the factor to divide by.
    """
    prefix = ()
    pivots = []  # (row index, column), in row order
    for r, (coeffs, rhs) in enumerate(eq_rows):
        scale = rhs.denominator  # an int or a Fraction
        longer = extend_echelon(prefix, [scale * v for v in coeffs] + [rhs.numerator], nvars + 1)
        if longer is None:
            continue  # a combination of the rows before it, rhs included
        c = longer[-1][1]
        if c == nvars:
            # 0 == rhs with rhs != 0: row r minus its combination of the
            # pivot rows certifies, scaled so the constant is -1.
            y = _pivot_combination(eq_rows, pivots, [coeffs[col] for _, col in pivots])
            comb = [-v for v in y]
            comb[r] = _ONE
            constant = sum((m * rhs for m, (_, rhs) in zip(comb, eq_rows)), _ZERO)
            return "infeasible", [-m / constant for m in comb]
        prefix = longer
        pivots.append((r, c))

    det = pivot_value(prefix)
    rows = reduce_pivot_rows(prefix, det)
    if det < 0:
        rows = [[-v for v in row] for row in rows]
    order = sorted(range(len(pivots)), key=lambda j: pivots[j][1])
    return "reduced", ([rows[j] for j in order], [pivots[j] for j in order])


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
    signed = [-m if row[-1] < 0 else m for m, row in zip(mu_red, reduced)]
    return _pivot_combination(eq_rows, pivots, signed)


def _primitive(row):
    """`row` divided by the gcd of its entries (a positive factor)."""
    g = math.gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _solve_nonneg(eq_rows, le_rows, nvars):
    """Feasibility of {A_eq x = b_eq, A_le x <= b_le, x >= 0} for integer
    A_eq, A_le and int or Fraction b_eq, b_le >= 0, by a phase-1 simplex on
    an integer tableau.

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

    # Every tableau row is an integer vector known only up to a positive
    # factor: the rational row is the integer one divided by its entry on
    # its basic column. Slacks start basic on the le rows, artificials on
    # the reduced equality rows, each row negated where needed so that its
    # rhs is >= 0; the multipliers of an infeasible answer fold the sign
    # back in.
    n_eq = len(reduced)
    n_le = len(le_rows)
    n_cols = nvars + n_le + n_eq  # x, slacks, artificials
    rows = []
    basis = []
    for k, (coeffs, rhs) in enumerate(le_rows):
        den = rhs.denominator
        row = [den * v for v in coeffs] + [0] * (n_le + n_eq) + [rhs.numerator]
        row[nvars + k] = den
        rows.append(_primitive(row))
        basis.append(nvars + k)
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
        row = red[:-1] + [0] * (n_le + n_eq) + [red[-1]]
        row[nvars + n_le + j] = cden
        cost = [a - b for a, b in zip(cost, row)]
        rows.append(_primitive(row))
        basis.append(nvars + n_le + j)
    for j in range(nvars + n_le, n_cols):
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
        x = [_ZERO] * nvars
        for row, b in zip(rows, basis):
            if b < nvars:
                x[b] = Fraction(row[-1], row[b])
        return True, x, None

    # Infeasible: recover row multipliers from the reduced costs of the
    # initial basis columns, then push them back through the presolve.
    mu_le = [Fraction(cost[nvars + k], cden) for k in range(n_le)]
    mu_red = [Fraction(cost[nvars + n_le + j] - cden, cden) for j in range(n_eq)]
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
