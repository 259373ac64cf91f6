"""Independent brute-force oracles for the test suite.

Everything here is deliberately dumb and shares no code with the solver:
feasibility by enumerating basic solutions of the equality system over
every column subset (for the reduced system, and for the unreduced one
over z_0..z_n that `decide` answers), answers re-checked in Fractions (a
`decide` answer by multiplying out every weight or multiplier against
every sign, a reduced-system answer against every support equation),
arrangement vertices by solving every square system, whether a line
has a point with x > 0 and sum(x) <= total by trying every breakpoint of
its bounds, the midpoints between them and a point beyond each end, the
presolve by rational Gauss-Jordan elimination that carries every row's
combination of the input rows, difference sets by looping over input pairs,
group-weight supports by scanning all masks, Hamming levels by
counting bits, polynomial input classes by summing each mask's
coefficients, the vertex-table rows covering a support by testing
the support against every row, the masks of a support key by
testing its bits one at a time, relabelled supports by moving each
mask's bits one at a time (`bf_permute_support`), orbits under bit
relabelling by trying all n! relabellings of every support
(`bf_group_orbits`), maximal supersets by testing every pair of keys
(`bf_inclusion`), and the non-trivial records with no non-trivial
strict superset by testing every pair (`bf_nontrivial_maximal`).
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

HALF = Fraction(1, 2)


def bit(mask: int, i: int, n: int) -> int:
    return (mask >> (n - i)) & 1


def _solve_exact(rows, cols):
    """Solve the given rows restricted to `cols` for a unique solution.

    rows: list of (coeff_list_over_cols, rhs). Returns the solution list
    or None when the system is inconsistent or underdetermined.
    """
    m = len(rows)
    k = len(cols)
    a = [[Fraction(c) for c in coeffs] + [Fraction(rhs)] for coeffs, rhs in rows]
    rank = 0
    where = [-1] * k
    for col in range(k):
        piv = None
        for r in range(rank, m):
            if a[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        pr = a[rank]
        pv = pr[col]
        a[rank] = pr = [v / pv for v in pr]
        for r in range(m):
            if r != rank and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], pr)]
        where[col] = rank
        rank += 1
    for r in range(rank, m):
        if a[r][k] != 0:
            return None  # inconsistent
    if rank < k:
        return None  # underdetermined
    return [a[where[c]][k] for c in range(k)]


def bf_presolve(eq_rows, nvars):
    """Gauss-Jordan elimination over Fractions that tracks each row as a
    combination of the input rows.

    Pivot rule: for each column in order, the first row not yet pivoted,
    in input order, with a nonzero entry. Returns ('infeasible',
    multipliers) for the first row left as 0 == rhs with rhs != 0 (its
    combination scaled so the constant is -1), else ('reduced', rows, pivot
    row indices) where each row is (coeffs, rhs, comb) in pivot order.
    """
    m = len(eq_rows)
    work = []
    for idx, (coeffs, rhs) in enumerate(eq_rows):
        comb = [Fraction(0)] * m
        comb[idx] = Fraction(1)
        work.append([[Fraction(v) for v in coeffs], Fraction(rhs), comb])
    pivot_rows = []
    for col in range(nvars):
        pr = next((r for r in range(m) if r not in pivot_rows and work[r][0][col] != 0), None)
        if pr is None:
            continue
        pivot_rows.append(pr)
        pc = work[pr][0][col]
        pcoef, prhs, pcomb = work[pr] = [
            [v / pc for v in work[pr][0]], work[pr][1] / pc, [v / pc for v in work[pr][2]]
        ]
        for r in range(m):
            f = work[r][0][col]
            if r != pr and f != 0:
                work[r] = [
                    [a - f * b for a, b in zip(work[r][0], pcoef)],
                    work[r][1] - f * prhs,
                    [a - f * b for a, b in zip(work[r][2], pcomb)],
                ]
    for r in range(m):
        if r not in pivot_rows and work[r][1] != 0:
            scale = -1 / work[r][1]
            return "infeasible", [v * scale for v in work[r][2]]
    return "reduced", [tuple(work[r]) for r in pivot_rows], pivot_rows


def bf_feasible(n: int, support) -> bool:
    """Oracle for the reduced weight system: try every vertex pattern.

    A vertex of {A z = 1/2, z >= 0, sum z <= 1} pins each coordinate either
    to 0 or by the active rows (optionally including the tight sum row), so
    scanning all column subsets with and without the sum row is exhaustive.
    """
    eq = [([bit(m, i, n) for i in range(1, n + 1)], HALF) for m in support]
    for subset in range(1 << n):
        cols = [i for i in range(n) if subset >> i & 1]
        restricted = [([coeffs[c] for c in cols], rhs) for coeffs, rhs in eq]
        for with_sum in (False, True):
            rows = restricted + ([([1] * len(cols), Fraction(1))] if with_sum else [])
            sol = _solve_exact(rows, cols)
            if sol is None:
                continue
            if any(v < 0 for v in sol):
                continue
            if sum(sol, Fraction(0)) > 1:
                continue
            # re-check every original equation with zeros filled in
            full = [Fraction(0)] * n
            for c, v in zip(cols, sol):
                full[c] = v
            if all(
                sum((full[i - 1] for i in range(1, n + 1) if bit(m, i, n)), Fraction(0)) == HALF
                for m in support
            ):
                return True
    return False


def _sign_rows(n: int, ones, zeros):
    """Sign vector over z_0..z_n of every XOR difference d, in sorted order:
    +1 on z_0, and (-1)**x_i on z_i."""
    return tuple(
        (1,) + tuple(1 - 2 * bit(d, i, n) for i in range(1, n + 1))
        for d in bf_diff_set(ones, zeros)
    )


def bf_decide_unreduced(f) -> bool:
    """Oracle for the unreduced system of a promise function: z_0..z_n >= 0
    with sum(z) == 1 and sign_vector(d) . z == 0 for every XOR difference d.

    The solution set is bounded, so it is nonempty iff it has a basic
    solution; every column subset is tried, all other columns at 0.
    """
    return _bf_unreduced(f.n, _sign_rows(f.n, f.ones, f.zeros))


@lru_cache(maxsize=None)
def _bf_unreduced(n, signs):
    rows = [([1] * (n + 1), 1)] + [(sv, 0) for sv in signs]
    for subset in range(1, 1 << (n + 1)):
        cols = [j for j in range(n + 1) if subset >> j & 1]
        sol = _solve_exact([([coeffs[c] for c in cols], rhs) for coeffs, rhs in rows], cols)
        if sol is not None and all(v >= 0 for v in sol):
            return True
    return False


def bf_verify_decision(f, result) -> bool:
    """Re-check a `decide` answer against the unreduced system in Fractions,
    each multiplier or weight times each +-1 sign."""
    n = f.n
    signs = _sign_rows(n, f.ones, f.zeros)
    if result.feasible:
        w = result.witness
        if w is None or len(w.z) != n:
            return False
        full = (w.z0,) + w.z
        if any(v < 0 for v in full):
            return False
        if sum(full, Fraction(0)) != 1:
            return False
        for sv in signs:
            if sum(s * v for s, v in zip(sv, full)) != 0:
                return False
        return True

    cert = result.certificate
    if cert is None:
        return False
    mult = cert.multipliers
    if len(mult) != len(signs) + 1:
        return False
    if mult[0] >= 0:  # combined constant: the normalization row's 1 only
        return False
    for col in range(n + 1):
        coef = mult[0]
        for mu, sv in zip(mult[1:], signs):
            coef += mu * sv[col]
        if coef < 0:
            return False
    return True


def bf_verify_reduced(n: int, support, result, fixed=()) -> bool:
    """Re-check a reduced-system answer in Fractions: each support equation
    summed to 1/2, the signs, the pinned bits and the sum bound for a
    witness; for a certificate, mu_le >= 0, the combined constant < 0 and
    each free column's coefficient >= 0."""
    if result.feasible:
        w = result.witness
        if w is None or result.certificate is not None or len(w.z) != n:
            return False
        if any(v < 0 for v in w.z) or any(w.z[i - 1] != 0 for i in fixed):
            return False
        if sum(w.z, Fraction(0)) > 1:
            return False
        return all(
            sum((w.z[i - 1] for i in range(1, n + 1) if bit(m, i, n)), Fraction(0)) == HALF
            for m in support
        )

    cert = result.certificate
    if cert is None or result.witness is not None:
        return False
    mult = cert.multipliers
    if len(mult) != len(support) + 1:
        return False
    mu_le = mult[-1]
    if mu_le < 0:
        return False
    if mu_le + sum((mu * HALF for mu in mult[:-1]), Fraction(0)) >= 0:
        return False
    for i in range(1, n + 1):
        if i in fixed:
            continue
        coef = mu_le + sum((mu for mu, m in zip(mult, support) if bit(m, i, n)), Fraction(0))
        if coef < 0:
            return False
    return True


def bf_unique_solution(n: int, support):
    """The unique solution of the full equality system, if there is one.

    Returns the length-n solution when the support equations pin every
    coordinate (regardless of signs), else None.
    """
    eq = [([bit(m, i, n) for i in range(1, n + 1)], HALF) for m in support]
    return _solve_exact(eq, list(range(n)))


def bf_vertices(n: int):
    """Vertices of the arrangement {sum of z over m = 1/2 for every nonzero
    mask m, z_i = 0, sum z = 1} inside the simplex z >= 0, sum z <= 1.

    Solves every choice of n of the 2**n + n rows, with no symmetry used.
    """
    rows = [([bit(m, i, n) for i in range(1, n + 1)], HALF) for m in range(1, 1 << n)]
    rows += [([int(i == j) for j in range(n)], 0) for i in range(n)]
    rows.append(([1] * n, 1))
    out = set()
    for combo in combinations(rows, n):
        sol = _solve_exact(list(combo), list(range(n)))
        if sol is not None and all(v >= 0 for v in sol) and sum(sol) <= 1:
            out.add(tuple(sol))
    return out


def bf_line_meets_interior(w, u, det, total) -> bool:
    """Whether some t gives x = (w + t * u) / det every x_i > 0 and
    sum(x) <= total, in Fractions: the set of such t is an interval whose
    ends are among the breakpoints -w_i / u_i and the sum wall's, so it
    holds a breakpoint, the midpoint of two adjacent ones, or a point
    beyond both ends, if it is nonempty."""
    cuts = {Fraction(-a, b) for a, b in zip(w, u) if b}
    if sum(u):
        cuts.add(Fraction(total * det - sum(w), sum(u)))
    cuts = sorted(cuts) or [Fraction(0)]
    tries = cuts + [(a + b) / 2 for a, b in zip(cuts, cuts[1:])] + [cuts[0] - 1, cuts[-1] + 1]
    for t in tries:
        x = [Fraction(a + t * b, det) for a, b in zip(w, u)]
        if all(v > 0 for v in x) and sum(x) <= total:
            return True
    return False


def bf_inclusion(keys):
    """Each distinct support key mapped to its first maximal strict
    superset among `keys`, or to None when no key strictly contains it, by
    testing every pair. "First" is more masks first, then the smaller key."""
    keys = set(keys)

    def inside(k, m):
        return k & m == k and k != m

    maximal = [m for m in keys if not any(inside(m, o) for o in keys)]
    return {
        k: min((m for m in maximal if inside(k, m)), key=lambda m: (-bin(m).count("1"), m), default=None)
        for k in keys
    }


def bf_cover(table, key: int):
    """(witness, zero-bit key, parent) of a support key read from
    vertex-table rows (class key, zero-bit key, weights) by scanning every
    row: the rows whose class key contains the key, the first one's
    weights, the OR of their zero bits, and the first of their class keys
    that none of them strictly contains (`bf_inclusion`), which is the key
    itself when it is maximal; None when no row covers the key."""
    rows = [row for row in table if key & row[0] == key]
    if not rows:
        return None
    zeros = 0
    for row in rows:
        zeros |= row[1]
    maximal = [cls for cls, parent in bf_inclusion(row[0] for row in rows).items() if parent is None]
    return rows[0][2], zeros, min(maximal, key=lambda m: (-bin(m).count("1"), m))


def bf_key_support(key: int):
    """The masks of a support key, ascending: mask m is in the support iff
    bit m - 1 of the key is set."""
    return tuple(m for m in range(1, key.bit_length() + 1) if key >> (m - 1) & 1)


def bf_input_classes(n: int, nums, den: int):
    """(0-class, 1-class, other) of sum(nums_i * x_i) / den, summing the
    nums of each mask's set bits."""
    classes = ([], [], [])
    for mask in range(1 << n):
        total = sum(nums[i - 1] for i in range(1, n + 1) if bit(mask, i, n))
        classes[0 if total == 0 else 1 if total == den else 2].append(mask)
    return tuple(tuple(c) for c in classes)


def bf_diff_set(ones, zeros):
    return tuple(sorted({a ^ b for a in zeros for b in ones}))


def bf_symmetric(n: int, ones, zeros) -> bool:
    """Direct definition check over all mask pairs of equal weight."""
    value = {}
    for m in ones:
        value[m] = 1
    for m in zeros:
        value[m] = 0
    for x in range(1 << n):
        for y in range(1 << n):
            if bin(x).count("1") != bin(y).count("1"):
                continue
            if x in value and y in value and value[x] != value[y]:
                return False
            if (x in value) != (y in value):
                return False
    return True


def bf_dj_computable(n: int, support) -> bool:
    """Every mask of the support on one Hamming level c with
    ceil(n/2) <= c <= n, by counting the bits of each mask."""
    levels = {bin(m).count("1") for m in support}
    return len(levels) == 1 and (n + 1) // 2 <= min(levels) <= n


def bf_group_ones(boundaries, values, n):
    """All masks whose groupwise weight combination hits 1/2, by direct scan."""
    ones = []
    for mask in range(1, 1 << n):
        total = Fraction(0)
        for g in range(len(values)):
            lo, hi = boundaries[g], boundaries[g + 1]
            w = sum(bit(mask, i, n) for i in range(lo + 1, hi + 1))
            total += values[g] * w
        if total == HALF:
            ones.append(mask)
    return tuple(ones)


def bf_permute_support(support, perm, n: int):
    """A support relabelled by a permutation of 1..n, ascending: bit
    perm[i - 1] of each image mask is bit i of the mask."""
    return tuple(sorted(
        sum(bit(m, i, n) << (n - perm[i - 1]) for i in range(1, n + 1)) for m in support
    ))


def bf_group_orbits(supports, n: int):
    """Supports grouped by their lexicographically smallest relabelling,
    found by trying all n! of them: canonical form -> members ascending,
    keys ascending."""
    orbits = {}
    for support in supports:
        canon = min(bf_permute_support(support, perm, n) for perm in permutations(range(1, n + 1)))
        orbits.setdefault(canon, []).append(tuple(sorted(support)))
    return {canon: sorted(members) for canon, members in sorted(orbits.items())}


def bf_nontrivial_maximal(records):
    """The non-trivial records no other non-trivial record's support
    strictly contains, in input order, by testing every pair."""
    nontrivial = [r for r in records if r.non_trivial]
    return [
        r for r in nontrivial
        if not any(set(r.support) < set(other.support) for other in nontrivial)
    ]
