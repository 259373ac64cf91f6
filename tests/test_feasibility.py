import collections
import hashlib
import itertools
import random
from fractions import Fraction as F

import pytest

from exact1q.core import PartialBooleanFn, diff_set, from_strings, sign_vector, string_to_mask
from exact1q.errors import ConstantFunctionError, SchemaError
from exact1q.feasibility import (
    _pivot_combination,
    _presolve,
    FarkasWitness,
    FeasibilityResult,
    WeightVector,
    _decide_cached,
    _verify_reduced,
    decide,
    decide_reduced,
    decide_with_fixed_zeros,
    verify_decision,
    verify_result,
)
from exact1q.poly import represent
from exact1q.reduction import ReducedFn, reduce

from bruteforce import (
    bf_decide_unreduced,
    bf_feasible,
    bf_presolve,
    bf_verify_decision,
    bf_verify_reduced,
    bit,
)
from seeded import seeded_functions


def g(n, *bits):
    return ReducedFn(n, [string_to_mask(b, n) for b in bits])


def test_symmetric_three_bit_witness_is_unique():
    res = decide_reduced(g(3, "110", "101", "011"))
    assert res.feasible
    assert res.witness.z == (F(1, 4), F(1, 4), F(1, 4))
    assert verify_result(g(3, "110", "101", "011"), res)


def test_counterexample_support_is_infeasible():
    inst = g(3, "001", "010", "111")
    res = decide_reduced(inst)
    assert not res.feasible
    assert res.certificate is not None
    assert verify_result(inst, res)


def test_four_bit_star_support_witness():
    inst = g(4, "1100", "1010", "1001", "0111")
    res = decide_reduced(inst)
    assert res.feasible
    assert res.witness.z == (F(1, 3), F(1, 6), F(1, 6), F(1, 6))
    assert verify_result(inst, res)


def test_underdetermined_support_any_split_works():
    res = decide_reduced(g(2, "11"))
    assert res.feasible
    assert res.witness.z[0] + res.witness.z[1] == F(1, 2)
    assert verify_result(g(2, "11"), res)


def test_sum_bound_infeasibility():
    # each singleton forces z_i = 1/2, and three of them break the sum bound
    inst = g(3, "100", "010", "001")
    res = decide_reduced(inst)
    assert not res.feasible
    assert verify_result(inst, res)


def test_determinism():
    inst = g(4, "1100", "1011", "0111")
    first = decide_reduced(inst)
    second = decide_reduced(ReducedFn(4, inst.support))
    assert first == second


def test_decide_deutsch():
    f = from_strings(2, ones=["01", "10"], zeros=["00", "11"])
    res = decide(f)
    assert res.feasible
    assert res.witness.z == (F(1, 2), F(1, 2))
    assert res.witness.z0 == 0
    assert verify_decision(f, res)


def test_decide_balanced_level_function():
    ones = ["0011", "0101", "0110", "1001", "1010", "1100"]
    f = from_strings(4, ones=ones, zeros=["0000", "1111"])
    res = decide(f)
    assert res.feasible
    assert res.witness.z == (F(1, 4),) * 4
    assert res.witness.z0 == 0


def test_decide_rejects_constant():
    with pytest.raises(ConstantFunctionError):
        decide(PartialBooleanFn(2, ones=[0, 3]))


def test_decide_agrees_with_unreduced_oracle_n3():
    rnd = random.Random(7)
    for _ in range(300):
        ones_bits = rnd.randrange(1, 256)
        zeros_bits = rnd.randrange(1, 256)
        if ones_bits & zeros_bits:
            continue
        f = PartialBooleanFn(
            3,
            ones=[m for m in range(8) if ones_bits >> m & 1],
            zeros=[m for m in range(8) if zeros_bits >> m & 1],
        )
        assert decide(f).feasible == bf_decide_unreduced(f)


def test_precheck_bound():
    # a feasible function has at most 2**(n-1) differences
    ones = ["0011", "0101", "0110", "1001", "1010", "1100"]
    f = from_strings(4, ones=ones, zeros=["0000", "1111"])
    assert len(diff_set(f)) <= 1 << (4 - 1)  # 6 differences <= 8

    f2 = from_strings(2, ones=["01", "10"], zeros=["00", "11"])
    assert len(diff_set(f2)) <= 1 << (2 - 1)  # 2 <= 2

    f3 = from_strings(2, ones=["01", "10", "11"], zeros=["00"])
    assert not len(diff_set(f3)) <= 1 << (2 - 1)  # 3 > 2


def test_precheck_necessary_for_feasibility_n3(records3):
    for rec in records3:
        if rec.feasible:
            f = PartialBooleanFn(3, ones=rec.support, zeros=(0,))
            assert len(diff_set(f)) <= 1 << (3 - 1)


def _mutants(result):
    """Corrupted copies of a `decide` answer: a witness weight shifted by
    1/1000, or a certificate with nu_0 negated or one multiplier tripled."""
    if result.feasible:
        z = list(result.witness.z)
        i = next(i for i, v in enumerate(z) if v > 0)
        z[i] -= F(1, 1000)
        return [FeasibilityResult(True, witness=WeightVector(tuple(z)))]
    mult = list(result.certificate.multipliers)
    negated = [-mult[0]] + mult[1:]
    k = next(k for k in range(1, len(mult)) if mult[k] != 0)
    tripled = mult[:k] + [3 * mult[k]] + mult[k + 1:]
    return [FeasibilityResult(False, certificate=FarkasWitness(tuple(m))) for m in (negated, tripled)]


def test_verify_decision_matches_fraction_oracle():
    # the integer verifier agrees with the Fraction one on every answer and
    # every mutant; the answer is the reduced one, witness unchanged
    mutants = 0
    for f in seeded_functions((10, 11, 12, 13)):
        res = decide(f)
        assert verify_decision(f, res) and bf_verify_decision(f, res)
        assert res.witness == decide_reduced(reduce(f)).witness
        for bad in _mutants(res):
            assert not verify_decision(f, bad)
            assert not bf_verify_decision(f, bad)
            mutants += 1
    assert mutants == 40


def _tampered(result):
    """A reduced-system answer with one witness entry changed (the first
    positive one lowered by 1/1000) or one multiplier negated (the first
    nonzero one), and with one entry too many."""
    if result.feasible:
        z = list(result.witness.z)
        i = next(i for i, v in enumerate(z) if v > 0)
        changed = z[:i] + [z[i] - F(1, 1000)] + z[i + 1:]
        return [FeasibilityResult(True, witness=WeightVector(tuple(v))) for v in (changed, z + [F(0)])]
    mult = list(result.certificate.multipliers)
    k = next(k for k, m in enumerate(mult) if m != 0)
    negated = mult[:k] + [-mult[k]] + mult[k + 1:]
    return [FeasibilityResult(False, certificate=FarkasWitness(tuple(m))) for m in (negated, mult + [F(0)])]


def test_verify_reduced_matches_fraction_oracle(records4):
    # the integer self-check and the Fraction oracle agree on every small
    # answer and on every tampered copy of it
    rejected = collections.Counter()
    for n, support, fixed in _small_queries(records4):
        res = _decide_cached(n, support, fixed)
        assert _verify_reduced(n, support, res, fixed) and bf_verify_reduced(n, support, res, fixed)
        for kind, bad in zip(("changed", "length"), _tampered(res)):
            ok = _verify_reduced(n, support, bad, fixed)
            assert ok == bf_verify_reduced(n, support, bad, fixed), (support, fixed, bad)
            rejected[res.feasible, kind] += not ok
    # every tampered copy is rejected: 7,904 feasible answers, 5,577 not
    assert rejected == {
        (True, "changed"): 7904,
        (True, "length"): 7904,
        (False, "changed"): 5577,
        (False, "length"): 5577,
    }


def test_decide_then_represent_solves_one_lp():
    f = seeded_functions((10,))[0]
    _decide_cached.cache_clear()
    assert decide(f).feasible
    represent(reduce(f))
    assert _decide_cached.cache_info().misses == 1


def test_fixed_zero_probes():
    sym = g(3, "110", "101", "011")
    assert not decide_with_fixed_zeros(sym, {1}).feasible

    assert decide_with_fixed_zeros(sym, set()) == decide_reduced(sym)

    res = decide_with_fixed_zeros(g(3, "011"), {1})
    assert res.feasible
    assert res.witness.z[0] == 0
    assert res.witness.z[1] + res.witness.z[2] == F(1, 2)


def test_fixed_zero_probe_on_mask_inside_fixed_bits():
    # pinning the only set bit of a support mask leaves 0 == 1/2
    res = decide_with_fixed_zeros(g(2, "10"), {1})
    assert not res.feasible
    assert verify_result(g(2, "10"), res, fixed={1})


def test_fixed_zeros_validation():
    with pytest.raises(SchemaError):
        decide_with_fixed_zeros(g(2, "10"), {3})


@pytest.mark.parametrize("bit", [0, 3])
def test_verify_result_rejects_fixed_bits_outside_1_to_n(bit):
    # bit 0 used to check the last weight, wrongly rejecting the valid
    # witness (0, 1/2) of {01, 11}, and bit n + 1 to raise IndexError
    inst = g(2, "01", "11")
    res = decide_reduced(inst)
    assert res.witness.z == (0, F(1, 2))
    with pytest.raises(SchemaError, match=rf"fixed bits \[{bit}\] outside 1\.\.2"):
        verify_result(inst, res, fixed=[bit])


def test_verify_result_rejects_corrupted_answers():
    inst = g(3, "110", "101", "011")
    res = decide_reduced(inst)
    bad = FeasibilityResult(True, witness=WeightVector((F(1, 4), F(1, 4), F(1, 2))))
    assert not verify_result(inst, bad)

    with pytest.raises(SchemaError):
        WeightVector((F(-1, 4), F(1, 4), F(1, 4)))

    infeasible = g(3, "001", "010", "111")
    cert = decide_reduced(infeasible).certificate
    assert verify_result(infeasible, decide_reduced(infeasible))
    # a shuffled certificate must not verify against a different system
    assert not verify_result(inst, FeasibilityResult(False, certificate=cert))

    zeroed = FarkasWitness(tuple(F(0) for _ in cert.multipliers))
    assert not verify_result(infeasible, FeasibilityResult(False, certificate=zeroed))


def test_oracle_equivalence_exhaustive_n3():
    for key in range(1, 1 << 7):
        support = tuple(m for m in range(1, 8) if key >> (m - 1) & 1)
        assert decide_reduced(ReducedFn(3, support)).feasible == bf_feasible(3, support)


def test_downward_closure_n3(records3):
    by_support = {r.support: r for r in records3}
    for rec in records3:
        if rec.feasible and len(rec.support) > 1:
            for m in rec.support:
                smaller = tuple(x for x in rec.support if x != m)
                assert by_support[smaller].feasible


def test_permutation_equivariance_n3(records3):
    from exact1q.classify import permute_support

    by_support = {r.support: r for r in records3}
    for rec in records3:
        for perm in itertools.permutations((1, 2, 3)):
            image = permute_support(rec.support, perm, 3)
            assert by_support[image].feasible == rec.feasible


def test_every_answer_verifies_n3(records3):
    for rec in records3:
        inst = ReducedFn(3, rec.support)
        assert verify_result(inst, decide_reduced(inst))


def _check_presolve(eq_rows, nvars):
    """The integer presolve of rows [a | b] agrees with the rational oracle
    on the pairs (a, b): same status, same pivot rows, same reduced rows,
    and the same multipliers on both infeasible branches. For the simplex
    branch the rebuild is linear in the reduced-row combination, so each
    unit combination is checked, over denominators 1 and 7."""
    got = _presolve(eq_rows, nvars)
    want = bf_presolve([(row[:-1], row[-1]) for row in eq_rows], nvars)
    assert got[0] == want[0]
    if want[0] == "infeasible":
        assert got[1] == want[1]
        return want[0]
    rows, pivots = got[1]
    assert [r for r, _ in pivots] == want[2]
    # an integer row over its entry on its own pivot column is the rational row
    assert all(row[c] > 0 for row, (_, c) in zip(rows, pivots))
    rational = [
        ([F(v, row[c]) for v in row[:-1]], F(row[-1], row[c])) for row, (_, c) in zip(rows, pivots)
    ]
    assert rational == [(coeffs, rhs) for coeffs, rhs, _ in want[1]]
    for j, (_, _, comb) in enumerate(want[1]):
        for den in (1, 7):
            nums = [den * int(i == j) for i in range(len(rows))]
            assert _pivot_combination(eq_rows, pivots, nums, den) == comb
    return want[0]


def _reduced_rows(n, support, fixed=()):
    free = [i for i in range(1, n + 1) if i not in fixed]
    # the rows [bits | 1] in w = 2z; duplicate rows are kept, as the solver keeps them
    return [[bit(m, i, n) for i in free] + [1] for m in support], len(free)


def test_presolve_matches_oracle_n_le_3():
    seen = set()
    for n in (1, 2, 3):
        for key in range(1, 1 << ((1 << n) - 1)):
            support = [m for m in range(1, 1 << n) if key >> (m - 1) & 1]
            for size in range(n + 1):
                for fixed in itertools.combinations(range(1, n + 1), size):
                    seen.add(_check_presolve(*_reduced_rows(n, support, fixed)))
    assert seen == {"infeasible", "reduced"}


def _walk_solved(records4):
    """Every n=4 support the levelwise walk solves, in support-key order:
    the feasible ones and the infeasible ones whose immediate subsets are
    all feasible."""
    feasible = {r.support for r in records4 if r.feasible}
    solved = [
        r.support
        for r in records4
        if r.feasible
        or all(r.support[:k] + r.support[k + 1:] in feasible for k in range(len(r.support)))
    ]
    assert len(solved) == 2487
    return solved


def test_presolve_matches_oracle_records4(records4):
    for support in _walk_solved(records4):
        _check_presolve(*_reduced_rows(4, support))


def _small_queries(records4):
    """(n, support, fixed) for each n <= 3 support with each fixed set, then
    each n=4 support the walk solves with no bit or one bit fixed: 13,481."""
    queries = [
        (n, support, frozenset(fixed))
        for n in (1, 2, 3)
        for key in range(1, 1 << ((1 << n) - 1))
        for support in [tuple(m for m in range(1, 1 << n) if key >> (m - 1) & 1)]
        for size in range(n + 1)
        for fixed in itertools.combinations(range(1, n + 1), size)
    ]
    queries += [
        (4, support, frozenset(fixed))
        for support in _walk_solved(records4)
        for fixed in ((), (1,), (2,), (3,), (4,))
    ]
    assert len(queries) == 13481
    return queries


def test_small_answers_pinned(records4):
    # SHA-256 over the repr of every small answer, certificates included
    digest = hashlib.sha256()
    for n, support, fixed in _small_queries(records4):
        digest.update(repr(_decide_cached(n, support, fixed)).encode())
    assert digest.hexdigest() == "e7f461003487e27565842a0a0c0931d023532555df97aa5be0e698b34ba42b81"


def test_presolve_matches_oracle_unreduced_n10_13():
    seen = set()
    for f in seeded_functions((10, 11, 12, 13)):
        n = f.n
        rows = [[1] * (n + 2)] + [list(sign_vector(d, n)) + [0] for d in diff_set(f)]
        seen.add(_check_presolve(rows, n + 1))
    assert seen == {"infeasible", "reduced"}


def test_presolve_matches_oracle_reduced_n10_13():
    statuses = collections.Counter(
        _check_presolve(*_reduced_rows(f.n, diff_set(f)))
        for f in seeded_functions((10, 11, 12, 13))
    )
    assert statuses == {"reduced": 17, "infeasible": 11}


def test_presolve_matches_oracle_random_integer_rows():
    # general integer rows, a third of them combinations of earlier rows
    # (half of those with a shifted rhs): dependent, contradictory and
    # late-pivoting rows beyond the 0/1 and sign-vector systems above
    rng = random.Random(2357)
    statuses = collections.Counter()
    for _ in range(400):
        nvars = rng.randint(1, 5)
        rows = []
        for _ in range(rng.randint(1, 7)):
            if rows and rng.random() < 1 / 3:
                coeffs, rhs = [0] * nvars, F(0)
                for c, b in rng.sample(rows, rng.randint(1, len(rows))):
                    t = rng.choice((-2, -1, 1, 3))
                    coeffs, rhs = [x + t * y for x, y in zip(coeffs, c)], rhs + t * b
                if rng.random() < 0.5:
                    rhs += F(rng.choice((-1, 1)), rng.randint(1, 3))
            else:
                coeffs = [rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(nvars)]
                rhs = F(rng.randint(-3, 3), rng.randint(1, 3))
            rows.append((coeffs, rhs))
        # each row [a | b] scaled to integers by the denominator of b
        int_rows = [[v * rhs.denominator for v in coeffs] + [rhs.numerator] for coeffs, rhs in rows]
        statuses[_check_presolve(int_rows, nvars)] += 1
    assert statuses == {"infeasible": 248, "reduced": 152}
