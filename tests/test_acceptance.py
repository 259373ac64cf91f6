"""Acceptance suite: one test per criterion, printed as a pass line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.

Three bundled-catalog claims are provably false and are pinned as strict
xfails right next to the criterion they belong to, so they stay visible
without breaking the suite; the green tests assert the verified truth,
including the exact shape of each disagreement. The decisions notes
outside the package carry the full analysis.
"""

import itertools
import math
import random
import time
from fractions import Fraction as F
from operator import mul

import pytest

from exact1q.classify import (
    classify_all,
    nontrivial_catalog,
    reproduce_tables,
)
from exact1q.construct import construct, dj_family, level_solutions, profile
from exact1q.core import (
    PartialBooleanFn,
    diff_set,
    hamming_weight,
    is_symmetric,
    sign_vector,
    string_to_mask,
)
from exact1q.errors import InvalidFormError, NotFeasibleError
from exact1q.feasibility import (
    FeasibilityResult,
    WeightVector,
    decide,
    decide_reduced,
    decide_with_fixed_zeros,
    verify_result,
)
from exact1q.poly import function_of, polynomial, represent
from exact1q.reduction import ReducedFn, reduce
from exact1q.simulate import SUCCESS_TOL, apply_oracle, prepare, success_probabilities

from bruteforce import bf_decide_unreduced, bf_feasible, bf_group_ones, bf_group_orbits, bf_permute_support


def masks(n, *bits):
    return tuple(sorted(string_to_mask(b, n) for b in bits))


# The ten supports the bundled catalog claims as non-trivial at n=4.
CLAIMED_TEN = [
    masks(4, "1100", "1010", "1001", "0111"),
    masks(4, "1100", "0110", "0101", "1011"),
    masks(4, "1100", "1011", "0111"),
    masks(4, "1010", "0110", "0011", "1101"),
    masks(4, "1010", "1101", "0111"),
    masks(4, "1001", "0101", "0011", "1110"),
    masks(4, "1001", "1110", "0111"),
    masks(4, "0110", "1101", "1011"),
    masks(4, "0101", "1110", "1011"),
    masks(4, "0011", "1110", "1101"),
]

# The four of them whose weight systems pin every bit (verified by probe).
DERIVED_FOUR = [
    masks(4, "1100", "1010", "1001", "0111"),
    masks(4, "1100", "0110", "0101", "1011"),
    masks(4, "1010", "0110", "0011", "1101"),
    masks(4, "1001", "0101", "0011", "1110"),
]

# The n=4 supports whose vertex-table witness (the first covering vertex
# in reversed-z order) differs from the LP's: one orbit under relabelling.
# On the first the LP gives z = (1/2, 0, 0, 1/2) and the table (0, 1/4, 1/4, 1/4).
WITNESS_MOVED = [
    masks(4, "0011", "0101", "1110"),
    masks(4, "0011", "1001", "1110"),
    masks(4, "0101", "1001", "1110"),
]


def lp_witness_moves(n, records):
    """Solve every record's support by LP, check that the LP agrees on
    feasibility and that both answers verify, and return the supports whose
    record witness is not the LP's."""
    moved = []
    for rec in records:
        g = ReducedFn(n, rec.support)
        res = decide_reduced(g)
        assert verify_result(g, res)
        assert res.feasible == rec.feasible, rec.support
        if rec.feasible and rec.witness != res.witness:
            assert verify_result(g, FeasibilityResult(True, witness=rec.witness))
            moved.append(rec.support)
    return moved


def test_c1_three_bit_completeness(records3):
    t0 = time.time()
    assert len(records3) == 127
    assert all(not rec.non_trivial for rec in records3)
    # the LP, an independent route, gives every record's feasibility and
    # witness
    assert lp_witness_moves(3, records3) == []

    by_support = {rec.support: rec for rec in records3}
    for rec in records3:
        if not rec.feasible:
            continue
        if rec.symmetric or rec.fewer_bits:
            continue
        assert rec.included_by is not None, rec.support
        parent = by_support[rec.included_by]
        assert parent.symmetric or parent.fewer_bits
    print(
        f"criterion 1: PASS - 127/127 reduced 3-bit supports classified, "
        f"0 non-trivial, every feasible record accounted for "
        f"({time.time() - t0:.2f}s)"
    )


def test_c2_four_bit_headline(records4):
    t0 = time.time()
    assert len(records4) == 32767
    by_support = {rec.support: rec for rec in records4}

    # every LP answer across the full enumeration re-verifies and agrees
    # with the feasibility the enumeration read from the vertex table, and
    # with its witness on all but the three declared supports
    assert sorted(lp_witness_moves(4, records4)) == WITNESS_MOVED

    # the ten claimed supports: all feasible, none symmetric, none inside
    # a reachable level
    for support in CLAIMED_TEN:
        rec = by_support[support]
        assert rec.feasible
        assert not rec.symmetric
        assert not rec.dj_computable

    # exactly four of the ten survive the per-bit probes; they form the
    # derived non-trivial catalog and a single relabelling orbit
    survivors = [s for s in CLAIMED_TEN if not by_support[s].removable_bits]
    assert survivors == DERIVED_FOUR
    for support in DERIVED_FOUR:
        g = ReducedFn(4, support)
        for i in range(1, 5):
            assert not decide_with_fixed_zeros(g, {i}).feasible

    catalog = nontrivial_catalog(4)
    assert [rec.support for rec in catalog] == DERIVED_FOUR
    assert all(rec.non_trivial and rec.maximal for rec in catalog)
    assert len(bf_group_orbits([r.support for r in catalog], 4)) == 1

    # the remaining six each admit a zero-weight witness; the probed
    # witness verifies, which is the disagreement evidence itself
    removable = {}
    for support in CLAIMED_TEN:
        rec = by_support[support]
        if support in DERIVED_FOUR:
            continue
        assert len(rec.removable_bits) == 2
        g = ReducedFn(4, support)
        for i in rec.removable_bits:
            res = decide_with_fixed_zeros(g, {i})
            assert res.feasible
            assert verify_result(g, res, fixed={i})
        removable[support] = rec.removable_bits

    # the run report compares the derived count against the claimed ten and
    # itemizes every disagreement instead of suppressing it
    report = reproduce_tables(4)
    assert report.claimed_nontrivial_count == 10
    assert report.derived_nontrivial_count == 4
    assert report.nontrivial_orbit_count == 1
    assert not report.count_matches_claim
    assert any("vs 10 claimed" in d for d in report.discrepancies)
    for support, bits in removable.items():
        needle = ",".join(format(m, "04b") for m in sorted(support))
        assert any(
            needle in d and "removable" in d for d in report.discrepancies
        ), needle
    # each such row's example weights put 0 on its first removable bit
    examples = 0
    for row in report.rows:
        for note in row.notes:
            if "can be zero, e.g. z = (" not in note:
                continue
            z = WeightVector(tuple(F(v) for v in note.split("z = (")[1].rstrip(")").split(", ")))
            g = ReducedFn(4, [string_to_mask(m, 4) for m in row.support])
            assert verify_result(g, FeasibilityResult(True, witness=z), fixed={row.removable_bits[0]})
            examples += 1
    assert examples == 6

    print(
        f"criterion 2: PASS - 32767/32767 supports classified; 10 claimed "
        f"non-trivial rows re-derived as 4 genuinely non-trivial (1 orbit) "
        f"+ 6 with removable bits, all itemized ({time.time() - t0:.1f}s)"
    )


@pytest.mark.xfail(
    strict=True,
    reason="six of the ten claimed non-trivial supports admit a verified "
    "zero-weight witness, so their per-bit probes are feasible; the "
    "literal claim cannot hold (see reproduce_tables discrepancies)",
)
def test_c2_literal_claim_all_ten_probe_infeasible(records4):
    by_support = {rec.support: rec for rec in records4}
    for support in CLAIMED_TEN:
        assert not by_support[support].removable_bits


def _check_rows(report):
    invalid = []
    for row in report.rows:
        if row.claimed_weights is None:
            continue
        if row.weights_valid:
            continue
        invalid.append(row)
    return invalid


def test_c3_table_row_verification(records3, records4):
    t0 = time.time()
    rep3 = reproduce_tables(3)
    assert all(row.weights_valid for row in rep3.rows if row.claimed_weights)
    assert all(row.agree for row in rep3.rows)

    rep4 = reproduce_tables(4)
    invalid = _check_rows(rep4)
    # exactly two catalog rows carry weight assignments that fail their own
    # support equations; both supports are feasible with engine witnesses
    assert sorted(r.support for r in invalid) == [
        ("0101", "1011", "1100"),
        ("0111", "1010", "1100"),
    ]
    for row in invalid:
        assert row.feasible
        assert row.witness is not None
        g = ReducedFn(4, tuple(string_to_mask(s, 4) for s in row.support))
        assert verify_result(g, decide_reduced(g))
    # every other weighted row (including recorded family representatives)
    # verifies exactly
    for row in rep4.rows:
        if row.claimed_weights and row not in invalid:
            assert row.weights_valid
    print(
        f"criterion 3: PASS - 3/3 weighted 3-bit rows and 29/31 weighted "
        f"4-bit rows verify exactly; 2 rows carry inconsistent weights and "
        f"are flagged with corrected witnesses ({time.time() - t0:.1f}s)"
    )


@pytest.mark.xfail(
    strict=True,
    reason="two catalog rows list weight assignments that do not solve "
    "their own support equations; verification must fail on them",
)
def test_c3_literal_claim_every_listed_weight_verifies():
    rep4 = reproduce_tables(4)
    assert all(row.weights_valid for row in rep4.rows if row.claimed_weights)


def test_c4_counterexample_support():
    t0 = time.time()
    inst = ReducedFn(3, masks(3, "001", "010", "111"))
    res = decide_reduced(inst)
    assert not res.feasible
    assert res.certificate is not None
    assert verify_result(inst, res)

    with pytest.raises(NotFeasibleError):
        represent(inst)

    with pytest.raises(InvalidFormError, match="-1 of x_1 is negative"):
        function_of(polynomial([-1, 1, 1]))
    print(
        f"criterion 4: PASS - counterexample support infeasible with "
        f"verifying certificate; negative-coefficient polynomial rejected "
        f"({time.time() - t0:.2f}s)"
    )


def test_c5_oracle_equivalence(records3, records4):
    t0 = time.time()
    for rec in records3:
        assert rec.feasible == bf_feasible(3, rec.support), rec.support

    # the sampled supports are checked both as solved directly and as
    # recorded by the enumeration, which reads them from the vertex table
    rnd = random.Random(20260810)
    keys = rnd.sample(range(1, 1 << 15), 2000)
    for key in keys:
        support = tuple(m for m in range(1, 16) if key >> (m - 1) & 1)
        expected = bf_feasible(4, support)
        assert decide_reduced(ReducedFn(4, support)).feasible == expected
        rec = records4[key - 1]
        assert rec.support == support
        assert rec.feasible == expected, support
    print(
        f"criterion 5: PASS - simplex agrees with the basic-solution oracle "
        f"on all 127 3-bit supports and 2000 sampled 4-bit supports "
        f"({time.time() - t0:.1f}s)"
    )


def test_c6_construction_examples():
    t0 = time.time()
    # one heavy bit plus a double-weight tail: n = 3k, first k bits carry
    # weight 1/n, the rest 1/(2n)

    # k=1: trivial by bit removal
    p1 = profile((0, 1, 3), (F(1, 3), F(1, 6)))
    assert level_solutions(p1) == ((1, 1),)
    f1 = construct(p1)
    g1 = reduce(f1)
    assert decide(f1).feasible
    assert any(decide_with_fixed_zeros(g1, {i}).feasible for i in (1, 2, 3))

    # k=2: the two stated weight patterns
    p2 = profile((0, 2, 6), (F(1, 6), F(1, 12)))
    assert level_solutions(p2) == ((1, 4), (2, 2))
    f2 = construct(p2)
    assert f2.ones == bf_group_ones((0, 2, 6), (F(1, 6), F(1, 12)), 6)
    assert decide(f2).feasible

    # k=3: patterns of 2*w(first 3) + w(last 6) == 9, cross-checked by a
    # full scan of all 512 masks
    p3 = profile((0, 3, 9), (F(1, 9), F(1, 18)))
    sols = level_solutions(p3)
    assert sols == ((2, 5), (3, 3))
    for m1, m2 in sols:
        assert 2 * m1 + m2 == 9
    f3 = construct(p3)
    assert f3.ones == bf_group_ones((0, 3, 9), (F(1, 9), F(1, 18)), 9)
    assert decide(f3).feasible
    print(
        f"criterion 6: PASS - constructed families for k=1,2,3 match the "
        f"group-weight equation and full-scan supports; all feasible "
        f"({time.time() - t0:.1f}s)"
    )


@pytest.mark.xfail(
    strict=True,
    reason="the catalogued k=3 pattern list contains (2,2), which fails "
    "the very equation 2*m1 + m2 == 9 that defines the family; the "
    "solutions are (2,5) and (3,3)",
)
def test_c6_literal_claim_k3_patterns():
    sols = level_solutions(profile((0, 3, 9), (F(1, 9), F(1, 18))))
    assert sols == ((2, 2), (3, 3))


def test_c7_single_level_family_power(records4):
    t0 = time.time()
    for n in range(1, 11):
        for fn in dj_family(n):
            assert is_symmetric(fn)
            assert decide(fn).feasible

    for rec in records4:
        if rec.dj_computable:
            weights = {hamming_weight(m) for m in rec.support}
            assert len(weights) == 1
            c = weights.pop()
            assert (4 + 1) // 2 <= c <= 4

    for n in range(2, 13, 2):
        assert math.comb(n, n // 2) <= 1 << (n - 1)
    print(
        f"criterion 7: PASS - single-level family symmetric and feasible up "
        f"to n=10; level flags confined to reachable levels; middle "
        f"binomials within the half-space bound ({time.time() - t0:.1f}s)"
    )


def test_c8_simulator_soundness(records3, records4):
    t0 = time.time()
    worst = 1.0
    checked = 0
    for n, records in ((1, classify_all(1)), (2, classify_all(2)), (3, records3), (4, records4)):
        for rec in records:
            if not rec.feasible:
                continue
            f = PartialBooleanFn(n, ones=rec.support, zeros=(0,))
            report = success_probabilities(f, rec.witness)
            worst = min(worst, report.min_success)
            checked += 1
    assert worst >= 1 - SUCCESS_TOL

    # float inner products against the exact signed weight sums
    pairs = 0
    for rec in records3:
        if not rec.feasible:
            continue
        w = rec.witness
        full = (w.z0,) + w.z
        start = prepare(w)
        s0 = apply_oracle(start, 0, 3)
        for x in (0,) + rec.support:
            sx = apply_oracle(start, x, 3)
            exact = sum(s * v for s, v in zip(sign_vector(x, 3), full))
            assert abs(math.fsum(map(mul, s0, sx)) - float(exact)) < 1e-9
            pairs += 1
    print(
        f"criterion 8: PASS - min_success >= 1-1e-9 on all {checked} feasible "
        f"records at n<=4 (worst {worst!r}); {pairs} float inner products "
        f"match the exact values ({time.time() - t0:.1f}s)"
    )


def test_c9_property_suite(records3, records4):
    t0 = time.time()
    # downward closure, exhaustively at n<=4: removing any one mask from a
    # feasible support stays feasible, which chains to every subset because
    # the enumeration covers the entire lattice
    for records, n in ((records3, 3), (records4, 4)):
        by_support = {rec.support: rec for rec in records}
        for rec in records:
            if rec.feasible and len(rec.support) > 1:
                for m in rec.support:
                    rest = tuple(x for x in rec.support if x != m)
                    assert by_support[rest].feasible

    # permutation equivariance across all 6 relabellings of 3 bits
    by_support3 = {rec.support: rec for rec in records3}
    for rec in records3:
        for perm in itertools.permutations((1, 2, 3)):
            image = bf_permute_support(rec.support, perm, 3)
            assert by_support3[image].feasible == rec.feasible

    # the difference-set size bound is necessary for feasibility
    for rec in records3:
        if rec.feasible:
            assert len(diff_set(PartialBooleanFn(3, ones=rec.support, zeros=(0,)))) <= 1 << (3 - 1)

    # reduction law is an iff across every non-constant 3-bit promise function:
    # `decide` answers through the reduced form, the oracle solves the
    # unreduced system over z_0..z_3
    cases = 0
    for ones_bits in range(1, 256):
        for zeros_bits in range(1, 256):
            if ones_bits & zeros_bits:
                continue
            f = PartialBooleanFn(
                3,
                ones=[m for m in range(8) if ones_bits >> m & 1],
                zeros=[m for m in range(8) if zeros_bits >> m & 1],
            )
            assert decide(f).feasible == bf_decide_unreduced(f)
            cases += 1
    assert cases == 6050
    print(
        f"criterion 9: PASS - downward closure (n<=4), permutation "
        f"equivariance (n=3), necessary size bound (n=3), and the "
        f"reduction-law iff against the unreduced oracle over {cases} functions ({time.time() - t0:.1f}s)"
    )
