import pytest
from hypothesis import given, settings, strategies as st

from exact1q.classify import (
    ClassificationRecord,
    _key_support,
    _orbits,
    _vertex_table,
    classify_all,
    enumerate_reduced,
    maximal_feasible,
    nontrivial_catalog,
    reproduce_tables,
)
from exact1q.core import string_to_mask
from exact1q.errors import ArityTooLargeError, InternalError, SchemaError

from bruteforce import bf_group_orbits, bf_nontrivial_maximal


def masks(n, *bits):
    return tuple(sorted(string_to_mask(b, n) for b in bits))


def test_record_counts(records3):
    assert len(records3) == 127


def test_n1_classification():
    (rec,) = classify_all(1)
    assert rec.support == (1,)
    assert rec.feasible and rec.symmetric and rec.dj_computable and rec.maximal
    assert not rec.fewer_bits and not rec.non_trivial


def test_record_contract():
    # a record is an immutable value with the nine fields in this order
    rec = classify_all(1)[0]
    assert repr(rec) == (
        "ClassificationRecord(n=1, support=(1,), feasible=True, "
        "witness=WeightVector(z=(Fraction(1, 2),)), symmetric=True, "
        "dj_computable=True, removable_bits=(), maximal=True, included_by=None)"
    )
    with pytest.raises(AttributeError):
        rec.feasible = False
    first, second = classify_all(3), classify_all(3)
    assert first == second
    assert [hash(r) for r in first] == [hash(r) for r in second]
    assert ClassificationRecord._fields == (
        "n",
        "support",
        "feasible",
        "witness",
        "symmetric",
        "dj_computable",
        "removable_bits",
        "maximal",
        "included_by",
    )
    bare = ClassificationRecord(2, (1, 2), False, None, False, False, ())
    assert bare.maximal is False and bare.included_by is None


def test_key_support_of_empty_key():
    assert _key_support(0) == ()


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**63 - 1))
def test_key_support_matches_bit_oracle(key):
    # the byte tables reach any width a key needs: 15 bits at n=4, 31 at
    # n=5, 63 at n=6
    from bruteforce import bf_key_support

    assert _key_support(key) == bf_key_support(key)


def test_n2_feasible_set_matches_bruteforce():
    from bruteforce import bf_feasible

    recs = classify_all(2)
    assert len(recs) == 7
    for rec in recs:
        assert rec.feasible == bf_feasible(2, rec.support)
    feasible = {rec.support for rec in recs if rec.feasible}
    # six of the seven supports admit weights; only the full set fails
    assert feasible == {
        masks(2, "01"),
        masks(2, "10"),
        masks(2, "11"),
        masks(2, "01", "10"),
        masks(2, "01", "11"),
        masks(2, "10", "11"),
    }


def test_no_nontrivial_three_bit(records3):
    assert all(not rec.non_trivial for rec in records3)


def test_three_bit_maximal_supports(records3):
    got = {rec.support for rec in records3 if rec.maximal}
    expected = {
        masks(3, "110", "101", "011"),              # one level, symmetric
        masks(3, "100", "010", "101", "011"),        # disagreement on bits 1,2
        masks(3, "010", "001", "110", "101"),
        masks(3, "100", "001", "110", "011"),
        masks(3, "100", "110", "101", "111"),        # everything containing bit 1
        masks(3, "010", "110", "011", "111"),
        masks(3, "001", "101", "011", "111"),
    }
    assert got == expected


def test_included_by_points_to_maximal_superset(records3):
    by_support = {rec.support: rec for rec in records3}
    for rec in records3:
        if rec.feasible and not rec.maximal:
            assert rec.included_by is not None
            parent = by_support[rec.included_by]
            assert parent.maximal
            assert set(rec.support) < set(parent.support)
        elif rec.feasible:
            assert rec.included_by is None


def test_dj_flag(records3, records4):
    flags = {(n, r.support): r.dj_computable for n, recs in ((3, records3), (4, records4)) for r in recs}
    assert flags[4, masks(4, "1100", "1010")]
    assert not flags[4, masks(4, "1100", "0111")]  # two levels
    assert not flags[4, masks(4, "1000")]  # level below ceil(n/2)
    assert flags[3, masks(3, "110", "011")]


def test_record_flags_match_oracles(records3, records4):
    # symmetric and dj_computable are membership tests in per-n key sets;
    # check them on every support with n <= 4 and on the maximal n=5
    # supports against the definition and a level scan
    from bruteforce import bf_dj_computable, bf_symmetric

    for n, records in (
        (1, classify_all(1)),
        (2, classify_all(2)),
        (3, records3),
        (4, records4),
        (5, maximal_feasible(5)),
    ):
        assert len(records) == (142 if n == 5 else (1 << ((1 << n) - 1)) - 1)
        for rec in records:
            assert rec.symmetric == bf_symmetric(n, rec.support, (0,)), rec.support
            assert rec.dj_computable == bf_dj_computable(n, rec.support), rec.support


def test_enumerate_matches_classify(records3):
    assert list(enumerate_reduced(3)) == records3


def test_removable_bits_match_direct_probes(records3, records4):
    # the removable bits read from the vertex table are those the LP finds
    # by pinning each bit to zero in turn
    from exact1q.feasibility import decide_with_fixed_zeros
    from exact1q.reduction import ReducedFn

    for n, records in ((3, records3), (4, records4)):
        for rec in records:
            if not rec.feasible:
                continue
            g = ReducedFn(n, rec.support)
            direct = tuple(
                i for i in range(1, n + 1) if decide_with_fixed_zeros(g, {i}).feasible
            )
            assert rec.removable_bits == direct, rec.support


@pytest.mark.parametrize(
    "entry, n",
    [(classify_all, 4), (maximal_feasible, 5), (reproduce_tables, 4)],
    ids=["classify_all-4", "maximal_feasible-5", "reproduce_tables-4"],
)
def test_classification_solves_no_lp(entry, n):
    # feasibility, removable bits, witnesses and the catalog's zero-weight
    # examples all come from the vertex table, so the LP stays an
    # independent route
    from exact1q.feasibility import _decide_cached

    _decide_cached.cache_clear()
    entry(n)
    assert _decide_cached.cache_info().misses == 0


def test_n5_maximal_records_confirmed_by_lp():
    # the LP route gives every maximal n=5 record its witness, and no mask
    # can be added to its support
    from exact1q.feasibility import decide_reduced
    from exact1q.reduction import ReducedFn

    solved = 0
    for rec in maximal_feasible(5):
        assert decide_reduced(ReducedFn(5, rec.support)).witness == rec.witness
        for m in set(range(1, 32)) - set(rec.support):
            assert not decide_reduced(ReducedFn(5, rec.support + (m,))).feasible
            solved += 1
        solved += 1
    assert solved == 3439


def test_vertex_self_check_fires(monkeypatch):
    # a 1-class with a mask the vertex does not weight 1/2 fails the
    # row's verification
    from exact1q import classify
    from exact1q.errors import InternalError
    from exact1q.poly import InputClasses

    exact = classify.input_classes

    def widened(n, nums, den):
        classes = exact(n, nums, den)
        extra = next(m for m in range(1, 1 << n) if m not in classes.one)
        return InputClasses(n, classes.zero, tuple(sorted(classes.one + (extra,))), classes.star)

    monkeypatch.setattr(classify, "input_classes", widened)
    with pytest.raises(InternalError, match="does not verify on its 1-class"):
        classify_all(2)


def test_arity_guards():
    with pytest.raises(ArityTooLargeError):
        classify_all(5)
    with pytest.raises(ArityTooLargeError):
        nontrivial_catalog(5)
    with pytest.raises(ArityTooLargeError):
        list(enumerate_reduced(6))
    for n in (2, 5):
        with pytest.raises(ArityTooLargeError, match="catalog covers n = 3 and n = 4 only"):
            reproduce_tables(n)


@pytest.mark.parametrize("n", [-1, 0, True])
@pytest.mark.parametrize(
    "entry",
    [
        classify_all,
        maximal_feasible,
        nontrivial_catalog,
        lambda n: list(enumerate_reduced(n)),
        reproduce_tables,
    ],
    ids=["classify_all", "maximal_feasible", "nontrivial_catalog", "enumerate_reduced", "reproduce_tables"],
)
def test_arity_gate_rejects_non_positive_and_bool(entry, n):
    # -1 used to raise ValueError, 0 to return [] and True a record with n=True
    with pytest.raises(SchemaError, match="arity must be a positive integer"):
        entry(n)


def test_orbit_canonicalization():
    a = masks(4, "1100", "1010", "1001", "0111")
    b = masks(4, "0011", "0101", "1001", "1110")  # relabelled image of a
    assert bf_group_orbits([a, b], 4) == {min(a, b): [min(a, b), max(a, b)]}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_orbits_match_bruteforce(n):
    # orbits read from sorted witness weights, against all n! relabellings
    records = maximal_feasible(n)
    for recs in (records, [rec for rec in records if rec.non_trivial]):
        assert _orbits(recs) == list(bf_group_orbits([rec.support for rec in recs], n).values())


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_nontrivial_catalog_matches_pairwise_oracle(n):
    # maximal and non-trivial is the same as non-trivial with no
    # non-trivial strict superset at every arity the catalog reaches; both
    # lists are in support-key order
    assert nontrivial_catalog(n) == bf_nontrivial_maximal(classify_all(n))


def test_orbits_refuse_what_the_witness_rule_does_not_cover(records3):
    inner = next(rec for rec in records3 if rec.feasible and not rec.maximal)
    with pytest.raises(InternalError, match="is not maximal"):
        _orbits([inner])


def test_witness_first_mode_matches_full_mode_maximal(records3):
    # the maximal records of the full run, flags and witnesses included
    for n, records in ((2, classify_all(2)), (3, records3)):
        assert maximal_feasible(n) == [rec for rec in records if rec.maximal]


def test_witness_first_runs_at_n5_spotcheck(monkeypatch):
    # n=5 maximal supports are produced without subset enumeration, and
    # the single-level supports must be among them
    from exact1q import classify
    from exact1q.construct import level_set

    calls = {"row": 0, "rank": 0, "line": 0, "close": 0, "point": 0}

    def counted(name, fn):
        def wrapper(*args):
            # the rank check's rows are n bits alone, the walk's carry b too
            calls["rank" if name == "row" and len(args[1]) == args[2] else name] += 1
            out = fn(*args)
            if name == "close" and out is not None:
                calls["point"] += 1
            return out

        return wrapper

    for name, attr in (("row", "extend_echelon"), ("line", "solution_line"), ("close", "close_line")):
        monkeypatch.setattr(classify, attr, counted(name, getattr(classify, attr)))
    # the walk at each arity, the arities it lifts from included
    walks = {}
    level_vertices = classify._level_vertices

    def level(n):
        before = dict(calls)
        out = level_vertices(n)
        walks[n] = {k: calls[k] - before[k] for k in calls}
        return out

    monkeypatch.setattr(classify, "_level_vertices", level)
    recs = maximal_feasible(5)
    # mask rows only, orbit representatives only, depth-first, each prefix
    # lex-smallest under its orbit's stabiliser and with a flat that may
    # hold some z > 0; interior points only, the others lifted from arity
    # 4. At arity 5: 486 row steps, 201 lines, and 379 last rows on the
    # lines that meet z > 0, of which 295 meet their line. Arities 1..4
    # add 53 row steps, 22 lines and 52 closes (43 points). The rank check
    # of the 15 orbits' 1-classes takes 95 row steps more
    assert sorted(walks) == [1, 2, 3, 4, 5]
    own = {k: walks[5][k] - walks[4][k] for k in calls}
    assert own == {"row": 486, "rank": 0, "line": 201, "close": 379, "point": 295}
    assert walks[4] == {"row": 53, "rank": 0, "line": 22, "close": 52, "point": 43}
    assert calls == {"row": 539, "rank": 95, "line": 223, "close": 431, "point": 338}
    supports = {rec.support for rec in recs}
    assert level_set(5, 3) in supports
    assert all(rec.maximal for rec in recs)
    nontrivial = [rec.support for rec in recs if rec.non_trivial]
    assert len(recs) == 142
    assert len(nontrivial) == 85
    assert len(bf_group_orbits(supports, 5)) == 15
    assert len(bf_group_orbits(nontrivial, 5)) == 7


@pytest.mark.parametrize("n", [2, 3, 4])
def test_vertex_witnesses_match_bruteforce(n):
    # the orbit-representative solve, closed under relabelling, finds every
    # vertex with a nonempty 1-class that the oracle finds by solving all
    # C(2**n + n, n) systems of mask rows, walls and the sum wall
    from fractions import Fraction

    from bruteforce import HALF, bf_input_classes, bf_vertices

    from exact1q.classify import _vertex_witnesses

    got = {tuple(Fraction(v, 2 * det) for v in nums) for nums, det in _vertex_witnesses(n)}
    assert got == {v for v in bf_vertices(n) if bf_input_classes(n, v, HALF)[1]}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_rank_lemma_on_the_oracle(n):
    # the rank lemma of `classify`, on the oracle: the 1-class of every
    # vertex with a nonempty one pins that vertex alone, so the walk over
    # mask rows, closed under relabelling, finds exactly those vertices
    import itertools
    from fractions import Fraction

    from bruteforce import HALF, bf_input_classes, bf_unique_solution, bf_vertices

    from exact1q.classify import _level_vertices

    classed = set()
    for v in bf_vertices(n):
        one = bf_input_classes(n, v, HALF)[1]
        if one:
            unique = bf_unique_solution(n, one)
            assert unique is not None and tuple(unique) == v
            classed.add(v)
    found = {
        tuple(Fraction(nums[p], 2 * det) for p in perm)
        for nums, det in _level_vertices(n)
        for perm in itertools.permutations(range(n))
    }
    assert found == classed


@pytest.mark.parametrize("n", [2, 3, 4])
def test_lift_lemma_on_the_oracle(n):
    # the lift lemma of `classify`, on the oracle: deleting a zero weight
    # of a vertex with a nonempty 1-class gives such a vertex at arity
    # n - 1, and putting a zero anywhere into one of those gives one at n
    from bruteforce import HALF, bf_input_classes, bf_vertices

    def classed(k):
        return {v for v in bf_vertices(k) if bf_input_classes(k, v, HALF)[1]}

    here, below = classed(n), classed(n - 1)
    lowered = {v[:i] + v[i + 1:] for v in here for i in range(n) if v[i] == 0}
    assert lowered and lowered <= below
    assert {v[:i] + (0,) + v[i:] for v in below for i in range(n)} <= here


def test_vertex_table_rows_verify_and_sort_by_reversed_weights():
    # the integer self-check and sort key agree with the Fraction ones
    from exact1q.classify import _vertex_table, _vertex_witnesses
    from exact1q.feasibility import FeasibilityResult, verify_result, verify_weights
    from exact1q.poly import input_classes
    from exact1q.reduction import ReducedFn

    for n in (3, 4, 5):
        table = _vertex_table(n)
        assert table == sorted(table, key=lambda row: row[2].z[::-1])
        for cls, _, z in table:
            assert verify_result(ReducedFn(n, _key_support(cls)), FeasibilityResult(True, witness=z))
    nums, det = next(v for v in _vertex_witnesses(4) if min(v[0]) > 0)
    classes = input_classes(4, nums, det)
    assert verify_weights(4, classes.one, nums, 2 * det)
    assert not verify_weights(4, classes.one + classes.star[:1], nums, 2 * det)
    assert not verify_weights(4, (), (-1,) + nums[1:], 2 * det)
    assert not verify_weights(4, (), nums, 2 * det, [1])
    assert not verify_weights(4, (), (2 * det + 1,) + nums[1:], 2 * det)


def test_vertex_witnesses_n5_pinned():
    # the n=5 vertex list, Cramer forms in lowest terms, in sorted order;
    # the digest is that of the walk over walls and arities 1..5 with the
    # vertices of empty 1-class left out
    import hashlib

    from exact1q.classify import _vertex_witnesses

    vertices = _vertex_witnesses(5)
    assert len(vertices) == 142
    digest = hashlib.sha256(repr(vertices).encode()).hexdigest()
    assert digest == "1dbe31415c667e635559a45bf1a6c17361084e9ee315011825924773a3a47403"


def test_vertex_witnesses_n6_pinned(monkeypatch):
    # the n=6 vertex list; the digest was recorded from the walk without
    # stabiliser pruning (over walls and arities 1..6, the vertices of
    # empty 1-class left out), so it checks the pruned walk by a second
    # route.
    # The list is read as the vertex table is built, so the table's rank
    # guard runs on the 63 orbits of n=6 too
    import hashlib

    from exact1q import classify

    walked = []
    vertices = classify._vertex_witnesses
    monkeypatch.setattr(
        classify, "_vertex_witnesses", lambda n: walked.append(vertices(n)) or list(walked[-1])
    )
    table = classify._vertex_table(6)
    assert (len(table), len({row[0] for row in table})) == (4361, 4361)
    (vertices,) = walked
    assert len(vertices) == 4361
    digest = hashlib.sha256(repr(vertices).encode()).hexdigest()
    assert digest == "df1792c1d3c8b79f49c37f3caffbdb4709c3f117b031e6ac59edcb8ae098584a"


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_orbit_stabilisers_fix_the_first_row(n):
    # each index map is a relabelling of the rows that fixes orbit j's
    # first row and keeps every row in its own orbit
    import itertools
    from math import factorial

    from exact1q.classify import _arrangement_orbits, _orbit_systems

    orbits = _arrangement_orbits(n)
    systems = _orbit_systems(n)
    assert len(systems) == len(orbits)
    for j, (rows, stabiliser) in enumerate(systems):
        orbit_of = [k for k, orbit in enumerate(orbits[j:]) for _ in orbit]
        assert rows == [row for orbit in orbits[j:] for row in orbit]
        assert len(set(stabiliser)) == len(stabiliser)
        assert tuple(range(len(rows))) in stabiliser
        if len(orbits[j]) > 1:
            # orbit j is a Hamming level 0 < c < n, whose masks tell all
            # bits apart, so distinct relabellings give distinct maps:
            # |G_j| * |orbit j| = n!
            assert len(stabiliser) * len(orbits[j]) == factorial(n)
        for g in stabiliser:
            assert g[0] == 0
            assert sorted(g) == list(range(len(rows)))
            assert all(orbit_of[g[i]] == orbit_of[i] for i in range(len(rows)))
            # g is a relabelling: some permutation of the columns moves
            # every row onto its image
            assert any(
                all(rows[g[i]] == tuple(row[p] for p in perm) + row[n:] for i, row in enumerate(rows))
                for perm in itertools.permutations(range(n))
            )
    if n == 5:
        # levels 2 and 3, then levels 1 and 4; no sign-wall orbit
        assert [len(stabiliser) for (_, stabiliser), orbit in zip(systems, orbits) if len(orbit) > 1] == [
            12, 12, 24, 24,
        ]


def test_unique_system_witnesses_reproduced_exactly():
    # wherever a catalog row's equality system pins a unique solution, the
    # engine returns exactly the catalogued rationals
    from bruteforce import bf_unique_solution

    from exact1q.catalog import rows_for
    from exact1q.feasibility import decide_reduced
    from exact1q.reduction import ReducedFn

    checked = 0
    for n in (3, 4):
        for row in rows_for(n):
            claimed = row.weight_fractions()
            if claimed is None:
                continue
            support = tuple(sorted(string_to_mask(s, n) for s in row.support))
            unique = bf_unique_solution(n, support)
            if unique is None or tuple(unique) != claimed:
                continue  # families and the two known-inconsistent rows
            res = decide_reduced(ReducedFn(n, support))
            assert res.feasible
            assert res.witness.z == claimed
            checked += 1
    assert checked == 7  # the level rows plus the four pinned star supports


def test_reproduce_tables_n3_rows_agree():
    report = reproduce_tables(3)
    assert all(row.agree for row in report.rows)
    assert report.derived_nontrivial_count == 0
    assert report.claimed_nontrivial_count == 0
    assert report.count_matches_claim
    # the two zero-weight maximal orbits are surfaced, flagged trivial
    assert len(report.unlisted_maximal_orbits) == 2


def test_reproduce_tables_flags_false_inclusion(monkeypatch):
    # a catalog row claiming {011} lies inside {100}, which it does not
    from exact1q import catalog

    row = catalog.CatalogRow(("011",), None, "included", included_in=("100",))
    monkeypatch.setattr(catalog, "rows_for", lambda n: (row,))
    (check,) = reproduce_tables(3).rows
    assert check.notes == ("claimed inclusion does not hold",)
    assert not check.agree


def test_reproduce_tables_classifies_once(monkeypatch):
    from exact1q import classify

    calls = []
    vertices = classify._vertex_witnesses
    monkeypatch.setattr(
        classify, "_vertex_witnesses", lambda n: calls.append(n) or vertices(n)
    )
    reproduce_tables(3)
    assert calls == [3]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cover_map_matches_row_scan(n):
    # the subset walk over each row's class key reaches exactly the keys
    # some row covers, with the first covering row's weights and the OR of
    # every covering row's zero bits
    from bruteforce import bf_cover, bf_inclusion

    from exact1q.classify import _cover, _every_key, _subset_walk, _vertex_table

    table = _vertex_table(n)
    cover = _cover(_subset_walk(table))
    expected = {key: bf_cover(table, key) for key in _every_key(n)}
    assert cover == {key: hit for key, hit in expected.items() if hit is not None}
    # the parent kept is the key itself iff it has no feasible strict
    # superset, else its first maximal one among all feasible keys
    parents = bf_inclusion(cover)
    assert {key: hit[2] for key, hit in cover.items()} == {key: p or key for key, p in parents.items()}


def test_cover_map_n4_is_the_feasible_keys(records4):
    from exact1q.classify import _cover, _subset_walk, _support_key, _vertex_table

    table = _vertex_table(4)
    cover = _cover(_subset_walk(table))
    # one step per nonempty subset of each of the 20 class keys, in place
    # of 32767 keys tested against every row
    assert (len(table), sum(1 for _ in _subset_walk(table))) == (20, 2940)
    assert len(cover) == 2195
    assert set(cover) == {_support_key(rec.support) for rec in records4 if rec.feasible}


def test_cover_map_n5_maximal_keys_match_row_scan():
    # maximal_feasible reads the table alone: every class key is maximal
    # and covered only by its own row
    from bruteforce import bf_cover, bf_inclusion

    from exact1q.classify import _cover, _vertex_table

    table = _vertex_table(5)
    parents = bf_inclusion(row[0] for row in table)
    assert len(parents) == 142
    assert all(parent is None for parent in parents.values())
    cover = _cover((row[0], *row) for row in table)
    assert all(cover[key] == bf_cover(table, key) for key in parents)


def test_records_depend_only_on_their_key(records4):
    # records built for a few keys, in any order, are those of the full run
    from exact1q.classify import _cover, _records, _subset_walk

    keys = list(range(32767, 0, -997)) + [0b111, 0b1011000000]
    cover = _cover(_subset_walk(_vertex_table(4)))
    assert _records(4, keys, cover) == [records4[key - 1] for key in keys]


def test_vertex_rank_guard_fires(monkeypatch):
    # the vertex (1/2, 0) with its 1-class narrowed from {10, 11} to {10}
    # still verifies, but rank 1 no longer pins its polytope to one point
    from exact1q import classify
    from exact1q.poly import InputClasses

    exact = classify.input_classes

    def narrowed(n, nums, den):
        classes = exact(n, nums, den)
        if (n, tuple(nums), den) == (2, (1, 0), 1):
            return InputClasses(n, classes.zero, (0b10,), classes.star + (0b11,))
        return classes

    monkeypatch.setattr(classify, "input_classes", narrowed)
    with pytest.raises(InternalError, match="has rank below 2"):
        classify_all(2)


def test_maximal_feasible_n4_vertex_cross_check(records4):
    # the maximal records read from the vertex table equal those of the
    # full run at n = 4, flags and witnesses included
    assert maximal_feasible(4) == [rec for rec in records4 if rec.maximal]
