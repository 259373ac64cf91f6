import pytest

from exact1q.classify import (
    classify_all,
    enumerate_reduced,
    group_orbits,
    is_dj_computable,
    maximal_feasible,
    nontrivial_catalog,
    orbit_canonical,
    removable_bits,
    reproduce_tables,
)
from exact1q.core import string_to_mask
from exact1q.errors import ArityTooLargeError, SchemaError


def masks(n, *bits):
    return tuple(sorted(string_to_mask(b, n) for b in bits))


def test_record_counts(records3):
    assert len(records3) == 127


def test_n1_classification():
    (rec,) = classify_all(1)
    assert rec.support == (1,)
    assert rec.feasible and rec.symmetric and rec.dj_computable and rec.maximal
    assert not rec.fewer_bits and not rec.non_trivial


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


def test_dj_flag():
    assert is_dj_computable(4, masks(4, "1100", "1010"))
    assert not is_dj_computable(4, masks(4, "1100", "0111"))  # two levels
    assert not is_dj_computable(4, masks(4, "1000"))  # level below ceil(n/2)
    assert is_dj_computable(3, masks(3, "110", "011"))


def test_record_flags_match_oracles(records3, records4):
    # symmetric and dj_computable come from the support key; check them on
    # every support with n <= 4 against the definition and a level scan
    from bruteforce import bf_dj_computable, bf_symmetric

    for n, records in ((1, classify_all(1)), (2, classify_all(2)), (3, records3), (4, records4)):
        assert len(records) == (1 << ((1 << n) - 1)) - 1
        for rec in records:
            assert rec.symmetric == bf_symmetric(n, rec.support, (0,)), rec.support
            assert rec.dj_computable == bf_dj_computable(n, rec.support), rec.support
            assert is_dj_computable(n, rec.support) == rec.dj_computable


def test_enumerate_matches_classify(records3):
    assert list(enumerate_reduced(3)) == records3


def test_removable_bits_match_direct_probes(records3, records4):
    # probes skipped by subset pruning or by a zero witness weight must not
    # change the answer of probing every bit
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


@pytest.mark.parametrize("bit", [0, 3])
def test_removable_bits_rejects_candidates_outside_1_to_n(bit):
    # bit 0 used to read the last weight and bit n + 1 to raise IndexError
    from exact1q.reduction import ReducedFn

    with pytest.raises(SchemaError, match=rf"fixed bits \[{bit}\] outside 1\.\.2"):
        removable_bits(ReducedFn(2, [2]), [bit])


def test_levelwise_solve_count():
    # 2487 feasibility solves plus 617 bit probes, out of 32767 supports
    from exact1q.feasibility import _decide_cached

    _decide_cached.cache_clear()
    classify_all(4)
    assert _decide_cached.cache_info().misses == 3104


def test_arity_guards():
    with pytest.raises(ArityTooLargeError):
        classify_all(5)
    with pytest.raises(ArityTooLargeError):
        nontrivial_catalog(5)
    with pytest.raises(ArityTooLargeError):
        list(enumerate_reduced(6))
    with pytest.raises(ArityTooLargeError):
        reproduce_tables(5)


@pytest.mark.parametrize("n", [-1, 0, True])
@pytest.mark.parametrize(
    "entry",
    [classify_all, maximal_feasible, nontrivial_catalog, lambda n: list(enumerate_reduced(n))],
    ids=["classify_all", "maximal_feasible", "nontrivial_catalog", "enumerate_reduced"],
)
def test_arity_gate_rejects_non_positive_and_bool(entry, n):
    # -1 used to raise ValueError, 0 to return [] and True a record with n=True
    with pytest.raises(SchemaError, match="arity must be a positive integer"):
        entry(n)


def test_orbit_canonicalization():
    a = masks(4, "1100", "1010", "1001", "0111")
    b = masks(4, "0011", "0101", "1001", "1110")  # relabelled image of a
    assert orbit_canonical(a, 4) == orbit_canonical(b, 4)
    orbits = group_orbits([a, b], 4)
    assert len(orbits) == 1


def test_witness_first_mode_matches_full_mode_maximal():
    for n in (2, 3):
        full = {rec.support for rec in classify_all(n) if rec.maximal}
        vertex = {rec.support for rec in maximal_feasible(n)}
        assert vertex == full


def test_witness_first_runs_at_n5_spotcheck(monkeypatch):
    # n=5 maximal supports are produced without subset enumeration; the
    # single-level supports must be among them, and the counts are those
    # of the solver that tried all 435,897 square systems
    from exact1q import classify
    from exact1q.construct import level_set

    calls = {"row": 0, "line": 0, "close": 0, "point": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            out = fn(*args)
            if name == "close" and out is not None:
                calls["point"] += 1
            return out

        return wrapper

    for name, attr in (("row", "extend_echelon"), ("line", "solution_line"), ("close", "close_line")):
        monkeypatch.setattr(classify, attr, counted(name, getattr(classify, attr)))
    recs = maximal_feasible(5)
    # orbit representatives only, depth-first: 10,309 row steps (7 of them
    # an orbit's first row), 7,960 lines, 67,309 last rows of which 41,261
    # meet their line; the square solve per system made 76,020 solves
    assert calls == {"row": 10309, "line": 7960, "close": 67309, "point": 41261}
    supports = {rec.support for rec in recs}
    assert level_set(5, 3) in supports
    assert all(rec.maximal for rec in recs)
    nontrivial = [rec.support for rec in recs if rec.non_trivial]
    assert len(recs) == 142
    assert len(nontrivial) == 85
    assert len(group_orbits(supports, 5)) == 15
    assert len(group_orbits(nontrivial, 5)) == 7


@pytest.mark.parametrize("n", [2, 3, 4])
def test_vertex_witnesses_match_bruteforce(n):
    # the orbit-representative solve, closed under relabelling, finds every
    # vertex the oracle finds by solving all C(2**n + n, n) systems
    from fractions import Fraction

    from bruteforce import bf_vertices

    from exact1q.classify import _vertex_witnesses

    got = {tuple(Fraction(v, 2 * det) for v in nums) for nums, det in _vertex_witnesses(n)}
    assert got == bf_vertices(n)


def test_vertex_witnesses_n5_pinned():
    # the n=5 vertex list, Cramer forms in lowest terms, in sorted order
    import hashlib

    from exact1q.classify import _vertex_witnesses

    vertices = _vertex_witnesses(5)
    assert len(vertices) == 148
    digest = hashlib.sha256(repr(vertices).encode()).hexdigest()
    assert digest == "903876a0fc85b64cff47a00d69338e25606b8ad9ea3fb62c63a08456c821b6b1"


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


def test_reproduce_tables_classifies_once(monkeypatch):
    from exact1q import classify

    calls = []
    levelwise = classify._levelwise
    monkeypatch.setattr(
        classify, "_levelwise", lambda n: calls.append(n) or levelwise(n)
    )
    reproduce_tables(3)
    assert calls == [3]


def test_maximal_feasible_n4_vertex_cross_check(records4):
    from exact1q.classify import _vertex_mode_records

    full = {rec.support for rec in records4 if rec.maximal}
    vertex = {rec.support for rec in _vertex_mode_records(4)}
    assert vertex == full
