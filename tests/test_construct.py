import importlib
import itertools
import math
import random
from fractions import Fraction as F

import pytest

from exact1q.construct import (
    GroupedWeightProfile,
    construct,
    dj_family,
    level_set,
    level_solutions,
    profile,
)
from exact1q.core import hamming_weight, is_symmetric, mask_to_string
from exact1q.errors import ArityTooLargeError, EmptySupportError, ProfileError
from exact1q.feasibility import (
    FeasibilityResult,
    WeightVector,
    decide,
    decide_reduced,
    verify_result,
)
from exact1q.reduction import ReducedFn, reduce

from bruteforce import bf_group_ones


def test_level_solutions_two_groups():
    prof = profile((0, 2, 6), (F(1, 6), F(1, 12)))
    assert level_solutions(prof) == ((1, 4), (2, 2))


def test_level_solutions_single_group_balanced():
    assert level_solutions(profile((0, 4), (F(1, 4),))) == ((2,),)


def test_level_solutions_empty():
    assert level_solutions(profile((0, 3), (F(1, 5),))) == ()


def test_construct_two_group_example():
    prof = profile((0, 2, 6), (F(1, 6), F(1, 12)))
    fn = construct(prof)
    assert fn.zeros == (0,)
    # 2 masks from pattern (1,4) plus 6 from (2,2)
    assert len(fn.ones) == 8
    assert fn.ones == bf_group_ones((0, 2, 6), (F(1, 6), F(1, 12)), 6)
    assert decide(fn).feasible


def test_construct_balanced_level():
    fn = construct(profile((0, 4), (F(1, 4),)))
    assert fn.ones == level_set(4, 2)


def test_construct_two_bit_weight_half():
    fn = construct(profile((0, 2), (F(1, 2),)))
    assert [mask_to_string(m, 2) for m in fn.ones] == ["01", "10"]


def test_construct_empty_support_errors():
    with pytest.raises(EmptySupportError):
        construct(profile((0, 3), (F(1, 5),)))


def test_profile_validation():
    with pytest.raises(ProfileError):
        profile((0, 2, 2), (F(1, 4), F(1, 4)))
    with pytest.raises(ProfileError):
        profile((1, 3), (F(1, 4),))
    with pytest.raises(ProfileError):
        profile((0, 2), (F(0),))
    with pytest.raises(ProfileError):
        profile((0, 2), (F(1, 8),))  # total 1/4 < 1/2
    with pytest.raises(ProfileError):
        profile((0, 2), (F(2, 3),))  # total 4/3 > 1
    with pytest.raises(ProfileError):
        GroupedWeightProfile((0, 2), (F(1, 4), F(1, 4)))


def _value_grid(p):
    pool = (F(1, 2), F(1, 3), F(1, 4), F(1, 6), F(1, 8), F(1, 12))
    return itertools.product(pool, repeat=p)


def _boundary_grid(n, max_groups=3):
    for p in range(1, max_groups + 1):
        for mids in itertools.combinations(range(1, n), p - 1):
            yield (0, *mids, n)


def test_construct_soundness_and_completeness_small():
    # every valid profile on a small grid: the constructed support matches
    # a direct scan of all masks, the expanded weights verify as a witness,
    # and the full decision agrees
    for n in range(1, 7):
        for bounds in _boundary_grid(n):
            for values in _value_grid(len(bounds) - 1):
                try:
                    prof = profile(bounds, values)
                except ProfileError:
                    continue
                expected = bf_group_ones(bounds, values, n)
                if not expected:
                    with pytest.raises(EmptySupportError):
                        construct(prof)
                    continue
                fn = construct(prof)
                assert fn.ones == expected
                g = reduce(fn)
                claimed = FeasibilityResult(True, witness=WeightVector(prof.expand()))
                assert verify_result(g, claimed)
                assert decide(fn).feasible


def test_degenerates_to_per_bit_weights():
    # all group widths 1: the support is exactly the 1-class of the weights
    values = (F(1, 2), F(1, 4), F(1, 4))
    prof = profile((0, 1, 2, 3), values)
    fn = construct(prof)
    assert fn.ones == bf_group_ones((0, 1, 2, 3), values, 3)
    assert decide_reduced(ReducedFn(3, fn.ones)).feasible


def test_dj_family_small():
    members = dj_family(4)
    assert [sorted({hamming_weight(m) for m in fn.ones}) for fn in members] == [[2], [3], [4]]

    assert [fn.ones for fn in dj_family(1)] == [(1,)]
    two = dj_family(2)
    assert [[mask_to_string(m, 2) for m in fn.ones] for fn in two] == [["01", "10"], ["11"]]


def test_dj_family_refuses_past_the_listing_cap():
    # refused before any level is listed; the message names the mask count
    with pytest.raises(ArityTooLargeError, match="listing 1,048,576 masks; the cap is 20 variables"):
        dj_family(21)
    with pytest.raises(ArityTooLargeError, match="exceeds the cap of 24"):
        dj_family(25)


def test_construct_refuses_past_the_listing_cap(monkeypatch):
    # the middle level of 22 bits, counted from the level solutions and
    # refused before any mask is listed
    def no_listing(*args):
        raise AssertionError("listed masks past the cap")

    monkeypatch.setattr(itertools, "product", no_listing)
    with pytest.raises(ArityTooLargeError, match="listing 705,432 masks; the cap is 20 variables or 524,287 masks"):
        construct(profile((0, 22), (F(1, 22),)))
    with pytest.raises(ArityTooLargeError, match="listing 705,432 masks"):
        # the same masks from two groups of 11 bits
        construct(profile((0, 11, 22), (F(1, 22), F(1, 22))))
    monkeypatch.undo()
    # past the arity cap, a small listing still answers: bit 1 alone, or
    # every bit but bit 1
    fn = construct(profile((0, 1, 22), (F(1, 2), F(1, 42))))
    assert (fn.n, fn.ones, fn.zeros) == (22, ((1 << 21) - 1, 1 << 21), (0,))


@pytest.mark.parametrize(
    "boundaries, values",
    [((0, 2, 6), (F(1, 6), F(1, 12))), ((0, 3, 7), (F(1, 8), F(1, 16))), ((0, 10), (F(1, 10),))],
)
def test_construct_counts_its_listing_exactly(monkeypatch, boundaries, values):
    # the count checked against the cap is the size of the support listed
    module = importlib.import_module("exact1q.construct")
    counts = []
    monkeypatch.setattr(module, "check_listing", lambda n, masks, what: counts.append(masks))
    fn = construct(profile(boundaries, values))
    assert counts == [len(fn.ones)]


def test_construct_refuses_before_walking_level_solutions(monkeypatch):
    # 24 one-bit groups of 1/24: C(24, 12) = 2,704,156 masks, each its own
    # level solution, counted group by group and refused with none listed
    module = importlib.import_module("exact1q.construct")

    def no_walk(prof):
        raise AssertionError("walked the level solutions past the cap")

    monkeypatch.setattr(module, "level_solutions", no_walk)
    with pytest.raises(ArityTooLargeError, match="listing 2,704,156 masks; the cap is 20 variables"):
        construct(profile(range(25), [F(1, 24)] * 24))


def test_support_size_matches_level_solutions():
    # the count over partial sums equals the sum over listed solutions, on
    # profiles of one to four groups, empty supports included
    from exact1q.construct import _support_size

    rng = random.Random(7)
    checked = nonempty = 0
    while checked < 300:
        widths = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
        values = [F(rng.randint(1, 5), rng.randint(2, 16)) for _ in widths]
        total = sum(a * w for a, w in zip(values, widths))
        if not F(1, 2) <= total <= 1:
            continue
        prof = profile([0, *itertools.accumulate(widths)], values)
        expected = sum(math.prod(map(math.comb, prof.widths, sol)) for sol in level_solutions(prof))
        assert _support_size(prof) == expected
        checked += 1
        nonempty += expected > 0
    assert nonempty > 50


@pytest.mark.parametrize("n", range(1, 11))
def test_dj_family_members_symmetric_and_feasible(n):
    for fn in dj_family(n):
        assert is_symmetric(fn)
        assert decide(fn).feasible
