from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from exact1q.core import string_to_mask
from exact1q.errors import ArityMismatchError, InvalidFormError, NotFeasibleError
from exact1q.feasibility import decide_reduced
from exact1q.poly import function_of, polynomial, represent
from exact1q.reduction import ReducedFn


def g(n, *bits):
    return ReducedFn(n, [string_to_mask(b, n) for b in bits])


def test_represent_symmetric_three_bit():
    p = represent(g(3, "110", "101", "011"))
    assert p.coefficients == (F(1, 2), F(1, 2), F(1, 2))
    assert p.evaluate(0b110) == 1
    assert p.evaluate(0) == 0


def test_represent_single_bit():
    assert represent(g(1, "1")).coefficients == (F(1),)


def test_represent_rejects_infeasible():
    with pytest.raises(NotFeasibleError):
        represent(g(3, "001", "010", "111"))


def test_represent_guarantees(records3):
    # on every feasible 3-bit support the produced polynomial is admissible
    # and evaluates to 1 across the support
    for rec in records3:
        if not rec.feasible:
            continue
        inst = ReducedFn(3, rec.support)
        p = represent(inst)
        p.check_admissible()
        assert all(p.evaluate(m) == 1 for m in rec.support)
        assert p.evaluate(0) == 0


def test_evaluate():
    p = polynomial([F(2, 3), F(1, 3), F(1, 3), F(1, 3)])
    assert p.evaluate(string_to_mask("0111", 4)) == 1
    assert p.evaluate(0) == 0
    with pytest.raises(ArityMismatchError):
        p.evaluate(1 << 4)


def test_function_of_middle_level():
    classes = function_of(polynomial([F(1, 2)] * 4))
    assert classes.zero == (0,)
    assert classes.one == tuple(m for m in range(16) if bin(m).count("1") == 2)
    assert all(bin(m).count("1") in (1, 3, 4) for m in classes.star)


def test_input_classes_of_cramer_forms():
    # the classifier reads a vertex's 1-class from its Cramer form (nums, det)
    # with the helper `function_of` uses after scaling to ints
    from exact1q.classify import _vertex_witnesses
    from exact1q.poly import input_classes

    for n in (2, 3, 4):
        for nums, det in _vertex_witnesses(n):
            p = polynomial(F(v, det) for v in nums)
            assert input_classes(n, nums, det) == function_of(p)
            assert function_of(p).one == tuple(m for m in range(1 << n) if p.evaluate(m) == 1)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 10).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(0, 6), min_size=n, max_size=n))
    ),
    st.integers(1, 12),
)
def test_input_classes_match_per_mask_sums(n_nums, den):
    # the split subset-sum tables give each mask the sum of the nums of its
    # set bits, zero nums and den below some sums included
    from bruteforce import bf_input_classes

    from exact1q.poly import input_classes

    n, nums = n_nums
    classes = input_classes(n, nums, den)
    assert (classes.zero, classes.one, classes.star) == bf_input_classes(n, nums, den)


def test_function_of_rejects_negative_coefficient():
    with pytest.raises(InvalidFormError, match="negative"):
        function_of(polynomial([-1, 1, 1]))


def test_function_of_rejects_large_sum():
    with pytest.raises(InvalidFormError, match="exceeds"):
        function_of(polynomial([1, 1, 1]))


def test_function_of_zero_polynomial_is_degenerate():
    classes = function_of(polynomial([0, 0]))
    assert classes.one == ()
    assert classes.zero == (0, 1, 2, 3)


def test_round_trip_one_class_covers_support(records3):
    # the 1-class of the witness polynomial is the widest feasible support
    # containing the original one
    for rec in records3:
        if not rec.feasible:
            continue
        inst = ReducedFn(3, rec.support)
        classes = function_of(represent(inst))
        assert set(rec.support) <= set(classes.one)
        assert decide_reduced(ReducedFn(3, classes.one)).feasible


def test_round_trip_n4(records4):
    for rec in records4:
        if not rec.feasible:
            continue
        p = polynomial([2 * z for z in rec.witness.z])
        classes = function_of(p)
        assert set(rec.support) <= set(classes.one)
        assert 0 in classes.zero
        # with strictly positive coefficients, 0 is pinned down exactly
        if all(c > 0 for c in p.coefficients):
            assert classes.zero == (0,)


def test_feasibility_equivalence_via_polynomials(records3):
    # feasible <=> some admissible degree-1 polynomial hits 1 on the support
    for rec in records3:
        inst = ReducedFn(3, rec.support)
        if rec.feasible:
            p = represent(inst)
            assert all(p.evaluate(m) == 1 for m in rec.support)
        else:
            with pytest.raises(NotFeasibleError):
                represent(inst)
