import pytest

from exact1q.core import PartialBooleanFn, diff_set, from_strings, permute_bits, string_to_mask
from exact1q.errors import ConstantFunctionError, EmptySubsetError, NotASubsetError, SchemaError
from exact1q.feasibility import decide, decide_reduced
from exact1q.reduction import ReducedFn, reduce, reduce_subset

from bruteforce import bf_decide_unreduced


def masks(n, *bits):
    return tuple(string_to_mask(b, n) for b in bits)


def test_reduce_deutsch():
    f = from_strings(2, ones=["01", "10"], zeros=["00", "11"])
    assert reduce(f).support == masks(2, "01", "10")


def test_reduce_single_pair():
    f = from_strings(4, ones=["1111"], zeros=["0000"])
    assert reduce(f).support == masks(4, "1111")


def test_reduce_balanced_level_function():
    # 0-inputs at weights 0 and 4, 1-inputs on the middle level: XORing the
    # middle level with either end lands on the middle level again, so the
    # support is exactly the six weight-2 masks.
    ones = ["0011", "0101", "0110", "1001", "1010", "1100"]
    f = from_strings(4, ones=ones, zeros=["0000", "1111"])
    assert reduce(f).support == masks(4, *ones)


def test_reduce_idempotent_on_reduced_form():
    g = ReducedFn(3, masks(3, "110", "101"))
    again = reduce(g.as_function())
    assert again == g


def test_reduce_rejects_constant():
    with pytest.raises(ConstantFunctionError):
        reduce(PartialBooleanFn(3, ones=[1, 2]))


def test_reduce_subset():
    f = from_strings(2, ones=["01", "10"], zeros=["00", "11"])
    assert reduce_subset(f, masks(2, "01")).support == masks(2, "01")
    assert reduce_subset(f, diff_set(f)) == reduce(f)

    with pytest.raises(NotASubsetError):
        reduce_subset(f, masks(2, "11"))
    with pytest.raises(EmptySubsetError):
        reduce_subset(f, ())


def test_reduced_fn_validation():
    with pytest.raises(SchemaError):
        ReducedFn(2, [])
    with pytest.raises(SchemaError):
        ReducedFn(2, [0, 1])
    with pytest.raises(SchemaError):
        ReducedFn(2, [4])


@pytest.mark.parametrize("support", [[1.0], ["01"], [True], [2, 1.0]])
def test_reduced_fn_rejects_non_int_masks(support):
    with pytest.raises(SchemaError, match="masks must be integers"):
        ReducedFn(2, support)


def test_reduce_commutes_with_permutation():
    f = from_strings(3, ones=["110", "011"], zeros=["000", "111"])
    perm = (2, 3, 1)
    lhs = reduce(permute_bits(f, perm)).support
    rhs = tuple(sorted(
        permute_bits(PartialBooleanFn(3, ones=reduce(f).support, zeros=(0,)), perm).ones
    ))
    assert lhs == rhs


def test_subset_reduction_preserves_feasibility():
    # a witness for f satisfies any subset of its constraints, so every
    # nonempty subset of the difference set of a feasible function stays
    # feasible
    import itertools

    feasible_fns = [
        from_strings(2, ones=["01", "10"], zeros=["00", "11"]),
        from_strings(3, ones=["110", "101", "011"], zeros=["000"]),
        from_strings(3, ones=["111"], zeros=["000", "110"]),
    ]
    for f in feasible_fns:
        assert decide(f).feasible
        diffs = diff_set(f)
        for r in range(1, len(diffs) + 1):
            for subset in itertools.combinations(diffs, r):
                assert decide_reduced(reduce_subset(f, subset)).feasible


def test_reduction_law_iff_is_spot_checked_small():
    # the exhaustive 3-bit sweep lives in the acceptance suite; keep a
    # fast 2-bit version here
    for ones_bits in range(1, 16):
        for zeros_bits in range(1, 16):
            if ones_bits & zeros_bits:
                continue
            f = PartialBooleanFn(
                2,
                ones=[m for m in range(4) if ones_bits >> m & 1],
                zeros=[m for m in range(4) if zeros_bits >> m & 1],
            )
            assert decide(f).feasible == bf_decide_unreduced(f)
