import itertools
import re
from fractions import Fraction as F

import pytest

from exact1q.core import (
    PartialBooleanFn,
    diff_set,
    from_strings,
    hamming_weight,
    is_symmetric,
    mask_bits,
    mask_to_string,
    permute_bits,
    sign_vector,
    string_to_mask,
)
from exact1q.errors import (
    ArityTooLargeError,
    ConstantFunctionError,
    InvalidPermutationError,
    SchemaError,
)
from exact1q.feasibility import WeightVector

from bruteforce import bf_diff_set, bf_symmetric


def test_bit_convention_msb_first():
    # "1000" at n=4 is mask 8: written position 1 is the most significant bit
    assert string_to_mask("1000", 4) == 8
    assert mask_to_string(8, 4) == "1000"
    assert mask_bits(0b1000, 4) == (1, 0, 0, 0)
    assert mask_bits(string_to_mask("0110", 4), 4) == (0, 1, 1, 0)


@pytest.mark.parametrize(
    "bits,n,expected",
    [("0000", 4, 0), ("0111", 4, 3), ("110110", 6, 4)],
)
def test_hamming_weight(bits, n, expected):
    assert hamming_weight(string_to_mask(bits, n)) == expected


@pytest.mark.parametrize(
    "bits,n,expected",
    [
        ("00", 2, (1, 1, 1)),
        ("10", 2, (1, -1, 1)),
        ("111", 3, (1, -1, -1, -1)),
    ],
)
def test_sign_vector(bits, n, expected):
    assert sign_vector(string_to_mask(bits, n), n) == expected


def test_sign_vector_entry_identity():
    # entry i equals 1 - 2*x_i for every input
    for n in (1, 2, 3, 4):
        for mask in range(1 << n):
            assert sign_vector(mask, n) == (1,) + tuple(1 - 2 * b for b in mask_bits(mask, n))


def test_diff_set_examples():
    deutsch = from_strings(2, ones=["01", "10"], zeros=["00", "11"])
    assert diff_set(deutsch) == (0b01, 0b10)

    f = from_strings(4, ones=["1100", "0011"], zeros=["0000"])
    assert diff_set(f) == (0b0011, 0b1100)

    g = from_strings(2, ones=["01", "10"], zeros=["00", "11"])
    assert diff_set(g) == bf_diff_set(g.ones, g.zeros)


def test_diff_set_matches_bruteforce_everywhere_n2():
    masks = range(4)
    for ones_bits in range(1, 16):
        for zeros_bits in range(1, 16):
            if ones_bits & zeros_bits:
                continue
            ones = [m for m in masks if ones_bits >> m & 1]
            zeros = [m for m in masks if zeros_bits >> m & 1]
            f = PartialBooleanFn(2, ones=ones, zeros=zeros)
            assert diff_set(f) == bf_diff_set(ones, zeros)
            # swapping the roles of the two classes leaves the set alone
            assert diff_set(f) == diff_set(PartialBooleanFn(2, ones=zeros, zeros=ones))
            assert 0 not in diff_set(f)


def test_diff_set_rejects_constant():
    with pytest.raises(ConstantFunctionError):
        diff_set(PartialBooleanFn(2, ones=[0, 3]))


def test_is_symmetric_examples():
    assert is_symmetric(from_strings(3, ones=["110", "101", "011"], zeros=["000"]))
    assert not is_symmetric(
        from_strings(4, ones=["1100", "1010", "1001", "0111"], zeros=["0000"])
    )
    assert is_symmetric(from_strings(4, ones=[], zeros=["0000"]))


def test_is_symmetric_matches_bruteforce_n3():
    # every disjoint (ones, zeros) pair over 3-bit masks
    for ones_bits in range(256):
        for zeros_bits in range(256):
            if ones_bits & zeros_bits:
                continue
            ones = [m for m in range(8) if ones_bits >> m & 1]
            zeros = [m for m in range(8) if zeros_bits >> m & 1]
            f = PartialBooleanFn(3, ones=ones, zeros=zeros)
            assert is_symmetric(f) == bf_symmetric(3, ones, zeros), (ones, zeros)


def test_permute_bits():
    f = from_strings(3, ones=["100"], zeros=["000"])
    ident = permute_bits(f, (1, 2, 3))
    assert ident == f

    swapped = permute_bits(f, (3, 2, 1))
    assert swapped.ones == (string_to_mask("001", 3),)

    g = from_strings(3, ones=["110", "010"], zeros=["001"])
    perm = (2, 3, 1)
    inverse = (3, 1, 2)
    assert permute_bits(permute_bits(g, perm), inverse) == g


def test_permute_bits_preserves_structure():
    f = from_strings(4, ones=["1100", "1010", "1001", "0111"], zeros=["0000"])
    for perm in itertools.permutations(range(1, 5)):
        g = permute_bits(f, perm)
        assert len(g.ones) == len(f.ones)
        assert len(g.zeros) == len(f.zeros)
        assert sorted(map(hamming_weight, g.ones)) == sorted(map(hamming_weight, f.ones))
        assert is_symmetric(g) == is_symmetric(f)


def test_permute_bits_rejects_non_bijection():
    f = from_strings(2, ones=["01"], zeros=["00"])
    with pytest.raises(InvalidPermutationError):
        permute_bits(f, (1, 1))


def test_constructor_validation():
    with pytest.raises(SchemaError):
        PartialBooleanFn(2, ones=[1], zeros=[1])
    with pytest.raises(SchemaError):
        PartialBooleanFn(2, ones=[4])
    with pytest.raises(ArityTooLargeError):
        PartialBooleanFn(25)
    with pytest.raises(SchemaError):
        PartialBooleanFn(True)
    with pytest.raises(SchemaError):
        string_to_mask("10", 3)
    with pytest.raises(SchemaError):
        string_to_mask("1a0", 3)


@pytest.mark.parametrize("ones, zeros", [([0.5], [0]), (["1"], [0]), ([1], [False]), ([1, 1.0], [0])])
def test_constructor_rejects_non_int_masks(ones, zeros):
    # a mask is an int and not a bool, checked before any sort or range test
    with pytest.raises(SchemaError, match="masks must be integers"):
        PartialBooleanFn(2, ones=ones, zeros=zeros)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: WeightVector([F(1, 2)]), None),
        (lambda: WeightVector(0.5), "weights must be a list of integers or Fractions, got 0.5"),
        (lambda: PartialBooleanFn(2, ones=1), "masks must be a list of integers, got 1"),
    ],
    ids=["weights-as-list", "weights-not-iterable", "masks-not-iterable"],
)
def test_inputs_from_outside(build, message):
    # weights given as a list are kept as a tuple, so the vector hashes; a
    # value that is not iterable is a SchemaError, not a raw TypeError
    if message is None:
        vector = build()
        assert vector.z == (F(1, 2),) and hash(vector) == hash(WeightVector((F(1, 2),)))
    else:
        with pytest.raises(SchemaError, match=re.escape(message)):
            build()


def test_non_constant_flag():
    assert from_strings(2, ones=["01"], zeros=["00"]).non_constant()
    assert not PartialBooleanFn(2, ones=[1, 2]).non_constant()
    assert not PartialBooleanFn(2).non_constant()
