"""Domain types for promise (partial) Boolean functions on bitmask inputs.

Conventions used across the whole package:

* An n-bit input is an integer mask in [0, 2**n). Bit x_1 of the written
  bitstring is the most significant bit of the mask, so the string "1000"
  at n=4 is the mask 8 and listing masks 0..2**n-1 matches the usual
  function-vector order f(0), f(1), ..., f(2**n - 1).
* Mask sets are kept as sorted tuples so every iteration order, output
  file and shard merge is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Iterable, Sequence

from .errors import (
    ArityTooLargeError,
    ConstantFunctionError,
    InvalidPermutationError,
    SchemaError,
)

#: Masks are plain ints; the alias marks intent in signatures.
AssignmentMask = int

#: Hard cap on arity; masks stay cheap ints and exhaustive features never
#: go anywhere near it.
MAX_ARITY = 24


def check_arity(n: int) -> int:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise SchemaError(f"arity must be a positive integer, got {n!r}")
    if n > MAX_ARITY:
        raise ArityTooLargeError(f"arity {n} exceeds the cap of {MAX_ARITY}")
    return n


def mask_bits(mask: AssignmentMask, n: int) -> tuple[int, ...]:
    """Bits x_1..x_n of an n-bit mask as 0/1, x_1 the most significant."""
    return tuple([mask >> s & 1 for s in range(n - 1, -1, -1)])


def mask_to_string(mask: AssignmentMask, n: int) -> str:
    return format(mask, f"0{n}b")


def string_to_mask(bits: str, n: int) -> AssignmentMask:
    """Parse an n-character bitstring; errors name the offending string."""
    if len(bits) != n or any(c not in "01" for c in bits):
        raise SchemaError(f"bad bitstring {bits!r}: expected {n} characters over 0/1")
    return int(bits, 2)


def hamming_weight(mask: AssignmentMask) -> int:
    """Number of 1-bits of the input mask."""
    return mask.bit_count()


def sign_vector(mask: AssignmentMask, n: int) -> tuple[int, ...]:
    """Length-(n+1) vector over {+1, -1}: entry 0 is +1, entry i is (-1)**x_i."""
    return (1,) + tuple([1 - 2 * b for b in mask_bits(mask, n)])


def _sorted_masks(masks: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(set(masks)))


@dataclass(frozen=True)
class PartialBooleanFn:
    """A promise function: value 1 on `ones`, 0 on `zeros`, undefined elsewhere.

    Immutable after construction; safe to share between threads/processes.
    """

    n: int
    ones: tuple[AssignmentMask, ...] = field(default=())
    zeros: tuple[AssignmentMask, ...] = field(default=())

    def __init__(self, n: int, ones: Iterable[int] = (), zeros: Iterable[int] = ()):
        check_arity(n)
        ones_t = _sorted_masks(ones)
        zeros_t = _sorted_masks(zeros)
        limit = 1 << n
        for m in ones_t + zeros_t:
            if not 0 <= m < limit:
                raise SchemaError(f"mask {m} out of range for arity {n}")
        overlap = set(ones_t) & set(zeros_t)
        if overlap:
            culprit = mask_to_string(min(overlap), n)
            raise SchemaError(f"mask {culprit!r} listed as both a 0-input and a 1-input")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "ones", ones_t)
        object.__setattr__(self, "zeros", zeros_t)

    @property
    def domain(self) -> tuple[AssignmentMask, ...]:
        return _sorted_masks(self.ones + self.zeros)

    def non_constant(self) -> bool:
        return bool(self.ones) and bool(self.zeros)


def from_strings(n: int, ones: Sequence[str], zeros: Sequence[str]) -> PartialBooleanFn:
    return PartialBooleanFn(
        n,
        ones=[string_to_mask(s, n) for s in ones],
        zeros=[string_to_mask(s, n) for s in zeros],
    )


def diff_set(f: PartialBooleanFn) -> tuple[AssignmentMask, ...]:
    """All XOR differences a ^ b between 0-inputs and 1-inputs, sorted.

    Never contains 0 because the two input classes are disjoint.
    """
    if not f.non_constant():
        raise ConstantFunctionError(
            "difference set needs a non-constant function (both classes nonempty)"
        )
    return _sorted_masks(a ^ b for a in f.zeros for b in f.ones)


def is_symmetric(f: PartialBooleanFn) -> bool:
    """True when membership and value depend only on the Hamming weight.

    Both conditions are checked: equal-weight inputs never disagree in
    value, and each weight level is either entirely inside the promise
    set or entirely outside it.
    """
    ones_w = {}
    zeros_w = {}
    for m in f.ones:
        ones_w[hamming_weight(m)] = ones_w.get(hamming_weight(m), 0) + 1
    for m in f.zeros:
        zeros_w[hamming_weight(m)] = zeros_w.get(hamming_weight(m), 0) + 1
    for w in set(ones_w) | set(zeros_w):
        if w in ones_w and w in zeros_w:
            return False
        covered = ones_w.get(w, 0) + zeros_w.get(w, 0)
        if covered != comb(f.n, w):
            return False
    return True


def check_permutation(perm: Sequence[int], n: int) -> tuple[int, ...]:
    perm_t = tuple(perm)
    if sorted(perm_t) != list(range(1, n + 1)):
        raise InvalidPermutationError(f"{perm_t!r} is not a bijection on 1..{n}")
    return perm_t


def permute_mask(mask: AssignmentMask, perm: Sequence[int], n: int) -> AssignmentMask:
    """Relabel bit positions: bit perm[i] of the result equals bit i of mask."""
    return sum(1 << (n - p) for p, b in zip(perm, mask_bits(mask, n)) if b)


def permute_bits(f: PartialBooleanFn, perm: Sequence[int]) -> PartialBooleanFn:
    """Apply a bit relabelling to a function; the identity returns an equal value."""
    perm_t = check_permutation(perm, f.n)
    return PartialBooleanFn(
        f.n,
        ones=[permute_mask(m, perm_t, f.n) for m in f.ones],
        zeros=[permute_mask(m, perm_t, f.n) for m in f.zeros],
    )
