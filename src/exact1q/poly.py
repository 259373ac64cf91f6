"""Degree-1 multilinear representations of reduced functions.

A reduced function is single-query decidable iff it is represented by a
polynomial c_1*x_1 + ... + c_n*x_n with every c_i >= 0 and sum(c) <= 2
(store the polynomial's own coefficients, i.e. twice the query weights,
so evaluation needs no bookkeeping). `represent` extracts such a
polynomial from a feasibility witness; `function_of` reads off the
input classes a given admissible polynomial defines, in ints
(`input_classes`, which also serves the classifier's vertex table).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .core import AssignmentMask, check_arity, check_listing, mask_bits, mask_to_string
from .errors import ArityMismatchError, InvalidFormError, NotFeasibleError
from .feasibility import _scaled, decide_reduced
from .reduction import ReducedFn

_TWO = Fraction(2)


@dataclass(frozen=True)
class Degree1Polynomial:
    """p(x) = sum c_i * x_i with constant term fixed to 0."""

    coefficients: tuple[Fraction, ...]

    @property
    def n(self) -> int:
        return len(self.coefficients)

    def evaluate(self, mask: AssignmentMask) -> Fraction:
        if not 0 <= mask < 1 << self.n:
            raise ArityMismatchError(f"mask {mask} out of range for {self.n} variables")
        bits = mask_bits(mask, self.n)
        return sum((c for c, b in zip(self.coefficients, bits) if b), Fraction(0))

    def check_admissible(self) -> None:
        for i, c in enumerate(self.coefficients, start=1):
            if c < 0:
                raise InvalidFormError(f"coefficient {c} of x_{i} is negative")
        total = sum(self.coefficients)
        if total > _TWO:
            raise InvalidFormError(f"coefficient sum {total} exceeds the bound 2")


def polynomial(coefficients: Iterable[Fraction | int]) -> Degree1Polynomial:
    return Degree1Polynomial(tuple(Fraction(c) for c in coefficients))


def represent(g: ReducedFn) -> Degree1Polynomial:
    """Degree-1 polynomial representing a feasible reduced function.

    Built from the deterministic feasibility witness as c_i = 2*z_i, so
    p(x) == 1 on every support mask and p(0) == 0. Raises NotFeasibleError
    when no witness exists.
    """
    result = decide_reduced(g)
    if not result.feasible:
        raise NotFeasibleError(
            "no admissible degree-1 representation: the weight system is infeasible"
        )
    return Degree1Polynomial(tuple(_TWO * z for z in result.witness.z))


@dataclass(frozen=True)
class InputClasses:
    """Partition of all n-bit masks by polynomial value: 0, 1, or anything else."""

    n: int
    zero: tuple[AssignmentMask, ...]
    one: tuple[AssignmentMask, ...]
    star: tuple[AssignmentMask, ...]

    def as_bitstrings(self) -> dict[str, list[str]]:
        return {
            "zeros": [mask_to_string(m, self.n) for m in self.zero],
            "ones": [mask_to_string(m, self.n) for m in self.one],
            "stars": [mask_to_string(m, self.n) for m in self.star],
        }


def _subset_sums(nums: Sequence[int]) -> list[int]:
    """The sum of nums over the set bits of every mask, in mask order, with
    nums[0] on the most significant bit: one addition per mask."""
    sums = [0]
    for v in nums:
        sums = [t for s in sums for t in (s, s + v)]
    return sums


def input_classes(n: int, nums: Sequence[int], den: int) -> InputClasses:
    """Input classes of p = (nums_1*x_1 + ... + nums_n*x_n) / den, in ints.

    A mask is in the 0-class when the nums of its set bits sum to 0 and in
    the 1-class when they sum to den > 0. Admissibility is the caller's.
    The sum of a mask is that of its high half of bits plus that of its
    low half, read from two tables of about 2**(n/2) subset sums, so each
    mask costs one addition and the tables stay small.
    """
    half = n // 2
    low = _subset_sums(nums[half:])
    zero, one, star = [], [], []
    mask = 0
    for high in _subset_sums(nums[:half]):
        for part in low:
            total = high + part
            if total == 0:
                zero.append(mask)
            elif total == den:
                one.append(mask)
            else:
                star.append(mask)
            mask += 1
    return InputClasses(n, tuple(zero), tuple(one), tuple(star))


def function_of(p: Degree1Polynomial) -> InputClasses:
    """Enumerate the input classes an admissible polynomial carves out.

    The 1-class is the widest support any function represented by p can
    have; with strictly positive coefficients the 0-class is exactly the
    all-zeros mask. Rejects inadmissible polynomials, naming the violated
    condition, and arities past `core.LISTING_MAX_ARITY` before listing
    any mask. Scaled by the lcm of its denominators, p is read in ints.
    """
    p.check_admissible()
    n = check_arity(p.n)
    check_listing(n, 1 << n, "the input classes")
    return input_classes(n, *_scaled(p.coefficients))
