"""Canonical reduced form of a promise function.

Any non-constant promise function decides the same one-query question as
the function that is 0 exactly on the all-zeros input and 1 on the XOR
difference set of the original; restricting to a subset of the
difference set can only make the question easier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .core import AssignmentMask, PartialBooleanFn, check_arity, diff_set, _checked_masks
from .errors import EmptySubsetError, NotASubsetError, SchemaError


@dataclass(frozen=True)
class ReducedFn:
    """Canonical form: value 0 only at mask 0, value 1 on `support`, star elsewhere."""

    n: int
    support: tuple[AssignmentMask, ...] = field(default=())

    def __init__(self, n: int, support: Iterable[int]):
        check_arity(n)
        support_t = _checked_masks(support)
        if not support_t:
            raise SchemaError("reduced function needs a nonempty support")
        if support_t[0] == 0:
            raise SchemaError("mask 0 cannot be a 1-input of a reduced function")
        if support_t[-1] >= 1 << n:
            raise SchemaError(f"mask {support_t[-1]} out of range for arity {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "support", support_t)

    def as_function(self) -> PartialBooleanFn:
        return PartialBooleanFn(self.n, ones=self.support, zeros=(0,))


def reduce(f: PartialBooleanFn) -> ReducedFn:
    """Map a non-constant promise function to its canonical reduced form.

    The support is the full XOR difference set, so deciding the result is
    equivalent to deciding the original in both directions.
    """
    return ReducedFn(f.n, diff_set(f))


def reduce_subset(f: PartialBooleanFn, subset: Iterable[AssignmentMask]) -> ReducedFn:
    """Reduced form on a nonempty subset of the difference set.

    Validation is strict: masks outside the difference set are an error,
    never silently dropped.
    """
    subset_t = _checked_masks(subset)
    if not subset_t:
        raise EmptySubsetError("subset reduction needs at least one mask")
    full = set(diff_set(f))
    stray = [m for m in subset_t if m not in full]
    if stray:
        raise NotASubsetError(
            f"mask {stray[0]} is not an XOR difference of the given function"
        )
    return ReducedFn(f.n, subset_t)
