"""Forward construction: all functions a given weighted one-query algorithm decides.

A grouped weight profile fixes query weights that are constant on p
contiguous bit groups. Every input the algorithm maps to output 1 must
put total weight exactly 1/2 on its set bits, which depends only on the
per-group Hamming weights. Enumerating the integer solutions of that
group-weight equation therefore enumerates the full support.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .core import PartialBooleanFn, check_arity, check_listing
from .errors import EmptySupportError, ProfileError

_HALF = Fraction(1, 2)

#: A level solution is one admissible tuple of per-group Hamming weights.
LevelSolution = tuple[int, ...]


@dataclass(frozen=True)
class GroupedWeightProfile:
    """Weights a_1..a_p on bit groups delimited by 0 = k_0 < k_1 < ... < k_p = n."""

    boundaries: tuple[int, ...]
    values: tuple[Fraction, ...]

    def __post_init__(self):
        k = self.boundaries
        a = self.values
        if len(k) < 2 or k[0] != 0:
            raise ProfileError("boundaries must start at 0 and contain at least one group")
        if any(not isinstance(v, int) for v in k) or any(x >= y for x, y in zip(k, k[1:])):
            raise ProfileError(f"boundaries {k!r} must be strictly increasing integers")
        if len(a) != len(k) - 1:
            raise ProfileError("need exactly one weight value per group")
        if any(v <= 0 for v in a):
            raise ProfileError("group weights must be positive")
        check_arity(k[-1])
        total = self.total_weight()
        if not _HALF <= total <= 1:
            raise ProfileError(f"total weight {total} outside [1/2, 1]")

    @property
    def n(self) -> int:
        return self.boundaries[-1]

    @property
    def widths(self) -> tuple[int, ...]:
        return tuple(b - a for a, b in zip(self.boundaries, self.boundaries[1:]))

    def total_weight(self) -> Fraction:
        return sum((a * w for a, w in zip(self.values, self.widths)), Fraction(0))

    def expand(self) -> tuple[Fraction, ...]:
        """Per-bit weights z_1..z_n (group value repeated across its width)."""
        out: list[Fraction] = []
        for a, w in zip(self.values, self.widths):
            out.extend([a] * w)
        return tuple(out)


def profile(boundaries: Sequence[int], values: Iterable[Fraction | int | str]) -> GroupedWeightProfile:
    return GroupedWeightProfile(tuple(boundaries), tuple(Fraction(v) for v in values))


def _reachable(prof: GroupedWeightProfile) -> list[Fraction]:
    """Entry i is the most weight groups i..p-1 can still add."""
    tail = [Fraction(0)] * (len(prof.widths) + 1)
    for i in range(len(prof.widths) - 1, -1, -1):
        tail[i] = tail[i + 1] + prof.values[i] * prof.widths[i]
    return tail


def level_solutions(prof: GroupedWeightProfile) -> tuple[LevelSolution, ...]:
    """All per-group weight tuples m with sum a_i*m_i == 1/2, 0 <= m_i <= width_i.

    Depth-first over groups with exact partial sums; branches are cut as
    soon as the remaining groups cannot reach the deficit (weights are
    positive, so overshoot also cuts).
    """
    widths = prof.widths
    values = prof.values
    p = len(widths)
    tail = _reachable(prof)

    out: list[LevelSolution] = []
    stack: list[int] = []

    def walk(i: int, acc: Fraction) -> None:
        if acc > _HALF or acc + tail[i] < _HALF:
            return
        if i == p:
            if acc == _HALF:
                out.append(tuple(stack))
            return
        for m in range(widths[i] + 1):
            stack.append(m)
            walk(i + 1, acc + values[i] * m)
            stack.pop()

    walk(0, Fraction(0))
    return tuple(sorted(out))


def _support_size(prof: GroupedWeightProfile) -> int:
    """The number of masks whose group weights solve the level equation:
    the sum over level solutions m of prod comb(width_i, m_i), counted
    group by group over the exact partial sums that can still reach 1/2,
    so no solution is listed."""
    counts = {Fraction(0): 1}
    for a, w, rest in zip(prof.values, prof.widths, _reachable(prof)[1:]):
        step: dict[Fraction, int] = {}
        for acc, count in counts.items():
            for m in range(w + 1):
                total = acc + a * m
                if total > _HALF:
                    break
                if total + rest >= _HALF:
                    step[total] = step.get(total, 0) + count * math.comb(w, m)
        counts = step
    return counts.get(_HALF, 0)


def construct(prof: GroupedWeightProfile) -> PartialBooleanFn:
    """The promise function this profile's algorithm decides: 0 only on the
    all-zeros input, 1 on every mask whose group weights solve the level
    equation, undefined elsewhere. A support past the listing cap
    (`core.check_listing`) is refused from its count (`_support_size`),
    before any level solution or mask is listed."""
    n = prof.n
    count = _support_size(prof)
    if not count:
        raise EmptySupportError("profile admits no level solutions; nothing to compute")
    check_listing(n, count, "the profile's support")
    widths = prof.widths
    ones: set[int] = set()
    for sol in level_solutions(prof):
        per_group = []
        offset = n
        for w, m in zip(widths, sol):
            # positions inside the group, as bit shifts within the mask
            shifts = [offset - 1 - j for j in range(w)]
            per_group.append([sum(1 << s for s in combo) for combo in itertools.combinations(shifts, m)])
            offset -= w
        for parts in itertools.product(*per_group):
            ones.add(sum(parts))
    return PartialBooleanFn(n, ones=ones, zeros=(0,))


def level_set(n: int, weight: int) -> tuple[int, ...]:
    """All n-bit masks of the given Hamming weight, ascending."""
    return tuple(sorted(
        sum(1 << s for s in combo)
        for combo in itertools.combinations(range(n), weight)
    ))


def dj_family(n: int) -> list[PartialBooleanFn]:
    """One function per reachable single Hamming level.

    An equal-superposition algorithm decides exactly the functions that
    are 0 on the all-zeros input and 1 on one weight level c with
    ceil(n/2) <= c <= n; every member is symmetric. Arities past
    `core.LISTING_MAX_ARITY` are refused before any level is listed.
    """
    levels = range((check_arity(n) + 1) // 2, n + 1)
    check_listing(n, sum(math.comb(n, c) for c in levels), "the DJ family")
    return [PartialBooleanFn(n, ones=level_set(n, c), zeros=(0,)) for c in levels]
