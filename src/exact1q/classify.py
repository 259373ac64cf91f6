"""Exhaustive classification of reduced functions at small arity.

Full-subset mode classifies every nonempty support over the nonzero
masks (gated to n <= 4; that is 32767 supports at n=4). It walks the
subset lattice levelwise, by support size: feasibility is closed under
taking subsets, so a support is decided only when every immediate subset
(one mask dropped) is feasible, and every other support is recorded
infeasible without a solve. At n=4 that is 2487 solves, not 32767.
At n=5 only witness-first mode is available: the maximal feasible
supports are recovered from the vertices of the weight-constraint
arrangement instead of walking all 2**31 subsets. The vertices are
found in integers (fraction-free elimination, Cramer form) and only for
orbit representatives under bit relabelling, then closed under the n!
relabellings. The systems are walked depth-first, one row at a time, so
systems that share rows share their elimination: at n=5, 10,309 row
steps and 7,960 solution lines close 67,309 systems (76,020 square
solves one system at a time, 435,897 without orbits), for 148 vertices
and 142 maximal supports.

A record is non-trivial when it is feasible, needs every bit (no
single query weight can be pinned to zero), is not symmetric, and does
not sit inside one reachable Hamming level. `reproduce_tables` re-derives
the bundled catalog rows and itemizes every disagreement.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from . import catalog
from .core import (
    check_arity,
    hamming_weight,
    mask_bits,
    mask_to_string,
    permute_mask,
    string_to_mask,
)
from .errors import ArityTooLargeError, InternalError
from .feasibility import (
    FeasibilityResult,
    WeightVector,
    _fixed_bit_set,
    decide_reduced,
    decide_with_fixed_zeros,
    verify_result,
)
from .intlinalg import close_line, extend_echelon, solution_line
from .reduction import ReducedFn

FULL_MODE_MAX = 4
VERTEX_MODE_MAX = 5


@dataclass(frozen=True)
class ClassificationRecord:
    n: int
    support: tuple[int, ...]
    feasible: bool
    witness: WeightVector | None
    symmetric: bool
    dj_computable: bool
    removable_bits: tuple[int, ...]
    maximal: bool = False
    included_by: tuple[int, ...] | None = None

    @property
    def fewer_bits(self) -> bool:
        return bool(self.removable_bits)

    @property
    def non_trivial(self) -> bool:
        return (
            self.feasible
            and not self.fewer_bits
            and not self.symmetric
            and not self.dj_computable
        )

    def support_strings(self) -> tuple[str, ...]:
        return _mask_labels(self.n, self.support)

    def included_by_strings(self) -> tuple[str, ...]:
        return _mask_labels(self.n, self.included_by or ())


@lru_cache(maxsize=None)
def _mask_strings(n: int) -> tuple[str, ...]:
    """`mask_to_string` of every n-bit mask, indexed by mask: built once per
    classification arity, so emitting records formats no mask again."""
    return tuple(mask_to_string(m, n) for m in range(1 << n))


def _mask_labels(n: int, masks: Iterable[int]) -> tuple[str, ...]:
    names = _mask_strings(n)
    return tuple([names[m] for m in masks])


def _support_key(support: Sequence[int]) -> int:
    """Characteristic bitset of a support: bit m-1 set iff mask m is in it."""
    key = 0
    for m in support:
        key |= 1 << (m - 1)
    return key


def _key_support(key: int) -> tuple[int, ...]:
    """The masks of a support key, ascending: one step per set bit."""
    support = []
    while key:
        low = key & -key
        support.append(low.bit_length())
        key ^= low
    return tuple(support)


@lru_cache(maxsize=None)
def _level_keys(n: int) -> tuple[int, ...]:
    """Support key of each Hamming level: entry c - 1 holds every mask of
    weight c, for c = 1..n."""
    keys = [0] * n
    for m in range(1, 1 << n):
        keys[m.bit_count() - 1] |= 1 << (m - 1)
    return tuple(keys)


def _key_symmetric(n: int, key: int) -> bool:
    """The support is a union of whole Hamming levels: with the 0-input 0,
    which is all of level 0, that is `core.is_symmetric`."""
    return all(key & level in (0, level) for level in _level_keys(n))


def _key_dj_computable(n: int, key: int) -> bool:
    """The nonempty support sits inside one level c >= ceil(n/2)."""
    return key != 0 and any(key & level == key for level in _level_keys(n)[(n - 1) // 2:])


def is_dj_computable(n: int, support: Sequence[int]) -> bool:
    """Support (nonzero n-bit masks) confined to one Hamming level c with
    ceil(n/2) <= c <= n.

    The classifier's flag, meant for its arities: the level keys it tests
    against are 2**n-bit ints, built once per n.
    """
    return _key_dj_computable(n, _support_key(support))


def removable_bits(g: ReducedFn, candidates: Iterable[int] | None = None) -> tuple[int, ...]:
    """Bits whose query weight can be zero in some feasible assignment.

    Only bits in `candidates` (default: every bit; SchemaError for one
    outside 1..n) can be reported. A bit whose weight is already zero in
    the `decide_reduced` witness needs no probe; every other candidate is
    probed with its weight pinned to zero.
    """
    bits = range(1, g.n + 1) if candidates is None else sorted(_fixed_bit_set(g.n, candidates))
    res = decide_reduced(g)
    if not res.feasible:
        return ()
    return tuple(
        i
        for i in bits
        if res.witness.z[i - 1] == 0 or decide_with_fixed_zeros(g, {i}).feasible
    )


def _record(
    n: int, key: int, witness: WeightVector | None, removable: tuple[int, ...]
) -> ClassificationRecord:
    return ClassificationRecord(
        n=n,
        support=_key_support(key),
        feasible=witness is not None,
        witness=witness,
        symmetric=_key_symmetric(n, key),
        dj_computable=_key_dj_computable(n, key),
        removable_bits=removable,
    )


def _classify_support(
    n: int, key: int, candidates: Iterable[int] | None = None
) -> ClassificationRecord:
    g = ReducedFn(n, _key_support(key))
    return _record(n, key, decide_reduced(g).witness, removable_bits(g, candidates))


def _inclusion(keys: Iterable[int]) -> dict[int, int | None]:
    """Each distinct support key mapped to its first maximal strict
    superset among `keys`, or to None when it is maximal.

    One sweep in (-popcount, key) order, which is also the order "first"
    refers to: a strict superset has more masks, so every maximal key is
    met before its subsets. Subset tests are bitset tests on the keys.
    """
    maximal: list[int] = []
    parents: dict[int, int | None] = {}
    for key in sorted(set(keys), key=lambda k: (-k.bit_count(), k)):
        parent = next((m for m in maximal if key & m == key), None)
        if parent is None:
            maximal.append(key)
        parents[key] = parent
    return parents


def _levelwise(n: int) -> list[ClassificationRecord]:
    """Walk the supports by size, deciding only those whose immediate
    subsets are all feasible.

    Any other support is infeasible: the Farkas certificate of an
    infeasible subset, padded with zero multipliers, certifies it. Bit
    removability is subset-closed too (a zero-weight witness for a support
    serves each of its subsets), so a candidate probes only the bits that
    every immediate subset can drop. Feasible records are then marked
    maximal or given their first maximal superset (`_inclusion`).
    """
    n_masks = (1 << n) - 1
    # removable bits of every feasible support met so far, by support key;
    # the empty support is feasible with every bit removable
    removable: dict[int, frozenset[int]] = {0: frozenset(range(1, n + 1))}
    records: dict[int, ClassificationRecord] = {}
    layer = [0]
    while layer:
        # candidates have one mask more than the layer's supports, so
        # recording one cannot change which of the others are decided
        larger = []
        for key in layer:
            # a candidate is generated once, from its subset without its top mask
            for b in range(key.bit_length(), n_masks):
                cand = key | 1 << b
                subsets = [cand ^ 1 << c for c in range(b + 1) if cand >> c & 1]
                if all(s in removable for s in subsets):
                    common = frozenset.intersection(*(removable[s] for s in subsets))
                    rec = records[cand] = _classify_support(n, cand, common)
                    if rec.feasible:
                        removable[cand] = frozenset(rec.removable_bits)
                        larger.append(cand)
        layer = larger
    parents = _inclusion(key for key in removable if key)
    out = []
    for key in range(1, 1 << n_masks):
        rec = records[key] if key in records else _record(n, key, None, ())
        if key in parents:
            parent = parents[key]
            included_by = None if parent is None else _key_support(parent)
            rec = replace(rec, maximal=parent is None, included_by=included_by)
        out.append(rec)
    return out


def classify_all(n: int) -> list[ClassificationRecord]:
    """All 2**(2**n - 1) - 1 records at arity n (full mode, n <= 4), in
    support-key order."""
    if check_arity(n) > FULL_MODE_MAX:
        raise ArityTooLargeError(
            f"full-subset classification is gated to n <= {FULL_MODE_MAX}; "
            f"n = 5 offers witness-first maximal_feasible only"
        )
    return _levelwise(n)


def enumerate_reduced(n: int) -> Iterator[ClassificationRecord]:
    """Stream classification records in deterministic support-key order.

    n <= 4 streams every support; n = 5 streams only the maximal feasible
    supports (witness-first mode).
    """
    if check_arity(n) > VERTEX_MODE_MAX:
        raise ArityTooLargeError(f"classification is supported for n <= {VERTEX_MODE_MAX}")
    if n <= FULL_MODE_MAX:
        yield from classify_all(n)
    else:
        yield from _vertex_mode_records(n)


def maximal_feasible(n: int) -> list[ClassificationRecord]:
    """Feasible supports with no feasible strict superset."""
    if check_arity(n) > VERTEX_MODE_MAX:
        raise ArityTooLargeError(f"classification is supported for n <= {VERTEX_MODE_MAX}")
    if n <= FULL_MODE_MAX:
        return [r for r in classify_all(n) if r.maximal]
    return _vertex_mode_records(n)


def nontrivial_catalog(n: int) -> list[ClassificationRecord]:
    """Non-trivial records, restricted to those with no non-trivial strict
    superset (the bookkeeping level at which the catalog counts)."""
    if check_arity(n) > FULL_MODE_MAX:
        raise ArityTooLargeError(f"the non-trivial catalog is gated to n <= {FULL_MODE_MAX}")
    return _nontrivial_maximal(classify_all(n))


def _nontrivial_maximal(records: Iterable[ClassificationRecord]) -> list[ClassificationRecord]:
    """The non-trivial records with no non-trivial strict superset, in
    support-key order."""
    keys = {_support_key(r.support): r for r in records if r.non_trivial}
    parents = _inclusion(keys)
    return [keys[key] for key in sorted(keys) if parents[key] is None]


# ---------------------------------------------------------------------------
# Witness-first mode: maximal supports from arrangement vertices.
# Every step before the records stays in Python ints; a support's witness
# still comes from decide_reduced, so vertices never become Fractions.
# ---------------------------------------------------------------------------

def _arrangement_orbits(n: int) -> list[list[tuple[int, ...]]]:
    """Rows [a | b] of the arrangement a.w = b in w = 2z (so every row is
    integral), grouped into orbits under bit relabelling, largest first.

    A relabelling permutes the coordinates, so it maps the mask rows of
    each Hamming weight onto each other, the sign walls w_i = 0 onto each
    other, and fixes the sum wall sum(w) = 2.
    """
    levels: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
    for mask in range(1, 1 << n):
        row = mask_bits(mask, n) + (1,)
        levels[hamming_weight(mask) - 1].append(row)
    walls = [tuple(int(i == j) for j in range(n)) + (0,) for i in range(n)]
    # stable sort: ties keep level order, then walls, then the sum wall
    return sorted(levels + [walls, [(1,) * n + (2,)]], key=len, reverse=True)


def _vertex_witnesses(n: int) -> list[tuple[tuple[int, ...], int]]:
    """Vertices of the arrangement cut out by the level hyperplanes, the
    sign walls and the sum wall that lie in the simplex z >= 0, sum(z) <= 1.

    Each vertex is in Cramer form (nums, det), reduced by the gcd:
    z = nums / (2 * det). Only orbit representatives are solved: orbit j
    contributes the systems made of its first row plus n - 1 rows from
    orbits j and later. Every system has a relabelling that moves one of
    its rows from its lowest orbit onto that orbit's first row, so closing
    the solutions under all n! coordinate permutations gives exactly the
    full vertex set.

    The systems are walked depth-first, rows in order, so each prefix is
    eliminated once for all its completions (`extend_echelon`) and a
    dependent prefix prunes them all. A prefix of n - 1 rows becomes a
    solution line, and each later row closes it with two dot products
    (`close_line`). At n=5 that is 10,309 row steps, 7,960 lines and
    67,309 closed systems (41,261 of them nonsingular) in place of 76,020
    square solves (all C(37, 5) = 435,897 without orbits), for 148
    vertices.
    """
    found: set[tuple[tuple[int, ...], int]] = set()

    def walk(rows, prefix, start, stop):
        if len(prefix) == n - 1:
            line = solution_line(prefix, n)
            for row in rows[start:stop]:
                point = close_line(line, row)
                if point is not None:
                    nums, det = point
                    if min(nums) >= 0 and sum(nums) <= 2 * det:
                        found.add(point)
            return
        # rows[start:stop] leave enough rows after them to finish a system
        for i in range(start, stop):
            longer = extend_echelon(prefix, rows[i], n)
            if longer is not None:
                walk(rows, longer, i + 1, len(rows) - (n - 2 - len(prefix)))

    orbits = _arrangement_orbits(n)
    for j, orbit in enumerate(orbits):
        rows = orbit + [row for o in orbits[j + 1:] for row in o]
        # the first row is always orbit j's first row
        walk(rows, (), 0, 1)
    return sorted(
        {
            (tuple(nums[p] for p in perm), det)
            for nums, det in found
            for perm in itertools.permutations(range(n))
        }
    )


def _one_class(nums: Sequence[int], det: int, n: int) -> tuple[int, ...]:
    """Masks m with sum(z over m's bits) = 1/2, for z = nums / (2 * det)."""
    return tuple(
        mask
        for mask in range(1, 1 << n)
        if sum(v for v, b in zip(nums, mask_bits(mask, n)) if b) == det
    )


def _vertex_mode_records(n: int) -> list[ClassificationRecord]:
    classes: set[tuple[int, ...]] = set()
    for nums, det in _vertex_witnesses(n):
        cls = _one_class(nums, det, n)
        if cls:
            classes.add(cls)
    parents = _inclusion(_support_key(c) for c in classes)
    maximal = sorted(key for key, parent in parents.items() if parent is None)
    records = []
    for key in maximal:
        rec = _classify_support(n, key)
        if not rec.feasible:
            raise InternalError("vertex-mode support must be feasible")
        records.append(replace(rec, maximal=True))
    return records


# ---------------------------------------------------------------------------
# Bit-permutation orbits.
# ---------------------------------------------------------------------------

def permute_support(support: Sequence[int], perm: Sequence[int], n: int) -> tuple[int, ...]:
    return tuple(sorted(permute_mask(m, perm, n) for m in support))


def orbit_canonical(support: Sequence[int], n: int) -> tuple[int, ...]:
    """Lexicographically smallest bit-relabelling of a support."""
    base = tuple(sorted(support))
    best = base
    for perm in itertools.permutations(range(1, n + 1)):
        cand = permute_support(base, perm, n)
        if cand < best:
            best = cand
    return best


def group_orbits(supports: Iterable[Sequence[int]], n: int) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    orbits: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for s in supports:
        orbits.setdefault(orbit_canonical(s, n), []).append(tuple(sorted(s)))
    return orbits


# ---------------------------------------------------------------------------
# Catalog reproduction.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RowCheck:
    support: tuple[str, ...]
    expected_kind: str
    claimed_weights: tuple[Fraction, ...] | None
    family_representative: bool
    included_in: tuple[str, ...] | None
    weights_valid: bool | None
    feasible: bool
    witness: tuple[Fraction, ...] | None
    symmetric: bool
    removable_bits: tuple[int, ...]
    dj_computable: bool
    derived_kind: str
    agree: bool
    notes: tuple[str, ...]


@dataclass(frozen=True)
class TableReport:
    n: int
    rows: tuple[RowCheck, ...]
    total_records: int
    feasible_records: int
    maximal_supports: tuple[tuple[str, ...], ...]
    unlisted_maximal_orbits: tuple[tuple[str, ...], ...]
    nontrivial_supports: tuple[tuple[str, ...], ...]
    nontrivial_orbit_count: int
    claimed_nontrivial_supports: tuple[tuple[str, ...], ...]
    claimed_nontrivial_count: int
    derived_nontrivial_count: int
    count_matches_claim: bool
    discrepancies: tuple[str, ...]

    def to_json_dict(self) -> dict:
        """Field names are the keys; rationals become "p/q" strings."""
        return asdict(self, dict_factory=lambda items: {k: _jsonable(v) for k, v in items})


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value


def _derived_kind(rec: ClassificationRecord) -> str:
    if not rec.feasible:
        return "infeasible"
    if rec.non_trivial:
        return "nontrivial"
    if rec.symmetric:
        return "symmetric"
    if rec.fewer_bits:
        return "fewer_bits"
    return "dj_computable"


def reproduce_tables(n: int) -> TableReport:
    """Re-derive the bundled catalog at arity 3 or 4 against a full run.

    Every row's claimed weights are re-verified exactly; every row's
    classification is re-derived from scratch; maximal supports the
    catalog does not mention are surfaced by orbit; and the claimed
    non-trivial count is compared with the derived one, with all
    disagreements itemized in `discrepancies`.
    """
    if n not in (3, 4):
        raise ArityTooLargeError("catalog reproduction is defined for n in {3, 4}")
    rows = catalog.rows_for(n)
    records = classify_all(n)
    by_support = {r.support: r for r in records}

    checks: list[RowCheck] = []
    discrepancies: list[str] = []
    for row in rows:
        support = tuple(sorted(string_to_mask(s, n) for s in row.support))
        support_label = ",".join(_mask_labels(n, support))
        rec = by_support[support]
        g = ReducedFn(n, support)
        claimed = row.weight_fractions()
        weights_valid: bool | None = None
        notes: list[str] = []
        if claimed is not None:
            weights_valid = verify_result(
                g, FeasibilityResult(True, witness=WeightVector(claimed))
            )
            if not weights_valid:
                notes.append(
                    "claimed weights do not solve the support equations; "
                    "engine witness: "
                    + "/".join(str(v) for v in (rec.witness.z if rec.witness else ()))
                )
                discrepancies.append(
                    f"row {support_label}: claimed weights "
                    f"({', '.join(map(str, claimed))}) are not a valid assignment"
                )
        derived = _derived_kind(rec)
        agree = rec.feasible and (weights_valid is not False)
        if row.kind == "symmetric":
            agree = agree and rec.symmetric
        elif row.kind == "fewer_bits":
            agree = agree and rec.fewer_bits
        elif row.kind == "included":
            parent = tuple(sorted(string_to_mask(s, n) for s in row.included_in))
            inside = set(support) < set(parent)
            parent_ok = by_support[parent].feasible
            agree = agree and inside and parent_ok
            if not inside:
                notes.append("claimed inclusion does not hold")
        elif row.kind == "nontrivial":
            agree = agree and rec.non_trivial
            if rec.feasible and rec.fewer_bits:
                zero_bit = rec.removable_bits[0]
                probe = decide_with_fixed_zeros(g, {zero_bit})
                notes.append(
                    f"claimed non-trivial, but query weight of bit(s) "
                    f"{','.join(map(str, rec.removable_bits))} can be zero, e.g. "
                    f"z = ({', '.join(str(v) for v in probe.witness.z)})"
                )
                discrepancies.append(
                    f"row {support_label}: claimed non-trivial but bit(s) "
                    f"{','.join(map(str, rec.removable_bits))} are removable"
                )
        checks.append(
            RowCheck(
                support=_mask_labels(n, support),
                expected_kind=row.kind,
                claimed_weights=claimed,
                family_representative=row.family,
                included_in=row.included_in,
                weights_valid=weights_valid,
                feasible=rec.feasible,
                witness=rec.witness.z if rec.witness else None,
                symmetric=rec.symmetric,
                removable_bits=rec.removable_bits,
                dj_computable=rec.dj_computable,
                derived_kind=derived,
                agree=agree,
                notes=tuple(notes),
            )
        )

    feasible_records = sum(1 for r in records if r.feasible)
    maximal = [r.support for r in records if r.maximal]
    listed = {tuple(sorted(string_to_mask(s, n) for s in row.support)) for row in rows}
    unlisted_orbits = []
    for canon, members in sorted(group_orbits(maximal, n).items()):
        if not any(m in listed for m in members):
            unlisted_orbits.append(canon)
            discrepancies.append(
                "maximal support orbit not in catalog: "
                + ",".join(_mask_labels(n, canon))
                + " (trivial: "
                + _derived_kind(by_support[canon])
                + ")"
            )

    derived_nontrivial = _nontrivial_maximal(records)
    nt_supports = [r.support for r in derived_nontrivial]
    nt_orbits = group_orbits(nt_supports, n)
    claimed_nt = [
        tuple(sorted(string_to_mask(s, n) for s in row.support))
        for row in rows
        if row.kind == "nontrivial"
    ]
    count_matches = len(nt_supports) == len(claimed_nt)
    if not count_matches:
        discrepancies.append(
            f"derived {len(nt_supports)} non-trivial maximal supports "
            f"({len(nt_orbits)} orbit(s)) vs {len(claimed_nt)} claimed"
        )

    return TableReport(
        n=n,
        rows=tuple(checks),
        total_records=len(records),
        feasible_records=feasible_records,
        maximal_supports=tuple(_mask_labels(n, s) for s in sorted(maximal)),
        unlisted_maximal_orbits=tuple(_mask_labels(n, s) for s in unlisted_orbits),
        nontrivial_supports=tuple(_mask_labels(n, s) for s in nt_supports),
        nontrivial_orbit_count=len(nt_orbits),
        claimed_nontrivial_supports=tuple(_mask_labels(n, s) for s in sorted(claimed_nt)),
        claimed_nontrivial_count=len(claimed_nt),
        derived_nontrivial_count=len(nt_supports),
        count_matches_claim=count_matches,
        discrepancies=tuple(discrepancies),
    )
