"""Exhaustive classification of reduced functions at small arity.

Every record is read from one table of the vertices of the weight
arrangement (the mask hyperplanes, the sign walls and the sum wall)
inside the simplex z >= 0, sum(z) <= 1 whose 1-class is nonempty. A
support is feasible iff it lies in the 1-class of some vertex, a bit is
removable iff some such vertex weights it 0, and the witness is the
first such vertex in reversed-z order. No LP is solved: each vertex is
verified once, on its whole 1-class with its zero bits pinned.
Feasibility, removable bits and witness come from one cover map, built
by walking every nonempty subset of each row's class key in table order:
the supports a row covers are exactly those subsets, so the walk reaches
only feasible keys. So does maximality, with no sweep over pairs of
keys: each key keeps the first class key that reaches it, more masks
first, which is the key itself iff it is maximal and otherwise its first
maximal strict superset. A record therefore depends only on its key and
the table. Full-subset mode reads every nonempty support over the
nonzero masks (gated to n <= 4; 32767 supports, 2195 of them feasible,
reached in 2940 subset steps over the 20 table rows at n=4). At n=5 only
the maximal feasible supports are read, the 142 1-classes of the 142
vertices. `classify` is the one switch between the two modes: it gives
the keys of arity n and their cover map. Records serve the API
(`enumerate_reduced`, `classify_all`, `maximal_feasible`); the CLI's
`enumerate` writes its rows from the cover map directly, with one
formatted tail per distinct cover entry (`cli._enumerate_rows`), and
builds a record only for the first key of each.

Rank lemma. Let v be a vertex of the arrangement in the simplex whose
1-class K is nonempty. The normal of every row tight at v lies in
span(K): a tight mask row is in K; for a tight wall z_i = 0 and any m in
K, m ^ e_i is in K too (nonzero, as v_i = 0 != 1/2) and the two rows
differ by +-e_i; for the tight sum wall, the complement of m is in K
(nonzero, as the all-ones mask sums to 1) and the two sum to the
all-ones row. The tight normals span R^n, so K has rank n. Hence the
table's vertices are exactly the points of the closed simplex cut out by
n independent mask rows, and K's polytope {K's rows, z >= 0, sum(z) <=
1} is the one point v: each class key is maximal and covered by its own
row alone, and neither the 2**31 supports nor the subsets of the rows
are walked at n=5. The table still checks the rank once per orbit. The
symmetric and level-confined flags are membership tests in two key sets
built once per arity from the Hamming levels.

Lift lemma. Let v be a table vertex at arity n with v_i = 0, and K its
1-class. Deleting coordinate i gives a table vertex at arity n - 1: no
mask of K restricts to 0, as the mask e_i sums to 0 != 1/2, so the
restricted class is nonempty, and deleting one column lowers the rank n
by at most 1. Conversely, putting a 0 into a table vertex at arity n - 1
gives one at arity n: its 1-class holds m and m | e_i for each old m,
which has rank n. So the vertices with a zero weight are those of arity
n - 1, lifted, and only the interior vertices (every z_i > 0) are new at
arity n.

The vertices are found in integers (fraction-free elimination, Cramer
form, depth-first over shared row prefixes) by one walk per arity over
the mask rows alone, for the interior vertices, each arity lifting the
one below (`_level_vertices`). They are solved only for orbit
representatives under bit relabelling and then closed under the n!
relabellings (`_vertex_witnesses`). Orbits of maximal supports are read
off their witnesses (`_orbits`), by the rank lemma; no support is ever
relabelled.

A record is non-trivial when it is feasible, needs every bit (no
single query weight can be pinned to zero), is not symmetric, and does
not sit inside one reachable Hamming level. `reproduce_tables` re-derives
the bundled catalog rows and itemizes every disagreement.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import catalog
from .construct import level_set
from .core import check_arity, mask_bits, mask_to_string, string_to_mask
from .errors import ArityTooLargeError, InternalError
from .feasibility import FeasibilityResult, WeightVector, _scaled, verify_result, verify_weights
from .intlinalg import close_line, extend_echelon, line_meets_interior, solution_line
from .poly import input_classes
from .reduction import ReducedFn

FULL_MODE_MAX = 4
VERTEX_MODE_MAX = 5


class ClassificationRecord(NamedTuple):
    """One support's classification. A named tuple, so records are
    immutable, hashable and equal by value, and building one is a single
    tuple allocation."""

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
            and not self.removable_bits
            and not self.symmetric
            and not self.dj_computable
        )


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


class _ByteMasks(dict):
    """Byte offset k -> the 256 ascending mask tuples of the byte values at
    bits 8k..8k+7 of a support key. Each offset's table is built on first
    use, so nothing is built at import and the tables reach as wide as the
    keys read."""

    def __missing__(self, offset: int) -> tuple[tuple[int, ...], ...]:
        # threads that miss together store equal tables, so no lock is needed
        table = [()]
        for mask in range(8 * offset + 1, 8 * offset + 9):
            # the bytes with this bit set follow those without it, in order
            table += [masks + (mask,) for masks in table]
        self[offset] = table = tuple(table)
        return table


_BYTE_MASKS = _ByteMasks()


def _key_support(key: int) -> tuple[int, ...]:
    """The masks of a support key, ascending: one table lookup per byte
    (`_ByteMasks`), so at most ceil(bits / 8) tuples are concatenated. The
    one reader of support keys: supports, removable bits and parents."""
    support, offset = (), 0
    while key:
        support += _BYTE_MASKS[offset][key & 255]
        key >>= 8
        offset += 1
    return support


class _PartLabels(dict):
    """Part p of a support key -> the labels of the masks of p << shift,
    each after a ";", read by `_key_support` from `names` (`_mask_strings`).
    Each part's labels are built on first use, so nothing is built at
    import and a table holds only the parts read. With tables low and high
    at shifts 0 and 8, a key's label is (low[key & 255] + high[key >>
    8])[1:]: two lookups in per-byte tables up to n = 4 (keys of 15 bits),
    and at n = 5 the high table holds one entry per distinct high part."""

    def __init__(self, names: Sequence[str], shift: int):
        super().__init__()
        self.names, self.shift = names, shift

    def __missing__(self, part: int) -> str:
        names = self.names
        self[part] = label = "".join([";" + names[m] for m in _key_support(part << self.shift)])
        return label


@lru_cache(maxsize=None)
def _level_keys(n: int) -> tuple[int, ...]:
    """Support key of each Hamming level: entry c - 1 holds every mask of
    weight c, for c = 1..n."""
    return tuple(_support_key(level_set(n, c)) for c in range(1, n + 1))


def _subkeys(key: int) -> Iterator[int]:
    """Every nonempty subset of a key, descending: one step each."""
    sub = key
    while sub:
        yield sub
        sub = (sub - 1) & key


@lru_cache(maxsize=None)
def _symmetric_keys(n: int) -> frozenset[int]:
    """The 2**n - 1 nonempty unions of whole Hamming levels: with the
    0-input 0, which is all of level 0, these supports are the symmetric
    ones of `core.is_symmetric`."""
    unions = [0]
    for level in _level_keys(n):
        unions += [u | level for u in unions]
    return frozenset(unions[1:])


@lru_cache(maxsize=None)
def _dj_keys(n: int) -> frozenset[int]:
    """The nonempty supports inside one level c >= ceil(n/2) (79 at n=4,
    1055 at n=5)."""
    return frozenset(sub for level in _level_keys(n)[(n - 1) // 2:] for sub in _subkeys(level))


Cover = dict[int, tuple[WeightVector, int, int]]


def _cover(reached: Iterable[tuple[int, int, int, WeightVector]]) -> Cover:
    """Each key a vertex-table row reaches, mapped to (witness, zero-bit
    key, class key): `reached` gives (key, class key, zero-bit key,
    weights) once per row that reaches the key, rows in table order. The
    first row gives the witness, every row ORs in its zero bits, and the
    class key kept is the first of the reaching rows' in (-popcount, key)
    order.

    That class key is the key itself iff the key is maximal, and otherwise
    its first maximal strict superset. No invariant of the table is needed:
    every feasible superset of the key lies inside some reaching row's
    class key, and the first such class key has nothing feasible above it.
    """
    cover: Cover = {}
    for key, cls, zeros, z in reached:
        hit = cover.get(key)
        if hit is not None:
            z, zeros, cls = hit[0], hit[1] | zeros, min(hit[2], cls, key=lambda k: (-k.bit_count(), k))
        cover[key] = z, zeros, cls
    return cover


def _subset_walk(table: list) -> Iterator[tuple[int, int, int, WeightVector]]:
    """(key, class key, zero-bit key, weights) for every nonempty subset
    of every row's class key, rows in table order: each row reaches exactly
    the supports it covers (2940 steps over the 20 rows at n=4, 97 at n=3)."""
    for row in table:
        for key in _subkeys(row[0]):
            yield (key, *row)


def _records(n: int, keys: Sequence[int], cover: Cover) -> list[ClassificationRecord]:
    """The record of each support key in `keys`, in that order, read from
    the cover map of the vertex table of arity n (`_cover`), so a record
    depends only on its key and the table.

    A key is feasible iff some row's class key contains it, its removable
    bits are the union of the zero bits of those rows, its witness is the
    first one's weights, and it is maximal iff the class key kept is the
    key itself, else included by that class key: `cover.get(key)` holds
    all three, or is missing for an infeasible key. This is exact: for a
    support S with bits F pinned to zero, the polytope {S's rows, z >= 0,
    sum(z) <= 1, z_F = 0} is bounded, so if it is nonempty it has a vertex
    of the arrangement that weights F 0 and whose 1-class contains S, so is
    nonempty: the table lists it. The level flags are membership tests in
    the key sets `_symmetric_keys` and `_dj_keys`.
    Every mask tuple (support, removable bits, parent) is read from its key
    by `_key_support`, and each record is built positionally, one tuple
    allocation (32,767 at n=4).
    """
    symmetric, dj_computable = _symmetric_keys(n), _dj_keys(n)
    records = []
    for key in keys:
        hit = cover.get(key)
        records.append(
            ClassificationRecord(
                n,
                _key_support(key),
                hit is not None,
                None if hit is None else hit[0],
                key in symmetric,
                key in dj_computable,
                () if hit is None else _key_support(hit[1]),
                hit is not None and hit[2] == key,
                None if hit is None or hit[2] == key else _key_support(hit[2]),
            )
        )
    return records


def _every_key(n: int) -> range:
    """The keys of every nonempty support over the nonzero n-bit masks."""
    return range(1, 1 << ((1 << n) - 1))


def classify(n: int) -> tuple[Sequence[int], Cover]:
    """The support keys classified at arity n, in support-key order, and
    the cover map of the vertex table (`_cover`) that answers them: the
    one switch between the two modes and the arity gate of both.

    Full mode (n <= 4) reads every nonempty support, from the cover map of
    the subset walk. Witness-first mode (n = 5) reads only the maximal
    feasible supports: every row's 1-class has rank n (`_vertex_table`), so
    each class key is maximal and covered by its own row alone, and every
    maximal key is some row's class key; the cover map is read off the
    table itself, with no subset walk.
    """
    if check_arity(n) > VERTEX_MODE_MAX:
        raise ArityTooLargeError(f"classification is supported for n <= {VERTEX_MODE_MAX}")
    table = _vertex_table(n)
    if n <= FULL_MODE_MAX:
        return _every_key(n), _cover(_subset_walk(table))
    return sorted(row[0] for row in table), _cover((row[0], *row) for row in table)


def _maximal_keys(cover: Cover) -> list[int]:
    """The keys of a cover map that are their own class key, ascending."""
    return sorted(key for key, hit in cover.items() if hit[2] == key)


def classify_all(n: int) -> list[ClassificationRecord]:
    """All 2**(2**n - 1) - 1 records at arity n (full mode, n <= 4), in
    support-key order."""
    if check_arity(n) > FULL_MODE_MAX:
        raise ArityTooLargeError(
            f"full-subset classification is gated to n <= {FULL_MODE_MAX}; "
            f"n = 5 offers witness-first maximal_feasible only"
        )
    return _records(n, *classify(n))


def enumerate_reduced(n: int) -> Iterator[ClassificationRecord]:
    """Stream classification records in deterministic support-key order.

    n <= 4 streams every support; n = 5 streams only the maximal feasible
    supports (witness-first mode).
    """
    yield from _records(n, *classify(n))


def maximal_feasible(n: int) -> list[ClassificationRecord]:
    """Feasible supports with no feasible strict superset, in support-key
    order: the keys of the cover map (`classify`) that are their own class
    key."""
    cover = classify(n)[1]
    return _records(n, _maximal_keys(cover), cover)


def nontrivial_catalog(n: int) -> list[ClassificationRecord]:
    """The maximal non-trivial records, in support-key order: the level at
    which the catalog counts. Gated to n <= 4 by `classify_all`, where a
    non-trivial support is maximal iff it has no non-trivial strict
    superset (checked exhaustively against a pairwise oracle)."""
    return [rec for rec in classify_all(n) if rec.maximal and rec.non_trivial]


# ---------------------------------------------------------------------------
# The vertex table: 1-classes of the arrangement vertices.
# Every step stays in Python ints; a vertex becomes Fractions once, as the
# weights of its table row.
# ---------------------------------------------------------------------------

def _arrangement_orbits(n: int) -> list[list[tuple[int, ...]]]:
    """Rows [a | 1] of the mask hyperplanes a.w = 1 in w = 2z (so every
    row is integral), one orbit per Hamming level under bit relabelling,
    largest first.

    A relabelling permutes the coordinates, so it maps the mask rows of
    each Hamming weight onto each other. The sign walls and the sum wall
    are not walked: by the rank lemma (module docstring) every table vertex
    is cut out by n independent mask rows.
    """
    levels = [[mask_bits(mask, n) + (1,) for mask in level_set(n, c)] for c in range(1, n + 1)]
    # stable sort: ties keep level order
    return sorted(levels, key=len, reverse=True)


def _orbit_systems(n: int) -> list[tuple[list[tuple[int, ...]], list[tuple[int, ...]]]]:
    """For each orbit j, the rows its systems draw from (orbit j, then
    every later orbit) and the stabiliser G_j of its first row: the index
    map over those rows of each relabelling that fixes index 0. A
    relabelling keeps every orbit, so it permutes these rows; only the
    relabellings that fix the first row's coefficients are mapped.
    """
    orbits = _arrangement_orbits(n)
    systems = []
    for j in range(len(orbits)):
        rows = [row for orbit in orbits[j:] for row in orbit]
        index = {row: i for i, row in enumerate(rows)}
        first = rows[0][:n]
        # distinct maps only: late orbits' rows do not tell all bits apart
        stabiliser = {}
        for perm in itertools.permutations(range(n)):
            if tuple([first[p] for p in perm]) == first:
                stabiliser[tuple([index[tuple([row[p] for p in perm]) + row[n:]] for row in rows])] = None
        systems.append((rows, list(stabiliser)))
    return systems


def _level_vertices(n: int) -> set[tuple[tuple[int, ...], int]]:
    """The points of the closed simplex z >= 0, sum(z) <= 1 cut out by n
    independent mask rows (`_arrangement_orbits`), in lowest-terms Cramer
    form (nums, det), one per orbit under relabelling: the one with its
    nums sorted. By the rank lemma (module docstring) these points are
    the vertices of the whole arrangement, walls included, that have a
    nonempty 1-class.

    Those with a zero weight are the points of arity n - 1 with a leading
    0 put in (the lift lemma, module docstring), which keeps them sorted,
    so the walk at arity n looks only for interior points, every z_i > 0.
    Orbit j contributes the systems made of its first row plus n - 1 rows
    from orbits j and later. Every system has a relabelling that moves one
    of its rows from its lowest orbit onto that orbit's first row, so
    every such point is a relabelling of one found.

    The systems are walked depth-first, rows in order, so each prefix is
    eliminated once for all its completions (`extend_echelon`) and a
    dependent prefix prunes them all. A prefix of n - 1 rows becomes a
    solution line, and each later row closes it with two dot products
    (`close_line`). A prefix is extended only while its set of row indices
    is the lexicographically smallest of its images under the stabiliser
    G_j of orbit j's first row (`_orbit_systems`), as in orderly generation
    (Read 1978; McKay 1998). This loses no point: a set is lex-smallest
    only if it is so without its largest index, so the lex-smallest image
    of every system is walked in full, and its point is a relabelling of
    the system's. Two more prunes lose no interior point, as such a point
    lies on the flat of every prefix of its systems: a prefix is dropped
    when the newest row [c | b] of its echelon has c >= 0 >= b or c <= 0 <=
    b, as then c . x = b has no solution x > 0 (c != 0, it holds a pivot);
    and a line is closed only if some point of it has x > 0 and sum(x) <=
    2 in x = 2z (`line_meets_interior`).
    """
    found = {((0,) + nums, det) for nums, det in _level_vertices(n - 1)} if n > 1 else set()

    def walk(rows, lifts, key, images, prefix, start, stop):
        if len(prefix) == n - 1:
            line = solution_line(prefix, n)
            if line_meets_interior(line, 2):
                for row in rows[start:stop]:
                    point = close_line(line, row)
                    if point is not None:
                        nums, det = point
                        if min(nums) > 0 and sum(nums) <= 2 * det:
                            found.add((tuple(sorted(nums)), det))
            return
        # rows[start:stop] leave enough rows after them to finish a system
        for i in range(start, stop):
            # the prefix's row indices as a bitset, and its image under each
            # g in G_j; of two index sets the lex-smaller holds the lowest
            # index in which they differ
            longer = key | 1 << i
            moved = [image | lift[i] for image, lift in zip(images, lifts)]
            if any(m & (d := m ^ longer) & -d for m in moved):
                continue
            echelon = extend_echelon(prefix, rows[i], n)
            if echelon is None:
                continue
            # the flat satisfies c . x = b for the newest echelon row [c | b],
            # c != 0: with c >= 0 >= b or c <= 0 <= b no x > 0 does
            row = echelon[-1][0]
            lo, hi = min(row[:n]), max(row[:n])
            if not (lo >= 0 >= row[n] or hi <= 0 <= row[n]):
                walk(rows, lifts, longer, moved, echelon, i + 1, len(rows) - (n - 2 - len(prefix)))

    for rows, stabiliser in _orbit_systems(n):
        # the first row is always orbit j's first row
        walk(rows, [[1 << k for k in g] for g in stabiliser], 0, [0] * len(stabiliser), (), 0, 1)
    return found


def _vertex_witnesses(n: int) -> list[tuple[tuple[int, ...], int]]:
    """The vertices of the arrangement (mask rows, sign walls, sum wall)
    in the simplex z >= 0, sum(z) <= 1 whose 1-class is nonempty, in
    Cramer form (nums, det), reduced by the gcd: z = nums / (2 * det).

    By the rank lemma (module docstring) these are exactly the points of
    the closed simplex cut out by n independent mask rows: the walk at
    arity n finds the interior ones, and those with a zero weight are
    lifted from arity n - 1 (`_level_vertices`). It gives one point per
    orbit under relabelling, and the closure here permutes each one's own
    nums. For the 142 vertices at n=5 the walk at arity 5 takes
    486 row steps and 201 solution lines; 38 of the lines meet z > 0, and
    379 closed systems on them give 295 points. Arities 1..4 add 53 row
    steps, 22 lines and 52 closes. For the 4,361 at n=6 it is 15,792 row
    steps, 7,365 lines and 16,123 closes over arities 1..6.
    """
    return sorted(
        {(perm, det) for nums, det in _level_vertices(n) for perm in itertools.permutations(nums)}
    )


def _vertex_table(n: int) -> list[tuple[int, int, WeightVector]]:
    """One row (class key, zero-bit key, weights) per arrangement vertex
    with a nonempty 1-class (`_vertex_witnesses`), sorted by reversed
    weights. Bit i is bit i - 1 of the zero-bit key.

    The 1-class of z = nums / (2 * det) is that of the polynomial
    2z = nums / det (`poly.input_classes`). Each row is verified on its
    whole 1-class with its zero bits pinned, in ints as (nums, 2 * det)
    (`verify_weights`), so its weights are a witness for every support it
    covers. Rows are sorted on exact integer keys: over the lcm L of all
    dets, z_i is nums_i * (L // det) / (2 * L). That is 20 rows at n=4
    and 142 at n=5.

    Each row's 1-class K has mask rows of rank n by the rank lemma (module
    docstring); the table checks it as a safety net and raises
    InternalError otherwise. Then K . z = 1/2 has the one solution z, so
    K's polytope {K's rows, z >= 0, sum(z) <= 1} is the single point z: a
    feasible S that contains K has its polytope inside it, so S = K. K is
    maximal and the class key of this row alone. A relabelling keeps the
    rank, so it is checked once per orbit (sorted nums), one
    `extend_echelon` step per mask until rank n (95 steps for the 15
    orbits at n=5, 507 for the 63 at n=6).
    """
    vertices = _vertex_witnesses(n)
    scale = math.lcm(*(det for _, det in vertices))
    vertices.sort(key=lambda v: [x * (scale // v[1]) for x in reversed(v[0])])
    table, ranked = [], set()
    for nums, det in vertices:
        support = input_classes(n, nums, det).one
        zero_bits = [i for i, v in enumerate(nums, 1) if v == 0]
        z = WeightVector(tuple([Fraction(v, 2 * det) for v in nums]))
        if not verify_weights(n, support, nums, 2 * det, zero_bits):
            raise InternalError(
                f"vertex z = ({', '.join(map(str, z.z))}) does not verify on "
                f"its 1-class {_mask_labels(n, support)}"
            )
        if (orbit := (tuple(sorted(nums)), det)) not in ranked:
            # the bit rows of the 1-class, one row step each until rank n
            prefix = ()
            for mask in support:
                prefix = extend_echelon(prefix, mask_bits(mask, n), n) or prefix
                if len(prefix) == n:
                    break
            else:
                raise InternalError(
                    f"the 1-class {_mask_labels(n, support)} of vertex "
                    f"z = ({', '.join(map(str, z.z))}) has rank below {n}"
                )
            ranked.add(orbit)
        table.append((_support_key(support), _support_key(zero_bits), z))
    return table


def _orbits(records: Iterable[ClassificationRecord]) -> list[list[tuple[int, ...]]]:
    """The supports of maximal records grouped into orbits under bit
    relabelling: each orbit ascending, orbits ordered by smallest member.

    A maximal support S is the class key of exactly one table row, whose
    1-class has rank n by the rank lemma (module docstring), so S's
    polytope {S's rows, z >= 0, sum(z) <= 1} is the single point v_S, and
    v_{pi S} = pi v_S for every relabelling pi. So two maximal supports share an orbit iff
    their witnesses have equal sorted weights. Raises InternalError for a
    record that is not maximal.

    The weights are compared as ints: a witness keys its orbit by the lcm
    L of its denominators and its numerators over L, sorted, which is the
    same as its sorted weights.
    """
    orbits: dict[tuple[int, tuple[int, ...]], list[tuple[int, ...]]] = {}
    for rec in records:
        if not rec.maximal:
            raise InternalError(
                f"support {_mask_labels(rec.n, rec.support)} is not maximal, "
                f"so its orbit cannot be read from its witness"
            )
        nums, scale = _scaled(rec.witness.z)
        orbits.setdefault((scale, tuple(sorted(nums))), []).append(rec.support)
    return sorted(sorted(members) for members in orbits.values())


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


def _catalog_support(bits: Iterable[str], n: int) -> tuple[int, ...]:
    """The masks a catalog row writes as bitstrings, ascending."""
    return tuple(sorted(string_to_mask(s, n) for s in bits))


def reproduce_tables(n: int) -> TableReport:
    """Re-derive the bundled catalog at arity 3 or 4 against the full
    cover map (`catalog.rows_for` rejects any other arity).

    Every row's claimed weights are re-verified exactly; every row's
    classification is re-derived from scratch; maximal supports the
    catalog does not mention are surfaced by orbit, each by its smallest
    member (its lex-smallest relabelling, as the maximal family is closed
    under relabelling); and the claimed non-trivial count is compared with
    the derived one, with all disagreements itemized in `discrepancies`.
    """
    rows = catalog.rows_for(check_arity(n))
    table = _vertex_table(n)
    cover = _cover(_subset_walk(table))
    # a record depends only on its key, so only the maximal ones and the
    # catalog's own supports are built
    maximal = _records(n, _maximal_keys(cover), cover)
    maximal_by_support = {r.support: r for r in maximal}

    checks: list[RowCheck] = []
    discrepancies: list[str] = []
    for row in rows:
        support = _catalog_support(row.support, n)
        support_label = ",".join(_mask_labels(n, support))
        (rec,) = _records(n, [_support_key(support)], cover)
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
            parent = _catalog_support(row.included_in, n)
            inside = set(support) < set(parent)
            parent_ok = _support_key(parent) in cover
            agree = agree and inside and parent_ok
            if not inside:
                notes.append("claimed inclusion does not hold")
        elif row.kind == "nontrivial":
            agree = agree and rec.non_trivial
            if rec.feasible and rec.fewer_bits:
                key, bit = _support_key(support), 1 << (rec.removable_bits[0] - 1)
                example = next(z for cls, zeros, z in table if key & cls == key and zeros & bit)
                notes.append(
                    f"claimed non-trivial, but query weight of bit(s) "
                    f"{','.join(map(str, rec.removable_bits))} can be zero, e.g. "
                    f"z = ({', '.join(str(v) for v in example.z)})"
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

    listed = {_catalog_support(row.support, n) for row in rows}
    unlisted_orbits = [orbit[0] for orbit in _orbits(maximal) if listed.isdisjoint(orbit)]
    for canon in unlisted_orbits:
        discrepancies.append(
            "maximal support orbit not in catalog: "
            + ",".join(_mask_labels(n, canon))
            + " (trivial: "
            + _derived_kind(maximal_by_support[canon])
            + ")"
        )

    derived_nontrivial = [r for r in maximal if r.non_trivial]
    nt_supports = [r.support for r in derived_nontrivial]
    nt_orbits = _orbits(derived_nontrivial)
    claimed_nt = [_catalog_support(row.support, n) for row in rows if row.kind == "nontrivial"]
    count_matches = len(nt_supports) == len(claimed_nt)
    if not count_matches:
        discrepancies.append(
            f"derived {len(nt_supports)} non-trivial maximal supports "
            f"({len(nt_orbits)} orbit(s)) vs {len(claimed_nt)} claimed"
        )

    return TableReport(
        n=n,
        rows=tuple(checks),
        total_records=len(_every_key(n)),
        feasible_records=len(cover),
        maximal_supports=tuple(_mask_labels(n, s) for s in sorted(r.support for r in maximal)),
        unlisted_maximal_orbits=tuple(_mask_labels(n, s) for s in unlisted_orbits),
        nontrivial_supports=tuple(_mask_labels(n, s) for s in nt_supports),
        nontrivial_orbit_count=len(nt_orbits),
        claimed_nontrivial_supports=tuple(_mask_labels(n, s) for s in sorted(claimed_nt)),
        claimed_nontrivial_count=len(claimed_nt),
        derived_nontrivial_count=len(nt_supports),
        count_matches_claim=count_matches,
        discrepancies=tuple(discrepancies),
    )
