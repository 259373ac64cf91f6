"""Bundled reference catalog for the 3-bit and 4-bit classifications.

Each row records a reduced support, the weight assignment claimed for it
(hand-derived; a few rows state a one-parameter family, for which the
tuple below is our recorded representative), and the classification the
row is expected to land in. The catalog is regression data, not ground
truth: `classify.reproduce_tables` re-derives every row and reports
disagreements instead of trusting these entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ArityTooLargeError


@dataclass(frozen=True)
class CatalogRow:
    support: tuple[str, ...]
    weights: tuple[str, ...] | None
    kind: str  # "symmetric" | "fewer_bits" | "included" | "nontrivial"
    included_in: tuple[str, ...] | None = None
    family: bool = False  # weights are a representative of a stated family

    def weight_fractions(self) -> tuple[Fraction, ...] | None:
        if self.weights is None:
            return None
        return tuple(Fraction(w) for w in self.weights)


ROWS_3BIT: tuple[CatalogRow, ...] = (
    CatalogRow(("100", "011"), ("1/2", "1/4", "1/4"), "fewer_bits"),
    CatalogRow(("110", "101", "011"), ("1/4", "1/4", "1/4"), "symmetric"),
    CatalogRow(("101", "011"), ("1/6", "1/6", "1/3"), "fewer_bits"),
    CatalogRow(("011",), None, "included", included_in=("100", "011")),
    CatalogRow(("111",), None, "fewer_bits"),
)

ROWS_4BIT: tuple[CatalogRow, ...] = (
    CatalogRow(("1000", "0111"), ("1/2", "1/6", "1/6", "1/6"), "fewer_bits"),
    CatalogRow(
        ("1100", "1010", "1001", "0110", "0101", "0011"),
        ("1/4", "1/4", "1/4", "1/4"),
        "symmetric",
    ),
    CatalogRow(("1100", "1010", "1001", "0111"), ("1/3", "1/6", "1/6", "1/6"), "nontrivial"),
    CatalogRow(
        ("1100", "1010", "0110"),
        ("1/4", "1/4", "1/4", "1/8"),
        "included",
        included_in=("1100", "1010", "1001", "0110", "0101", "0011"),
        family=True,
    ),
    CatalogRow(
        ("1100", "1010", "0101", "0011"),
        ("1/3", "1/6", "1/6", "1/3"),
        "included",
        included_in=("1100", "1010", "1001", "0110", "0101", "0011"),
    ),
    # The next row's weights are recorded as claimed even though they fail
    # the support's own equations (a correct assignment is e.g.
    # 3/8, 1/8, 1/8, 1/4); reproduce_tables flags the mismatch.
    CatalogRow(("1100", "1010", "0111"), ("1/3", "1/6", "1/6", "1/3"), "fewer_bits"),
    CatalogRow(
        ("1100", "1001", "0110", "0011"),
        ("1/3", "1/6", "1/3", "1/6"),
        "included",
        included_in=("1100", "1010", "1001", "0110", "0101", "0011"),
    ),
    CatalogRow(
        ("1100", "1001", "0101"),
        ("1/4", "1/4", "1/8", "1/4"),
        "included",
        included_in=("1100", "1010", "1001", "0110", "0101", "0011"),
        family=True,
    ),
    CatalogRow(
        ("1100", "1001", "0111"),
        ("3/8", "1/8", "1/4", "1/8"),
        "included",
        included_in=("1100", "1010", "1001", "0111"),
    ),
    CatalogRow(("1100", "0110", "0101", "1011"), ("1/6", "1/3", "1/6", "1/6"), "nontrivial"),
    # Claimed weights fail the support's equations (a correct assignment
    # is e.g. 1/8, 3/8, 1/4, 1/8); kept verbatim for the mismatch report.
    CatalogRow(
        ("1100", "0101", "1011"),
        ("7/24", "5/24", "1/12", "7/24"),
        "included",
        included_in=("1100", "0110", "0101", "1011"),
    ),
    CatalogRow(
        ("1100", "0011"),
        ("1/6", "1/3", "1/8", "3/8"),
        "included",
        included_in=("1100", "1010", "1001", "0110", "0101", "0011"),
    ),
    CatalogRow(("1100", "1011", "0111"), ("1/4", "1/4", "1/8", "1/8"), "nontrivial"),
    CatalogRow(
        ("1010", "1001", "0110", "0101"),
        ("3/8", "3/8", "1/8", "1/8"),
        "included",
        included_in=("1100", "1010", "1001", "0110", "0101", "0011"),
    ),
    CatalogRow(
        ("1010", "1001", "0011"),
        ("1/4", "1/8", "1/4", "1/4"),
        "included",
        included_in=("1100", "1010", "1001", "0110", "0101", "0011"),
    ),
    CatalogRow(
        ("1010", "1001", "0111"),
        ("5/12", "1/3", "1/12", "1/12"),
        "included",
        included_in=("1100", "1010", "1001", "0111"),
    ),
    CatalogRow(("1010", "0110", "0011", "1101"), ("1/6", "1/6", "1/3", "1/6"), "nontrivial"),
    CatalogRow(
        ("1010", "0101"),
        ("1/8", "1/6", "3/8", "1/3"),
        "included",
        included_in=("1100", "1010", "1001", "0110", "0101", "0011"),
    ),
    CatalogRow(
        ("1010", "0011", "1101"),
        ("1/12", "1/3", "5/12", "1/12"),
        "included",
        included_in=("1010", "0110", "0011", "1101"),
    ),
    CatalogRow(
        ("1010", "1101", "0111"), ("1/4", "1/8", "1/4", "1/8"), "nontrivial", family=True
    ),
    CatalogRow(
        ("1001", "0110"),
        ("1/8", "1/6", "1/3", "3/8"),
        "included",
        included_in=("1100", "1010", "1001", "0110", "0101", "0011"),
    ),
    CatalogRow(("1001", "0101", "0011", "1110"), ("1/6", "1/6", "1/6", "1/3"), "nontrivial"),
    CatalogRow(
        ("1001", "0011", "1110"),
        ("1/12", "1/3", "1/12", "5/12"),
        "included",
        included_in=("1001", "0101", "0011", "1110"),
    ),
    CatalogRow(
        ("1001", "1110", "0111"), ("1/4", "1/8", "1/8", "1/4"), "nontrivial", family=True
    ),
    CatalogRow(
        ("0110", "0101", "0011"),
        ("1/8", "1/4", "1/4", "1/4"),
        "included",
        included_in=("1100", "1010", "1001", "0110", "0101", "0011"),
        family=True,
    ),
    CatalogRow(
        ("0110", "0101", "1011"),
        ("1/12", "7/24", "5/24", "5/24"),
        "included",
        included_in=("1100", "0110", "0101", "1011"),
    ),
    CatalogRow(
        ("0110", "0011", "1101"),
        ("1/12", "5/24", "7/24", "5/24"),
        "included",
        included_in=("1010", "0110", "0011", "1101"),
    ),
    CatalogRow(
        ("0110", "1101", "1011"), ("1/8", "1/4", "1/4", "1/8"), "nontrivial", family=True
    ),
    CatalogRow(
        ("0101", "0011", "1110"),
        ("1/12", "5/24", "5/24", "7/24"),
        "included",
        included_in=("1001", "0101", "0011", "1110"),
    ),
    CatalogRow(
        ("0101", "1110", "1011"), ("1/8", "1/4", "1/8", "1/4"), "nontrivial", family=True
    ),
    CatalogRow(
        ("0011", "1110", "1101"), ("1/8", "1/8", "1/4", "1/4"), "nontrivial", family=True
    ),
    CatalogRow(("1110", "1101", "1011", "0111"), ("1/6", "1/6", "1/6", "1/6"), "symmetric"),
    CatalogRow(("1111",), ("1/8", "1/8", "1/8", "1/8"), "fewer_bits"),
)


def rows_for(n: int) -> tuple[CatalogRow, ...]:
    """The catalog rows at arity n: the one gate on catalog arities."""
    if n == 3:
        return ROWS_3BIT
    if n == 4:
        return ROWS_4BIT
    raise ArityTooLargeError(f"the bundled catalog covers n = 3 and n = 4 only, got n = {n}")
