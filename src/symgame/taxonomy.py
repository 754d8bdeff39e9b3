"""The nine-row taxonomy of strict-generic symmetric 2x2 games.

A game's class is a pure function of its elementary region: the category
(where the pure equilibria sit) and the optimality status are sign patterns,
and each of the 24 regions is listed by its ordering under one of nine rows
below.  A row's share, ``fraction``, is its number of orderings over 24.

Alongside the frozen row assignment, ``classify`` reports the computed
payoff comparison for the rows that have one, as a pair of exact values:
the equilibrium payoff and the optimum payoff it is measured against.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Tuple

from .cartography import ElementaryRegion, REGIONS, region_of
from .equilibria import (
    PositionSet,
    expected_payoff,
    mixed_nash,
    mixed_po,
    pure_nash_set,
    relaxed_po_set,
)
from .payoff import PayoffMatrix

__all__ = [
    "CLASS_TABLE",
    "Category",
    "Classification",
    "Comparison",
    "GameClassRecord",
    "PoStatus",
    "REGION_ROW",
    "census",
    "classify",
]


class Category(Enum):
    """Location of the pure Nash equilibria."""

    ONE_DIAGONAL_NE = "one-diagonal-ne"
    TWO_DIAGONAL_NE = "two-diagonal-ne"
    TWO_NON_DIAGONAL_NE = "two-non-diagonal-ne"


class PoStatus(Enum):
    """Shape of the relaxed-optimal set relative to the equilibria."""

    PO_IS_NE = "po-is-ne"
    PO_NOT_NE = "po-not-ne"
    TWO_PO = "two-po"
    ONE_PO = "one-po"
    BOTH_NE_PO = "both-ne-po"


class Comparison(Enum):
    """Row-level label comparing NE payoff against the optimum payoff."""

    NE_GREATER = "ne-greater"
    NE_LESS = "ne-less"
    NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class GameClassRecord:
    """One taxonomy row: three labels, a display name and its member orderings."""

    category: Category
    po_status: PoStatus
    payoff_comparison: Comparison
    display_name: str
    orderings: Tuple[str, ...]

    @property
    def fraction(self) -> Fraction:
        """Share of the sphere, derived: len(orderings) / 24."""
        return Fraction(len(self.orderings), 24)


# Rows in table order.  The member orderings pin the region-to-row map; census
# checks each row's category and PO status against its members' NE/PO sets.
CLASS_TABLE = (
    GameClassRecord(
        Category.ONE_DIAGONAL_NE, PoStatus.PO_IS_NE, Comparison.NOT_APPLICABLE,
        "Cholesterol: friend or foe", ("a>b>c>d", "a>c>b>d", "d>c>b>a", "d>b>c>a"),
    ),
    GameClassRecord(
        Category.ONE_DIAGONAL_NE, PoStatus.PO_NOT_NE, Comparison.NE_GREATER,
        "Deadlock", ("b>a>d>c", "c>d>a>b"),
    ),
    GameClassRecord(
        Category.ONE_DIAGONAL_NE, PoStatus.PO_NOT_NE, Comparison.NE_LESS,
        "Prisoner's Dilemma", ("b>d>a>c", "c>a>d>b"),
    ),
    GameClassRecord(
        Category.ONE_DIAGONAL_NE, PoStatus.TWO_PO, Comparison.NE_GREATER,
        "Two PO, NE payoff greater", ("a>b>d>c", "d>c>a>b", "b>a>c>d"),
    ),
    GameClassRecord(
        Category.ONE_DIAGONAL_NE, PoStatus.TWO_PO, Comparison.NE_LESS,
        "Two PO, NE payoff lower", ("c>d>b>a",),
    ),
    GameClassRecord(
        Category.TWO_DIAGONAL_NE, PoStatus.BOTH_NE_PO, Comparison.NOT_APPLICABLE,
        "Pareto Coordination", ("a>c>d>b", "a>d>c>b", "a>d>b>c", "d>a>c>b", "d>a>b>c", "d>b>a>c"),
    ),
    GameClassRecord(
        Category.TWO_NON_DIAGONAL_NE, PoStatus.ONE_PO, Comparison.NE_GREATER,
        "One PO, NE payoff greater", ("b>d>c>a",),
    ),
    GameClassRecord(
        Category.TWO_NON_DIAGONAL_NE, PoStatus.ONE_PO, Comparison.NE_LESS,
        "Chicken", ("c>a>b>d",),
    ),
    GameClassRecord(
        Category.TWO_NON_DIAGONAL_NE, PoStatus.TWO_PO, Comparison.NOT_APPLICABLE,
        "Two non-diagonal PO", ("c>b>a>d", "c>b>d>a", "b>c>a>d", "b>c>d>a"),
    ),
)

#: Region id -> its row index (0..8) in ``CLASS_TABLE``.
REGION_ROW = {r.id: k for r in REGIONS for k, row in enumerate(CLASS_TABLE) if r.ordering_text in row.orderings}


@dataclass(frozen=True)
class Classification:
    """Full classification of one strict-generic game."""

    region: ElementaryRegion
    game_class: GameClassRecord
    ne_set: PositionSet
    po_set: PositionSet
    mixed_ne: Optional[Fraction]
    mixed_po: Optional[Fraction]
    #: (equilibrium payoff, optimum payoff) for rows with a comparison.
    comparison_values: Optional[Tuple[Fraction, Fraction]]


_NON_DIAGONAL = frozenset({(0, 1), (1, 0)})


def _comparison_values(P, row, ne_set, po_set, mixed_ne):
    if row.category is Category.ONE_DIAGONAL_NE and row.po_status is not PoStatus.PO_IS_NE:
        (ne_pos,) = ne_set
        ne_value = P.entry(*ne_pos)
        if po_set == _NON_DIAGONAL:
            # Symmetric value of the off-diagonal optimum pair.
            po_value = (P.b + P.c) / 2
        else:
            (po_pos,) = po_set - ne_set
            po_value = P.entry(*po_pos)
        return (ne_value, po_value)
    if row.po_status is PoStatus.ONE_PO:
        (po_pos,) = po_set
        return (expected_payoff(P, mixed_ne, mixed_ne)[0], P.entry(*po_pos))
    return None


def classify(P: PayoffMatrix) -> Classification:
    """Classify a strict-generic game into its taxonomy row.

    Propagates TrivialGame for constant matrices and BoundaryGame for ties;
    the latter lists the regions adjacent to the boundary point.
    """
    region = region_of(P)
    row = CLASS_TABLE[REGION_ROW[region.id]]
    ne_set = pure_nash_set(P)
    po_set = relaxed_po_set(P)
    mixed_ne = mixed_nash(P)
    return Classification(
        region=region,
        game_class=row,
        ne_set=ne_set,
        po_set=po_set,
        mixed_ne=mixed_ne,
        mixed_po=mixed_po(P),
        comparison_values=_comparison_values(P, row, ne_set, po_set, mixed_ne),
    )


def _labels(ne_set, po_set):
    """(category, PO status) as read off a strict game's pure NE and relaxed PO sets."""
    if ne_set == _NON_DIAGONAL:
        return Category.TWO_NON_DIAGONAL_NE, PoStatus.TWO_PO if po_set == _NON_DIAGONAL else PoStatus.ONE_PO
    if len(ne_set) == 2:
        return Category.TWO_DIAGONAL_NE, PoStatus.BOTH_NE_PO
    if po_set == ne_set:
        return Category.ONE_DIAGONAL_NE, PoStatus.PO_IS_NE
    return Category.ONE_DIAGONAL_NE, PoStatus.TWO_PO if len(po_set) == 2 else PoStatus.PO_NOT_NE


def census() -> dict:
    """Per-row counts of the 24 region representatives whose own NE/PO sets give their row's labels."""
    counts = {record: 0 for record in CLASS_TABLE}
    for region in REGIONS:
        P, row = region.representative(), CLASS_TABLE[REGION_ROW[region.id]]
        if _labels(pure_nash_set(P), relaxed_po_set(P)) == (row.category, row.po_status):
            counts[row] += 1
    return counts
