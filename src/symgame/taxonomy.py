"""The nine-row taxonomy of strict-generic symmetric 2x2 games.

A game's class is a pure function of its elementary region: the category
(where the pure equilibria sit) and the optimality status are sign patterns,
and each of the 24 regions is listed by its ordering under one of nine rows
below.  A row states its triangle count; its share, ``fraction``, is count / 24.

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
    """One taxonomy row: labels, triangle count, an example and its member orderings."""

    category: Category
    po_status: PoStatus
    payoff_comparison: Comparison
    triangle_count: int
    display_name: str
    example: PayoffMatrix
    orderings: Tuple[str, ...]

    @property
    def fraction(self) -> Fraction:
        """Share of the sphere, derived: triangle_count / 24."""
        return Fraction(self.triangle_count, 24)


# Rows in table order.  The member orderings pin the region-to-row map; the
# structural labels are rederivable from any member's NE/PO sets and the
# tests do exactly that.
CLASS_TABLE = (
    GameClassRecord(
        Category.ONE_DIAGONAL_NE, PoStatus.PO_IS_NE, Comparison.NOT_APPLICABLE,
        4, "Cholesterol: friend or foe", PayoffMatrix(4, 2, 3, 1),
        ("a>b>c>d", "a>c>b>d", "d>c>b>a", "d>b>c>a"),
    ),
    GameClassRecord(
        Category.ONE_DIAGONAL_NE, PoStatus.PO_NOT_NE, Comparison.NE_GREATER,
        2, "Deadlock", PayoffMatrix(3, 4, 1, 2),
        ("b>a>d>c", "c>d>a>b"),
    ),
    GameClassRecord(
        Category.ONE_DIAGONAL_NE, PoStatus.PO_NOT_NE, Comparison.NE_LESS,
        2, "Prisoner's Dilemma", PayoffMatrix(3, 1, 4, 2),
        ("b>d>a>c", "c>a>d>b"),
    ),
    GameClassRecord(
        Category.ONE_DIAGONAL_NE, PoStatus.TWO_PO, Comparison.NE_GREATER,
        3, "Two PO, NE payoff greater", PayoffMatrix(4, 5, 2, 1),
        ("a>b>d>c", "d>c>a>b", "b>a>c>d"),
    ),
    GameClassRecord(
        Category.ONE_DIAGONAL_NE, PoStatus.TWO_PO, Comparison.NE_LESS,
        1, "Two PO, NE payoff lower", PayoffMatrix(1, 2, 5, 3),
        ("c>d>b>a",),
    ),
    GameClassRecord(
        Category.TWO_DIAGONAL_NE, PoStatus.BOTH_NE_PO, Comparison.NOT_APPLICABLE,
        6, "Pareto Coordination", PayoffMatrix(4, 1, 2, 3),
        ("a>c>d>b", "a>d>c>b", "a>d>b>c", "d>a>c>b", "d>a>b>c", "d>b>a>c"),
    ),
    GameClassRecord(
        Category.TWO_NON_DIAGONAL_NE, PoStatus.ONE_PO, Comparison.NE_GREATER,
        1, "One PO, NE payoff greater", PayoffMatrix(1, 5, 2, 3),
        ("b>d>c>a",),
    ),
    GameClassRecord(
        Category.TWO_NON_DIAGONAL_NE, PoStatus.ONE_PO, Comparison.NE_LESS,
        1, "Chicken", PayoffMatrix(4, 2, 5, 1),
        ("c>a>b>d",),
    ),
    GameClassRecord(
        Category.TWO_NON_DIAGONAL_NE, PoStatus.TWO_PO, Comparison.NOT_APPLICABLE,
        4, "Two non-diagonal PO", PayoffMatrix(2, 3, 4, 1),
        ("c>b>a>d", "c>b>d>a", "b>c>a>d", "b>c>d>a"),
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


def census() -> dict:
    """Class counts over the 24 ordinal games, the region representatives; must match triangle_count."""
    counts = {record: 0 for record in CLASS_TABLE}
    for region in REGIONS:
        counts[classify(region.representative()).game_class] += 1
    return counts
