"""Class table, region-to-row map, classification, census."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from symgame.cartography import BoundaryGame, REGIONS
from symgame.equilibria import pure_nash_set, relaxed_po_set
from symgame.payoff import PayoffMatrix, TrivialGame, transpose_game
from symgame.taxonomy import (
    CLASS_TABLE,
    Category,
    Classification,
    Comparison,
    PoStatus,
    REGION_ROW,
    census,
    classify,
)

from test_payoff import random_matrix

DIAGONAL = {(0, 0), (1, 1)}
NON_DIAGONAL = {(0, 1), (1, 0)}


# ---------------------------------------------------------------------------
# The frozen table


def test_table_shape_and_measures() -> None:
    assert len(CLASS_TABLE) == 9
    counts = tuple(row.triangle_count for row in CLASS_TABLE)
    assert counts == (4, 2, 2, 3, 1, 6, 1, 1, 4)
    assert sum(counts) == 24
    for row in CLASS_TABLE:
        assert row.fraction == Fraction(row.triangle_count, 24)
    assert sum(row.fraction for row in CLASS_TABLE) == 1
    listed = [text for row in CLASS_TABLE for text in row.orderings]
    assert sorted(listed) == sorted(region.ordering_text for region in REGIONS)


def test_table_display_names() -> None:
    names = tuple(row.display_name for row in CLASS_TABLE)
    assert names == (
        "Cholesterol: friend or foe",
        "Deadlock",
        "Prisoner's Dilemma",
        "Two PO, NE payoff greater",
        "Two PO, NE payoff lower",
        "Pareto Coordination",
        "One PO, NE payoff greater",
        "Chicken",
        "Two non-diagonal PO",
    )


def test_examples_classify_into_their_own_row() -> None:
    for row in CLASS_TABLE:
        assert classify(row.example).game_class is row


def test_region_row_partitions_all_regions() -> None:
    assert sorted(REGION_ROW) == list(range(24))
    sizes = [0] * 9
    for row_index in REGION_ROW.values():
        sizes[row_index] += 1
    assert sizes == [row.triangle_count for row in CLASS_TABLE]


def test_row_labels_match_equilibrium_structure() -> None:
    # The frozen row labels must be rederivable from the NE/PO sets of any
    # member game; check every region through its representative.
    for region in REGIONS:
        P = region.representative()
        row = CLASS_TABLE[REGION_ROW[region.id]]
        ne = pure_nash_set(P)
        po = relaxed_po_set(P)
        if ne == DIAGONAL:
            assert row.category is Category.TWO_DIAGONAL_NE
            assert row.po_status is PoStatus.BOTH_NE_PO
            assert po <= ne and po
        elif ne == NON_DIAGONAL:
            assert row.category is Category.TWO_NON_DIAGONAL_NE
            if po == NON_DIAGONAL:
                assert row.po_status is PoStatus.TWO_PO
            else:
                assert row.po_status is PoStatus.ONE_PO
                assert len(po) == 1 and po <= DIAGONAL
        else:
            assert row.category is Category.ONE_DIAGONAL_NE
            assert len(ne) == 1 and ne <= DIAGONAL
            if po == ne:
                assert row.po_status is PoStatus.PO_IS_NE
            elif len(po) == 2:
                assert row.po_status is PoStatus.TWO_PO
            else:
                assert row.po_status is PoStatus.PO_NOT_NE
                assert len(po) == 1 and po <= DIAGONAL and po != ne


# ---------------------------------------------------------------------------
# classify()


def test_classify_prisoners_dilemma() -> None:
    result = classify(PayoffMatrix(3, 1, 4, 2))
    assert isinstance(result, Classification)
    assert result.region.ordering_text == "c>a>d>b"
    assert result.game_class.display_name == "Prisoner's Dilemma"
    assert result.ne_set == {(1, 1)}
    assert result.po_set == {(0, 0)}
    assert result.mixed_ne is None and result.mixed_po is None
    assert result.comparison_values == (2, 3)


def test_classify_comparison_values_frozen() -> None:
    cases = [
        (PayoffMatrix(3, 4, 1, 2), (3, 2)),  # Deadlock
        (PayoffMatrix(4, 5, 2, 1), (4, Fraction(7, 2))),
        (PayoffMatrix(1, 2, 5, 3), (3, Fraction(7, 2))),
        (PayoffMatrix(1, 5, 2, 3), (Fraction(7, 3), 3)),
        (PayoffMatrix(4, 2, 5, 1), (3, 4)),  # Chicken
    ]
    for P, expected in cases:
        assert classify(P).comparison_values == expected


def test_classify_comparison_absent_where_not_applicable() -> None:
    for P in (PayoffMatrix(4, 2, 3, 1), PayoffMatrix(4, 1, 2, 3), PayoffMatrix(2, 3, 4, 1)):
        result = classify(P)
        assert result.game_class.payoff_comparison is Comparison.NOT_APPLICABLE
        assert result.comparison_values is None


def test_comparison_sign_matches_row_label_when_strict() -> None:
    # Representatives of two rows tie exactly (both values 3); every other
    # comparison over the ordinal games must agree with the frozen label,
    # except the known one-PO row whose computed equilibrium value always
    # sits below the optimum.
    known_reversed = "b>d>c>a"
    for region in REGIONS:
        result = classify(region.representative())
        label = result.game_class.payoff_comparison
        if result.comparison_values is None:
            assert label is Comparison.NOT_APPLICABLE
            continue
        ne_value, po_value = result.comparison_values
        if ne_value == po_value:
            assert result.region.ordering_text in ("b>a>c>d", "c>d>b>a")
            continue
        if result.region.ordering_text == known_reversed:
            assert label is Comparison.NE_GREATER and ne_value < po_value
            continue
        assert label is (
            Comparison.NE_GREATER if ne_value > po_value else Comparison.NE_LESS
        )


def test_mixed_profiles_appear_exactly_where_expected() -> None:
    rng = random.Random(91)
    games = [r.representative() for r in REGIONS]
    while len(games) < 300:
        P = random_matrix(rng)
        if len(set(P.entries())) == 4:
            games.append(P)
    for P in games:
        result = classify(P)
        assert (result.mixed_ne is not None) == (
            result.game_class.category is Category.TWO_NON_DIAGONAL_NE
        )
        assert (result.mixed_po is not None) == (result.po_set == NON_DIAGONAL)


def test_classify_rejects_degenerate_input() -> None:
    with pytest.raises(TrivialGame):
        classify(PayoffMatrix(7, 7, 7, 7))
    with pytest.raises(BoundaryGame):
        classify(PayoffMatrix(2, 1, 2, 0))


# ---------------------------------------------------------------------------
# Census and symmetry


def test_census_matches_triangle_counts() -> None:
    counts = census()
    assert set(counts) == set(CLASS_TABLE)
    for row in CLASS_TABLE:
        assert counts[row] == row.triangle_count
    assert sum(counts.values()) == 24


def test_player_relabeling_preserves_structure() -> None:
    # Swapping both players' action labels maps (a,b,c,d) to (d,c,b,a) and
    # position (i,j) to (1-i,1-j); category and status are invariant.
    def flipped(positions):
        return {(1 - i, 1 - j) for i, j in positions}

    rng = random.Random(92)
    games = [r.representative() for r in REGIONS]
    while len(games) < 200:
        P = random_matrix(rng)
        if len(set(P.entries())) == 4:
            games.append(P)
    for P in games:
        Q = PayoffMatrix(P.d, P.c, P.b, P.a)
        rp, rq = classify(P), classify(Q)
        assert rq.game_class.category is rp.game_class.category
        assert rq.game_class.po_status is rp.game_class.po_status
        assert rq.ne_set == flipped(rp.ne_set)
        assert rq.po_set == flipped(rp.po_set)
        if rp.mixed_ne is not None:
            assert rq.mixed_ne == 1 - rp.mixed_ne


def test_transpose_swaps_equilibria_and_optima() -> None:
    rng = random.Random(93)
    for _ in range(200):
        P = random_matrix(rng)
        if len(set(P.entries())) != 4:
            continue
        rp, rt = classify(P), classify(transpose_game(P))
        assert rt.ne_set == rp.po_set
        assert rt.po_set == rp.ne_set
        assert rt.mixed_ne == rp.mixed_po
        assert rt.mixed_po == rp.mixed_ne
