"""Class table, region-to-row map, classification, census."""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import pytest

from symgame import taxonomy
from symgame.cartography import BoundaryGame, REGIONS
from symgame.equilibria import pure_nash_set, relaxed_po_set
from symgame.payoff import PayoffMatrix, TrivialGame, transpose_game
from symgame.taxonomy import (
    CLASS_TABLE,
    Category,
    Classification,
    Comparison,
    GameClassRecord,
    PoStatus,
    REGION_ROW,
    census,
    classify,
)

from test_payoff import linear, random_matrix

DIAGONAL = {(0, 0), (1, 1)}
NON_DIAGONAL = {(0, 1), (1, 0)}
ROW_SIZES = (4, 2, 2, 3, 1, 6, 1, 1, 4)

# One strict game per class row, as (matrix, row index).
CLASS_EXAMPLES = [
    (PayoffMatrix(4, 2, 3, 1), 0),  # Cholesterol: friend or foe
    (PayoffMatrix(3, 4, 1, 2), 1),  # Deadlock
    (PayoffMatrix(3, 1, 4, 2), 2),  # Prisoner's Dilemma
    (PayoffMatrix(4, 5, 2, 1), 3),  # Two PO, NE payoff greater
    (PayoffMatrix(1, 2, 5, 3), 4),  # Two PO, NE payoff lower
    (PayoffMatrix(4, 1, 2, 3), 5),  # Pareto Coordination
    (PayoffMatrix(1, 5, 2, 3), 6),  # One PO, NE payoff greater
    (PayoffMatrix(4, 2, 5, 1), 7),  # Chicken
    (PayoffMatrix(2, 3, 4, 1), 8),  # Two non-diagonal PO
]


# ---------------------------------------------------------------------------
# The frozen table


def test_table_shape_and_measures() -> None:
    assert len(CLASS_TABLE) == 9
    fields = [field.name for field in dataclasses.fields(GameClassRecord)]
    assert fields == ["category", "po_status", "payoff_comparison", "display_name", "orderings"]
    counts = tuple(len(row.orderings) for row in CLASS_TABLE)
    assert counts == ROW_SIZES
    assert sum(counts) == 24
    for row in CLASS_TABLE:
        assert row.fraction == Fraction(len(row.orderings), 24)
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
    assert sorted(k for _, k in CLASS_EXAMPLES) == list(range(9))
    for P, k in CLASS_EXAMPLES:
        assert classify(P).game_class is CLASS_TABLE[k]


def test_region_row_partitions_all_regions() -> None:
    assert sorted(REGION_ROW) == list(range(24))
    sizes = [0] * 9
    for row_index in REGION_ROW.values():
        sizes[row_index] += 1
    assert tuple(sizes) == ROW_SIZES
    assert sizes == [len(row.orderings) for row in CLASS_TABLE]


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


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _comparison_form(P: PayoffMatrix):
    """(NE value - PO value as a function of a game, is it linear), picked from P's NE and PO positions.

    (None, None) where P's sets give no comparison.  A linear form's coefficients sum to 0, so adding a
    constant to a game leaves it unchanged.  The one-PO forms are the mixed-equilibrium payoff minus the
    optimum, factored into payoff differences over (a - c) + (d - b).
    """
    ne, po = pure_nash_set(P), relaxed_po_set(P)
    if ne == NON_DIAGONAL and len(po) == 1:
        if po == {(1, 1)}:
            return (lambda M: -(M.b - M.d) * (M.c - M.d) / ((M.a - M.c) + (M.d - M.b))), False
        return (lambda M: -(M.a - M.b) * (M.a - M.c) / ((M.a - M.c) + (M.d - M.b))), False
    if len(ne) == 1 and po != ne:
        (ne_pos,) = ne
        if po == NON_DIAGONAL:
            return (lambda M: M.entry(*ne_pos) - (M.b + M.c) / 2), True
        (po_pos,) = po - ne
        return (lambda M: M.entry(*ne_pos) - M.entry(*po_pos)), True
    return None, None


def _interior_games(region, rng, n):
    """The representative and n games offset + sum w*V over the region's vertex matrices V, weights w > 0."""
    games = [region.representative()]
    for _ in range(n):
        terms = [(Fraction(rng.randint(1, 60), rng.randint(1, 7)), v.matrix) for v in region.vertices]
        games.append(linear(*terms, offset=Fraction(rng.randint(-20, 20), rng.randint(1, 5))))
    return games


def test_comparison_sign_matches_row_label_when_strict() -> None:
    # The exact sign set of (NE value - PO value) over each open region, against the row's label.
    # A linear form is sum w*f(V) on the interior, so its signs there follow from its values at the
    # three vertex matrices (tied games, never classified).  Each factor of a one-PO form is a payoff
    # difference of one sign on the region, so the form's sign at the representative is its sign.
    proof_table = {
        "none": {0, 2, 3, 4, 5, 8, 9, 14, 15, 18, 19, 20, 21, 23},
        "agrees": {1, 7, 10, 12, 13, 16, 22},
        "split": {6, 17},  # takes -, 0 and +
        "contradicted": {11},
    }
    claimed_signs = {
        Comparison.NE_GREATER: {1},
        Comparison.NE_LESS: {-1},
        Comparison.NOT_APPLICABLE: None,
    }
    rng = random.Random(94)
    found = {verdict: set() for verdict in proof_table}
    for region in REGIONS:
        form, is_linear = _comparison_form(region.representative())
        if form is None:
            signs = None
        elif is_linear:
            at_vertices = {_sign(form(v.matrix)) for v in region.vertices}
            signs = {-1, 0, 1} if {-1, 1} <= at_vertices else (at_vertices - {0} or {0})
        else:
            signs = {_sign(form(region.representative()))}
        for P in _interior_games(region, rng, 20):
            values = classify(P).comparison_values
            assert (values is None) == (form is None)
            if values is not None:
                assert values[0] - values[1] == form(P)
                assert _sign(form(P)) in signs
        claimed = claimed_signs[CLASS_TABLE[REGION_ROW[region.id]].payoff_comparison]
        if signs == claimed:
            found["none" if claimed is None else "agrees"].add(region.id)
        elif signs == {-1, 0, 1} and claimed is not None:
            found["split"].add(region.id)
        else:
            found["contradicted"].add(region.id)
    assert found == proof_table


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


def test_census_matches_triangle_counts(monkeypatch) -> None:
    # census reads each representative's NE/PO sets itself, never through classify.
    monkeypatch.setattr(taxonomy, "classify", None)
    counts = census()
    assert set(counts) == set(CLASS_TABLE)
    assert tuple(counts[row] for row in CLASS_TABLE) == ROW_SIZES
    for row in CLASS_TABLE:
        assert counts[row] == len(row.orderings)
    assert sum(counts.values()) == 24


def test_player_relabeling_preserves_structure() -> None:
    # Swapping both players' action labels maps (a,b,c,d) to (d,c,b,a) and
    # position (i,j) to (1-i,1-j); category and status are invariant, and so
    # is the class row except between these twin regions, whose rows differ
    # only in the comparison label.
    twins = ({6, 17}, {11, 12})
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
        if {rp.region.id, rq.region.id} in twins:
            assert rq.game_class is not rp.game_class
        else:
            assert rq.game_class is rp.game_class
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
