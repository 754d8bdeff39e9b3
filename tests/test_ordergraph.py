"""Order graphs: construction, arrow directions, sinks, DOT output."""

from __future__ import annotations

import dataclasses
import random
import re
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from symgame.cartography import REGIONS
from symgame.equilibria import pure_nash_set, relaxed_po_set
from symgame.ordergraph import (
    Arrow,
    GraphNode,
    OrderGraph,
    build_order_graph,
    graph_nash_set,
    graph_po_set,
    to_dot,
)
from symgame.payoff import POSITIONS, PayoffMatrix, transpose_game

from test_kernel import games
from test_payoff import random_matrix
from test_taxonomy import CLASS_EXAMPLES

PD = PayoffMatrix(3, 1, 4, 2)


def test_nodes_sit_at_payoff_coordinates() -> None:
    g = build_order_graph(PD)
    coords = {n.position: (n.x, n.y) for n in g.nodes}
    assert coords == {
        (0, 0): (3, 3),
        (0, 1): (4, 1),  # x = column player's payoff, y = row player's
        (1, 0): (1, 4),
        (1, 1): (2, 2),
    }
    node_ids = [line.split()[0] for line in to_dot(g, simplified=True).splitlines()[3:-1]]
    assert node_ids == ["pos_00", "pos_01", "pos_10", "pos_11"]  # DOT ids, in node order


def test_order_graph_is_its_nodes_and_arrows() -> None:
    assert [f.name for f in dataclasses.fields(OrderGraph)] == ["nodes", "nash_arrows", "pareto_arrows"]
    assert {n.position: n.y for n in build_order_graph(PD).nodes} == dict(zip(POSITIONS, PD.entries()))


def test_arrow_inventory() -> None:
    g = build_order_graph(PD)
    for arrows in (g.nash_arrows, g.pareto_arrows):
        assert len(arrows) == 4
        assert [a.owner for a in arrows] == ["row", "row", "col", "col"]
        # Row arrows connect the two rows of a column; col arrows the columns.
        for a in arrows[:2]:
            assert a.tail[1] == a.head[1] and a.tail[0] != a.head[0]
        for a in arrows[2:]:
            assert a.tail[0] == a.head[0] and a.tail[1] != a.head[1]


def test_prisoners_dilemma_arrows_frozen() -> None:
    g = build_order_graph(PD)
    assert g.nash_arrows == (
        Arrow((0, 0), (1, 0), "row", False),
        Arrow((0, 1), (1, 1), "row", False),
        Arrow((0, 0), (0, 1), "col", False),
        Arrow((1, 0), (1, 1), "col", False),
    )
    assert g.pareto_arrows == (
        Arrow((1, 0), (0, 0), "row", False),
        Arrow((1, 1), (0, 1), "row", False),
        Arrow((0, 1), (0, 0), "col", False),
        Arrow((1, 1), (1, 0), "col", False),
    )
    assert graph_nash_set(g) == {(1, 1)}
    assert graph_po_set(g) == {(0, 0)}


def test_arrows_point_toward_owners_better_payoff() -> None:
    rng = random.Random(101)
    for _ in range(200):
        P = random_matrix(rng)
        g = build_order_graph(P)
        node = {n.position: n for n in g.nodes}
        for a in g.nash_arrows:
            if a.double:
                if a.owner == "row":
                    assert node[a.tail].y == node[a.head].y
                else:
                    assert node[a.tail].x == node[a.head].x
            elif a.owner == "row":
                assert node[a.head].y > node[a.tail].y
            else:
                assert node[a.head].x > node[a.tail].x
        for a in g.pareto_arrows:
            if a.double:
                continue
            if a.owner == "row":  # points toward the column player's gain
                assert node[a.head].x > node[a.tail].x
            else:
                assert node[a.head].y > node[a.tail].y


def test_nash_arrows_are_pareto_arrows_of_the_transpose() -> None:
    rng = random.Random(102)
    for _ in range(200):
        P = random_matrix(rng)
        g = build_order_graph(P)
        gt = build_order_graph(transpose_game(P))
        assert g.nash_arrows == gt.pareto_arrows
        assert g.pareto_arrows == gt.nash_arrows


def test_arrow_pairs_align_iff_edge_is_pareto_ranked() -> None:
    # On a strict-generic game the two arrows of an edge share a head exactly
    # when one endpoint beats the other in both coordinates.
    rng = random.Random(103)
    for _ in range(200):
        P = random_matrix(rng)
        if len(set(P.entries())) != 4:
            continue
        g = build_order_graph(P)
        node = {n.position: n for n in g.nodes}
        for nash, pareto in zip(g.nash_arrows, g.pareto_arrows):
            assert {nash.tail, nash.head} == {pareto.tail, pareto.head}
            u, v = node[nash.tail], node[nash.head]
            dominated = u.x < v.x and u.y < v.y
            assert (nash.head == pareto.head) == dominated


def test_graph_sets_match_predicates_everywhere() -> None:
    games = [P for P, _ in CLASS_EXAMPLES]
    games += [r.representative() for r in REGIONS]
    games.append(PayoffMatrix(4, 5, 1, 0))
    games.append(PayoffMatrix(2, 1, 2, 0))
    games.append(PayoffMatrix(5, 5, 5, 5))
    rng = random.Random(104)
    games += [random_matrix(rng, span=4) for _ in range(300)]  # many ties
    for P in games:
        g = build_order_graph(P)
        assert graph_nash_set(g) == pure_nash_set(P)
        assert graph_po_set(g) == relaxed_po_set(P)


def test_single_equilibrium_despite_tempting_column() -> None:
    g = build_order_graph(PayoffMatrix(4, 5, 1, 0))
    assert graph_nash_set(g) == {(0, 0)}


def test_ties_make_double_arrows_and_weak_sinks() -> None:
    g = build_order_graph(PayoffMatrix(2, 1, 2, 0))
    doubles = [a for a in g.nash_arrows if a.double]
    assert doubles == [
        Arrow((0, 0), (1, 0), "row", True),
        Arrow((0, 0), (0, 1), "col", True),
    ]
    assert graph_nash_set(g) == {(0, 0), (0, 1), (1, 0)}

    g = build_order_graph(PayoffMatrix(3, 3, 3, 3))
    assert all(a.double for a in g.nash_arrows + g.pareto_arrows)
    assert graph_nash_set(g) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert graph_po_set(g) == {(0, 0), (0, 1), (1, 0), (1, 1)}


# ---------------------------------------------------------------------------
# DOT rendering


def test_dot_structure() -> None:
    g = build_order_graph(PD)
    dot = to_dot(g)
    assert dot == to_dot(build_order_graph(PD))  # deterministic
    assert dot.startswith("digraph order_graph {\n")
    assert dot.endswith("}\n")
    assert "layout=neato" in dot
    lines = dot.splitlines()
    node_lines = [l for l in lines if "pos=" in l]
    assert len(node_lines) == 4
    assert sum(1 for l in lines if "->" in l) == 8
    assert sum(1 for l in lines if "style=solid" in l) == 4
    assert sum(1 for l in lines if "style=dashed" in l) == 4
    marked = [l for l in node_lines if "doublecircle" in l]
    assert len(marked) == 1 and marked[0].lstrip().startswith("pos_11 ")
    assert 'pos_01 [label="(0,1)\\n1, 4", pos="4,1!"]' in dot


def test_dot_simplified_drops_edges_keeps_marks() -> None:
    g = build_order_graph(PD)
    dot = to_dot(g, simplified=True)
    assert "->" not in dot
    assert dot.count("doublecircle") == 1


def test_dot_marks_ties_and_multiple_equilibria() -> None:
    dot = to_dot(build_order_graph(PayoffMatrix(2, 1, 2, 0)))
    assert dot.count("dir=both") == 2
    assert dot.count("doublecircle") == 3
    dot = to_dot(build_order_graph(PayoffMatrix(0, 0, 0, 0)))
    assert dot.count("dir=both") == 8
    assert dot.count("doublecircle") == 4


def test_dot_fractional_coordinates_render_as_floats() -> None:
    dot = to_dot(build_order_graph(PayoffMatrix("1/2", 0, 1, "1/4")))
    assert 'pos="0.25,0.25!"' in dot
    assert "1/2" in dot  # labels keep exact values


# ---------------------------------------------------------------------------
# The graph against its first, entry-by-entry definitions


def _arrow_by_definition(first, second, first_value, second_value, owner) -> Arrow:
    if first_value == second_value:
        return Arrow(first, second, owner, True)
    if first_value > second_value:
        return Arrow(second, first, owner, False)
    return Arrow(first, second, owner, False)


def _graph_by_entries(P: PayoffMatrix) -> OrderGraph:
    """One ``P.entry`` call per value: node (i, j) at (P[j][i], P[i][j]), then each switch's arrows."""
    nodes = tuple(GraphNode((i, j), P.entry(j, i), P.entry(i, j)) for i, j in POSITIONS)
    nash, pareto = [], []
    for j in (0, 1):  # row player's switches: (0,j) <-> (1,j)
        nash.append(_arrow_by_definition((0, j), (1, j), P.entry(0, j), P.entry(1, j), "row"))
        pareto.append(_arrow_by_definition((0, j), (1, j), P.entry(j, 0), P.entry(j, 1), "row"))
    for i in (0, 1):  # column player's switches: (i,0) <-> (i,1)
        nash.append(_arrow_by_definition((i, 0), (i, 1), P.entry(0, i), P.entry(1, i), "col"))
        pareto.append(_arrow_by_definition((i, 0), (i, 1), P.entry(i, 0), P.entry(i, 1), "col"))
    return OrderGraph(nodes, tuple(nash), tuple(pareto))


def _adjacent_sinks(arrows) -> frozenset:
    """Positions whose adjacent arrows all point at them or are double."""
    return frozenset(
        pos for pos in POSITIONS
        if all(arr.double or arr.head == pos for arr in arrows if pos in (arr.tail, arr.head))
    )


@settings(deadline=None)
@given(games)
def test_graph_and_sinks_match_their_entry_by_entry_definitions(P: PayoffMatrix) -> None:
    g = build_order_graph(P)
    assert g == _graph_by_entries(P)
    assert graph_nash_set(g) == _adjacent_sinks(g.nash_arrows) == pure_nash_set(P)
    assert graph_po_set(g) == _adjacent_sinks(g.pareto_arrows) == relaxed_po_set(P)


_huge = st.builds(Fraction, st.integers(-10**300, 10**300), st.integers(1, 10**300))
_wide = st.one_of(_huge, st.fractions(-100, 100, max_denominator=10**6), st.integers(-10**300, 10**300))


@settings(deadline=None)
@given(st.tuples(_wide, _wide, _wide, _wide))
def test_dot_positions_are_the_floats_of_the_coordinates(entries) -> None:
    g = build_order_graph(PayoffMatrix(*entries))
    positions = re.findall(r'pos="([^,"]+),([^!"]+)!"', to_dot(g))
    assert positions == [(format(float(n.x), "g"), format(float(n.y), "g")) for n in g.nodes]
