"""Order graphs: the four outcomes as plotted points with preference arrows.

Each position (i, j) becomes a node at (x, y) = (column payoff, row payoff).
Nash arrows join the two positions a player can switch between and point
toward that player's own better payoff (up for the row player, right for the
column player).  Pareto arrows sit on the same node pairs but point toward
the *other* player's better payoff.  Ties produce double-headed arrows.

Reading equilibria off the arrows is an independent route to the same sets
the inequality predicates compute, which makes the graph a handy oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .equilibria import PositionSet
from .payoff import POSITIONS, PayoffMatrix, Position

__all__ = [
    "Arrow",
    "GraphNode",
    "OrderGraph",
    "build_order_graph",
    "graph_nash_set",
    "graph_po_set",
    "to_dot",
]


@dataclass(frozen=True)
class GraphNode:
    position: Position
    x: Fraction  # column player's payoff
    y: Fraction  # row player's payoff
    name: str  # stable DOT identifier, e.g. "pos_01"


@dataclass(frozen=True)
class Arrow:
    tail: Position
    head: Position
    owner: str  # "row" or "col": whose unilateral switch this edge is
    double: bool  # tie: points both ways


@dataclass(frozen=True)
class OrderGraph:
    matrix: PayoffMatrix
    nodes: tuple
    nash_arrows: tuple
    pareto_arrows: tuple


def _arrow(first: Position, second: Position, first_value, second_value, owner: str) -> Arrow:
    if first_value == second_value:
        return Arrow(first, second, owner, True)
    if first_value > second_value:
        return Arrow(second, first, owner, False)
    return Arrow(first, second, owner, False)


def build_order_graph(P: PayoffMatrix) -> OrderGraph:
    """Construct nodes and both arrow families for a game."""
    nodes = tuple(
        GraphNode(
            position=(i, j),
            x=P.entry(j, i),
            y=P.entry(i, j),
            name=f"pos_{i}{j}",
        )
        for (i, j) in POSITIONS
    )
    nash = []
    pareto = []
    for j in (0, 1):  # row player's switches: (0,j) <-> (1,j)
        u, v = (0, j), (1, j)
        nash.append(_arrow(u, v, P.entry(0, j), P.entry(1, j), "row"))
        pareto.append(_arrow(u, v, P.entry(j, 0), P.entry(j, 1), "row"))
    for i in (0, 1):  # column player's switches: (i,0) <-> (i,1)
        u, v = (i, 0), (i, 1)
        nash.append(_arrow(u, v, P.entry(0, i), P.entry(1, i), "col"))
        pareto.append(_arrow(u, v, P.entry(i, 0), P.entry(i, 1), "col"))
    return OrderGraph(P, nodes, tuple(nash), tuple(pareto))


def _sinks(arrows: tuple) -> PositionSet:
    """Positions whose adjacent arrows all point at them (double counts)."""
    result = []
    for pos in POSITIONS:
        adjacent = [arr for arr in arrows if pos in (arr.tail, arr.head)]
        if all(arr.double or arr.head == pos for arr in adjacent):
            result.append(pos)
    return frozenset(result)


def graph_nash_set(g: OrderGraph) -> PositionSet:
    """Equilibria read from the graph: nodes where both Nash arrows converge."""
    return _sinks(g.nash_arrows)


def graph_po_set(g: OrderGraph) -> PositionSet:
    """Relaxed optima read from the graph: nodes where both Pareto arrows converge."""
    return _sinks(g.pareto_arrows)


def to_dot(g: OrderGraph, simplified: bool = False) -> str:
    """Render the graph as DOT with nodes pinned at their payoff coordinates.

    Nash arrows are solid, Pareto arrows dashed, equilibrium nodes doubly
    circled.  ``simplified`` keeps only the nodes and equilibrium marks.
    """
    ne = graph_nash_set(g)
    names = {node.position: node.name for node in g.nodes}
    lines = [
        "digraph order_graph {",
        "  graph [layout=neato];",
        "  node [shape=circle, fixedsize=true, width=0.9];",
    ]
    for node in g.nodes:
        i, j = node.position
        shape = ", shape=doublecircle" if node.position in ne else ""
        label = f"({i},{j})\\n{node.y}, {node.x}"
        lines.append(
            f'  {node.name} [label="{label}", pos="{float(node.x):g},{float(node.y):g}!"{shape}];'
        )
    if not simplified:
        for style, arrows in (("solid", g.nash_arrows), ("dashed", g.pareto_arrows)):
            for arr in arrows:
                extra = ", dir=both" if arr.double else ""
                lines.append(f"  {names[arr.tail]} -> {names[arr.head]} [style={style}{extra}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
