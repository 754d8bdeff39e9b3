"""Order graphs: the four outcomes as plotted points with preference arrows.

Each position (i, j) becomes a node at (x, y) = (column payoff, row payoff).
Nash arrows join the two positions a player can switch between and point
toward that player's own better payoff (up for the row player, right for the
column player).  Pareto arrows sit on the same node pairs but point toward
the *other* player's better payoff.  Ties produce double-headed arrows.

Reading equilibria off the arrows is an independent route to the same sets
the inequality predicates compute, which makes the graph a handy oracle: the
arrows compare the Fraction entries themselves, and a sink is read in one
pass, as a position that is the tail of no single-headed arrow.
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


@dataclass(frozen=True)
class Arrow:
    tail: Position
    head: Position
    owner: str  # "row" or "col": whose unilateral switch this edge is
    double: bool  # tie: points both ways


@dataclass(frozen=True)
class OrderGraph:
    nodes: tuple
    nash_arrows: tuple
    pareto_arrows: tuple


# The row player's switches (0,j) <-> (1,j), then the column player's (i,0) <-> (i,1).
_EDGES = (((0, 0), (1, 0), "row"), ((0, 1), (1, 1), "row"), ((0, 0), (0, 1), "col"), ((1, 0), (1, 1), "col"))
# Each edge's three possible arrows, indexed by the _order of the values at its two ends.
_ARROWS = tuple((Arrow(u, v, o, False), Arrow(u, v, o, True), Arrow(v, u, o, False)) for u, v, o in _EDGES)
_ALL = frozenset(POSITIONS)


def _order(x: Fraction, y: Fraction) -> int:
    """0 when x < y, 1 when x == y (a double arrow), 2 when x > y (the arrow turns round)."""
    return 0 if x < y else 1 if x == y else 2


def build_order_graph(P: PayoffMatrix) -> OrderGraph:
    """Construct nodes and both arrow families for a game."""
    a, b, c, d = P.entries()
    # Node (i, j) sits at (P[j][i], P[i][j]): the column player's payoff, then the row player's.
    nodes = tuple(map(GraphNode, POSITIONS, (a, c, b, d), (a, b, c, d)))
    # A Nash arrow compares its owner's payoffs at the edge's ends, (a, c) or (b, d); a Pareto
    # arrow the other player's, (a, b) or (c, d).  Each pair is compared once.
    ac, bd, ab, cd = _order(a, c), _order(b, d), _order(a, b), _order(c, d)
    e0, e1, e2, e3 = _ARROWS
    return OrderGraph(nodes, (e0[ac], e1[bd], e2[ac], e3[bd]), (e0[ab], e1[cd], e2[ab], e3[cd]))


def _sinks(arrows: tuple) -> PositionSet:
    """Positions that no single-headed arrow leaves: every adjacent arrow points at them or is double."""
    return _ALL.difference([arr.tail for arr in arrows if not arr.double])


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
    lines = [
        "digraph order_graph {",
        "  graph [layout=neato];",
        "  node [shape=circle, fixedsize=true, width=0.9];",
    ]
    for node in g.nodes:
        i, j = node.position
        shape = ", shape=doublecircle" if node.position in ne else ""
        label = f"({i},{j})\\n{node.y}, {node.x}"
        (p, q), (r, t) = node.x.as_integer_ratio(), node.y.as_integer_ratio()
        lines.append(f'  pos_{i}{j} [label="{label}", pos="{p / q:g},{r / t:g}!"{shape}];')
    if not simplified:
        for style, arrows in (("solid", g.nash_arrows), ("dashed", g.pareto_arrows)):
            for arr in arrows:
                extra = ", dir=both" if arr.double else ""
                (i, j), (k, l) = arr.tail, arr.head
                lines.append(f"  pos_{i}{j} -> pos_{k}{l} [style={style}{extra}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
