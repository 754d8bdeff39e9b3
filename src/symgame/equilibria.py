"""Pure and mixed equilibria, and the relaxed optimality dual.

``pure_nash_set`` and ``relaxed_po_set`` are weak-inequality predicates and
``mixed_nash`` and ``mixed_po`` test strict inequalities; all four, and the
exact payoffs of ``expected_payoff``, are computed on integer numerators
(``PayoffMatrix._scaled``).  The relaxed Pareto notion is deliberately the
Nash condition of the transposed game: each player maximizes the *other's*
payoff.  That duality makes the classification machinery symmetric, and it is
independent of ``standard_pareto_set``, the textbook strict-domination check
on the Fraction entries, which is kept as an oracle.
"""

from __future__ import annotations

from fractions import Fraction
from typing import FrozenSet, Optional, Tuple

from .payoff import POSITIONS, PayoffMatrix, Position, Rational, _as_fraction

__all__ = [
    "pure_nash_set",
    "relaxed_po_set",
    "mixed_nash",
    "mixed_po",
    "expected_payoff",
    "standard_pareto_set",
]

PositionSet = FrozenSet[Position]

#: Symmetric mixed profile: the shared probability of playing strategy 0.
MixedProfile = Fraction


def _ne_set(a, b, c, d) -> PositionSet:
    # The column player's payoff at (i, j) is P[j][i], so (0, 0) is stable when
    # a >= c, (1, 1) when d >= b, and (0, 1) and (1, 0) when c >= a and b >= d.
    off_diagonal = ((0, 1), (1, 0)) if c >= a and b >= d else ()
    return frozenset(((0, 0),) * (a >= c) + off_diagonal + ((1, 1),) * (d >= b))


def pure_nash_set(P: PayoffMatrix) -> PositionSet:
    """All pure Nash positions.  Never empty for a symmetric game."""
    return _ne_set(*P._scaled[1:])


def relaxed_po_set(P: PayoffMatrix) -> PositionSet:
    """Positions where each player maximizes the other's payoff.

    Defined as the pure Nash set of the transposed game, so it inherits
    existence and the off-diagonal pairing property.
    """
    _, a, b, c, d = P._scaled
    return _ne_set(a, c, b, d)


def _mixed(a, b, c, d) -> Optional[MixedProfile]:
    if a < c and d < b:  # playing 0 against 0 and 1 against 1 both lose
        return Fraction(d - b, (a - c) + (d - b))
    return None


def mixed_nash(P: PayoffMatrix) -> Optional[MixedProfile]:
    """The stable interior mixed equilibrium, when the game has one.

    Reported only for games whose pure equilibria sit off the diagonal
    (a < c and d < b): both players mix with p = (d-b)/((a-c)+(d-b)), which
    is then strictly inside (0, 1).  The unstable interior point of
    two-diagonal-equilibrium games is not reported.
    """
    return _mixed(*P._scaled[1:])


def mixed_po(P: PayoffMatrix) -> Optional[MixedProfile]:
    """Mixed profile of the relaxed optimality dual: mixed_nash of the transpose."""
    _, a, b, c, d = P._scaled
    return _mixed(a, c, b, d)


def expected_payoff(P: PayoffMatrix, p_row: Rational, p_col: Rational) -> Tuple[Fraction, Fraction]:
    """Exact expected payoffs (row, column) when each plays 0 with the given probability."""
    pr = _as_fraction(p_row, "probability")
    pc = _as_fraction(p_col, "probability")
    for p in (pr, pc):
        if not 0 <= p <= 1:
            raise ValueError(f"probability {p} outside [0, 1]")
    q, a, b, c, d = P._scaled
    (r, s), (t, u) = pr.as_integer_ratio(), pc.as_integer_ratio()
    # Weights of (0,0), (0,1), (1,0) and (1,1) times s*u; the column player sees b and c swapped.
    w00, w01, w10, w11 = r * t, r * (u - t), (s - r) * t, (s - r) * (u - t)
    return (Fraction(w00 * a + w01 * b + w10 * c + w11 * d, s * u * q),
            Fraction(w00 * a + w01 * c + w10 * b + w11 * d, s * u * q))


def standard_pareto_set(P: PayoffMatrix) -> PositionSet:
    """Positions not strictly dominated in both players' payoffs.

    Textbook Pareto optimality over the four outcome pairs; used as a
    cross-check for the relaxed notion, not in the classification itself.
    """
    pairs = {pos: (P.entry(pos[0], pos[1]), P.entry(pos[1], pos[0])) for pos in POSITIONS}
    keep = []
    for pos, (u1, u2) in pairs.items():
        dominated = any(
            v1 > u1 and v2 > u2
            for other, (v1, v2) in pairs.items()
            if other != pos
        )
        if not dominated:
            keep.append(pos)
    return frozenset(keep)
