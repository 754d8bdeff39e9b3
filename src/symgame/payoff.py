"""Payoff matrices for symmetric 2x2 games and their effect-space coordinates.

A symmetric game is stored as the row player's payoff matrix

        P = [[a, b],
             [c, d]]

where the row player picks the row i, the column player picks the column j,
and the column player's payoff at (i, j) is P[j][i].  All entries are exact
rationals (``fractions.Fraction``), so every predicate downstream is exact.

The central tool is an orthogonal change of coordinates that splits the four
payoffs into an overall level g0, an own-action contrast ga, an other-action
contrast gb, and an interaction term gab.  Scaled by 1/2 the transform is an
involution, which makes round trips exact.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Union

__all__ = [
    "PayoffMatrix",
    "GVector",
    "CubePoint",
    "TrivialGame",
    "g_transform",
    "inverse_g_transform",
    "normalize_cube",
    "transpose_game",
    "parse_matrix",
    "matrix_from_json",
    "matrices_from_lines",
]

Rational = Union[int, str, float, Fraction]

#: The (row, column) strategy pairs of a 2x2 game.
POSITIONS = ((0, 0), (0, 1), (1, 0), (1, 1))

Position = tuple


class TrivialGame(ValueError):
    """Raised when an operation needs a non-constant payoff matrix."""


#: Text values are literals that ``Fraction`` reads alike on every supported Python (3.10's grammar: no "_"
#: and no spaces around "/"), bounded before it parses them so that hostile input cannot build huge integers.
_TEXT_BOUNDS = "text must be at most 64 characters, with |exponent| <= 300 and |value| <= 1e300"
_LITERAL = re.compile(r"\s*[-+]?(?=\.?\d)\d*(?:/\d+|(?:\.\d*)?(?:[eE](?P<exp>[-+]?\d+))?)\s*")
_PLAIN = re.compile(r"(-?[0-9]+)(?:/(0*[1-9][0-9]*)|\.([0-9]+))?")  # n, p/q (q != 0), d.dd
_INTEGER = re.compile(r"\s*[-+]?\d+\s*")  # _LITERAL without "/", "." or an exponent: the CLI's counts


def _quote(value: object) -> str:
    """The repr of an offending input value, cut after 64 characters with "..."."""
    text = repr(value)
    return text if len(text) <= 64 else text[:64] + "..."


def _as_fraction(value: Rational, what: str = "payoff") -> Fraction:
    """Coerce an input value to Fraction, converting decimal strings exactly.

    Booleans are rejected.  Strings are ``_LITERAL`` matches of at most 64 characters,
    exponent at most 300 and value at most 10**300 in absolute value.
    """
    if isinstance(value, str):  # first: isinstance(str, Fraction) is an ABC check
        plain = len(value) <= 64 and _PLAIN.fullmatch(value)
        if plain:  # under 10**64 in magnitude, so no bound can fail: skip the checks
            whole, den, decimals = plain.groups()
            if decimals:
                return Fraction(int(whole + decimals), 10 ** len(decimals))
            return Fraction(int(whole), int(den)) if den else Fraction(int(whole))
        literal = _LITERAL.fullmatch(value)
        if len(value) > 64 or literal and abs(int(literal["exp"] or 0)) > 300:
            raise ValueError(f"bad {what} value {_quote(value)}: {_TEXT_BOUNDS}")
    elif isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or isinstance(value, str) and not literal:
        raise ValueError(f"bad {what} value {_quote(value)}")
    try:
        result = Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
        raise ValueError(f"bad {what} value {_quote(value)}") from exc
    if isinstance(value, str) and abs(result.numerator) > 10 ** 300 * result.denominator:
        raise ValueError(f"bad {what} value {_quote(value)}: {_TEXT_BOUNDS}")
    return result


@dataclass(frozen=True)
class PayoffMatrix:
    """Row player's payoff matrix of a symmetric 2x2 game.

    Accepts ints, Fractions, finite floats (at their exact binary value), or
    strings like "3", "0.5", "-2/7"; decimal strings convert exactly, within
    the bounds of ``_as_fraction``.
    """

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, _as_fraction(getattr(self, name)))

    def entry(self, i: int, j: int) -> Fraction:
        """Row player's payoff at position (i, j)."""
        return (self.a, self.b, self.c, self.d)[2 * i + j]

    def entries(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.a, self.b, self.c, self.d)

    @cached_property
    def _scaled(self) -> tuple[int, int, int, int, int]:
        """(q, q*a, q*b, q*c, q*d) in ints: the exact core decides ordering facts on these."""
        q = math.lcm(self.a.denominator, self.b.denominator, self.c.denominator, self.d.denominator)
        return (q, *[v.numerator * (q // v.denominator) for v in (self.a, self.b, self.c, self.d)])

    def __str__(self) -> str:
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"


@dataclass(frozen=True)
class GVector:
    """Effect-space coordinates (g0, ga, gb, gab) of a payoff matrix.

    g0 is the overall payoff level, ga the contrast between the player's own
    two actions, gb the contrast driven by the opponent's action, and gab the
    interaction between the two choices.  Equilibrium structure depends only
    on (ga, gab); the relaxed optimality structure only on (gb, gab).
    """

    g0: Fraction
    ga: Fraction
    gb: Fraction
    gab: Fraction

    def __post_init__(self) -> None:
        for name in ("g0", "ga", "gb", "gab"):
            object.__setattr__(self, name, _as_fraction(getattr(self, name), name))

    def triple(self) -> tuple[Fraction, Fraction, Fraction]:
        """The direction part (ga, gb, gab), dropping the level g0."""
        return (self.ga, self.gb, self.gab)


@dataclass(frozen=True)
class CubePoint:
    """Exact point on the surface of the unit cube in (ga, gb, gab) space.

    Obtained by max-abs normalization, so max(|ga|, |gb|, |gab|) == 1 and at
    least one coordinate is exactly +-1.
    """

    ga: Fraction
    gb: Fraction
    gab: Fraction

    def __post_init__(self) -> None:
        for name in ("ga", "gb", "gab"):
            object.__setattr__(self, name, _as_fraction(getattr(self, name), name))
        if max(abs(n) - q for n, q in map(Fraction.as_integer_ratio, self.triple())) != 0:
            raise ValueError("cube point must have max-abs coordinate exactly 1")

    def triple(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.ga, self.gb, self.gab)


def _signed_sums(w, x, y, z) -> tuple:
    """The sums of (w, x, y, z) with signs ++++, ++--, +-+- and +--+."""
    return (w + x + y + z, w + x - y - z, w - x + y - z, w - x - y + z)


def g_transform(P: PayoffMatrix) -> GVector:
    """Map payoffs (a, b, c, d) to effect coordinates (g0, ga, gb, gab).

    Each output is half a signed sum of the four entries; the matrix of the
    map, scaled by 1/2, is orthogonal and its own inverse.
    """
    return GVector(*(Fraction(s, 2 * P._scaled[0]) for s in _signed_sums(*P._scaled[1:])))


def inverse_g_transform(G: GVector) -> PayoffMatrix:
    """Reconstruct the payoff matrix from effect coordinates (exact inverse)."""
    return PayoffMatrix(*(s / 2 for s in _signed_sums(G.g0, G.ga, G.gb, G.gab)))


def _cube_ints(a: int, b: int, c: int, d: int) -> tuple:
    """(g, m): the g-triple of integer entries, 2*(ga, gb, gab), and its max-abs m > 0."""
    _, *g = _signed_sums(a, b, c, d)
    m = max(map(abs, g))
    if m == 0:
        raise TrivialGame("constant matrix has no cube point")
    return g, m


def normalize_cube(P: PayoffMatrix) -> CubePoint:
    """Project (ga, gb, gab) onto the unit cube surface by max-abs scaling.

    Exact: all coordinates stay rational.  Raises TrivialGame for constant
    matrices.
    """
    g, m = _cube_ints(*P._scaled[1:])
    return CubePoint(*(Fraction(x, m) for x in g))


def transpose_game(P: PayoffMatrix) -> PayoffMatrix:
    """Swap the off-diagonal entries b and c.

    This exchanges the roles of the two contrasts (ga <-> gb), and therefore
    exchanges equilibrium structure with relaxed optimality structure.
    """
    return PayoffMatrix(P.a, P.c, P.b, P.d)


def parse_matrix(text: str) -> PayoffMatrix:
    """Parse the row-major text form "a,b;c,d".

    Entries may be integers, exact decimal strings, or fractions "p/q".
    """
    rows = text.strip().split(";")
    if len(rows) != 2:
        raise ValueError(f"expected 2 rows separated by ';', got {len(rows)} in {_quote(text)}")
    values = []
    for row in rows:
        cells = row.split(",")
        if len(cells) != 2:
            raise ValueError(f"expected 2 entries per row, got {len(cells)} in {_quote(row.strip())}")
        values += (cell.strip() for cell in cells)
    return PayoffMatrix(*values)  # the constructor coerces a, b, c, d in order


def matrix_from_json(obj: object) -> PayoffMatrix:
    """Build a matrix from the JSON form {"payoff": [[a, b], [c, d]]}."""
    if not isinstance(obj, dict) or "payoff" not in obj:
        raise ValueError("JSON matrix must be an object with a 'payoff' key")
    rows = obj["payoff"]
    if not (isinstance(rows, (list, tuple)) and len(rows) == 2
            and all(isinstance(r, (list, tuple)) and len(r) == 2 for r in rows)):
        raise ValueError("'payoff' must be a 2x2 array")
    return PayoffMatrix(*rows[0], *rows[1])


def matrices_from_lines(lines: Iterable[str]) -> list[PayoffMatrix]:
    """Parse one matrix per non-empty, non-comment line of text input."""
    out = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            out.append(parse_matrix(line))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    return out
