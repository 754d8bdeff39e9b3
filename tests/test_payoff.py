"""Matrix construction, the effect-space transform, normalization, parsing."""

from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from symgame.payoff import (
    CubePoint,
    GVector,
    PayoffMatrix,
    TrivialGame,
    _as_fraction,
    _quote,
    g_transform,
    inverse_g_transform,
    matrices_from_lines,
    matrix_from_json,
    normalize_cube,
    parse_matrix,
    transpose_game,
)


def random_matrix(rng: random.Random, span: int = 12) -> PayoffMatrix:
    return PayoffMatrix(*(
        Fraction(rng.randint(-span, span), rng.randint(1, 4)) for _ in range(4)
    ))


def linear(*terms: tuple[Fraction, PayoffMatrix], offset: Fraction = 0) -> PayoffMatrix:
    """offset + the sum of k*P over the (k, P) terms, entry by entry in Fraction arithmetic."""
    entries = []
    for i in range(4):
        entries.append(Fraction(offset) + sum(Fraction(k) * P.entries()[i] for k, P in terms))
    return PayoffMatrix(*entries)


def test_construction_coerces_to_exact_fractions() -> None:
    P = PayoffMatrix("0.5", 1, Fraction(2, 3), "-2/7")
    assert P.a == Fraction(1, 2)
    assert P.b == Fraction(1)
    assert P.c == Fraction(2, 3)
    assert P.d == Fraction(-2, 7)
    assert all(isinstance(x, Fraction) for x in P.entries())
    assert PayoffMatrix(0.1, 1, 2, 3).a == Fraction(0.1)  # a float's exact binary value


def test_construction_rejects_junk() -> None:
    for junk in ("oops", float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="bad payoff value"):
            PayoffMatrix("3", junk, 1, 2)


def test_entry_indexing_matches_rows() -> None:
    P = PayoffMatrix(1, 2, 3, 4)
    assert [P.entry(i, j) for i in (0, 1) for j in (0, 1)] == list(P.entries()) == [1, 2, 3, 4]


def test_linear_arithmetic() -> None:
    """A matrix is its four entries: sums, multiples and constants are built entry by entry."""
    P = PayoffMatrix(1, 2, 3, 4)
    Q = PayoffMatrix(4, 3, 2, 1)
    assert linear((1, P), (1, Q)) == PayoffMatrix(5, 5, 5, 5)
    assert linear((1, P), (-1, P)) == PayoffMatrix(0, 0, 0, 0)
    assert linear((2, P)) == PayoffMatrix(2, 4, 6, 8)
    assert linear((Fraction(1, 2), P)) == PayoffMatrix(Fraction(1, 2), 1, Fraction(3, 2), 2)
    assert linear(offset=Fraction(5, 3)) == PayoffMatrix(*[Fraction(5, 3)] * 4)
    for combine in (lambda: P + Q, lambda: P - Q, lambda: 2 * P, lambda: P * 2):
        with pytest.raises(TypeError):
            combine()
    assert not hasattr(PayoffMatrix, "constant")
    assert str(P) == "[[1,2],[3,4]]"


def test_matrix_plus_or_minus_a_scalar_is_a_type_error() -> None:
    """A scalar offset is ``PayoffMatrix(v, v, v, v)`` added entry by entry, never ``P + v``."""
    P = PayoffMatrix(1, 2, 3, 4)
    with pytest.raises(TypeError):
        P + 1
    with pytest.raises(TypeError):
        P - 1


def test_g_transform_known_values() -> None:
    cases = [
        (PayoffMatrix(3, 1, 4, 2), (5, -1, 2, 0)),
        (PayoffMatrix(4, 5, 1, 0), (5, 4, 0, -1)),
        (PayoffMatrix(9, 15, 5, 7), (18, 6, -4, -2)),
        (PayoffMatrix(-9, -3, -1, 1), (-6, -6, -4, -2)),
    ]
    for P, (g0, ga, gb, gab) in cases:
        G = g_transform(P)
        assert (G.g0, G.ga, G.gb, G.gab) == (g0, ga, gb, gab)


def test_transform_round_trips_exactly() -> None:
    rng = random.Random(71)
    for _ in range(300):
        P = random_matrix(rng)
        assert inverse_g_transform(g_transform(P)) == P
    for _ in range(300):
        G = GVector(*(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)))
        H = g_transform(inverse_g_transform(G))
        assert (H.g0, H.ga, H.gb, H.gab) == (G.g0, G.ga, G.gb, G.gab)


def test_pairwise_difference_identities() -> None:
    # The six boundary functionals are signed sums of two effect coordinates.
    rng = random.Random(72)
    for _ in range(200):
        P = random_matrix(rng)
        a, b, c, d = P.entries()
        G = g_transform(P)
        assert G.ga + G.gab == a - c
        assert G.ga - G.gab == b - d
        assert G.gb + G.gab == a - b
        assert G.gb - G.gab == c - d
        assert G.ga + G.gb == a - d
        assert G.ga - G.gb == b - c


def test_normalize_cube_is_exact() -> None:
    cp = normalize_cube(PayoffMatrix(9, 15, 5, 7))
    assert cp.triple() == (1, Fraction(-2, 3), Fraction(-1, 3))
    cp2 = normalize_cube(PayoffMatrix(3, 1, 4, 2))
    assert cp2.triple() == (Fraction(-1, 2), 1, 0)
    with pytest.raises(TrivialGame):
        normalize_cube(PayoffMatrix(0, 0, 0, 0))


@pytest.mark.parametrize("triple", [(Fraction(1, 2), 0, 0), (2, 0, 0), (0, 0, 0)])
def test_cube_point_needs_max_abs_coordinate_one(triple) -> None:
    with pytest.raises(ValueError, match="max-abs"):
        CubePoint(*triple)


def test_transpose_swaps_off_diagonal() -> None:
    P = PayoffMatrix(1, 2, 3, 4)
    assert transpose_game(P) == PayoffMatrix(1, 3, 2, 4)
    assert transpose_game(transpose_game(P)) == P
    # The transpose exchanges the two contrast coordinates.
    G, H = g_transform(P), g_transform(transpose_game(P))
    assert (H.ga, H.gb) == (G.gb, G.ga)
    assert (H.g0, H.gab) == (G.g0, G.gab)


def test_parse_matrix_accepts_all_entry_forms() -> None:
    assert parse_matrix("3,1;4,2") == PayoffMatrix(3, 1, 4, 2)
    assert parse_matrix(" 3 , 1 ; 4 , 2 ") == PayoffMatrix(3, 1, 4, 2)
    assert parse_matrix("1/2,-2;0.25,3") == PayoffMatrix(
        Fraction(1, 2), -2, Fraction(1, 4), 3
    )


def test_parse_matrix_errors_name_the_problem() -> None:
    with pytest.raises(ValueError, match="'x'"):
        parse_matrix("3,x;4,2")
    with pytest.raises(ValueError, match="2 rows"):
        parse_matrix("3,1")
    with pytest.raises(ValueError, match="2 entries"):
        parse_matrix("3,1,2;4,2")
    # Both shape checks run before any value is read.
    with pytest.raises(ValueError, match=re.escape("expected 2 entries per row, got 1 in '2'")):
        parse_matrix("x,1;2")


def test_parse_matrix_coerces_each_literal_once(monkeypatch) -> None:
    calls = []

    def counting(value, *args):
        calls.append(value)
        return _as_fraction(value, *args)

    expected = PayoffMatrix(3, Fraction(1, 2), Fraction(1, 4), -2)
    monkeypatch.setattr("symgame.payoff._as_fraction", counting)
    assert parse_matrix(" 3 ,1/2;0.25,-2") == expected
    assert calls == ["3", "1/2", "0.25", "-2"]


def test_matrix_from_json() -> None:
    assert matrix_from_json({"payoff": [[3, 1], [4, 2]]}) == PayoffMatrix(3, 1, 4, 2)
    assert matrix_from_json({"payoff": ((1, 2), [3, 4])}) == PayoffMatrix(1, 2, 3, 4)
    with pytest.raises(ValueError):
        matrix_from_json({"rows": [[3, 1], [4, 2]]})


def test_matrix_from_json_shape_checks() -> None:
    for payoff in (
        [[1, 2], [3]], [[1, 2]], [[1, 2], [3, 4], [5, 6]], [[1, 2, 3], [4, 5, 6]],
        [1, 2, 3, 4], "1,2;3,4",
    ):
        with pytest.raises(ValueError) as info:
            matrix_from_json({"payoff": payoff})
        assert str(info.value) == "'payoff' must be a 2x2 array"


def test_matrices_from_lines_skips_blanks_and_comments() -> None:
    lines = ["# header", "", "3,1;4,2", "  ", "0,1;1,0"]
    assert matrices_from_lines(lines) == [PayoffMatrix(3, 1, 4, 2), PayoffMatrix(0, 1, 1, 0)]
    with pytest.raises(ValueError, match="line 2"):
        matrices_from_lines(["1,1;1,1", "nonsense"])


_BOUNDS = "text must be at most 64 characters, with |exponent| <= 300 and |value| <= 1e300"

#: The literals Python 3.10's ``Fraction`` reads, which 3.11-3.13 read the
#: same way: optional spaces and sign, then p/q or a decimal with an exponent.
_SHARED_GRAMMAR = re.compile(r"\s*[-+]?(?:\d+/\d+|(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?)\s*")


def _bounded_fraction(text: str) -> Fraction:
    """``Fraction(text)`` in the shared grammar and under the bounds on text values: the reference."""
    if len(text) > 64:
        raise ValueError(f"bad payoff value {_quote(text)}: {_BOUNDS}")
    if not _SHARED_GRAMMAR.fullmatch(text):
        raise ValueError(f"bad payoff value {_quote(text)}")
    exponent = re.search(r"[eE]([-+]?\d+)", text)
    if exponent and abs(int(exponent.group(1))) > 300:
        raise ValueError(f"bad payoff value {_quote(text)}: {_BOUNDS}")
    try:
        result = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad payoff value {_quote(text)}") from exc
    if abs(result) > 10 ** 300:
        raise ValueError(f"bad payoff value {_quote(text)}: {_BOUNDS}")
    return result


def _outcome(convert, text: str):
    try:
        return convert(text)
    except ValueError as exc:
        return str(exc)


_EDGE_LITERALS = (
    "", "+3", "1_0", "\u0663", "\u00b2", "3/0", "3/00", "5.", "-.5", "-0.0", "-0", "1/-2",
    "--1", "/", "0x10", " 3", "3 ", "1e300", "-1e300", "1e-300", "1e301", "1E-301", "2e300",
    "2 / 3", "1_000", "1" * 64, "1" * 65, "-" + "9" * 63, "9" * 62 + ".5", "9" * 62 + "/7", "9" * 64 + "/1",
)


def _edge_examples(test):
    """Run the test on every edge literal, as explicit examples."""
    for text in reversed(_EDGE_LITERALS):
        test = example(text)(test)
    return test


@_edge_examples
@given(st.one_of(
    # Signs, underscores, whitespace, non-ASCII digits, slashes, points and exponents.
    st.from_regex(
        r"\A\s?[-+]?[0-9_\u0663\u00b2]{0,6}(?:(?:\.| ?/ ?)[0-9_\u0663]{0,4})?(?:[eE][-+]?[0-9_]{1,4})?\s?\Z"
    ),
    # Around the 64-character cut.
    st.from_regex(r"\A-?[0-9]{60,66}(?:[./][0-9]{1,2})?\Z"),
))
def test_as_fraction_matches_fraction_under_the_bounds(text) -> None:
    """A literal of the shared grammar converts to Fraction's value, any other fails; same messages."""
    assert _outcome(_as_fraction, text) == _outcome(_bounded_fraction, text)


#: Each literal and what it reads as on every supported Python: a value, or
#: None for a rejection outside the grammar, or "bounds" for one over the bounds.
LITERAL_OUTCOMES = {
    "1_0": None, "1_000": None, "2 / 3": None, "2/ 3": None, "\u00b2": None,
    " 3 ": Fraction(3), "+3": Fraction(3), ".5": Fraction(1, 2), "5.": Fraction(5),
    "-0": Fraction(0), "2/3": Fraction(2, 3), "1E+5": Fraction(100_000),
    "1e300": Fraction(10 ** 300), "\u0663": Fraction(3),
    "2e300": "bounds", "1e301": "bounds",
}


@pytest.mark.parametrize("text", LITERAL_OUTCOMES)
def test_payoff_literals_read_the_same_on_every_python(text) -> None:
    expected = LITERAL_OUTCOMES[text]
    if isinstance(expected, Fraction):
        assert _as_fraction(text) == expected
    else:
        message = f"bad payoff value {text!r}" + (f": {_BOUNDS}" if expected else "")
        with pytest.raises(ValueError) as excinfo:
            _as_fraction(text)
        assert str(excinfo.value) == message


def test_quote_keeps_64_characters_whole_and_cuts_65() -> None:
    assert _quote("x" * 62) == repr("x" * 62) and len(repr("x" * 62)) == 64
    assert _quote("x" * 63) == repr("x" * 63)[:64] + "..."
