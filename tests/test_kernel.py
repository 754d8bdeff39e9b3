"""The integer-numerator kernel against the Fraction definitions it computes.

Each reference below is written on ``Fraction`` entries, the way the values
are defined, and the kernel must return the same value and type.
"""

from __future__ import annotations

import dataclasses
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from symgame import cli, taxonomy
from symgame.cartography import (
    BoundaryGame,
    Decomposition,
    MapPoint,
    REGIONS,
    decompose,
    map_point,
    reconstruct,
    region_of,
    trajectory,
)
from symgame.equilibria import expected_payoff, mixed_nash, mixed_po, pure_nash_set, relaxed_po_set
from symgame.payoff import (
    CubePoint,
    GVector,
    PayoffMatrix,
    TrivialGame,
    g_transform,
    inverse_g_transform,
    normalize_cube,
    transpose_game,
)
from symgame.svgmap import _far, _fmt, _marker_elements
from symgame.taxonomy import CLASS_TABLE, REGION_ROW

from test_payoff import linear

_entries = st.one_of(
    st.integers(-10**6, 10**6).map(Fraction),
    st.builds(Fraction, st.integers(-10**9, 10**9), st.integers(1, 10**6)),
)
_small = st.integers(-2, 2).map(Fraction)
games = st.one_of(
    st.tuples(_entries, _entries, _entries, _entries),
    st.tuples(_small, _small, _small, _small),  # ties and constants are common
    st.tuples(_entries, _entries, _entries).flatmap(lambda v: st.permutations([v[0], *v])),
    _entries.map(lambda x: (x,) * 4),
).map(lambda e: PayoffMatrix(*e))


@st.composite
def _edge_and_corner_games(draw) -> PayoffMatrix:
    """Games whose g-triple has two or three coordinates of equal magnitude."""
    m = draw(_entries)
    x = draw(st.sampled_from((m, -m)) | _entries)  # |x| == |m|: a cube corner
    signs = st.sampled_from((1, -1))
    triple = draw(st.permutations([draw(signs) * m, draw(signs) * m, x]))
    return inverse_g_transform(GVector(draw(_entries), *triple))


_probabilities = st.fractions(0, 1, max_denominator=10**6)


def _half_signed_sums(a, b, c, d) -> tuple:
    return ((a + b + c + d) / 2, (a + b - c - d) / 2, (a - b + c - d) / 2, (a - b - c + d) / 2)


def _mixed(a, b, c, d):
    gain0, gain1 = a - c, d - b
    return gain1 / (gain0 + gain1) if gain0 < 0 and gain1 < 0 else None


def _nash(a, b, c, d) -> frozenset:
    m = ((a, b), (c, d))
    return frozenset(
        (i, j) for i in (0, 1) for j in (0, 1) if m[i][j] >= m[1 - i][j] and m[j][i] >= m[1 - j][i]
    )


def _all_fractions(values) -> bool:
    return all(type(x) is Fraction for x in values)


@settings(deadline=None)
@given(games)
def test_g_transform_is_half_the_signed_sums(P: PayoffMatrix) -> None:
    G = g_transform(P)
    values = (G.g0, G.ga, G.gb, G.gab)
    assert values == _half_signed_sums(*P.entries())
    assert _all_fractions(values)


@settings(deadline=None)
@given(games)
def test_normalize_cube_divides_by_the_max_abs_coordinate(P: PayoffMatrix) -> None:
    g = _half_signed_sums(*P.entries())[1:]
    m = max(abs(x) for x in g)
    if m == 0:
        with pytest.raises(TrivialGame):
            normalize_cube(P)
        return
    point = normalize_cube(P).triple()
    assert point == tuple(x / m for x in g)
    assert _all_fractions(point)


_near_one = st.sampled_from([Fraction(10**300 + k, 10**300) for k in (-1, 0, 1)] + [Fraction(1), 1])
_coordinates = st.one_of(
    _near_one, _near_one.map(lambda x: -x), st.fractions(-2, 2, max_denominator=10**6), st.integers(-2, 2),
)


@settings(deadline=None)
@given(_coordinates, _coordinates, _coordinates)
def test_cube_point_takes_exactly_the_triples_of_max_abs_one(ga, gb, gab) -> None:
    if max(abs(ga), abs(gb), abs(gab)) == 1:
        point = CubePoint(ga, gb, gab)
        assert point.triple() == (ga, gb, gab)
        assert _all_fractions(point.triple())
    else:
        with pytest.raises(ValueError, match="max-abs coordinate exactly 1"):
            CubePoint(ga, gb, gab)


def _expected(P: PayoffMatrix, p_row: Fraction, p_col: Fraction) -> tuple:
    m = ((P.a, P.b), (P.c, P.d))
    weight = {(i, j): (p_row if i == 0 else 1 - p_row) * (p_col if j == 0 else 1 - p_col)
              for i in (0, 1) for j in (0, 1)}
    return (sum(w * m[i][j] for (i, j), w in weight.items()),
            sum(w * m[j][i] for (i, j), w in weight.items()))


@settings(deadline=None)
@given(games, _probabilities)
def test_equilibria_match_the_fraction_definitions(P: PayoffMatrix, p) -> None:
    a, b, c, d = P.entries()
    assert pure_nash_set(P) == _nash(a, b, c, d)
    assert relaxed_po_set(P) == _nash(a, c, b, d)
    for got, want in ((mixed_nash(P), _mixed(a, b, c, d)), (mixed_po(P), _mixed(a, c, b, d))):
        assert got == want
        assert want is None or type(got) is Fraction
    value = expected_payoff(P, p)
    assert (value, value) == _expected(P, p, p)
    assert type(value) is Fraction


@settings(deadline=None)
@given(games, _probabilities)
@example(PayoffMatrix(1, 5, 3, 2), Fraction(1, 2))
def test_symmetric_payoff_sees_only_b_plus_c(P: PayoffMatrix, p) -> None:
    """The transpose swaps b and c, so it keeps the payoff; the NE and PO mixes earn the same."""
    assert expected_payoff(P, p) == expected_payoff(transpose_game(P), p)
    report = cli.build_report(P)
    if report["mixed_nash"] is not None and report["mixed_pareto"] is not None:
        assert report["mixed_nash"]["value"] == report["mixed_pareto"]["value"]


@settings(deadline=None)
@given(games)
def test_decompose_matches_the_fraction_closed_form(P: PayoffMatrix) -> None:
    if len(set(P.entries())) == 1:
        with pytest.raises(TrivialGame):
            decompose(P)
        return
    dec = decompose(P)
    # The closed form over Fraction g-coordinates, in the axes the vertices
    # name: the axis vertex's nonzero index is the largest coordinate, and
    # the two corners differ in the smallest.
    corner_minus, corner_plus, axis = (v.direction for v in dec.vertices)
    i_max = next(k for k in range(3) if axis[k])
    i_min = next(k for k in range(3) if corner_minus[k] != corner_plus[k])
    i_mid = 3 - i_max - i_min
    s_max, s_mid = axis[i_max], corner_minus[i_mid]
    x = _half_signed_sums(*P.entries())[1:]
    u = (
        (s_mid * x[i_mid] - x[i_min]) / 2,
        (s_mid * x[i_mid] + x[i_min]) / 2,
        s_max * x[i_max] - s_mid * x[i_mid],
    )
    # Vertex k's g-triple is t_k times its direction, whose entries are 0 or +-1.
    t = [max(map(abs, g_transform(v.matrix).triple())) for v in dec.vertices]
    y = [uk / tk for uk, tk in zip(u, t)]
    assert dec.trivial_offset == min(P.entries())
    assert dec.scale == sum(y)
    assert dec.weights == tuple(yk / sum(y) for yk in y)
    assert _all_fractions((dec.trivial_offset, dec.scale, *dec.weights))
    rebuilt = reconstruct(dec)
    assert rebuilt == P
    assert _all_fractions(rebuilt.entries())


@settings(deadline=None)
@given(_entries, _entries, st.tuples(_entries, _entries, _entries), st.sampled_from(REGIONS))
def test_reconstruct_reads_only_the_stated_values(offset, scale, weights, region) -> None:
    """Any stated values, weights not summing to 1 included, rebuild as offset*J + scale*sum(w*V)."""
    vertices = region.vertices
    dec = Decomposition(offset, scale, weights, vertices, region)
    expected = linear(*[(scale * w, v.matrix) for w, v in zip(weights, vertices)], offset=offset)
    rebuilt = reconstruct(dec)
    assert rebuilt == expected
    assert _all_fractions(rebuilt.entries())


@pytest.mark.parametrize("P", [PayoffMatrix(9, 15, 5, 7), PayoffMatrix(1, 1, 0, 2)], ids=["strict", "tied"])
def test_a_nudged_weight_fails_the_reconstruction_check(P, monkeypatch) -> None:
    """reconstruction_exact checks the stated weights, not the integers decompose derived them from."""
    assert cli.build_report(P)["decomposition"]["reconstruction_exact"] is True

    def nudged(Q: PayoffMatrix) -> Decomposition:
        dec = decompose(Q)
        w1, *rest = dec.weights
        return dataclasses.replace(dec, weights=(w1 + Fraction(1, 10**9), *rest))

    monkeypatch.setattr(cli, "decompose", nudged)
    assert cli.build_report(P)["decomposition"]["reconstruction_exact"] is False


def _unfold(cp: CubePoint) -> MapPoint:
    """The map point of a cube-surface point, through ``map_point`` on a game with that cube point."""
    return map_point(inverse_g_transform(GVector(0, *cp.triple())))


@settings(deadline=None)
@given(games | _edge_and_corner_games(), games | _edge_and_corner_games(), st.integers(2, 12) | st.just(101))
def test_trajectory_samples_match_the_fraction_interpolation(P0, P1, n) -> None:
    samples = trajectory(P0, P1, n)
    assert len(samples) == n
    for k, sample in enumerate(samples):
        t = Fraction(k, n - 1)
        M = linear((1 - t, P0), (t, P1))
        trivial = len(set(M.entries())) == 1
        try:
            game_class = None if trivial else CLASS_TABLE[REGION_ROW[region_of(M).id]]
        except BoundaryGame:
            game_class = None
        assert (sample.t, sample.matrix, sample.trivial) == (t, M, trivial)
        assert sample.point == (None if trivial else _unfold(normalize_cube(M)))
        assert (sample.boundary, sample.game_class) == (not trivial and game_class is None, game_class)
        assert _all_fractions((sample.t, *sample.matrix.entries()))
        assert trivial or _all_fractions((sample.point.u, sample.point.v))


@settings(deadline=None)
@given(games | _edge_and_corner_games())
def test_map_point_unfolds_the_cube_point(P: PayoffMatrix) -> None:
    if len(set(P.entries())) == 1:
        with pytest.raises(TrivialGame):
            map_point(P)
        return
    point = map_point(P)
    assert point == _unfold(normalize_cube(P))
    assert _all_fractions((point.u, point.v))


_coordinates = st.builds(Fraction, st.integers(-4 * 10**9, 4 * 10**9), st.integers(1, 10**9))
_points = st.builds(MapPoint, _coordinates, _coordinates, st.just("gab+"))


def _ratios(p: MapPoint) -> tuple:
    return (p.u.as_integer_ratio(), p.v.as_integer_ratio())


@given(_points, _points)
def test_far_is_the_fraction_distance_test(p: MapPoint, q: MapPoint) -> None:
    unit_steps = ((Fraction(3, 5), Fraction(4, 5)), (Fraction(-1), Fraction(0)), (Fraction(4, 5), Fraction(-3, 5)))
    for r in (q, *(MapPoint(p.u + du, p.v + dv, "gab+") for du, dv in unit_steps)):
        assert _far(_ratios(p), _ratios(r)) == ((r.u - p.u) ** 2 + (r.v - p.v) ** 2 > 1)
    assert not _far(_ratios(p), _ratios(MapPoint(p.u + Fraction(3, 5), p.v + Fraction(4, 5), "gab+")))


# Odd multiples of 1/20000 sit halfway between two 4-place decimals.
_halfway = st.integers(-80_000, 80_000).map(lambda k: Fraction(2 * k + 1, 20_000))


@given(st.builds(MapPoint, _coordinates | _halfway, _coordinates | _halfway, st.just("gab+")))
def test_marker_text_formats_the_fraction_sums(point: MapPoint) -> None:
    circle, label = _marker_elements([(point, "x")])
    assert re.search(r'cx="([^"]*)" cy="([^"]*)"', circle).groups() == (_fmt(point.u), _fmt(-point.v))
    want = (_fmt(point.u + Fraction(1, 8)), _fmt(-point.v - Fraction(1, 10)))
    assert re.search(r'x="([^"]*)" y="([^"]*)"', label).groups() == want


_FACTS = ("pure_nash_set", "relaxed_po_set", "mixed_nash", "mixed_po")


@pytest.mark.parametrize(
    "P, degenerate",
    [
        (PayoffMatrix(3, 1, 4, 2), None),
        (PayoffMatrix(1, 1, 0, 2), "boundary"),
        (PayoffMatrix(5, 5, 5, 5), "trivial"),
    ],
    ids=["strict", "tied", "constant"],
)
def test_build_report_decides_each_fact_once(P, degenerate, monkeypatch) -> None:
    """One classify per report; only a tied or constant game asks the predicates itself."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for module, names in ((cli, ("classify", *_FACTS)), (taxonomy, _FACTS)):
        for name in names:
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    assert cli.build_report(P)["degenerate"] == degenerate
    assert calls == Counter(dict.fromkeys(("classify", *_FACTS), 1))


@settings(deadline=None)
@given(games)
def test_build_report_facts_are_the_predicates(P: PayoffMatrix) -> None:
    report = cli.build_report(P)
    assert report["nash_equilibria"] == [list(pos) for pos in sorted(pure_nash_set(P))]
    assert report["pareto_optima"] == [list(pos) for pos in sorted(relaxed_po_set(P))]
    for key, p in (("mixed_nash", mixed_nash(P)), ("mixed_pareto", mixed_po(P))):
        assert (None if report[key] is None else report[key]["p"]) == (None if p is None else str(p))
    if len(set(P.entries())) == 1:
        assert report["degenerate"] == "trivial"
        return
    try:
        region_of(P)
    except BoundaryGame:
        assert report["degenerate"] == "boundary"
    else:
        assert report["degenerate"] is None
