"""SVG map rendering: structure, legend, markers, trajectory runs."""

from __future__ import annotations

import xml.etree.ElementTree as ET
from fractions import Fraction

from hypothesis import given, strategies as st

from symgame.cartography import map_point, trajectory
from symgame.payoff import PayoffMatrix
from symgame.svgmap import CLASS_COLORS, _fmt, _split_runs, render_map


def test_base_map_structure() -> None:
    svg = render_map()
    assert svg.startswith('<?xml version="1.0"')
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<polygon") == 24
    assert svg.count("<title>region ") == 24
    for color in CLASS_COLORS:
        assert color in svg
    assert render_map() == svg  # byte-deterministic


def test_legend_is_optional() -> None:
    with_legend = render_map(legend=True)
    without = render_map(legend=False)
    assert "Chicken (1/24)" in with_legend
    assert "Chicken (1/24)" not in without
    assert without.count("<polygon") == 24


def test_fmt_is_compact_and_unsigned_zero() -> None:
    assert _fmt(Fraction(1, 2)) == "0.5"
    assert _fmt(2) == "2"
    assert _fmt(Fraction(-1, 3)) == "-0.3333"
    assert _fmt(Fraction(0)) == "0"
    assert _fmt(Fraction(-1, 100000)) == "0"  # rounds to -0, normalized


def test_markers_draw_dot_and_label() -> None:
    P = PayoffMatrix(3, 1, 4, 2)
    svg = render_map(markers=[(map_point(P), str(P))], legend=False)
    assert '<circle cx="-0.5" cy="-2" r="0.07" fill="black"/>' in svg
    assert ">[[3,1],[4,2]]</text>" in svg
    unlabeled = render_map(markers=[(map_point(P), "")], legend=False)
    assert 'font-size="0.2"' not in unlabeled  # no label element
    assert unlabeled.count('r="0.07"') == 1


def _point(u, v) -> tuple:
    """A map point as ``_split_runs`` takes it: the integer ratios of u and v."""
    return (Fraction(u).as_integer_ratio(), Fraction(v).as_integer_ratio())


def test_split_runs_breaks_on_gaps_and_missing_points() -> None:
    a = _point(0, 0)
    b = _point(Fraction(1, 4), 0)
    c = _point(Fraction(7, 2), 0)  # far side of the cross
    d = _point(Fraction(15, 4), 0)
    assert _split_runs([a, b, c, d]) == [[a, b], [c, d]]
    assert _split_runs([a, b, None, c, d]) == [[a, b], [c, d]]
    assert _split_runs([a, None, b]) == []  # single points are not drawable
    assert _split_runs([]) == []
    assert _split_runs([a, c, d]) == [[c, d]]  # jump at the first step
    assert _split_runs([a, b, None]) == [[a, b]]  # trailing gap
    assert _split_runs([None, a, b]) == [[a, b]]  # leading gap
    assert _split_runs([a, b, None, c, None, a, b]) == [[a, b], [a, b]]
    assert _split_runs([a, b, c, a, b]) == [[a, b], [a, b]]  # lone point between jumps
    e = _point(1, 0)
    assert _split_runs([a, e]) == [[a, e]]  # a step of exactly 1 unit stays drawn


# Paths on a half-unit grid, where steps of 1 map unit or less are common.
# Each point is its own tuple object, so equal coordinates stay distinct points.
_grid = st.integers(-4, 4).map(lambda k: Fraction(k, 2))
_paths = st.lists(st.none() | st.tuples(_grid, _grid), max_size=30).map(
    lambda cells: [None if cell is None else _point(*cell) for cell in cells]
)


def _close(p: tuple, q: tuple) -> bool:
    (pu, pv), (qu, qv) = ([Fraction(*ratio) for ratio in pt] for pt in (p, q))
    return (pu - qu) ** 2 + (pv - qv) ** 2 <= 1


@given(_paths)
def test_split_runs_are_short_step_slices(points) -> None:
    drawn_pairs = set()
    for run in _split_runs(points):
        assert len(run) >= 2
        start = next(i for i, pt in enumerate(points) if pt is run[0])
        assert list(map(id, points[start : start + len(run)])) == list(map(id, run))
        assert all(_close(p, q) for p, q in zip(run, run[1:]))
        drawn_pairs.update(range(start, start + len(run) - 1))
    for i, (p, q) in enumerate(zip(points, points[1:])):
        if p is not None and q is not None and _close(p, q):
            assert i in drawn_pairs


def test_trajectory_rendering_marks_ends() -> None:
    samples = trajectory(PayoffMatrix(-9, -3, -1, 1), PayoffMatrix(9, 15, 5, 7), 21)
    svg = render_map(trajectories=[[s.point for s in samples]], legend=False)
    assert svg.count("<polyline") >= 1
    assert svg.count('r="0.09"') == 2  # filled start, hollow end
    assert 'fill="white" stroke="#e41a1c"' in svg


def test_marker_labels_are_escaped() -> None:
    svg = render_map(markers=[(map_point(PayoffMatrix(3, 1, 4, 2)), "a<b & c")])
    texts = [el.text for el in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")]
    assert "a<b & c" in texts
