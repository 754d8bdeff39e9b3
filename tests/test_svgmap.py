"""SVG map rendering: structure, legend, markers, trajectory runs."""

from __future__ import annotations

import xml.etree.ElementTree as ET
from fractions import Fraction

from symgame.cartography import MapPoint, map_point, trajectory
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


def test_split_runs_breaks_on_gaps_and_missing_points() -> None:
    a = MapPoint(0, 0, "gab+")
    b = MapPoint(Fraction(1, 4), 0, "gab+")
    c = MapPoint(Fraction(7, 2), 0, "gab-")  # far side of the cross
    d = MapPoint(Fraction(15, 4), 0, "gab-")
    assert _split_runs([a, b, c, d]) == [[a, b], [c, d]]
    assert _split_runs([a, b, None, c, d]) == [[a, b], [c, d]]
    assert _split_runs([a, None, b]) == []  # single points are not drawable
    assert _split_runs([]) == []


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
