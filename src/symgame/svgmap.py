"""Deterministic SVG rendering of the unfolded game map.

The drawing lives in map coordinates (the cross silhouette spans [-4, 4] in
both axes) with the y axis flipped for SVG.  Output is assembled from plain
strings with fixed number formatting, so a given set of inputs always gives
byte-identical SVG.
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence, Tuple

from .cartography import MapPoint, REGIONS
from .taxonomy import CLASS_TABLE, REGION_ROW

__all__ = [
    "render_map",
]

#: Fill colors for the nine class-table rows, in table order.
CLASS_COLORS = (
    "#8dd3c7",
    "#ffffb3",
    "#bebada",
    "#fb8072",
    "#80b1d3",
    "#fdb462",
    "#b3de69",
    "#fccde5",
    "#d9d9d9",
)

#: Stroke colors cycled by overlaid trajectories.
TRAJECTORY_COLORS = ("#e41a1c", "#377eb8", "#4daf4a")

VIEW_BOX = "-4.8 -4.8 9.6 9.6"


def _fmt(value) -> str:
    """Fixed decimal formatting (4 places, trailing zeros stripped)."""
    text = f"{float(value):.4f}".rstrip("0").rstrip(".")
    return "0" if text == "-0" else text


@functools.cache
def _region_elements() -> tuple:
    """The 24 region polygons, then the vertex labels sorted by position."""
    # The same canonical matrix can sit at one planar point for several
    # regions (cells keep their own copies of cut edges), so labels are
    # deduped by position.
    parts = []
    labels = {}
    for region in REGIONS:
        k = REGION_ROW[region.id]
        points = " ".join(f"{_fmt(u)},{_fmt(-v)}" for u, v in region.triangle)
        name = CLASS_TABLE[k].display_name
        parts.append(
            f'  <polygon points="{points}" fill="{CLASS_COLORS[k]}" '
            f'stroke="black" stroke-width="0.02">'
            f"<title>region {region.id}: {region.ordering_text} ({name})</title>"
            f"</polygon>"
        )
        for vertex, position in zip(region.vertices, region.triangle):
            labels.setdefault(position, vertex.matrix)
    for (u, v), matrix in sorted(labels.items()):
        a, b, c, d = matrix.entries()
        x, y = _fmt(u), _fmt(-v)
        parts.append(
            f'  <text x="{x}" y="{y}" font-size="0.24" text-anchor="middle" '
            f'font-family="monospace" stroke="white" stroke-width="0.05" '
            f'paint-order="stroke">'
            f'<tspan x="{x}" dy="-0.04">{a} {b}</tspan>'
            f'<tspan x="{x}" dy="0.26">{c} {d}</tspan>'
            f"</text>"
        )
    return tuple(parts)


def _legend() -> list:
    parts = ['  <g font-size="0.24" font-family="sans-serif">']
    for k, record in enumerate(CLASS_TABLE):
        y = -4.65 + 0.3 * k
        parts.append(
            f'    <rect x="-4.7" y="{_fmt(y)}" width="0.22" height="0.22" '
            f'fill="{CLASS_COLORS[k]}" stroke="black" stroke-width="0.01"/>'
        )
        parts.append(
            f'    <text x="-4.42" y="{_fmt(y + 0.19)}">'
            f"{record.display_name} ({record.fraction})</text>"
        )
    parts.append("  </g>")
    return parts


def _far(p: tuple, q: tuple) -> bool:
    """(qu - pu)**2 + (qv - pv)**2 > 1 for points ((un, ud), (vn, vd)), on integer cross-products."""
    ((pu, pud), (pv, pvd)), ((qu, qud), (qv, qvd)) = p, q
    du, dv = (qu * pud - pu * qud) * pvd * qvd, (qv * pvd - pv * qvd) * pud * qud
    return du * du + dv * dv > (pud * qud * pvd * qvd) ** 2


def _split_runs(points: Sequence[Optional[tuple]]) -> list:
    """Break a sequence of points, as ``_far`` takes them or None, into drawable runs.

    A run ends at a missing point (trivial sample) or at a jump longer than 1
    map unit, which is how a path looks when it leaves one cut edge of the
    cross and re-enters on another.  Runs of a single point are not drawn.
    """
    runs = []
    previous = None
    for pt in points:
        if pt is not None:
            if previous is None or _far(previous, pt):
                runs.append([])
            runs[-1].append(pt)
        previous = pt
    return [run for run in runs if len(run) >= 2]


def _trajectory_elements(trajectories) -> list:
    parts = []
    for index, points in enumerate(trajectories):
        color = TRAJECTORY_COLORS[index % len(TRAJECTORY_COLORS)]
        ratios = [None if pt is None else (pt.u.as_integer_ratio(), pt.v.as_integer_ratio()) for pt in points]
        for run in _split_runs(ratios):
            # Int true division rounds correctly, so each float equals float() of its Fraction.
            coords = " ".join(f"{_fmt(un / ud)},{_fmt(-vn / vd)}" for (un, ud), (vn, vd) in run)
            parts.append(
                f'  <polyline points="{coords}" fill="none" '
                f'stroke="{color}" stroke-width="0.05"/>'
            )
        drawn = [pt for pt in points if pt is not None]
        if drawn:
            first, last = drawn[0], drawn[-1]
            parts.append(
                f'  <circle cx="{_fmt(first.u)}" cy="{_fmt(-first.v)}" r="0.09" '
                f'fill="{color}"/>'
            )
            parts.append(
                f'  <circle cx="{_fmt(last.u)}" cy="{_fmt(-last.v)}" r="0.09" '
                f'fill="white" stroke="{color}" stroke-width="0.04"/>'
            )
    return parts


def _marker_elements(markers) -> list:
    parts = []
    for point, label in markers:
        (un, ud), (vn, vd) = point.u.as_integer_ratio(), point.v.as_integer_ratio()
        # Int true division rounds correctly, so each float equals float() of the Fraction it replaces.
        parts.append(
            f'  <circle cx="{_fmt(un / ud)}" cy="{_fmt(-vn / vd)}" r="0.07" '
            f'fill="black"/>'
        )
        if label:
            # What xml.sax.saxutils.escape does, without importing urllib and ssl.
            text = label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            parts.append(
                f'  <text x="{_fmt((8 * un + ud) / (8 * ud))}" '
                f'y="{_fmt((-10 * vn - vd) / (10 * vd))}" font-size="0.2" '
                f'font-family="sans-serif">{text}</text>'
            )
    return parts


def render_map(
    markers: Sequence[Tuple[MapPoint, str]] = (),
    trajectories: Sequence[Sequence[Optional[MapPoint]]] = (),
    legend: bool = True,
) -> str:
    """Render the full map with optional game markers and trajectories.

    ``markers`` holds (MapPoint, label) pairs; ``trajectories`` holds
    sequences of MapPoint-or-None in sample order (None entries come from
    constant matrices and simply interrupt the polyline).
    """
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{VIEW_BOX}" '
        f'width="960" height="960">',
        f'  <rect x="-4.8" y="-4.8" width="9.6" height="9.6" fill="white"/>',
    ]
    parts.extend(_region_elements())
    if legend:
        parts.extend(_legend())
    parts.extend(_trajectory_elements(trajectories))
    parts.extend(_marker_elements(markers))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
