"""The map of symmetric 2x2 games: regions, vertices, decomposition, unfolding.

Six planes in (ga, gb, gab) space -- ga+-gab = 0, gb+-gab = 0, ga+-gb = 0 --
cut the sphere of non-constant games into 24 congruent triangles.  Each plane
functional equals a pairwise difference of payoff entries, so the triangles
are in bijection with the strict orderings of (a, b, c, d) and every
membership test is an exact rational sign check.

The vertices of the partition are 6 axis directions and 8 cube corners, one
per nonempty proper subset S of the four entries: the integer payoff matrix
6/|S| on S, 0 elsewhere.  ``_VERTEX_ON`` builds each from its subset, with
the signs of its g-triple as its direction, and ``CANONICAL_MATRICES`` indexes
them by direction.  Region w > x > y > z is the open cone over those on its
prefix sets {w}, {w,x} and {w,x,y}, and any non-trivial game decomposes as

    P = offset * J + scale * (w1*V1 + w2*V2 + w3*V3)

over the three vertices of its triangle, with nonnegative weights summing
to 1.  Projecting to the unit cube (max-abs normalization) and unfolding the
cube into a cross yields planar map coordinates for plotting.

Each record in ``REGIONS``, built at import and indexed by region id, holds
its ordering, its vertex triple and the triangle's corners on the unfolded
cross.  The 6-bit sign code of (a-c, b-d, a-b, c-d, a-d, b-c) maps to the id
through ``_REGION_ID_BY_CODE``; the code comes from six exact comparisons in
``_region_id`` and from the sampled columns in the Monte Carlo sampler.  Class
rows are ``taxonomy.REGION_ROW``.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .payoff import (
    PayoffMatrix,
    TrivialGame,
    _cube_ints,
    g_transform,
)

__all__ = [
    "BoundaryGame",
    "CANONICAL_MATRICES",
    "CanonicalMatrix",
    "Decomposition",
    "ElementaryRegion",
    "MCRegionReport",
    "MapPoint",
    "REGIONS",
    "TrajectorySample",
    "decompose",
    "map_point",
    "mc_region_fractions",
    "reconstruct",
    "region_of",
    "trajectory",
]

LABELS = ("a", "b", "c", "d")

# The entry pairs (x, y), x before y in LABELS, whose differences x-y make up a sign vector, in order.
_PAIRS = (("a", "c"), ("b", "d"), ("a", "b"), ("c", "d"), ("a", "d"), ("b", "c"))


class BoundaryGame(ValueError):
    """Raised for tied-entry games, which sit on a partition plane.

    Carries the tied label pairs and the ids of every region whose closure
    contains the game.
    """

    def __init__(self, tied_pairs: tuple, adjacent_region_ids: tuple):
        self.tied_pairs = tuple(tied_pairs)
        self.adjacent_region_ids = tuple(adjacent_region_ids)
        pairs = ", ".join(f"{x}={y}" for x, y in self.tied_pairs)
        super().__init__(
            f"tied entries ({pairs}) lie on a region boundary; "
            f"adjacent regions: {self.adjacent_region_ids}"
        )


@dataclass(frozen=True)
class ElementaryRegion:
    """One of the 24 open spherical triangles, named by its entry ordering.

    ``vertices`` are the canonical matrices on the ordering's prefix sets: the
    axis on its top two labels, then the corners on its top one and top three,
    which differ in the sign of one coordinate (minus first, plus second).
    ``triangle`` holds their map (u, v), drawn in the region's own unfolded
    cell, so cells that share a cut edge each keep their copy of it.
    """

    id: int
    ordering: tuple  # labels largest-to-smallest, e.g. ('c','a','d','b')
    sign_vector: tuple  # signs of (a-c, b-d, a-b, c-d, a-d, b-c)
    vertices: tuple  # (axis, corner_minus, corner_plus) CanonicalMatrix
    triangle: tuple  # map (u, v) of the vertices, in order

    @property
    def ordering_text(self) -> str:
        return ">".join(self.ordering)

    def representative(self) -> PayoffMatrix:
        """The member game with entries {1,2,3,4} (largest entry gets 4)."""
        value = {label: 4 - rank for rank, label in enumerate(self.ordering)}
        return PayoffMatrix(value["a"], value["b"], value["c"], value["d"])


def _sign_code(ac, bd, ab, cd, ad, bc):
    """Pack the tests x > y over ``_PAIRS`` (bools or bool arrays) into 6 bits."""
    return ac + 2 * bd + 4 * ab + 8 * cd + 16 * ad + 32 * bc


# ---------------------------------------------------------------------------
# Canonical vertex matrices


@dataclass(frozen=True)
class CanonicalMatrix:
    """Integer matrix with min entry 0 whose g-triple points along ``direction``."""

    direction: tuple  # (ga, gb, gab) signs, axis or corner of the unit cube
    matrix: PayoffMatrix


def _vertex(subset: tuple) -> CanonicalMatrix:
    """The vertex on ``subset``: 6/k on its k labels, 0 elsewhere, along the signs of its g-triple."""
    M = PayoffMatrix(*(6 // len(subset) * (x in subset) for x in LABELS))
    return CanonicalMatrix(tuple((g > 0) - (g < 0) for g in g_transform(M).triple()), M)


# The vertex on each nonempty proper subset of the labels.
_VERTEX_ON = {frozenset(s): _vertex(s) for k in (1, 2, 3) for s in itertools.combinations(LABELS, k)}
_AXIS_DIRECTIONS = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))
CANONICAL_DIRECTIONS = _AXIS_DIRECTIONS + tuple(itertools.product((1, -1), repeat=3))
CANONICAL_MATRICES = {d: v for d in CANONICAL_DIRECTIONS for v in _VERTEX_ON.values() if v.direction == d}


# ---------------------------------------------------------------------------
# Cells of the unfolded cube

#: The nine cells of the cross layout: face tag and (ga, gb, gab, m) -> m*(u, v)
#: on the cube of half-side m (written below for m = 1):
#:   gab=+1 face -> central square (u,v) = (ga, gb)
#:   gab=-1 face -> four tip triangles, quartered by its diagonals, attached
#:     to the arm sharing the cut edge; apex of each tip is the face center
#:   ga=+-1 faces -> side arms (+-2 -+ gab, gb)
#:   gb=+-1 faces -> top/bottom arms (ga, +-2 -+ gab)
_CELLS = (
    ("gab+", lambda ga, gb, gab, m: (ga, gb)),
    ("gab-", lambda ga, gb, gab, m: (4 * m - ga, gb)),
    ("gab-", lambda ga, gb, gab, m: (-4 * m - ga, gb)),
    ("gab-", lambda ga, gb, gab, m: (ga, 4 * m - gb)),
    ("gab-", lambda ga, gb, gab, m: (ga, -4 * m - gb)),
    ("ga+", lambda ga, gb, gab, m: (2 * m - gab, gb)),
    ("ga-", lambda ga, gb, gab, m: (-2 * m + gab, gb)),
    ("gb+", lambda ga, gb, gab, m: (ga, 2 * m - gab)),
    ("gb-", lambda ga, gb, gab, m: (ga, -2 * m + gab)),
)


def _cell(ga, gb, gab, m) -> int:
    """Index into ``_CELLS`` of the cell that draws a point of the cube of half-side m.

    Points on edges or corners take the gab face first, then ga, then gb;
    ties on the gab=-1 diagonals go to the first matching quarter.
    """
    if abs(gab) == m:
        if gab > 0:
            return 0
        if ga >= abs(gb):
            return 1
        if ga <= -abs(gb):
            return 2
        if gb >= abs(ga):
            return 3
        return 4
    if abs(ga) == m:
        return 5 if ga > 0 else 6
    return 7 if gb > 0 else 8


# ---------------------------------------------------------------------------
# The region table


def _region(idx: int, ordering: tuple) -> ElementaryRegion:
    """The region of ``ordering``: its signs, its vertices on its prefix sets and their triangle."""
    signs = tuple(1 if ordering.index(x) < ordering.index(y) else -1 for x, y in _PAIRS)
    top1, top2, top3 = (_VERTEX_ON[frozenset(ordering[:k])] for k in (1, 2, 3))
    vertices = (top2, *sorted((top1, top3), key=lambda v: sum(v.direction)))
    s = [sum(x) for x in zip(*(v.direction for v in vertices))]  # a point inside the open cone
    to_plane = _CELLS[_cell(*s, max(map(abs, s)))][1]
    triangle = tuple(to_plane(*(Fraction(x) for x in v.direction), 1) for v in vertices)
    return ElementaryRegion(idx, ordering, signs, vertices, triangle)


#: One region per strict ordering of the four entries, largest first, in permutation order.
REGIONS = tuple(_region(idx, o) for idx, o in enumerate(itertools.permutations(LABELS)))
# 6-bit sign code -> region id; the other 40 codes belong to no strict ordering.
_REGION_ID_BY_CODE = {_sign_code(*(s > 0 for s in r.sign_vector)): r.id for r in REGIONS}


def _region_id(a, b, c, d) -> Optional[int]:
    """The region id of the ordering of a, b, c, d, or None when two of them are tied."""
    if a == b or a == c or a == d or b == c or b == d or c == d:
        return None
    return _REGION_ID_BY_CODE[_sign_code(a > c, b > d, a > b, c > d, a > d, b > c)]


def region_of(P: PayoffMatrix) -> ElementaryRegion:
    """The elementary region of a strict-generic game.

    Raises TrivialGame for constant matrices and BoundaryGame for any other
    tie, listing the regions adjacent to the boundary point: those whose sign
    vector agrees with the game's on every nonzero difference.
    """
    _, a, b, c, d = P._scaled
    region_id = _region_id(a, b, c, d)
    if region_id is None:
        if a == b == c == d:
            raise TrivialGame("constant matrix belongs to no region")
        entries = dict(zip(LABELS, (a, b, c, d)))
        signs = tuple((entries[x] > entries[y]) - (entries[x] < entries[y]) for x, y in _PAIRS)
        tied = tuple(sorted(pair for pair, s in zip(_PAIRS, signs) if s == 0))
        adjacent = tuple(
            r.id for r in REGIONS if all(s in (0, rs) for s, rs in zip(signs, r.sign_vector))
        )
        raise BoundaryGame(tied, adjacent)
    return REGIONS[region_id]


# ---------------------------------------------------------------------------
# Exact convex decomposition


@dataclass(frozen=True)
class Decomposition:
    """P = trivial_offset * J + scale * sum(weights[k] * vertices[k])."""

    trivial_offset: Fraction
    scale: Fraction
    weights: tuple  # three nonnegative Fractions summing to 1
    vertices: tuple  # (corner_minus, corner_plus, axis) CanonicalMatrix
    region: ElementaryRegion


def decompose(P: PayoffMatrix) -> Decomposition:
    """Exact decomposition over the game's triangle vertices: the layer cake.

    With the entries sorted s[0] >= ... >= s[3], P = s[3]*J + the sum over
    k = 1, 2, 3 of (s[k-1] - s[k]) * 1{top k}, and the triangle's vertex with
    k nonzero entries is 6/k * 1{top k}.  So the weights, the gaps times k over
    their sum, are plainly nonnegative.  Tied-entry games resolve toward the
    lowest-id adjacent region, whose ordering sorts them too (a vertex matrix
    decomposes to itself with weight 1).  Constant matrices raise TrivialGame.
    """
    try:
        region = region_of(P)
    except BoundaryGame as exc:
        region = REGIONS[min(exc.adjacent_region_ids)]
    axis, corner_minus, corner_plus = region.vertices
    ordered = (corner_minus, corner_plus, axis)
    q, *entries = P._scaled
    s = sorted(entries, reverse=True)
    y = tuple(k * (s[k - 1] - s[k]) for k in (6 // max(v.matrix._scaled[1:]) for v in ordered))
    total = sum(y)
    weights = tuple(Fraction(yk, total) for yk in y)
    return Decomposition(Fraction(s[3], q), Fraction(total, 6 * q), weights, ordered, region)


def reconstruct(dec: Decomposition) -> PayoffMatrix:
    """Rebuild the matrix from the stated values alone, over one common denominator (exact)."""
    (o, p), (s, t) = dec.trivial_offset.as_integer_ratio(), dec.scale.as_integer_ratio()
    weights = [w.as_integer_ratio() for w in dec.weights]
    den = math.lcm(p, *(t * q for _, q in weights))  # offset o/p, coefficients s*n / (t*q)
    offset, coefs = o * (den // p), [s * n * (den // (t * q)) for n, q in weights]
    columns = zip(*(v.matrix._scaled[1:] for v in dec.vertices))  # integer vertex entries
    return PayoffMatrix(*(Fraction(offset + sum(c * x for c, x in zip(coefs, col)), den) for col in columns))


# ---------------------------------------------------------------------------
# Cube unfolding


@dataclass(frozen=True)
class MapPoint:
    """Planar coordinates on the unfolded cube, plus the source face."""

    u: Fraction
    v: Fraction
    face_tag: str


def _unfold(g, m) -> MapPoint:
    """The map point of g on the surface of the cube of half-side m, scaled to the unit cube."""
    face_tag, to_plane = _CELLS[_cell(*g, m)]
    return MapPoint(*(Fraction(x, m) for x in to_plane(*g, m)), face_tag)


def map_point(P: PayoffMatrix) -> MapPoint:
    """Map a non-constant game onto the unfolded cube, from its integer g-triple."""
    return _unfold(*_cube_ints(*P._scaled[1:]))


# ---------------------------------------------------------------------------
# Trajectories


@dataclass(frozen=True)
class TrajectorySample:
    """One point of an affine payoff family P(t) = (1-t)*P0 + t*P1."""

    t: Fraction
    matrix: PayoffMatrix
    point: Optional[MapPoint]  # None when the sample is a constant matrix
    game_class: object  # GameClassRecord, or None on boundary/trivial samples

    trivial = property(lambda self: self.point is None, doc="A constant matrix: no map point.")
    boundary = property(lambda self: self.point is not None and self.game_class is None, doc="Tied, not constant.")


def trajectory(P0: PayoffMatrix, P1: PayoffMatrix, n: int) -> tuple:
    """Sample the segment from P0 (t=0) to P1 (t=1) at n equally spaced t.

    Samples that land on a region boundary are flagged rather than fatal;
    constant-matrix samples additionally lack a map point.
    """
    from .taxonomy import CLASS_TABLE, REGION_ROW  # deferred: taxonomy imports this

    if n < 2:
        raise ValueError("a trajectory needs at least two samples")
    # Sample k is ((n-1-k)*P0 + k*P1) / (n-1), with Pi = xi/qi over integer numerators.
    (q0, *x0), (q1, *x1) = P0._scaled, P1._scaled
    ends = [(q1 * a, q0 * b) for a, b in zip(x0, x1)]
    den = q0 * q1 * (n - 1)
    samples = []
    for k in range(n):
        x = [(n - 1 - k) * a + k * b for a, b in ends]  # sample k's numerators over den
        point = None if x.count(x[0]) == 4 else _unfold(*_cube_ints(*x))  # no positive scale moves a point
        region_id = _region_id(*x)
        game_class = None if region_id is None else CLASS_TABLE[REGION_ROW[region_id]]
        M = PayoffMatrix(*(Fraction(xi, den) for xi in x))
        samples.append(TrajectorySample(Fraction(k, n - 1), M, point, game_class))
    return tuple(samples)


# ---------------------------------------------------------------------------
# Monte Carlo region measure

_MC_BLOCK = 16_384  # samples per sampler call: the rows of each stream's one normals buffer


@dataclass(frozen=True)
class MCRegionReport:
    """Sampled region and class counts; each share is its count over ``n_samples``."""

    n_samples: int
    seed: int
    n_workers: int
    region_counts: tuple  # 24 ints, indexed by region id
    class_counts: tuple  # 9 ints, indexed by class-table row


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _stream_code_counts(seed: int, worker: int, m: int, stop: threading.Event) -> np.ndarray:
    """The 64 sign-code counts of stream (seed, worker)'s first m samples; partial once stopped."""
    rng = np.random.default_rng([seed, worker])
    counts = np.zeros(64, dtype=np.int64)
    normals = np.empty((min(_MC_BLOCK, m), 3))
    # Successive blocks continue the stream, so the block size changes
    # memory use but not the samples.
    for start in range(0, m, _MC_BLOCK):
        if stop.is_set():
            break
        # a-c = ga+gab, b-d = ga-gab, a-b = gb+gab, c-d = gb-gab, a-d = ga+gb
        # and b-c = ga-gb, each compared with 0 exactly as x > -y or x > y.
        ga, gb, gab = rng.standard_normal(out=normals[:m - start]).T
        tests = (ga > -gab, ga > gab, gb > -gab, gb > gab, ga > -gb, ga > gb)
        counts += np.bincount(_sign_code(*(t.view(np.uint8) for t in tests)), minlength=64)
    return counts


def mc_region_fractions(n_samples: int, seed: int, n_workers: int = 1) -> MCRegionReport:
    """Count uniform sphere directions per region and per class.

    Directions are iid standard normals.  Signs are scale-invariant, so each
    sample is classified without normalizing, by the exact signs of its six
    entry differences, then rolled up to taxonomy classes.  Samples are split
    over ``n_workers`` streams derived from (seed, worker index), so results
    are reproducible for a fixed seed and worker count, on any thread count.
    """
    from .taxonomy import REGION_ROW

    if n_samples < 1:
        raise ValueError("need at least one sample")
    if n_workers < 1:
        raise ValueError("need at least one worker")
    base, rem = divmod(n_samples, n_workers)
    streams = min(n_workers, n_samples)  # workers past the n_samples-th would draw nothing
    threads = min(streams, _usable_cpus())
    stop = threading.Event()

    def count_streams(first: int) -> np.ndarray:  # streams first, first + threads, ...
        sizes = ((w, base + (w < rem)) for w in range(first, streams, threads))
        return sum(_stream_code_counts(seed, w, m, stop) for w, m in sizes)

    from concurrent.futures import ThreadPoolExecutor  # deferred: it loads logging
    # The pool starts a thread per submitted group only, so one group starts none.
    with ThreadPoolExecutor(threads) as pool:  # this thread counts streams 0, threads, ...
        try:
            others = pool.map(count_streams, range(1, threads))
            code_counts = count_streams(0) + sum(others)
        finally:
            stop.set()  # after an interrupt, the other threads end at their next block
    region_counts, class_counts = [0] * 24, [0] * 9
    for code in np.flatnonzero(code_counts):
        region_id = _REGION_ID_BY_CODE[code]  # KeyError: a code no strict ordering has
        region_counts[region_id] = count = int(code_counts[code])
        class_counts[REGION_ROW[region_id]] += count
    return MCRegionReport(
        n_samples=n_samples,
        seed=seed,
        n_workers=n_workers,
        region_counts=tuple(region_counts),
        class_counts=tuple(class_counts),
    )
