"""Regions, canonical vertices, decomposition, unfolding, trajectories, MC."""

from __future__ import annotations

import dataclasses
import itertools
import random
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from symgame import cartography
from symgame.cartography import (
    BoundaryGame,
    CANONICAL_DIRECTIONS,
    CANONICAL_MATRICES,
    LABELS,
    REGIONS,
    TrajectorySample,
    decompose,
    map_point,
    mc_region_fractions,
    reconstruct,
    region_of,
    trajectory,
)
from symgame.payoff import (
    CubePoint,
    GVector,
    PayoffMatrix,
    TrivialGame,
    g_transform,
    inverse_g_transform,
    normalize_cube,
)

from test_kernel import _unfold
from test_payoff import random_matrix


def random_generic_matrix(rng: random.Random, span: int = 12) -> PayoffMatrix:
    while True:
        P = random_matrix(rng, span)
        if len(set(P.entries())) == 4:
            return P


# Small integers make ties common; fractions exercise exact rational paths.
_entries = st.one_of(
    st.integers(-6, 6).map(Fraction),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)
games = st.tuples(_entries, _entries, _entries, _entries).map(lambda e: PayoffMatrix(*e))


# ---------------------------------------------------------------------------
# Regions


def test_region_table_layout() -> None:
    assert len(REGIONS) == 24
    assert [r.id for r in REGIONS] == list(range(24))
    assert len({r.ordering for r in REGIONS}) == 24
    assert REGIONS[0].ordering == ("a", "b", "c", "d")
    assert REGIONS[5].ordering == tuple(itertools.permutations(LABELS))[5]


def test_representative_lies_in_its_region() -> None:
    for region in REGIONS:
        rep = region.representative()
        assert sorted(rep.entries()) == [1, 2, 3, 4]
        assert region_of(rep) is region


def test_region_of_known_games() -> None:
    assert region_of(PayoffMatrix(3, 1, 4, 2)).ordering_text == "c>a>d>b"
    assert region_of(PayoffMatrix(9, 15, 5, 7)).ordering_text == "b>a>d>c"
    assert region_of(PayoffMatrix(-9, -3, -1, 1)).ordering_text == "d>c>b>a"


def test_region_of_rejects_constant() -> None:
    with pytest.raises(TrivialGame):
        region_of(PayoffMatrix(3, 3, 3, 3))


@settings(deadline=None)
@given(games)
def test_region_of_matches_sort_oracle(P: PayoffMatrix) -> None:
    assume(len(set(P.entries())) > 1)
    entries = dict(zip(LABELS, P.entries()))
    tied = tuple(
        (x, y) for x, y in itertools.combinations(LABELS, 2) if entries[x] == entries[y]
    )
    # A region's closure holds the game when a stable descending sort of the
    # region's ordering leaves it unchanged.
    adjacent = tuple(
        k
        for k, ordering in enumerate(region.ordering for region in REGIONS)
        if sorted(ordering, key=entries.__getitem__, reverse=True) == list(ordering)
    )
    if tied:
        with pytest.raises(BoundaryGame) as excinfo:
            region_of(P)
        assert excinfo.value.tied_pairs == tied
        assert excinfo.value.adjacent_region_ids == adjacent
    else:
        assert (region_of(P).id,) == adjacent


def test_region_of_flags_boundaries_with_neighbours() -> None:
    with pytest.raises(BoundaryGame) as excinfo:
        region_of(PayoffMatrix(3, 3, 0, 0))
    err = excinfo.value
    assert err.tied_pairs == (("a", "b"), ("c", "d"))
    assert err.adjacent_region_ids == (0, 1, 6, 7)
    with pytest.raises(BoundaryGame) as excinfo:
        region_of(PayoffMatrix(4, 3, 2, 3))
    assert excinfo.value.tied_pairs == (("b", "d"),)
    assert len(excinfo.value.adjacent_region_ids) == 2


def test_sign_vectors_are_strict_and_consistent() -> None:
    for region in REGIONS:
        assert 0 not in region.sign_vector
        G = g_transform(region.representative())
        derived = tuple(
            1 if x > 0 else -1
            for x in (
                G.ga + G.gab, G.ga - G.gab,
                G.gb + G.gab, G.gb - G.gab,
                G.ga + G.gb, G.ga - G.gb,
            )
        )
        assert derived == region.sign_vector


# ---------------------------------------------------------------------------
# Canonical vertices


def test_canonical_matrix_inventory() -> None:
    assert len(CANONICAL_DIRECTIONS) == 14
    assert len(CANONICAL_MATRICES) == 14
    # One vertex per nonempty proper subset of the labels: 6/k on its k labels, 0 elsewhere.
    subsets = {frozenset(s) for k in (1, 2, 3) for s in itertools.combinations(LABELS, k)}
    assert set(cartography._VERTEX_ON) == subsets
    for subset, vertex in cartography._VERTEX_ON.items():
        assert vertex.matrix.entries() == tuple(Fraction(6, len(subset)) * (x in subset) for x in LABELS)
    # Insertion order is pinned: the golden digests iterate CANONICAL_MATRICES.values().
    assert tuple(CANONICAL_MATRICES) == CANONICAL_DIRECTIONS
    for direction, vertex in CANONICAL_MATRICES.items():
        M = vertex.matrix
        assert min(M.entries()) == 0
        assert all(x.denominator == 1 for x in M.entries())
        axis = direction.count(0) == 2
        t = 3 if axis or direction[0] * direction[1] * direction[2] > 0 else 1
        assert g_transform(M).triple() == tuple(t * x for x in direction)


def test_canonical_matrix_frozen_examples() -> None:
    assert CANONICAL_MATRICES[(1, 0, 0)].matrix == PayoffMatrix(3, 3, 0, 0)
    assert CANONICAL_MATRICES[(0, 1, 0)].matrix == PayoffMatrix(3, 0, 3, 0)
    assert CANONICAL_MATRICES[(0, 0, 1)].matrix == PayoffMatrix(3, 0, 0, 3)
    assert CANONICAL_MATRICES[(1, 1, 1)].matrix == PayoffMatrix(6, 0, 0, 0)
    assert CANONICAL_MATRICES[(1, -1, -1)].matrix == PayoffMatrix(0, 6, 0, 0)
    assert CANONICAL_MATRICES[(-1, -1, -1)].matrix == PayoffMatrix(0, 2, 2, 2)


def test_region_vertices_bound_their_region() -> None:
    for region in REGIONS:
        axis, corner_minus, corner_plus = region.vertices
        assert axis.direction.count(0) == 2
        assert corner_minus.direction.count(0) == 0
        diff = [
            k for k in range(3)
            if corner_minus.direction[k] != corner_plus.direction[k]
        ]
        assert len(diff) == 1
        top_counts = set()
        # Every vertex matrix satisfies the region's weak entry ordering.
        for vertex in (axis, corner_minus, corner_plus):
            entries = dict(zip(("a", "b", "c", "d"), vertex.matrix.entries()))
            o = region.ordering
            assert all(entries[o[k]] >= entries[o[k + 1]] for k in range(3))
            # The smallest entry of the region is zero at every vertex.
            assert entries[o[3]] == 0
            # The vertex is 6/k on the region's top k labels and 0 elsewhere.
            k = sum(1 for x in entries.values() if x)
            assert {label for label, x in entries.items() if x} == set(o[:k])
            assert all(entries[label] == Fraction(6, k) for label in o[:k])
            top_counts.add(k)
        assert top_counts == {1, 2, 3}


def test_region_rows_match_the_cube_point_rule() -> None:
    """Oracle: each region's vertices and triangle, read off its representative's cube point.

    The rule does not look at the ordering, as ``cartography._region`` does.
    The axis vertex lies along the point's largest coordinate, the two corners
    share its sign and the middle coordinate's sign, and differ in the smallest
    (minus first); the triangle is drawn in the point's own cell.
    """
    for region in REGIONS:
        point = normalize_cube(region.representative()).triple()
        i_max, i_mid, i_min = sorted(range(3), key=lambda k: abs(point[k]), reverse=True)
        s_max, s_mid = (1 if point[k] > 0 else -1 for k in (i_max, i_mid))

        def vertex(mid: int, low: int):
            direction = [0, 0, 0]
            direction[i_max], direction[i_mid], direction[i_min] = s_max, mid, low
            return CANONICAL_MATRICES[tuple(direction)]

        vertices = (vertex(0, 0), vertex(s_mid, -1), vertex(s_mid, 1))
        to_plane = cartography._CELLS[cartography._cell(*point, 1)][1]
        triangle = tuple(to_plane(*(Fraction(x) for x in v.direction), 1) for v in vertices)
        assert len(region.vertices) == 3 and all(x is y for x, y in zip(region.vertices, vertices))
        assert region.triangle == triangle


# ---------------------------------------------------------------------------
# Decomposition


def test_decompose_worked_example() -> None:
    P = PayoffMatrix(9, 15, 5, 7)
    dec = decompose(P)
    assert dec.trivial_offset == 5
    assert dec.scale == Fraction(16, 6)
    assert dec.weights == (Fraction(3, 8), Fraction(3, 8), Fraction(2, 8))
    assert [v.matrix for v in dec.vertices] == [
        PayoffMatrix(0, 6, 0, 0),
        PayoffMatrix(2, 2, 0, 2),
        PayoffMatrix(3, 3, 0, 0),
    ]
    assert [v.direction for v in dec.vertices] == [(1, -1, -1), (1, -1, 1), (1, 0, 0)]
    assert reconstruct(dec) == P


def test_decompose_negative_entries_example() -> None:
    P = PayoffMatrix(-9, -3, -1, 1)
    dec = decompose(P)
    assert dec.trivial_offset == -9
    assert dec.scale == 4
    assert dec.weights == (Fraction(3, 4), Fraction(1, 12), Fraction(1, 6))
    assert [v.matrix for v in dec.vertices] == [
        PayoffMatrix(0, 2, 2, 2),
        PayoffMatrix(0, 0, 0, 6),
        PayoffMatrix(0, 0, 3, 3),
    ]
    assert reconstruct(dec) == P


@settings(deadline=None)
@given(games)
def test_decompose_properties_on_random_games(P: PayoffMatrix) -> None:
    assume(len(set(P.entries())) > 1)
    dec = decompose(P)
    assert reconstruct(dec) == P
    assert dec.trivial_offset == min(P.entries())
    assert dec.scale > 0
    assert sum(dec.weights) == 1
    assert all(w >= 0 for w in dec.weights)
    if len(set(P.entries())) == 4:
        assert all(w > 0 for w in dec.weights)
        assert dec.region is region_of(P)


def test_decompose_boundary_resolves_to_lowest_region() -> None:
    # A vertex matrix sits on several region closures and decomposes to
    # itself with full weight on its own slot.
    dec = decompose(PayoffMatrix(3, 3, 0, 0))
    assert dec.region.id == 0
    assert dec.trivial_offset == 0
    assert dec.scale == 1
    assert dec.weights == (0, 0, 1)
    assert reconstruct(dec) == PayoffMatrix(3, 3, 0, 0)
    # Weights stay nonnegative on arbitrary boundary games.
    rng = random.Random(82)
    for _ in range(100):
        P = random_matrix(rng, span=6)
        if len(set(P.entries())) in (1, 4):
            continue
        dec = decompose(P)
        assert all(w >= 0 for w in dec.weights)
        assert reconstruct(dec) == P
    # Every weak order of four entries, strict or tied: the lowest adjacent region.
    games = [PayoffMatrix(*e) for e in itertools.product(range(4), repeat=4) if len(set(e)) > 1]
    assert len(games) == 252
    for P in games:
        try:
            lowest = region_of(P).id
        except BoundaryGame as exc:
            lowest = min(exc.adjacent_region_ids)
        assert decompose(P).region.id == lowest, P


def test_decompose_rejects_constant() -> None:
    with pytest.raises(TrivialGame):
        decompose(PayoffMatrix(-1, -1, -1, -1))


# ---------------------------------------------------------------------------
# Symmetry: S4 permuting the entries (a, b, c, d)
#
# The six planes are the reflecting hyperplanes x_i = x_j of S4 acting on the
# entries, so the 24 regions are its chambers and all congruent (each 1/24 of
# the sphere).  Every permutation acts on (ga, gb, gab) as a signed
# permutation: S4 is affine on F2^2, so it maps the characters to +- each other.

PERMUTATIONS = tuple(itertools.permutations(range(4)))


def _permuted(sigma: tuple, P: PayoffMatrix) -> PayoffMatrix:
    """sigma.P: entry i of the result is entry sigma[i] of P."""
    entries = P.entries()
    return PayoffMatrix(*(entries[k] for k in sigma))


def _sign(sigma: tuple) -> int:
    return (-1) ** sum(sigma[i] > sigma[j] for i, j in itertools.combinations(range(len(sigma)), 2))


def _induced_map(sigma: tuple) -> tuple:
    """Rows of the 3x3 matrix by which sigma acts on (ga, gb, gab), from g_transform."""
    columns = []
    for k in range(3):
        axis = [Fraction(0)] * 3
        axis[k] = Fraction(1)
        image = g_transform(_permuted(sigma, inverse_g_transform(GVector(0, *axis))))
        assert image.g0 == 0
        columns.append(image.triple())
    return tuple(zip(*columns))


def _apply(matrix: tuple, vector: tuple) -> tuple:
    return tuple(sum(m * x for m, x in zip(row, vector)) for row in matrix)


def test_permutations_act_as_signed_permutation_matrices() -> None:
    rng = random.Random(24)
    games = [random_matrix(rng) for _ in range(20)]
    for sigma in PERMUTATIONS:
        rows = _induced_map(sigma)
        support = [[k for k, x in enumerate(row) if x != 0] for row in rows]
        assert all(len(s) == 1 for s in support)
        where = tuple(s[0] for s in support)
        assert sorted(where) == [0, 1, 2]
        signs = [rows[i][where[i]] for i in range(3)]
        assert all(abs(s) == 1 for s in signs)
        assert _sign(where) * signs[0] * signs[1] * signs[2] == _sign(sigma)  # the determinant
        for P in games:  # g0 is fixed and the triple moves by the matrix alone
            G, image = g_transform(P), g_transform(_permuted(sigma, P))
            assert image.g0 == G.g0
            assert image.triple() == _apply(rows, G.triple())


def test_canonical_matrices_are_closed_under_permutations() -> None:
    for sigma in PERMUTATIONS:
        rows = _induced_map(sigma)
        for direction, vertex in CANONICAL_MATRICES.items():
            image = tuple(int(x) for x in _apply(rows, direction))
            assert _permuted(sigma, vertex.matrix) == CANONICAL_MATRICES[image].matrix


def test_permuted_game_lies_in_the_relabelled_region() -> None:
    rng = random.Random(4)
    games = [region.representative() for region in REGIONS]
    games += [random_generic_matrix(rng) for _ in range(100)]
    for sigma in PERMUTATIONS:
        label_of = {LABELS[sigma[i]]: LABELS[i] for i in range(4)}  # P's label -> sigma.P's
        for P in games:
            relabelled = tuple(label_of[x] for x in region_of(P).ordering)
            assert region_of(_permuted(sigma, P)).ordering == relabelled


def test_permutations_act_simply_transitively_on_the_regions() -> None:
    start = REGIONS[0].representative()
    orbit = [region_of(_permuted(sigma, start)).id for sigma in PERMUTATIONS]
    assert sorted(orbit) == list(range(24))  # 24 images of one region, so no stabilizer


def test_decompose_commutes_with_permutations() -> None:
    rng = random.Random(2003)
    for _ in range(100):
        P = random_generic_matrix(rng)
        dec = decompose(P)
        for sigma in PERMUTATIONS:
            image = decompose(_permuted(sigma, P))
            assert (image.trivial_offset, image.scale) == (dec.trivial_offset, dec.scale)
            assert {v.matrix: w for v, w in zip(image.vertices, image.weights)} == {
                _permuted(sigma, v.matrix): w for v, w in zip(dec.vertices, dec.weights)
            }


# ---------------------------------------------------------------------------
# Unfolding


def test_unfold_face_formulas() -> None:
    assert _unfold(CubePoint(0, Fraction(1, 2), 1)) == _unfold(CubePoint(0, "1/2", 1))
    cases = [
        ((0, Fraction(1, 2), 1), (0, Fraction(1, 2), "gab+")),
        ((1, Fraction(1, 2), Fraction(-1, 4)), (Fraction(9, 4), Fraction(1, 2), "ga+")),
        ((-1, Fraction(1, 2), Fraction(-1, 4)), (Fraction(-9, 4), Fraction(1, 2), "ga-")),
        ((Fraction(1, 4), 1, Fraction(1, 2)), (Fraction(1, 4), Fraction(3, 2), "gb+")),
        ((Fraction(1, 4), -1, Fraction(1, 2)), (Fraction(1, 4), Fraction(-3, 2), "gb-")),
        ((Fraction(1, 2), 0, -1), (Fraction(7, 2), 0, "gab-")),
        ((Fraction(-1, 2), 0, -1), (Fraction(-7, 2), 0, "gab-")),
        ((0, Fraction(1, 2), -1), (0, Fraction(7, 2), "gab-")),
        ((0, Fraction(-1, 2), -1), (0, Fraction(-7, 2), "gab-")),
    ]
    for triple, (u, v, face) in cases:
        pt = _unfold(CubePoint(*triple))
        assert (pt.u, pt.v, pt.face_tag) == (u, v, face)


def test_unfold_face_priority_on_edges() -> None:
    # Corners touch three faces; the tag comes from gab, then ga, then gb.
    assert _unfold(CubePoint(1, -1, 1)).face_tag == "gab+"
    assert _unfold(CubePoint(1, 1, -1)).face_tag == "gab-"
    assert _unfold(CubePoint(1, 1, 0)).face_tag == "ga+"
    assert _unfold(CubePoint(1, Fraction(1, 2), 0)).face_tag == "ga+"
    bottom = _unfold(CubePoint(0, 0, -1))
    assert (bottom.u, bottom.v, bottom.face_tag) == (4, 0, "gab-")


def test_unfold_is_continuous_across_kept_edges() -> None:
    # Faces that stay attached in the cross agree along their shared edge.
    for t in (Fraction(-3, 4), Fraction(-1, 3), 0, Fraction(2, 5), 1):
        via_top = _unfold(CubePoint(1, t, 1))
        assert (via_top.u, via_top.v) == (1, t)  # gab+ square, right edge
        near_arm = _unfold(CubePoint(1, t, Fraction(99, 100)))
        assert (near_arm.u, near_arm.v) == (Fraction(101, 100), t)
        via_gb = _unfold(CubePoint(t, 1, 1))
        assert (via_gb.u, via_gb.v) == (t, 1)
        if abs(t) < 1:
            tip = _unfold(CubePoint(1, t, -1))  # ga+ arm end meets its tip
            assert (tip.u, tip.v) == (3, t)
            tip = _unfold(CubePoint(t, 1, -1))
            assert (tip.u, tip.v) == (t, 3)


def test_map_point_known_games() -> None:
    pt = map_point(PayoffMatrix(3, 1, 4, 2))
    assert (pt.u, pt.v, pt.face_tag) == (Fraction(-1, 2), 2, "gb+")
    pt = map_point(PayoffMatrix(3, 0, 1, 2))
    assert (pt.u, pt.v, pt.face_tag) == (0, Fraction(1, 2), "gab+")
    with pytest.raises(TrivialGame):
        map_point(PayoffMatrix(9, 9, 9, 9))


def _orientation(p, q, r) -> Fraction:
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def test_region_triangles_tile_the_cross() -> None:
    total = Fraction(0)
    for region in REGIONS:
        p, q, r = region.triangle
        area = abs(_orientation(p, q, r)) / 2
        assert area == 1
        total += area
        for u, v in (p, q, r):
            assert abs(u) <= 4 and abs(v) <= 4
    assert total == 24


def test_region_triangle_contains_its_representatives_point() -> None:
    for region in REGIONS:
        pt = map_point(region.representative())
        p, q, r = region.triangle
        s = 1 if _orientation(p, q, r) > 0 else -1
        # Strict interior: all three edge orientations agree.
        assert s * _orientation(p, q, (pt.u, pt.v)) > 0
        assert s * _orientation(q, r, (pt.u, pt.v)) > 0
        assert s * _orientation(r, p, (pt.u, pt.v)) > 0


@settings(deadline=None)
@given(games)
def test_random_games_map_into_their_region_triangle(P: PayoffMatrix) -> None:
    assume(len(set(P.entries())) == 4)
    region = region_of(P)
    pt = map_point(P)
    p, q, r = region.triangle
    s = 1 if _orientation(p, q, r) > 0 else -1
    assert s * _orientation(p, q, (pt.u, pt.v)) > 0
    assert s * _orientation(q, r, (pt.u, pt.v)) > 0
    assert s * _orientation(r, p, (pt.u, pt.v)) > 0


# ---------------------------------------------------------------------------
# Trajectories


def test_trajectory_samples_and_classes() -> None:
    start = PayoffMatrix(-9, -3, -1, 1)
    end = PayoffMatrix(9, 15, 5, 7)
    samples = trajectory(start, end, 101)
    assert len(samples) == 101
    assert samples[0].t == 0 and samples[-1].t == 1
    assert samples[0].matrix == start and samples[-1].matrix == end
    assert samples[50].matrix == PayoffMatrix(0, 6, 2, 4)
    assert samples[50].game_class.display_name == "One PO, NE payoff greater"
    assert not any(s.boundary or s.trivial for s in samples)
    labels = [s.game_class.display_name for s in samples]
    assert labels[0] == "Cholesterol: friend or foe"
    assert labels[-1] == "Deadlock"


def test_trajectory_flags_boundary_samples() -> None:
    samples = trajectory(PayoffMatrix(-9, -3, -1, 1), PayoffMatrix(9, 15, 5, 7), 4)
    assert [s.boundary for s in samples] == [False, True, True, False]
    assert samples[1].game_class is None
    assert samples[1].point is not None  # still drawable


def test_trajectory_flags_trivial_samples() -> None:
    samples = trajectory(PayoffMatrix(-1, -2, -3, -4), PayoffMatrix(1, 2, 3, 4), 3)
    assert samples[1].trivial
    assert samples[1].point is None and samples[1].game_class is None


def test_trajectory_sample_stores_no_flags() -> None:
    """``trivial`` and ``boundary`` are read off ``point`` and ``game_class``."""
    assert [f.name for f in dataclasses.fields(TrajectorySample)] == ["t", "matrix", "point", "game_class"]


_small = st.integers(-3, 3)


@settings(max_examples=300, deadline=None)
@given(
    st.tuples(_small, _small, _small, _small),
    st.tuples(_small, _small, _small, _small),
    st.sampled_from([2, 3, 4, 5, 7, 9, 13, 25]),
)
def test_trajectory_flags_match_exact_crossings(start, end, n) -> None:
    """Flags and regions follow the exact t at which each entry difference crosses zero.

    Each difference x - y is affine in t, d0 + t*(d1 - d0), so it vanishes at
    t* = d0 / (d0 - d1) or, when d0 == d1 == 0, along the whole path.
    """
    differences = [
        (start[i] - start[j], end[i] - end[j]) for i, j in itertools.combinations(range(4), 2)
    ]
    vanishing = any(d0 == d1 == 0 for d0, d1 in differences)
    crossings = {
        Fraction(d0, d0 - d1) for d0, d1 in differences if d0 != d1 and 0 <= Fraction(d0, d0 - d1) <= 1
    }
    samples = trajectory(PayoffMatrix(*start), PayoffMatrix(*end), n)
    regions = {}
    for s in samples:
        assert s.trivial == all(d0 + s.t * (d1 - d0) == 0 for d0, d1 in differences)
        assert (s.boundary or s.trivial) == (vanishing or s.t in crossings)
        if not (s.boundary or s.trivial):
            assert s.game_class is not None
            interval = sum(t < s.t for t in crossings)  # samples between the same two crossings
            assert regions.setdefault(interval, region_of(s.matrix).id) == region_of(s.matrix).id


def test_trajectory_needs_two_samples() -> None:
    with pytest.raises(ValueError):
        trajectory(PayoffMatrix(1, 2, 3, 4), PayoffMatrix(4, 3, 2, 1), 1)


# ---------------------------------------------------------------------------
# Monte Carlo


def test_mc_is_deterministic_per_seed_and_workers() -> None:
    a = mc_region_fractions(20_000, seed=5, n_workers=1)
    b = mc_region_fractions(20_000, seed=5, n_workers=1)
    assert a.region_counts == b.region_counts
    c = mc_region_fractions(20_000, seed=5, n_workers=3)
    d = mc_region_fractions(20_000, seed=5, n_workers=3)
    assert c.region_counts == d.region_counts
    assert a.region_counts != c.region_counts  # different stream partition


def test_mc_counts_are_consistent() -> None:
    report = mc_region_fractions(30_000, seed=11, n_workers=2)
    assert sum(report.region_counts) == 30_000
    assert sum(report.class_counts) == 30_000
    from symgame.taxonomy import REGION_ROW

    rolled = [0] * 9
    for region_id, count in enumerate(report.region_counts):
        rolled[REGION_ROW[region_id]] += count
    assert tuple(rolled) == report.class_counts
    assert all(0 < count < 30_000 for count in report.region_counts)  # each std error > 0


def test_mc_statistical_sanity() -> None:
    report = mc_region_fractions(100_000, seed=17)
    for count in report.region_counts:
        assert abs(count / report.n_samples - 1 / 24) < 0.01


def test_mc_memory_is_bounded_by_the_sampler_block(monkeypatch) -> None:
    # tracemalloc traces every thread, so the two-stream case counts both blocks.
    for workers in (1, 2):
        monkeypatch.setattr(cartography, "_usable_cpus", lambda: workers)
        tracemalloc.start()
        try:
            mc_region_fractions(10**6, 0, workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, workers


def test_mc_counts_do_not_depend_on_the_block(monkeypatch) -> None:
    """Blocks continue the stream, so the block size changes memory use but not the samples."""
    expected = {workers: mc_region_fractions(100_003, 4, workers) for workers in (1, 3)}
    for block in (1, 7, 16_384, 65_536):  # past 1, each stream ends in a partial block
        monkeypatch.setattr(cartography, "_MC_BLOCK", block)
        for workers, report in expected.items():
            assert mc_region_fractions(100_003, 4, workers).region_counts == report.region_counts


@pytest.mark.parametrize("seed, worker, m", [(3, 0, 5_000), (3, 1, 20_000), (12345, 7, 16_385)])
def test_mc_stream_regions_match_region_of(seed, worker, m) -> None:
    """The sampler's six float tests put each drawn row in the region region_of gives it exactly."""
    expected = [0] * 24
    for row in np.random.default_rng([seed, worker]).standard_normal((m, 3)):
        expected[region_of(inverse_g_transform(GVector(0, *map(Fraction, row)))).id] += 1
    code_counts = cartography._stream_code_counts(seed, worker, m, threading.Event())
    sampled = [0] * 24
    for code in np.flatnonzero(code_counts):
        sampled[cartography._REGION_ID_BY_CODE[code]] += int(code_counts[code])
    assert sampled == expected


@pytest.mark.parametrize(
    "seed, workers, n",
    [(3, 2, 200_001), (5, 3, 100_000), (7, 10_000, 50_003), (1, 7, 13), (2, 4, 3)],
)
def test_mc_pooled_counts_equal_one_thread_counts(monkeypatch, seed, workers, n) -> None:
    """Threads change only who counts a stream, never the counts."""
    on_this_host = mc_region_fractions(n, seed, workers)
    monkeypatch.setattr(cartography, "_usable_cpus", lambda: 1)
    one_thread = mc_region_fractions(n, seed, workers)
    assert on_this_host == one_thread
    # Up to four threads, whatever this host has, and more threads than streams.
    for cpus in (2, 4):
        monkeypatch.setattr(cartography, "_usable_cpus", lambda: cpus)
        assert mc_region_fractions(n, seed, workers) == one_thread, cpus


def test_mc_stream_thread_placement(monkeypatch) -> None:
    """One usable CPU counts every stream on the caller; more CPUs add pool threads."""
    calls = []
    count = cartography._stream_code_counts

    def recording(seed, worker, m, stop):
        calls.append((worker, threading.get_ident(), threading.active_count()))
        return count(seed, worker, m, stop)

    monkeypatch.setattr(cartography, "_stream_code_counts", recording)
    caller, threads_before = threading.get_ident(), threading.active_count()
    monkeypatch.setattr(cartography, "_usable_cpus", lambda: 1)
    mc_region_fractions(3_000, 0, 3)
    assert sorted(calls) == [(w, caller, threads_before) for w in range(3)]

    calls.clear()
    monkeypatch.setattr(cartography, "_usable_cpus", lambda: 2)
    mc_region_fractions(3_000, 0, 2)
    idents = {ident for _, ident, _ in calls}
    assert len(calls) == len(idents) == 2 and caller in idents


def test_mc_error_on_the_calling_thread_stops_the_pool_streams(monkeypatch) -> None:
    """A stream that fails on the caller stops the pool's streams at their next block."""
    m = 100 * cartography._MC_BLOCK
    started, drawn = threading.Event(), []
    count = cartography._stream_code_counts

    def stopping(seed, worker, size, stop):
        if worker == 0:  # the calling thread
            assert started.wait(timeout=60)
            raise RuntimeError("stream 0 failed")
        started.set()
        counts = count(seed, worker, size, stop)
        drawn.append(int(counts.sum()))
        return counts

    monkeypatch.setattr(cartography, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(cartography, "_stream_code_counts", stopping)
    with pytest.raises(RuntimeError, match="stream 0 failed"):
        mc_region_fractions(2 * m, 0, 2)
    assert len(drawn) == 1 and drawn[0] < m


def test_mc_workers_beyond_the_samples_stay_idle() -> None:
    assert mc_region_fractions(3, 0, 10**9).region_counts == mc_region_fractions(3, 0, 3).region_counts


def test_mc_single_sample_and_validation() -> None:
    report = mc_region_fractions(1, seed=1)
    assert sorted(report.region_counts, reverse=True)[0] == 1
    assert sum(report.region_counts) == 1
    with pytest.raises(ValueError):
        mc_region_fractions(0, seed=1)
    with pytest.raises(ValueError):
        mc_region_fractions(10, seed=1, n_workers=0)
