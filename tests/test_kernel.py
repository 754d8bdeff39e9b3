"""The integer-numerator kernel against the Fraction definitions it computes.

Each reference below is written on ``Fraction`` entries, the way the values
are defined, and the kernel must return the same value and type.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from symgame.cartography import _ROWS, _vertex_scale, decompose, reconstruct
from symgame.equilibria import mixed_nash, mixed_po, pure_nash_set, relaxed_po_set
from symgame.payoff import PayoffMatrix, TrivialGame, g_transform, normalize_cube

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


@settings(deadline=None)
@given(games)
def test_equilibria_match_the_fraction_definitions(P: PayoffMatrix) -> None:
    a, b, c, d = P.entries()
    assert pure_nash_set(P) == _nash(a, b, c, d)
    assert relaxed_po_set(P) == _nash(a, c, b, d)
    for got, want in ((mixed_nash(P), _mixed(a, b, c, d)), (mixed_po(P), _mixed(a, c, b, d))):
        assert got == want
        assert want is None or type(got) is Fraction


@settings(deadline=None)
@given(games)
def test_decompose_matches_the_fraction_closed_form(P: PayoffMatrix) -> None:
    if P.is_constant():
        with pytest.raises(TrivialGame):
            decompose(P)
        return
    dec = decompose(P)
    # The closed form over Fraction coordinates, in the region's axes.
    row = _ROWS[dec.region.id]
    (i_max, i_mid, i_min), (s_max, s_mid) = row.axes, row.signs
    x = _half_signed_sums(*P.entries())[1:]
    u = (
        (s_mid * x[i_mid] - x[i_min]) / 2,
        (s_mid * x[i_mid] + x[i_min]) / 2,
        s_max * x[i_max] - s_mid * x[i_mid],
    )
    y = [uk / _vertex_scale(v.direction) for uk, v in zip(u, dec.vertices)]
    assert dec.trivial_offset == min(P.entries())
    assert dec.scale == sum(y)
    assert dec.weights == tuple(yk / sum(y) for yk in y)
    assert _all_fractions((dec.trivial_offset, dec.scale, *dec.weights))
    rebuilt = reconstruct(dec)
    assert rebuilt == P
    assert _all_fractions(rebuilt.entries())
