"""Equilibrium and optimality predicates, mixed profiles, payoff expectations."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from symgame.equilibria import (
    expected_payoff,
    mixed_nash,
    mixed_po,
    pure_nash_set,
    relaxed_po_set,
    standard_pareto_set,
)
from symgame.payoff import PayoffMatrix, inverse_g_transform, GVector, transpose_game

from test_payoff import linear, random_matrix

PD = PayoffMatrix(3, 1, 4, 2)
CHICKEN = PayoffMatrix(4, 2, 5, 1)
DEADLOCK = PayoffMatrix(3, 4, 1, 2)
COORDINATION = PayoffMatrix(4, 1, 2, 3)


def test_pure_nash_sets() -> None:
    assert pure_nash_set(CHICKEN) == {(0, 1), (1, 0)}
    assert pure_nash_set(DEADLOCK) == {(0, 0)}
    assert pure_nash_set(PD) == {(1, 1)}
    assert pure_nash_set(COORDINATION) == {(0, 0), (1, 1)}
    assert pure_nash_set(PayoffMatrix(7, 7, 7, 7)) == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_relaxed_po_sets() -> None:
    assert relaxed_po_set(PD) == {(0, 0)}
    assert relaxed_po_set(PayoffMatrix(4, 5, 2, 1)) == {(0, 1), (1, 0)}
    assert relaxed_po_set(PayoffMatrix(0, 0, 0, 0)) == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_weak_inequalities_admit_ties() -> None:
    P = PayoffMatrix(2, 1, 2, 0)  # a == c: both row choices tie against column 0
    assert pure_nash_set(P) == {(0, 0), (0, 1), (1, 0)}


def test_mixed_nash_values() -> None:
    assert mixed_nash(CHICKEN) == Fraction(1, 2)
    assert mixed_nash(PayoffMatrix(3, 2, 5, 1)) == Fraction(1, 3)
    assert mixed_nash(DEADLOCK) is None  # strategy 0 dominates
    assert mixed_nash(PD) is None


def test_mixed_nash_not_reported_for_coordination_games() -> None:
    # Two strict diagonal equilibria have an interior indifference point,
    # but it is unstable and deliberately not reported.
    assert mixed_nash(COORDINATION) is None
    assert mixed_nash(PayoffMatrix(4, 2, 1, 3)) is None


def test_mixed_po_values() -> None:
    assert mixed_po(PayoffMatrix(4, 5, 2, 1)) == Fraction(1, 2)
    assert mixed_po(PayoffMatrix(3, 5, 2, 1)) == Fraction(1, 3)
    assert mixed_po(COORDINATION) is None


def test_mixed_profile_is_interior_and_indifferent() -> None:
    rng = random.Random(73)
    seen = 0
    for _ in range(500):
        P = random_matrix(rng)
        p = mixed_nash(P)
        if p is None:
            continue
        seen += 1
        assert 0 < p < 1
        # Indifference: both own actions earn the same against the profile.
        assert p * P.a + (1 - p) * P.b == p * P.c + (1 - p) * P.d
    assert seen > 20


def test_expected_payoff_values() -> None:
    assert expected_payoff(CHICKEN, Fraction(1, 2)) == 3
    assert expected_payoff(PayoffMatrix(3, 2, 5, 1), Fraction(1, 3)) == Fraction(7, 3)
    P = PayoffMatrix(1, 2, 3, 4)
    assert expected_payoff(P, 1) == P.a
    assert expected_payoff(P, 0) == P.d
    assert type(expected_payoff(P, Fraction(1, 2))) is Fraction
    # A profile is one shared probability; a second one is refused.
    with pytest.raises(TypeError):
        expected_payoff(P, 1, 0)


def test_expected_payoff_rejects_bad_probability() -> None:
    with pytest.raises(ValueError):
        expected_payoff(PD, Fraction(3, 2))
    with pytest.raises(ValueError):
        expected_payoff(PD, -1)


def test_symmetric_profiles_pay_both_players_equally() -> None:
    rng = random.Random(74)
    for _ in range(100):
        P = random_matrix(rng)
        p = Fraction(rng.randint(0, 8), 8)
        q = 1 - p
        # The row player gets P[i][j] at (i, j), the column player P[j][i].
        row_value = p * p * P.a + p * q * P.b + q * p * P.c + q * q * P.d
        col_value = p * p * P.a + p * q * P.c + q * p * P.b + q * q * P.d
        assert expected_payoff(P, p) == row_value == col_value


def test_standard_pareto_examples() -> None:
    assert standard_pareto_set(PD) == {(0, 0), (0, 1), (1, 0)}
    assert standard_pareto_set(PayoffMatrix(1, 1, 1, 1)) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert standard_pareto_set(COORDINATION) == {(0, 0)}


def test_existence_and_pairing() -> None:
    rng = random.Random(75)
    for _ in range(500):
        P = random_matrix(rng)
        for positions in (pure_nash_set(P), relaxed_po_set(P)):
            assert positions
            assert ((0, 1) in positions) == ((1, 0) in positions)


def test_duality_with_transpose() -> None:
    rng = random.Random(76)
    for _ in range(300):
        P = random_matrix(rng)
        Q = transpose_game(P)
        assert relaxed_po_set(P) == pure_nash_set(Q)
        assert pure_nash_set(P) == relaxed_po_set(Q)
        assert mixed_po(P) == mixed_nash(Q)


def test_nash_set_ignores_the_other_action_contrast() -> None:
    # Adding a pure gb perturbation leaves equilibria alone; a pure ga
    # perturbation leaves relaxed optima alone.
    gb_only = inverse_g_transform(GVector(0, 0, 1, 0))
    ga_only = inverse_g_transform(GVector(0, 1, 0, 0))
    rng = random.Random(77)
    for _ in range(200):
        P = random_matrix(rng)
        t = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        assert pure_nash_set(linear((1, P), (t, gb_only))) == pure_nash_set(P)
        assert relaxed_po_set(linear((1, P), (t, ga_only))) == relaxed_po_set(P)


def test_affine_invariance() -> None:
    rng = random.Random(78)
    for _ in range(200):
        P = random_matrix(rng)
        alpha = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        beta = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        Q = linear((alpha, P), offset=beta)
        assert pure_nash_set(Q) == pure_nash_set(P)
        assert relaxed_po_set(Q) == relaxed_po_set(P)
        assert mixed_nash(Q) == mixed_nash(P)
        assert standard_pareto_set(Q) == standard_pareto_set(P)
