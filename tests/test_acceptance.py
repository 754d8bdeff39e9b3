"""Acceptance suite: one test per shipped guarantee, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from symgame.cartography import (
    REGIONS,
    decompose,
    mc_region_fractions,
    reconstruct,
    region_of,
    trajectory,
)
from symgame.equilibria import (
    mixed_nash,
    mixed_po,
    pure_nash_set,
    relaxed_po_set,
    standard_pareto_set,
)
from symgame.ordergraph import build_order_graph, graph_nash_set, graph_po_set
from symgame.payoff import (
    GVector,
    PayoffMatrix,
    g_transform,
    inverse_g_transform,
    transpose_game,
)
from symgame.taxonomy import (
    CLASS_TABLE,
    Category,
    census,
    classify,
)

from test_payoff import linear, random_matrix

POSITIONS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _pass(n: int, description: str) -> None:
    print(f"criterion {n} ({description}): PASS")


def _random_generic(rng: random.Random, span: int = 12) -> PayoffMatrix:
    while True:
        P = random_matrix(rng, span)
        if len(set(P.entries())) == 4:
            return P


def test_criterion_1_census() -> None:
    start = time.monotonic()
    counts = census()
    elapsed = time.monotonic() - start
    got = tuple(counts[row] for row in CLASS_TABLE)
    assert got == (4, 2, 2, 3, 1, 6, 1, 1, 4)
    assert sum(got) == 24
    assert elapsed < 1.0
    _pass(1, "ordinal census counts")


def test_criterion_2_exact_fractions() -> None:
    fractions = tuple(row.fraction for row in CLASS_TABLE)
    assert fractions == (
        Fraction(1, 6), Fraction(1, 12), Fraction(1, 12), Fraction(1, 8),
        Fraction(1, 24), Fraction(1, 4), Fraction(1, 24), Fraction(1, 24),
        Fraction(1, 6),
    )
    assert sum(fractions) == 1
    _pass(2, "exact class measures")


def test_criterion_3_monte_carlo_accuracy() -> None:
    start = time.monotonic()
    report = mc_region_fractions(10**6, seed=0, n_workers=1)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    for count in report.region_counts:
        assert abs(count / report.n_samples - 1 / 24) < 0.0045
    for count, row in zip(report.class_counts, CLASS_TABLE):
        assert abs(count / report.n_samples - float(row.fraction)) < 0.005
    _pass(3, "a million sampled directions")


def test_criterion_4_named_game_placements() -> None:
    pd = classify(PayoffMatrix(3, 1, 4, 2))
    assert pd.game_class.display_name == "Prisoner's Dilemma"
    assert pd.ne_set == {(1, 1)} and pd.po_set == {(0, 0)}
    assert pd.comparison_values == (2, 3)

    deadlock = classify(PayoffMatrix(3, 4, 1, 2))
    assert deadlock.game_class.display_name == "Deadlock"
    assert deadlock.ne_set == {(0, 0)} and deadlock.po_set == {(1, 1)}
    assert deadlock.comparison_values == (3, 2)

    chicken = classify(PayoffMatrix(4, 2, 5, 1))
    assert chicken.game_class.display_name == "Chicken"
    assert chicken.mixed_ne == Fraction(1, 2)
    assert chicken.comparison_values == (3, 4)
    ne_value, po_value = chicken.comparison_values
    assert ne_value < po_value

    coordination = classify(PayoffMatrix(4, 1, 2, 3))
    assert coordination.game_class.category is Category.TWO_DIAGONAL_NE
    assert coordination.ne_set == {(0, 0), (1, 1)}

    two_po = classify(PayoffMatrix(4, 5, 2, 1))
    assert two_po.game_class.display_name == "Two PO, NE payoff greater"
    assert two_po.comparison_values == (4, Fraction(7, 2))
    ne_value, po_value = two_po.comparison_values
    assert ne_value > po_value
    _pass(4, "named games land in their rows")


def test_criterion_5_exact_decompositions() -> None:
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
    assert reconstruct(dec) == P

    Q = PayoffMatrix(-9, -3, -1, 1)
    assert reconstruct(decompose(Q)) == Q
    _pass(5, "vertex decompositions are exact")


def test_criterion_6_graphs_agree_with_predicates() -> None:
    games = [r.representative() for r in REGIONS]
    rng = random.Random(2024)
    games += [random_matrix(rng, span=6) for _ in range(1000)]  # ties included
    for P in games:
        g = build_order_graph(P)
        ne = pure_nash_set(P)
        po = relaxed_po_set(P)
        assert graph_nash_set(g) == ne
        assert graph_po_set(g) == po
        # Independent check: a diagonal relaxed optimum that no outcome
        # strictly beats for both players must be a standard optimum too.
        strict = standard_pareto_set(P)
        for pos in po:
            if pos[0] != pos[1]:
                continue
            dominated = any(
                P.entry(*q) > P.entry(*pos)
                and P.entry(q[1], q[0]) > P.entry(pos[1], pos[0])
                for q in POSITIONS
                if q != pos
            )
            if not dominated:
                assert pos in strict
    _pass(6, "graph equilibria match the inequalities")


def test_criterion_7_invariance_and_round_trips() -> None:
    rng = random.Random(2025)
    for _ in range(1000):
        P = _random_generic(rng)
        alpha = Fraction(rng.randint(1, 8), rng.randint(1, 8))
        beta = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        Q = linear((alpha, P), offset=beta)
        assert region_of(Q) is region_of(P)
        assert classify(Q).game_class is classify(P).game_class
        assert pure_nash_set(Q) == pure_nash_set(P)
        assert relaxed_po_set(Q) == relaxed_po_set(P)
        assert mixed_nash(Q) == mixed_nash(P)
        assert mixed_po(Q) == mixed_po(P)

        T = transpose_game(P)
        assert pure_nash_set(T) == relaxed_po_set(P)
        assert relaxed_po_set(T) == pure_nash_set(P)
        assert mixed_nash(T) == mixed_po(P)
        assert mixed_po(T) == mixed_nash(P)

        assert inverse_g_transform(g_transform(P)) == P
        G = GVector(*(Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(4)))
        assert g_transform(inverse_g_transform(G)) == G
    _pass(7, "scale/offset/transpose invariance")


def test_criterion_8_equilibria_always_exist_in_pairs() -> None:
    games = [r.representative() for r in REGIONS]
    rng = random.Random(2026)
    games += [random_matrix(rng, span=5) for _ in range(1000)]
    games.append(PayoffMatrix(0, 0, 0, 0))
    for P in games:
        for positions in (pure_nash_set(P), relaxed_po_set(P)):
            assert positions
            assert ((0, 1) in positions) == ((1, 0) in positions)
    _pass(8, "equilibria exist and pair up")


def test_criterion_9_scenario_trajectory() -> None:
    start = PayoffMatrix(-9, -3, -1, 1)
    end = PayoffMatrix(9, 15, 5, 7)
    samples = trajectory(start, end, 101)
    assert len(samples) == 101
    assert samples[0].game_class is classify(start).game_class
    assert samples[-1].game_class is classify(end).game_class
    seen = {s.game_class.display_name for s in samples if s.game_class is not None}
    assert len(seen) >= 2
    assert not any(s.trivial for s in samples)

    # Boundary hits are flagged on the samples, never raised.
    coarse = trajectory(start, end, 4)
    assert [s.boundary for s in coarse] == [False, True, True, False]
    assert all(s.matrix is not None for s in coarse)
    _pass(9, "scenario path crosses classes safely")
