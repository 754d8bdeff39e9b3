"""Golden outputs: CLI documents, Monte Carlo counts and SVG bytes, pinned.

The digests were recorded before the region table replaced the per-function
region computations; any byte that changes in these outputs fails here.  The
CSV digest and the counts of streams longer than one sampler block were
recorded before the CSV writer and the block-wise sampler were rewritten.
The plain ``classify`` report and ``ordergraph --simplified`` were recorded
before ``census`` took its 24 games from ``REGIONS``.  The ``census`` digest
was recorded while each row still stated its count apart from its orderings.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from fractions import Fraction

from symgame.cartography import CANONICAL_MATRICES, map_point, mc_region_fractions, trajectory
from symgame.cli import main
from symgame.payoff import PayoffMatrix
from symgame.svgmap import render_map


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _seeded_games() -> list:
    """Tied games and games with p/q entries, drawn from a fixed seed."""
    rng = random.Random(20260)
    games = []
    for _ in range(40):
        games.append(PayoffMatrix(*(rng.randint(-2, 2) for _ in range(4))))
    for _ in range(40):
        games.append(
            PayoffMatrix(*(Fraction(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(4)))
        )
    return games


def _golden_games() -> list:
    return (
        [PayoffMatrix(*perm) for perm in itertools.permutations((1, 2, 3, 4))]
        + [v.matrix for v in CANONICAL_MATRICES.values()]
        + _seeded_games()
    )


def _matrix_text(P: PayoffMatrix) -> str:
    return f"{P.a},{P.b};{P.c},{P.d}"


def _cli_stdout(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def test_mc_region_counts_are_pinned() -> None:
    assert mc_region_fractions(100_000, 0, 2).region_counts == (
        4256, 4098, 4176, 4227, 4115, 4094, 4101, 4119, 4093, 4146, 4273, 4215,
        4228, 4128, 4141, 4222, 4003, 4305, 4186, 4154, 4239, 4057, 4197, 4227,
    )
    assert mc_region_fractions(100_001, 5, 3).region_counts == (
        4243, 4158, 4185, 4191, 4194, 4191, 4126, 4095, 4201, 4232, 4155, 4165,
        4115, 4167, 4163, 4201, 4180, 4147, 4156, 4200, 4041, 4206, 4151, 4138,
    )
    # Two streams of 100,001 samples, each longer than one sampler block.
    assert mc_region_fractions(200_001, 3, 2).region_counts == (
        8314, 8479, 8260, 8386, 8232, 8254, 8542, 8430, 8361, 8376, 8219, 8246,
        8382, 8372, 8440, 8312, 8296, 8222, 8412, 8329, 8302, 8299, 8235, 8301,
    )


def test_cli_documents_are_pinned(capsys) -> None:
    digests = {}
    for command in (
        ("classify", "--json"), ("classify",), ("decompose",),
        ("ordergraph",), ("ordergraph", "--simplified"),
    ):
        out = "".join(
            _cli_stdout(capsys, *command, "--", _matrix_text(P)) for P in _golden_games()
        )
        digests[" ".join(command)] = _sha(out)
    assert digests == {
        "classify --json": "77a68d50e7ff0e5934540d65dba6f3d0d7320da92bd278706abef278279b82ca",
        "classify": "5e963f58a955272142c81953fe9131937b61eabdfa3517ac967b38ca8c5765d3",
        "decompose": "dd158ae56db2d3735eef521c0f40834a2bb9d1505380e7e2aaf403e5213be304",
        "ordergraph": "ec678e65300e2660a099307ce92fb70b82f8a6643d7aac9fe64f632596fa5896",
        "ordergraph --simplified": "760f05ac04949d7a2d2ed6283835278fdd7c9fcf098397e5762c5e10cadd7ac1",
    }


def test_census_output_is_pinned(capsys) -> None:
    out = _cli_stdout(capsys, "census")
    assert _sha(out) == "a757346d8360c3b48a10ef41fb2749fa02a507dc0c969087736317e8e7e955bf"


def test_fractions_document_is_pinned(capsys) -> None:
    out = _cli_stdout(
        capsys, "fractions", "--format", "json", "--samples", "100000",
        "--seed", "0", "--workers", "2",
    )
    assert _sha(out) == "59ea583a3be423a1e58e5b907bcda4e513da75079e533032ea0290a1658f5bce"


def test_fractions_csv_is_pinned(capsys) -> None:
    out = _cli_stdout(capsys, "fractions", "--samples", "100000", "--seed", "0", "--workers", "2")
    assert _sha(out) == "d7b7f6801087c406dfdd2a283e386d6181b84a320d0e8767b192b04ecc70712f"


def test_map_svg_is_pinned() -> None:
    markers = [(map_point(P), str(P)) for P in _golden_games() if len(set(P.entries())) > 1]
    path = trajectory(PayoffMatrix(-9, -3, -1, 1), PayoffMatrix(9, 15, 5, 7), 101)
    svg = render_map(markers=markers, trajectories=[[s.point for s in path]])
    assert _sha(svg) == "9b0cf30143cd0c20fe7ddec7ac0215bb5d684b6fc7591a6e63db98edc0487243"


def _grammar_literal(rng: random.Random) -> str:
    r = rng.random()
    if r < 0.4:
        q = rng.randint(2, 97)
        return f"{rng.randint(-50 * q, 50 * q)}/{q}"
    if r < 0.7:
        return f"{rng.randint(-5000, 5000) / 100:.2f}"
    return str(rng.randint(-50, 50))


def _grammar_texts() -> list:
    """500 payoff texts: p/q up to q = 97, two-decimal literals, ties and constants."""
    rng = random.Random(20261)
    texts = []
    for k in range(500):
        entries = [_grammar_literal(rng) for _ in range(4)]
        if k % 5 == 3:  # a tie: one entry written again, possibly in another form
            entries[rng.randrange(4)] = entries[rng.randrange(4)]
        elif k % 50 == 7:
            entries = [entries[0]] * 4
        texts.append("{},{};{},{}".format(*entries))
    return texts


def test_cli_documents_over_the_input_grammar_are_pinned(capsys) -> None:
    # Recorded before the order graph, reconstruct and the report parts were
    # rewritten on integer ratios.
    digests = {
        command[0]: _sha("".join(_cli_stdout(capsys, *command, "--", text) for text in _grammar_texts()))
        for command in (("classify", "--json"), ("ordergraph",))
    }
    assert digests == {
        "classify": "30f96422b85383c6ca08e719b15e3dc93621e0118e93d6ccad2daf738d75fe8d",
        "ordergraph": "f3be4ac7f4ad4c743c1508b2a7e3d7199c604dd316d13ad55f20917b0aa2e03c",
    }
