"""Seeded inputs, timed operations and output checks of the three workloads.

Each workload is a closed loop with one client: the next op starts when the
previous one returns.  Inputs come from the workload seed and a stream
number alone, and the program receives only the generated payoff texts and
command-line arguments.

The payoff generator draws only from the documented input grammar:
integers, ``p/q`` fractions and short decimals.  Hostile literals such as
``1e400`` or ``1e-999999`` are not traffic; the repository's tests cover
them.

The importer puts the checkout's ``src`` directory on ``sys.path`` first.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import jsonschema

import symgame as sg
from symgame import cli

SCHEMAS = Path(sg.__file__).parent / "schemas"
SVG = "{http://www.w3.org/2000/svg}"

#: The payoff mix: kind of game -> weight in percent.  "rational" games are
#: strict games written with p/q or decimal literals.
MIX = {"strict": 70, "rational": 20, "tied": 9, "constant": 1}
#: The report's ``degenerate`` field each kind must produce.
DEGENERATE = {"strict": None, "rational": None, "tied": "boundary", "constant": "trivial"}
#: Input-property counter key of each kind.
PROPERTY = {"strict": "strict", "rational": "strict", "tied": "boundary", "constant": "trivial"}

#: Largest accepted |estimate - 1/24| of a region, as in the acceptance tests.
MC_REGION_BOUND = 0.0045


@dataclass(frozen=True)
class Game:
    """One generated payoff text and the kind the generator drew."""

    text: str
    kind: str


def _literal(rng: random.Random) -> str:
    r = rng.random()
    if r < 0.5:
        q = rng.randint(2, 97)
        return f"{rng.randint(-50 * q, 50 * q)}/{q}"
    if r < 0.75:
        return f"{rng.randint(-5000, 5000) / 100:.2f}"
    return str(rng.randint(-50, 50))


def _rational_entries(rng: random.Random) -> list:
    while True:
        entries = [_literal(rng) for _ in range(4)]
        has_fraction = any("/" in e or "." in e for e in entries)
        if has_fraction and len({Fraction(e) for e in entries}) == 4:
            return entries


def draw_game(rng: random.Random) -> Game:
    """A payoff text "a,b;c,d" of a kind drawn from :data:`MIX`."""
    kind = rng.choices(tuple(MIX), weights=tuple(MIX.values()))[0]
    if kind == "strict":
        entries = rng.sample(range(-50, 51), 4)
    elif kind == "rational":
        entries = _rational_entries(rng)
    elif kind == "tied":
        if rng.random() < 1 / 3:
            x, y = rng.sample(range(-50, 51), 2)
            entries = [x, x, y, y]
        else:
            x, y, z = rng.sample(range(-50, 51), 3)
            entries = [x, x, y, z]
        rng.shuffle(entries)
    else:
        entries = [rng.randint(-50, 50)] * 4
    return Game("{},{};{},{}".format(*entries), kind)


def _tally_games(counts: Counter, distinct: set, games) -> None:
    for game in games:
        counts["games"] += 1
        counts[PROPERTY[game.kind]] += 1
        counts["rational"] += game.kind == "rational"
        distinct.add(game.text)


def _validator(schema_file: str):
    schema = json.loads((SCHEMAS / schema_file).read_text(encoding="utf-8"))
    return jsonschema.validators.validator_for(schema)(schema)


def _schema_error(validator, doc):
    error = next(iter(validator.iter_errors(doc)), None)
    return None if error is None else f"{validator.schema['$id']}: {error.message}"


def report_json(report: dict) -> str:
    """The ``classify --json`` bytes of a report (the traced run names it cli.report_json)."""
    return json.dumps(report, indent=2)


class ReportMixed:
    """One payoff text -> ``classify --json`` report, then its order graph as DOT."""

    name = "report-mixed"
    unit = "games"
    # p99 moved by about a quarter between 10 s windows on a 2-vCPU VM whose
    # host speed changes for seconds at a time; p90 moved by about 6%.
    tail_percentile = 90
    setup_imports = "import json, symgame, symgame.cli"
    fixed_ops = 300

    def __init__(self, seed: int, stream: int = 0) -> None:
        self._rng = random.Random(f"{self.name}/{seed}/{stream}")
        self._validator = _validator("report.v1.json")

    def draw(self) -> Game:
        return draw_game(self._rng)

    def work(self, game: Game) -> int:
        return 1

    def op(self, game: Game):
        P = sg.parse_matrix(game.text)
        text = report_json(cli.build_report(P))
        graph = sg.build_order_graph(P)
        return text, graph, sg.to_dot(graph)

    def check(self, game: Game, out):
        text, graph, dot = out
        doc = json.loads(text)
        error = _schema_error(self._validator, doc)
        if error:
            return error
        if doc["degenerate"] != DEGENERATE[game.kind]:
            return f"degenerate is {doc['degenerate']!r} for a {game.kind} game"
        if game.kind != "constant" and doc["decomposition"]["reconstruction_exact"] is not True:
            return "reconstruction_exact is not true"
        if doc["nash_equilibria"] != [list(p) for p in sorted(sg.graph_nash_set(graph))]:
            return "nash_equilibria differ from the order graph's sinks"
        if doc["pareto_optima"] != [list(p) for p in sorted(sg.graph_po_set(graph))]:
            return "pareto_optima differ from the order graph's sinks"
        if not dot.startswith("digraph order_graph {"):
            return "DOT output has no order_graph header"
        return None

    def tally(self, counts: Counter, distinct: set, game: Game, out) -> None:
        _tally_games(counts, distinct, (game,))
        text, _, dot = out
        counts["bytes.report_json"] += len(text.encode())
        counts["bytes.dot"] += len(dot.encode())


class MCFractions:
    """One ``symgame fractions --format json`` run of a fixed sample count."""

    name = "mc-fractions"
    unit = "samples"
    tail_percentile = 50
    setup_imports = "import numpy, symgame.cli"
    fixed_ops = 3
    samples = 2_000_000
    workers = 2
    #: Distinct seeds the ops cycle through, so that documents repeat.
    op_seeds = 2

    def __init__(self, seed: int, stream: int = 0) -> None:
        rng = random.Random(f"{self.name}/{seed}/{stream}")
        self._seeds = [rng.randrange(10**9) for _ in range(self.op_seeds)]
        self._drawn = 0
        self._documents = {}
        self._validator = _validator("fractions.v1.json")

    def draw(self) -> list:
        seed = self._seeds[self._drawn % len(self._seeds)]
        self._drawn += 1
        return [
            "fractions", "--format", "json", "--workers", str(self.workers),
            "--samples", str(self.samples), "--seed", str(seed),
        ]

    def work(self, argv: list) -> int:
        return self.samples

    def op(self, argv: list):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = cli.main(argv)
        return status, buf.getvalue()

    def check(self, argv: list, out):
        status, text = out
        if status != 0:
            return f"exit status {status}"
        doc = json.loads(text)
        error = _schema_error(self._validator, doc)
        if error:
            return error
        counts = [round(r["estimate"] * self.samples) for r in doc["regions"]]
        if doc["samples"] != self.samples or sum(counts) != self.samples:
            return f"region counts sum to {sum(counts)}, not {self.samples}"
        worst = max(abs(r["estimate"] - 1 / 24) for r in doc["regions"])
        if worst >= MC_REGION_BOUND:
            return f"a region estimate is {worst:.5f} away from 1/24"
        first = self._documents.setdefault((doc["seed"], doc["workers"]), text)
        if first != text:
            return "document differs from an earlier one with the same (seed, workers)"
        return None

    def tally(self, counts: Counter, distinct: set, argv: list, out) -> None:
        counts["mc_samples"] += self.samples
        distinct.add(tuple(argv))


@dataclass(frozen=True)
class MapInput:
    """Marker lines as read from a ``--points`` file, plus trajectory endpoints."""

    games: tuple
    lines: tuple
    endpoints: tuple  # ("a,b;c,d", "e,f;g,h") per trajectory


class MapTrajectories:
    """The work of one ``symgame map --points FILE --trajectory SPEC ...``."""

    name = "map-trajectories"
    unit = "maps"
    tail_percentile = 75
    setup_imports = "import symgame, symgame.svgmap"
    fixed_ops = 6
    markers = 200
    trajectories = 3
    trajectory_samples = 101

    def __init__(self, seed: int, stream: int = 0) -> None:
        self._rng = random.Random(f"{self.name}/{seed}/{stream}")

    def _endpoint(self) -> str:
        return "{},{};{},{}".format(*(self._rng.randint(-20, 20) for _ in range(4)))

    def draw(self) -> MapInput:
        games = tuple(draw_game(self._rng) for _ in range(self.markers))
        endpoints = tuple((self._endpoint(), self._endpoint()) for _ in range(self.trajectories))
        return MapInput(games, tuple(g.text + "\n" for g in games), endpoints)

    def work(self, inp: MapInput) -> int:
        return 1

    def op(self, inp: MapInput):
        markers = []
        for P in sg.matrices_from_lines(inp.lines):
            try:
                markers.append((sg.map_point(P), str(P)))
            except sg.TrivialGame:
                pass  # the CLI warns and skips constant games
        paths = [
            sg.trajectory(sg.parse_matrix(start), sg.parse_matrix(end), self.trajectory_samples)
            for start, end in inp.endpoints
        ]
        svg = sg.render_map(markers=markers, trajectories=[[s.point for s in p] for p in paths])
        return svg, paths

    def check(self, inp: MapInput, out):
        svg, paths = out
        root = ET.fromstring(svg)
        polygons = len(root.findall(f"{SVG}polygon"))
        if polygons != 24:
            return f"{polygons} region polygons, not 24"
        circles = sum(c.get("r") == "0.07" for c in root.iter(f"{SVG}circle"))
        expected = sum(g.kind != "constant" for g in inp.games)
        if circles != expected:
            return f"{circles} marker circles, not {expected}"
        for path in paths:
            for sample in path:
                if sample.trivial:
                    continue
                try:
                    sg.region_of(sample.matrix)
                    on_boundary = False
                except sg.BoundaryGame:
                    on_boundary = True
                if sample.boundary != on_boundary:
                    return f"sample t={sample.t} has boundary={sample.boundary}"
        return None

    def tally(self, counts: Counter, distinct: set, inp: MapInput, out) -> None:
        svg, paths = out
        _tally_games(counts, distinct, inp.games)
        counts["markers_skipped"] += sum(g.kind == "constant" for g in inp.games)
        counts["trajectory_samples"] += sum(len(p) for p in paths)
        counts["trajectory_boundary"] += sum(s.boundary for p in paths for s in p)
        counts["bytes.svg"] += len(svg.encode())


WORKLOADS = {w.name: w for w in (ReportMixed, MCFractions, MapTrajectories)}


@dataclass
class PassResult:
    """What one closed-loop pass measured and verified."""

    durations: list = field(default_factory=list)  # seconds per op
    work: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)  # the first few failures
    counts: Counter = field(default_factory=Counter)
    distinct: set = field(default_factory=set)

    @property
    def attempted(self) -> int:
        return len(self.durations)

    @property
    def busy(self) -> float:
        return sum(self.durations)


def run_pass(workload, inputs, seconds: float = None, tracer=None) -> PassResult:
    """Run ops on ``inputs`` one after another and check each output.

    Stops when the inputs end or, with ``seconds``, once the ops have taken
    that long in total.  Only the op itself is timed; drawing the next input
    and checking the output happen outside the timed region.  With a tracer,
    each op is the root span of the calls it makes.
    """
    result = PassResult()
    for inp in inputs:
        start = time.perf_counter()
        try:
            if tracer is None:
                out = workload.op(inp)
            else:
                out = tracer.op(f"op.{workload.name}", workload.op, inp)
            problem = None
        except Exception as exc:  # an undocumented exception fails the op
            problem = f"raised {type(exc).__name__}: {exc}"
        result.durations.append(time.perf_counter() - start)
        if problem is None:
            try:
                problem = workload.check(inp, out)
            except Exception as exc:  # a malformed output fails the op
                problem = f"check raised {type(exc).__name__}: {exc}"
        if problem is None:
            result.work += workload.work(inp)
            workload.tally(result.counts, result.distinct, inp, out)
        else:
            result.failed += 1
            if len(result.problems) < 5:
                result.problems.append(problem)
        if seconds is not None and result.busy >= seconds:
            break
    return result


def endless(workload):
    """The workload's seeded input stream."""
    while True:
        yield workload.draw()
