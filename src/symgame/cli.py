"""Command-line front end: classify, map, fractions, census, ordergraph, decompose.

Matrix arguments accept the text form "a,b;c,d" (row-major) or the JSON form
{"payoff": [[a, b], [c, d]]}.  JSON and CSV outputs render every rational as
a "p/q" string with a decimal duplicate, both read off its integer ratio by
``_rationals``: the decimal is the correctly rounded float of the rational.
JSON documents carry a "schema" tag matching the schema files shipped under
``symgame/schemas``.

Each command returns its output text and ``main`` writes it once, to stdout or
``--out``, so a failed run leaves stdout empty.  Error and warning lines go to
stderr, and are dropped when fd 2 is closed; they never reach stdout.

Exit codes: 0 for success (degenerate inputs are reported, not errors),
1 for a failed self-test, 2 for parse or usage errors, 130 for an interrupt
and 141 when the reader of stdout has gone.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import sys
from fractions import Fraction
from typing import Optional

from .cartography import (
    CANONICAL_MATRICES,
    REGIONS,
    BoundaryGame,
    decompose,
    map_point,
    mc_region_fractions,
    reconstruct,
    trajectory,
)
from .equilibria import (
    expected_payoff,
    mixed_nash,
    mixed_po,
    pure_nash_set,
    relaxed_po_set,
)
from .ordergraph import build_order_graph, to_dot
from .payoff import (
    PayoffMatrix,
    TrivialGame,
    _INTEGER,
    _quote,
    g_transform,
    matrices_from_lines,
    matrix_from_json,
    normalize_cube,
    parse_matrix,
)
from .svgmap import render_map
from .taxonomy import CLASS_TABLE, REGION_ROW, census, classify

# Upper bounds on the sample counts and streams a command line may ask for.
_MAX_SAMPLES = 10 ** 9
_MAX_WORKERS = 10_000
_MAX_TRAJECTORY_SAMPLES = 100_000  # per spec and summed over all specs of a map
_MAX_MARKERS = 100_000  # lines of a --points file
_MAX_POINTS_CHARS = 2 ** 24  # characters of a --points file, read before it is split into lines


def _rationals(values) -> tuple[list, list]:
    """The "p/q" texts ("p" when q is 1) and the floats of rationals, from their integer ratios."""
    ratios = [x.as_integer_ratio() for x in values]
    # Int true division rounds correctly, so p / q equals float(x).
    return [f"{p}/{q}" if q != 1 else str(p) for p, q in ratios], [p / q for p, q in ratios]


def _exact(**values) -> dict:
    """Each value as a "p/q" string under its name, then as a float under ``<name>_decimal``."""
    doc = {}
    for name, text, decimal in zip(values, *_rationals(values.values())):
        doc[name] = text
        doc[f"{name}_decimal"] = decimal
    return doc


def _coordinates_doc(point) -> dict:
    """A coordinate dataclass's fields, in order, as "p/q" strings and as floats."""
    texts, decimals = _rationals(vars(point).values())
    return {"rational": dict(zip(vars(point), texts)), "decimal": dict(zip(vars(point), decimals))}


def _matrix_doc(P: PayoffMatrix) -> dict:
    texts, decimals = _rationals(P.entries())
    return {"rational": [texts[:2], texts[2:]], "decimal": [decimals[:2], decimals[2:]]}


def _mixed_doc(P: PayoffMatrix, p) -> Optional[dict]:
    if p is None:
        return None
    return _exact(p=p, value=expected_payoff(P, p))


def _positions_doc(positions) -> list:
    return [list(pos) for pos in sorted(positions)]


def _decomposition_doc(P: PayoffMatrix) -> dict:
    dec = decompose(P)
    weights, weights_decimal = _rationals(dec.weights)
    return {
        "region": {"id": dec.region.id, "ordering": dec.region.ordering_text},
        **_exact(offset=dec.trivial_offset, scale=dec.scale),
        "weights": weights,
        "weights_decimal": weights_decimal,
        "vertices": [
            {"direction": d[:], "matrix": {"rational": [r0[:], r1[:]], "decimal": [f0[:], f1[:]]}}
            for d, (r0, r1), (f0, f1) in (_VERTEX_ROWS[v.direction] for v in dec.vertices)
        ],
        "reconstruction_exact": reconstruct(dec) == P,
    }


# Each vertex's direction, rational rows and decimal rows, built once; a report copies the lists.
_VERTEX_ROWS = {d: ([int(x) for x in d], *_matrix_doc(v.matrix).values()) for d, v in CANONICAL_MATRICES.items()}
# Each class row's game_class fields after "index", built once; a report copies the dict.
_CLASS_DOCS = [
    {"display_name": row.display_name, "category": row.category.value, "po_status": row.po_status.value,
     "payoff_comparison": row.payoff_comparison.value, **_exact(fraction=row.fraction)}
    for row in CLASS_TABLE
]
# decompose.v1's decomposition section for a constant matrix: every key, all None.
_NO_DECOMPOSITION = dict.fromkeys(_decomposition_doc(REGIONS[0].representative()))

# report.v1's keys in document order; build_report fills in those that apply.
_REPORT_KEYS = (
    "schema", "degenerate", "matrix", "g_vector", "boundary", "region", "game_class", "nash_equilibria",
    "pareto_optima", "mixed_nash", "mixed_pareto", "comparison", "cube_point", "map_point", "decomposition",
)


def build_report(P: PayoffMatrix) -> dict:
    """The report.v1 document for a game; total over degenerate inputs."""
    report = dict.fromkeys(_REPORT_KEYS)
    report.update(schema="report.v1", matrix=_matrix_doc(P), g_vector=_coordinates_doc(g_transform(P)))
    try:
        cls = classify(P)
    except TrivialGame:
        report["degenerate"] = "trivial"
    except BoundaryGame as exc:
        report["degenerate"] = "boundary"
        report["boundary"] = {
            "tied_pairs": [list(pair) for pair in exc.tied_pairs],
            "adjacent_region_ids": list(exc.adjacent_region_ids),
        }
    else:
        ne, po, p_ne, p_po = cls.ne_set, cls.po_set, cls.mixed_ne, cls.mixed_po
        report["region"] = {"id": cls.region.id, "ordering": cls.region.ordering_text}
        k = REGION_ROW[cls.region.id]
        report["game_class"] = {"index": k, **_CLASS_DOCS[k]}
        if cls.comparison_values is not None:
            ne_value, po_value = cls.comparison_values
            report["comparison"] = _exact(ne_value=ne_value, po_value=po_value)
    if report["degenerate"] is not None:
        ne, po, p_ne, p_po = pure_nash_set(P), relaxed_po_set(P), mixed_nash(P), mixed_po(P)
    report["nash_equilibria"], report["pareto_optima"] = _positions_doc(ne), _positions_doc(po)
    report["mixed_nash"], report["mixed_pareto"] = _mixed_doc(P, p_ne), _mixed_doc(P, p_po)
    if report["degenerate"] == "trivial":
        return report
    report["cube_point"] = _coordinates_doc(normalize_cube(P))
    mp = map_point(P)
    (u, v), (u_decimal, v_decimal) = _rationals((mp.u, mp.v))
    report["map_point"] = {
        "u": u, "v": v, "u_decimal": u_decimal, "v_decimal": v_decimal, "face": mp.face_tag
    }
    report["decomposition"] = _decomposition_doc(P)
    return report


def _format_positions(entries) -> str:
    return " ".join(f"({i},{j})" for i, j in entries)


def _format_matrix(matrix_doc: dict) -> str:
    (a, b), (c, d) = matrix_doc["rational"]
    return f"[[{a},{b}],[{c},{d}]]"


def _report_text(report: dict) -> str:
    g = " ".join(f"{k}={v}" for k, v in report["g_vector"]["rational"].items())
    lines = [f"matrix: {_format_matrix(report['matrix'])}", f"g-vector: {g}"]
    if report["degenerate"] == "trivial":
        lines.append("degenerate: trivial (constant matrix; no region, map point, or decomposition)")
    elif report["degenerate"] == "boundary":
        b = report["boundary"]
        ties = ", ".join("=".join(pair) for pair in b["tied_pairs"])
        lines.append(f"degenerate: boundary (tied entries {ties})")
        lines.append("adjacent regions: " + " ".join(str(i) for i in b["adjacent_region_ids"]))
    else:
        lines.append(f"region: {report['region']['id']} ({report['region']['ordering']})")
        gc = report["game_class"]
        lines.append(
            f"class: {gc['display_name']} [{gc['category']} / {gc['po_status']} / "
            f"{gc['payoff_comparison']}], fraction {gc['fraction']}"
        )
    lines.append(f"nash equilibria: {_format_positions(report['nash_equilibria'])}")
    lines.append(f"relaxed pareto optima: {_format_positions(report['pareto_optima'])}")
    for key, label in (("mixed_nash", "mixed nash"), ("mixed_pareto", "mixed pareto")):
        m = report[key]
        lines.append(f"{label}: none" if m is None else f"{label}: p={m['p']} value={m['value']}")
    if report["comparison"] is not None:
        comp = report["comparison"]
        lines.append(f"comparison: NE payoff {comp['ne_value']} vs PO payoff {comp['po_value']}")
    mp = report["map_point"]
    if mp is not None:
        lines.append(f"map point: u={mp['u']} v={mp['v']} (face {mp['face']})")
    dec = report["decomposition"]
    if dec is not None:
        vertices = ", ".join(_format_matrix(v["matrix"]) for v in dec["vertices"])
        lines.append(
            f"decomposition: offset {dec['offset']}, scale {dec['scale']}, "
            f"weights {', '.join(dec['weights'])} over {vertices}"
        )
        lines.append(f"reconstruction exact: {dec['reconstruction_exact']}")
    return "\n".join(lines) + "\n"


def _matrix_arg(text: str) -> PayoffMatrix:
    stripped = text.strip()
    if stripped.startswith("{"):
        try:
            # Numbers stay literal text, so the payoff bounds apply to them.
            obj = json.loads(stripped, parse_float=str, parse_int=str)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"bad JSON matrix: {exc}") from exc
        return matrix_from_json(obj)
    return parse_matrix(stripped)


def _count(text: str) -> int:
    """A count on the command line: an integer payoff literal of at most 64 characters, so no "_"."""
    if len(text) > 64 or not _INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")  # argparse's words for int()
    return int(text)


def _parse_trajectory_spec(text: str):
    parts = text.split(";")
    if len(parts) != 5:
        raise ValueError(
            "trajectory spec must be 'a,b;c,d;e,f;g,h;n' "
            f"(start matrix, end matrix, sample count), got {_quote(text)}"
        )
    start = parse_matrix(";".join(parts[0:2]))
    end = parse_matrix(";".join(parts[2:4]))
    try:
        n = _count(parts[4])
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"bad sample count {_quote(parts[4])} in trajectory spec") from exc
    if not 2 <= n <= _MAX_TRAJECTORY_SAMPLES:  # a negative count must not offset the total
        raise ValueError(f"trajectory sample count must be from 2 to {_MAX_TRAJECTORY_SAMPLES:,}")
    return start, end, n


def _cmd_classify(args) -> tuple[str, int]:
    report = build_report(_matrix_arg(args.matrix))
    return (json.dumps(report, indent=2) + "\n" if args.json else _report_text(report)), 0


def _cmd_map(args) -> tuple[str, int]:
    specs = [_parse_trajectory_spec(text) for text in args.trajectory or ()]
    if sum(n for _, _, n in specs) > _MAX_TRAJECTORY_SAMPLES:
        raise ValueError(f"--trajectory sample counts must total at most {_MAX_TRAJECTORY_SAMPLES:,}")
    markers = []
    if args.points:
        try:
            with open(args.points, encoding="utf-8-sig") as fh:
                text = fh.read(_MAX_POINTS_CHARS + 1)
        except (OSError, UnicodeDecodeError) as exc:
            why = "not UTF-8 text" if isinstance(exc, UnicodeDecodeError) else exc.strerror
            raise ValueError(f"--points file {_quote(args.points)}: {why}") from exc
        # No pieces means too long ("".split gives [""]); a final "\n" leaves a last piece "", not a line.
        lines = text.split("\n", _MAX_MARKERS) if len(text) <= _MAX_POINTS_CHARS else []
        if not lines or any(lines[_MAX_MARKERS:]):
            limits = f"{_MAX_MARKERS:,} lines or {_MAX_POINTS_CHARS:,} characters"
            raise ValueError(f"--points file {_quote(args.points)} exceeds {limits}")
        for P in matrices_from_lines(lines):
            try:
                markers.append((map_point(P), str(P)))
            except TrivialGame:
                _stderr(f"warning: skipping constant matrix {P} (no map point)")
    trajectories = [[s.point for s in trajectory(*spec)] for spec in specs]
    return render_map(markers=markers, trajectories=trajectories), 0


def _estimate_doc(exact: Fraction, count: int, n: int) -> dict:
    doc = _exact(exact=exact)
    p = count / n
    abs_error = abs(p - doc["exact_decimal"])
    return {**doc, "estimate": p, "abs_error": abs_error, "std_error": math.sqrt(p * (1.0 - p) / n)}


def _fractions_doc(report) -> dict:
    n = report.n_samples
    classes = [
        {
            "index": k,
            "name": record.display_name,
            **_estimate_doc(record.fraction, report.class_counts[k], n),
        }
        for k, record in enumerate(CLASS_TABLE)
    ]
    regions = [
        {
            "id": region.id,
            "ordering": region.ordering_text,
            "class_index": REGION_ROW[region.id],
            **_estimate_doc(Fraction(1, 24), report.region_counts[region.id], n),
        }
        for region in REGIONS
    ]
    return {
        "schema": "fractions.v1",
        "samples": n,
        "seed": report.seed,
        "workers": report.n_workers,
        "classes": classes,
        "regions": regions,
    }


def _cmd_fractions(args) -> tuple[str, int]:
    if not 1 <= args.samples <= _MAX_SAMPLES:
        raise ValueError(f"--samples must be from 1 to {_MAX_SAMPLES:,}")
    if not 1 <= args.workers <= _MAX_WORKERS:
        raise ValueError(f"--workers must be from 1 to {_MAX_WORKERS:,}")
    if args.seed < 0:
        raise ValueError("--seed must be >= 0")
    report = mc_region_fractions(args.samples, args.seed, args.workers)
    doc = _fractions_doc(report)
    if args.format == "json":
        return json.dumps(doc, indent=2) + "\n", 0
    columns = ("estimate", "abs_error", "std_error")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["kind", "id", "name", "exact", *columns])
    for kind, rows, key, name in (
        ("class", doc["classes"], "index", "name"),
        ("region", doc["regions"], "id", "ordering"),
    ):
        for row in rows:
            decimals = (f"{row[c]:.9f}" for c in columns)
            writer.writerow([kind, row[key], row[name], row["exact"], *decimals])
    return out.getvalue(), 0


def _cmd_census(args) -> tuple[str, int]:
    counts = census()
    # A region whose ordering no row lists is counted nowhere; the total line flags it.
    ok = covered = len(REGION_ROW) == len(REGIONS)
    lines = [f"{'#':>2}  {'class':<28} {'count':>5} {'expect':>6}  {'fraction':>8}  status"]
    for k, record in enumerate(CLASS_TABLE):
        got, expect = counts[record], len(record.orderings)
        match = got == expect
        ok = ok and match
        lines.append(
            f"{k:>2}  {record.display_name:<28} {got:>5} {expect:>6}"
            f"  {str(record.fraction):>8}  {'ok' if match else 'MISMATCH'}"
        )
    total = sum(counts.values())
    lines.append(f"    {'total':<28} {total:>5} {24:>6}" + ("" if covered else "  MISMATCH"))
    if not ok:
        _stderr("census self-test failed")
    return "\n".join(lines) + "\n", 0 if ok else 1


def _cmd_ordergraph(args) -> tuple[str, int]:
    return to_dot(build_order_graph(_matrix_arg(args.matrix)), simplified=args.simplified), 0


def _cmd_decompose(args) -> tuple[str, int]:
    """The decompose.v1 view of the game's report.v1 document."""
    report = build_report(_matrix_arg(args.matrix))
    degenerate = report["degenerate"]
    doc = {
        "schema": "decompose.v1",
        "degenerate": "trivial" if degenerate == "trivial" else None,
        "boundary": degenerate == "boundary",
        "matrix": report["matrix"],
        **(report["decomposition"] or _NO_DECOMPOSITION),
    }
    return json.dumps(doc, indent=2) + "\n", 0


def _stderr(line: str) -> None:
    """Write one line to stderr; drop it when stderr is closed or fails, never send it to stdout."""
    try:
        if sys.stderr is not None:  # None when fd 2 was closed at start-up
            sys.stderr.write(line + "\n")
    except OSError:
        pass


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line; subparsers share the class."""

    def parse_known_args(self, args=None, namespace=None):
        self._args = sys.argv[1:] if args is None else list(args)  # what an error may show
        return super().parse_known_args(self._args, namespace)

    def _get_values(self, action, arg_strings):
        # Python 3.10-3.12 drop an option's value "--" (as in --samples=--) and give it [], a traceback later
        if action.option_strings and arg_strings == ["--"]:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)

    def error(self, message):
        # argparse shows an argument, or its value after "=", raw or as its repr: cut each as _quote does
        values = {v for arg in self._args for v in (arg, arg.partition("=")[2]) if len(v) > 64}
        for value in sorted(values, key=len, reverse=True):  # an argument before the value in it
            message = message.replace(repr(value), _quote(value)).replace(value, value[:64] + "...")
        _stderr(f"error: {message}")  # Python 3.10's argparse fails on a closed stderr
        sys.exit(2)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="symgame",
        description="Classify, decompose, and map symmetric 2x2 games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="full report for one game")
    p.add_argument("matrix", help="payoff matrix, 'a,b;c,d' or JSON {\"payoff\": [[a,b],[c,d]]}")
    p.add_argument("--json", action="store_true", help="emit the report.v1 JSON document")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("map", help="render the game map as SVG")
    p.add_argument("--points", metavar="FILE", help="file with one matrix per line to mark on the map")
    p.add_argument(
        "--trajectory",
        action="append",
        metavar="SPEC",
        help="'a,b;c,d;e,f;g,h;n': path from the first matrix to the second in n samples",
    )
    p.add_argument("--out", metavar="FILE", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("fractions", help="Monte Carlo estimate of region and class measures")
    p.add_argument("--samples", type=_count, default=1_000_000)
    p.add_argument("--seed", type=_count, default=0)
    streams = "independent sample streams; output is deterministic per (seed, workers)"
    p.add_argument("--workers", type=_count, default=1, help=streams)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_fractions)

    p = sub.add_parser("census", help="self-test: classify the 24 ordinal games")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("ordergraph", help="emit the order graph as DOT")
    p.add_argument("matrix")
    p.add_argument("--simplified", action="store_true", help="nodes and equilibrium marks only")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=_cmd_ordergraph)

    p = sub.add_parser("decompose", help="exact vertex decomposition as JSON")
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_decompose)
    return parser


@contextlib.contextmanager
def _out_errors(path: str):
    """Report an OSError on the --out file as one line that names the flag and the path."""
    try:
        yield
    except OSError as exc:
        raise ValueError(f"--out file {_quote(path)}: {exc.strerror}") from exc


def main(argv: Optional[list] = None) -> int:
    args = _build_parser().parse_args(argv)
    path = getattr(args, "out", None)
    to_stdout, out = path in (None, "-"), None
    fresh = not to_stdout and not os.path.lexists(path)  # a file this run creates goes if it fails
    try:
        if to_stdout and sys.stdout is None:
            raise OSError("stdout is closed")  # fd 1 was closed at start-up
        if not to_stdout:
            with _out_errors(path):  # a bad path fails before any work; append keeps the bytes
                out = open(path, "a", encoding="utf-8")
        text, code = args.func(args)
        if to_stdout:
            sys.stdout.write(text)
            sys.stdout.flush()  # a closed pipe shows here, not at exit
        else:
            with _out_errors(path), out:
                if os.path.isfile(path):  # a device or a pipe has no bytes to replace
                    out.truncate(0)
                out.write(text)
            fresh = False
        return code
    except BrokenPipeError:
        return 141  # 128 + SIGPIPE, silent as for any program killed by it
    except KeyboardInterrupt:
        _stderr("error: interrupted")
        return 130
    except (ValueError, OSError) as exc:
        # Degenerate games are handled inside the commands, so a ValueError
        # here is a parse or usage problem.
        _stderr(f"error: {exc}")
        return 2
    finally:
        if out is not None:
            out.close()
            if fresh:
                os.remove(path)


def console_entry() -> None:
    code = main()
    if code == 141:  # the exit flush would fail again on the buffered output
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    console_entry()
