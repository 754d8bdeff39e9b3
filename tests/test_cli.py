"""CLI behavior through main(): output contracts, schemas, exit codes."""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import errno
import io
import json
import math
import os
import shlex
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
import xml.etree.ElementTree as ET
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

import symgame

from symgame import cli, taxonomy
from symgame.cartography import REGIONS, mc_region_fractions
from symgame.cli import build_report, main
from symgame.payoff import PayoffMatrix
from symgame.taxonomy import census


def _schema(name: str) -> dict:
    text = (resources.files("symgame") / "schemas" / name).read_text(encoding="utf-8")
    return json.loads(text)


def run_cli(capsys, *argv):
    """(exit code, stdout, stderr) of ``main(argv)``, counting a usage exit from the parser as a code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# classify


def test_classify_text_report(capsys) -> None:
    code, out, err = run_cli(capsys, "classify", "3,1;4,2")
    assert code == 0 and err == ""
    assert "matrix: [[3,1],[4,2]]" in out
    assert "g-vector: g0=5 ga=-1 gb=2 gab=0" in out
    assert "region: 13 (c>a>d>b)" in out
    assert "class: Prisoner's Dilemma" in out
    assert "nash equilibria: (1,1)" in out
    assert "relaxed pareto optima: (0,0)" in out
    assert "mixed nash: none" in out
    assert "comparison: NE payoff 2 vs PO payoff 3" in out
    assert "map point: u=-1/2 v=2 (face gb+)" in out
    assert "reconstruction exact: True" in out


# ``classify`` text stdout for a trivial, a boundary and a mixed-equilibrium game.
_TEXT_REPORTS = {
    "1,1;1,1": """\
matrix: [[1,1],[1,1]]
g-vector: g0=2 ga=0 gb=0 gab=0
degenerate: trivial (constant matrix; no region, map point, or decomposition)
nash equilibria: (0,0) (0,1) (1,0) (1,1)
relaxed pareto optima: (0,0) (0,1) (1,0) (1,1)
mixed nash: none
mixed pareto: none
""",
    "1,1;2,3": """\
matrix: [[1,1],[2,3]]
g-vector: g0=7/2 ga=-3/2 gb=-1/2 gab=1/2
degenerate: boundary (tied entries a=b)
adjacent regions: 22 23
nash equilibria: (1,1)
relaxed pareto optima: (0,0) (1,1)
mixed nash: none
mixed pareto: none
map point: u=-5/3 v=-1/3 (face ga-)
decomposition: offset 1, scale 1/2, weights 1/3, 0, 2/3 over [[0,0],[0,6]], [[2,0],[2,2]], [[0,0],[3,3]]
reconstruction exact: True
""",
    "4,2;5,1": """\
matrix: [[4,2],[5,1]]
g-vector: g0=6 ga=0 gb=3 gab=-1
region: 12 (c>a>b>d)
class: Chicken [two-non-diagonal-ne / one-po / ne-less], fraction 1/24
nash equilibria: (0,1) (1,0)
relaxed pareto optima: (0,0)
mixed nash: p=1/2 value=3
mixed pareto: none
comparison: NE payoff 3 vs PO payoff 4
map point: u=0 v=7/3 (face gb+)
decomposition: offset 1, scale 4/3, weights 1/8, 3/8, 1/2 over [[0,0],[6,0]], [[2,2],[2,0]], [[3,0],[3,0]]
reconstruction exact: True
""",
}


@pytest.mark.parametrize("matrix", list(_TEXT_REPORTS), ids=["trivial", "boundary", "mixed"])
def test_classify_text_report_is_pinned(capsys, matrix) -> None:
    code, out, err = run_cli(capsys, "classify", matrix)
    assert code == 0 and err == ""
    assert out == _TEXT_REPORTS[matrix]


def test_classify_json_matches_schema(capsys) -> None:
    code, out, _ = run_cli(capsys, "classify", "3,1;4,2", "--json")
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, _schema("report.v1.json"))
    assert report["schema"] == "report.v1"
    assert report["degenerate"] is None
    assert report["region"] == {"id": 13, "ordering": "c>a>d>b"}
    assert report["game_class"]["display_name"] == "Prisoner's Dilemma"
    assert report["game_class"]["fraction"] == "1/12"
    assert report["nash_equilibria"] == [[1, 1]]
    assert report["pareto_optima"] == [[0, 0]]
    assert report["mixed_nash"] is None
    assert report["map_point"] == {
        "u": "-1/2", "v": "2", "u_decimal": -0.5, "v_decimal": 2.0, "face": "gb+",
    }
    dec = report["decomposition"]
    assert dec["reconstruction_exact"] is True
    assert dec["offset"] == "1"


def test_classify_reports_mixed_profiles(capsys) -> None:
    code, out, _ = run_cli(capsys, "classify", "4,2;5,1", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["game_class"]["display_name"] == "Chicken"
    assert report["mixed_nash"] == {
        "p": "1/2", "p_decimal": 0.5, "value": "3", "value_decimal": 3.0,
    }
    assert report["comparison"]["ne_value"] == "3"
    assert report["comparison"]["po_value"] == "4"


def test_classify_constant_matrix_reports_degenerate(capsys) -> None:
    code, out, _ = run_cli(capsys, "classify", "1,1;1,1", "--json")
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, _schema("report.v1.json"))
    assert report["degenerate"] == "trivial"
    assert report["region"] is None and report["map_point"] is None
    assert report["decomposition"] is None
    assert report["nash_equilibria"] == [[0, 0], [0, 1], [1, 0], [1, 1]]


def test_classify_boundary_matrix_reports_neighbours(capsys) -> None:
    code, out, _ = run_cli(capsys, "classify", "3,3;0,0", "--json")
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, _schema("report.v1.json"))
    assert report["degenerate"] == "boundary"
    assert report["boundary"] == {
        "tied_pairs": [["a", "b"], ["c", "d"]],
        "adjacent_region_ids": [0, 1, 6, 7],
    }
    assert report["region"] is None and report["game_class"] is None
    assert report["decomposition"]["reconstruction_exact"] is True


def test_classify_accepts_json_matrices_with_exact_decimals(capsys) -> None:
    code, out, _ = run_cli(capsys, "classify", '{"payoff": [[0.5, 0], [1, 0.25]]}', "--json")
    assert code == 0
    report = json.loads(out)
    assert report["matrix"]["rational"] == [["1/2", "0"], ["1", "1/4"]]
    assert report == build_report(PayoffMatrix("1/2", 0, 1, "1/4"))


def test_reports_share_no_vertex_document() -> None:
    """Editing one report's vertex matrices leaves the next report over the same vertices unchanged."""
    first, second = PayoffMatrix(3, 1, 4, 2), PayoffMatrix(5, 1, 6, 2)
    expected = json.dumps(build_report(second))
    report = build_report(first)
    assert report["region"] == json.loads(expected)["region"]
    for vertex in report["decomposition"]["vertices"]:
        for rows in vertex["matrix"].values():
            rows[0][0] = None
            rows.append([])
        vertex["matrix"]["decimal"] = None
    assert json.dumps(build_report(second)) == expected


def test_classify_parse_errors_exit_2(capsys) -> None:
    for bad in ("1,2;3", "1,x;3,4", '{"payoff": [[1, 2]]}', "{oops"):
        code, out, err = run_cli(capsys, "classify", bad)
        assert code == 2, bad
        assert out == "" and err.startswith("error:")
    _, _, err = run_cli(capsys, "classify", "1,x;3,4")
    assert "'x'" in err


# Stands for a --points file of 100,001 lines, one more than ``map`` accepts.
_MANY_POINTS = "<100,001 points>"


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--", '{"payoff": [[true, false], [2, 3]]}'),
        ("classify", "--", "1e400,1;2,3"),
        ("classify", "--", "1e-999999,1;2,3"),
        ("classify", "--", '{"payoff": [[1e400, 0], [2, 3]]}'),
        ("classify", "--", "1" * 65 + ",1;2,3"),
        ("classify", "--", "{\"payoff\": [[" + "1" * 5000 + ", 0], [2, 3]]}"),
        ("classify", "--", "9" * 60 + "e300,1;2,3"),
        ("classify", "--", '{"payoff": [[Infinity, 0], [2, 3]]}'),
        ("classify", "--", '{"payoff": [1, 2]}'),
        ("classify", "--", '{"payoff": [[1, 2], [3]]}'),
        ("classify", "--", '{"payoff": ' + "[" * 100_000),
        ("fractions", "--samples", "1000000001"),
        ("fractions", "--samples", "1000000000000000"),
        ("fractions", "--samples", "1000000000", "--workers", "1000000000"),
        ("fractions", "--samples", "10", "--seed", "-1"),
        ("fractions", "--samples=1_000"),
        ("fractions", "--samples", "10", "--seed=0_1"),
        ("fractions", "--samples", "10", "--workers=0_2"),
        ("fractions", "--samples", "10", "--seed", "1" * 65),
        ("fractions", "--samples=--"),
        ("map", "--trajectory=1,2;3,4;5,6;7,8;100001"),
        ("map", "--trajectory=1,2;3,4;5,6;7,8;1e3"),
        ("map", "--trajectory=1,2;3,4;5,6;7,8;60000", "--trajectory=4,3;2,1;1,2;3,4;40001"),
        ("map", "--trajectory=1,2;3,4;5,6;7,8;-5"),
        ("map", "--trajectory=1,2;3,4;5,6;7,9;1_0"),
        ("map", "--trajectory=--"),
        ("map", "--points", _MANY_POINTS),
    ],
    ids=[
        "json-bool", "exponent-high", "exponent-low", "json-exponent", "long-literal",
        "json-long-int", "magnitude", "json-infinity", "json-flat-array",
        "json-short-row", "json-deep-nesting",
        "fractions-samples", "fractions-samples-huge", "fractions-workers", "fractions-seed",
        "samples-underscore", "seed-underscore", "workers-underscore", "seed-65-digits", "samples-dashes",
        "trajectory-samples", "trajectory-count", "trajectory-total", "trajectory-negative",
        "trajectory-underscore", "trajectory-dashes",
        "map-markers",
    ],
)
def test_classify_hostile_input_exits_2(capsys, tmp_path, argv) -> None:
    """Hostile input to any command exits 2 with one error line."""
    if _MANY_POINTS in argv:
        points = tmp_path / "points.txt"
        points.write_text("3,1;4,2\n" * 100_001, encoding="utf-8")
        argv = tuple(str(points) if arg == _MANY_POINTS else arg for arg in argv)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == "" and err.startswith("error:") and err.count("\n") == 1
    assert "int_max_str_digits" not in err


def test_counts_keep_their_sign_and_whitespace(capsys) -> None:
    """Counts are integer payoff literals: a sign and whitespace around the digits read as before."""
    assert run_cli(capsys, "fractions", "--samples=+10", "--seed= 3 ") == run_cli(
        capsys, "fractions", "--samples=10", "--seed=3"
    )


def test_a_long_count_exits_2_whatever_the_int_digit_limit() -> None:
    """A count is bounded by its length before it is parsed, not by ``sys.int_info``'s digit limit."""
    argv = [sys.executable, "-m", "symgame", "fractions", "--samples", "10", "--seed", "7" * 5000]
    env = {**_cli_env(), "PYTHONINTMAXSTRDIGITS": "0"}
    result = subprocess.run(argv, capture_output=True, text=True, check=False, env=env, timeout=60)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("error: argument --seed: invalid int value: '") and result.stderr.count("\n") == 1


#: One out-of-range value per ``fractions`` flag, and the error that names it.
FRACTIONS_RANGE_ERRORS = {
    "--seed=-1": "--seed must be >= 0",
    "--samples=0": "--samples must be from 1 to 1,000,000,000",
    "--samples=1000000001": "--samples must be from 1 to 1,000,000,000",
    "--workers=0": "--workers must be from 1 to 10,000",
    "--workers=10001": "--workers must be from 1 to 10,000",
}


@pytest.mark.parametrize("arg", FRACTIONS_RANGE_ERRORS)
def test_fractions_range_errors_name_the_flag(capsys, arg) -> None:
    code, out, err = run_cli(capsys, "fractions", arg)
    assert (code, out, err) == (2, "", f"error: {FRACTIONS_RANGE_ERRORS[arg]}\n")


#: Usage errors that argparse reports, each on a 5,000-digit value.
LONG_USAGE_ERRORS = {
    "samples-value": ("fractions", "--samples", "9" * 5000),
    "workers-value": ("fractions", "--workers", "9" * 5000),
    "unknown-command": ("9" * 5000,),
    "extra-argument": ("census", "9" * 5000),
}


@pytest.mark.parametrize("kind", ["points-line", "trajectory-spec", "json-array", *LONG_USAGE_ERRORS])
def test_error_lines_quote_a_bounded_prefix_of_the_input(capsys, tmp_path, kind) -> None:
    if kind == "points-line":
        points = tmp_path / "points.txt"
        points.write_text("1,2;" * 100_000 + "\n", encoding="utf-8")  # 400 KB
        argv = ("map", "--points", str(points))
    elif kind == "trajectory-spec":
        argv = ("map", "--trajectory=" + "1;" * 20_000)  # 40 KB
    elif kind == "json-array":
        argv = ("classify", "--", '{"payoff": [[[' + ", ".join(["1"] * 5000) + "], 0], [2, 3]]}")
    else:
        argv = LONG_USAGE_ERRORS[kind]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert len(err.encode()) < 200 and "..." in err and "9" * 65 not in err


def test_classify_accepts_literals_at_the_bounds(capsys) -> None:
    for text in ("1e300,-1e300;1e-300,2", "9" * 64 + ",1;2,3"):
        code, _, err = run_cli(capsys, "classify", "--", text)
        assert code == 0 and err == ""


def test_unknown_subcommand_exits_2(capsys) -> None:
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [("fractions", "--samples", "abc"), ("fractions", "--format", "xml"), ("classify",), ("frobnicate",)],
    ids=["bad-int", "bad-choice", "missing-matrix", "unknown-command"],
)
def test_usage_errors_print_one_error_line(capsys, argv) -> None:
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    assert excinfo.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# decompose


def test_decompose_document_frozen(capsys) -> None:
    code, out, _ = run_cli(capsys, "decompose", "--", "-9,-3;-1,1")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, _schema("decompose.v1.json"))
    assert doc["schema"] == "decompose.v1"
    assert doc["degenerate"] is None and doc["boundary"] is False
    assert doc["offset"] == "-9" and doc["offset_decimal"] == -9.0
    assert doc["scale"] == "4"
    assert doc["weights"] == ["3/4", "1/12", "1/6"]
    assert [v["matrix"]["rational"] for v in doc["vertices"]] == [
        [["0", "2"], ["2", "2"]],
        [["0", "0"], ["0", "6"]],
        [["0", "0"], ["3", "3"]],
    ]
    assert doc["region"]["ordering"] == "d>c>b>a"
    assert doc["reconstruction_exact"] is True


def test_decompose_boundary_flagged_not_fatal(capsys) -> None:
    code, out, _ = run_cli(capsys, "decompose", "3,3;0,0")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, _schema("decompose.v1.json"))
    assert doc["boundary"] is True
    assert doc["region"] == {"id": 0, "ordering": "a>b>c>d"}
    assert doc["weights"] == ["0", "0", "1"]
    assert doc["reconstruction_exact"] is True


# Bounded payoff literals: ints, p/q, short decimals, and small pools that
# make tied and constant games common.
_literals = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.builds("{}/{}".format, st.integers(-999, 999), st.integers(1, 999)),
    st.from_regex(r"-?[0-9]{1,3}\.[0-9]{1,3}", fullmatch=True),
)
_games = st.one_of(
    st.lists(_literals, min_size=4, max_size=4),
    st.lists(st.sampled_from(["0", "1", "-1", "1/2", "0.5"]), min_size=4, max_size=4),
    _literals.map(lambda x: [x] * 4),
)


_validators = {
    name: jsonschema.Draft7Validator(_schema(f"{name}.json")) for name in ("report.v1", "decompose.v1")
}


def _stdout(*argv) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(list(argv)) == 0
    return buffer.getvalue()


@settings(deadline=None)
@given(_games)
def test_decompose_is_the_reports_decomposition_section(entries) -> None:
    text = "{},{};{},{}".format(*entries)
    report = json.loads(_stdout("classify", "--json", "--", text))
    doc = json.loads(_stdout("decompose", "--", text))
    _validators["report.v1"].validate(report)
    _validators["decompose.v1"].validate(doc)
    assert doc["matrix"] == report["matrix"]
    assert doc["degenerate"] == ("trivial" if report["degenerate"] == "trivial" else None)
    assert doc["boundary"] is (report["degenerate"] == "boundary")
    rest = {k: v for k, v in doc.items() if k not in ("schema", "degenerate", "boundary", "matrix")}
    if report["decomposition"] is None:
        assert report["degenerate"] == "trivial"
        assert all(v is None for v in rest.values())
    else:
        assert rest == report["decomposition"]


_small = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6))


def _report(entries) -> dict:
    return json.loads(_stdout("classify", "--json", "--", "{},{};{},{}".format(*entries)))


@settings(deadline=None, max_examples=60)
@given(
    st.lists(_small, min_size=4, max_size=4, unique=True),
    st.builds(Fraction, st.integers(1, 20), st.integers(1, 6)),
    _small,
)
def test_reports_are_invariant_under_scale_offset_and_transpose(entries, k, offset) -> None:
    """k*P + offset keeps every scale-free field; the transpose swaps NE and PO."""
    report = _report(entries)
    moved = _report([k * x + offset for x in entries])
    for key in ("region", "game_class", "nash_equilibria", "pareto_optima", "cube_point", "map_point"):
        assert moved[key] == report[key], key
    for key in ("mixed_nash", "mixed_pareto"):
        assert (moved[key] or {}).get("p") == (report[key] or {}).get("p"), key
    for key in ("region", "weights"):
        assert moved["decomposition"][key] == report["decomposition"][key], key
    a, b, c, d = entries
    transposed = _report([a, c, b, d])
    assert transposed["nash_equilibria"] == report["pareto_optima"]
    assert transposed["pareto_optima"] == report["nash_equilibria"]
    assert transposed["mixed_nash"] == report["mixed_pareto"]
    assert transposed["mixed_pareto"] == report["mixed_nash"]


def test_decompose_trivial_degenerate(capsys) -> None:
    code, out, _ = run_cli(capsys, "decompose", "5,5;5,5")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, _schema("decompose.v1.json"))
    assert doc["degenerate"] == "trivial"
    assert doc["offset"] is None and doc["weights"] is None


_magnitudes = st.integers(-10**300, 10**300)
_rationals = st.one_of(
    _magnitudes,
    st.builds(Fraction, _magnitudes, st.integers(1, 10**300)),
    st.builds(Fraction, st.integers(-10**20, 10**20), st.integers(1, 10**20)),
    st.floats(allow_nan=False, allow_infinity=False).map(Fraction),  # subnormals and exact floats
)


@given(st.lists(_rationals, max_size=6))
def test_rational_texts_and_decimals_are_str_and_float(values) -> None:
    texts, decimals = cli._rationals(values)
    assert texts == [str(x) for x in values]
    assert decimals == [float(x) for x in values]
    assert all(type(x) is float for x in decimals)


# ---------------------------------------------------------------------------
# census and fractions


def test_census_self_test_passes(capsys) -> None:
    code, out, err = run_cli(capsys, "census")
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert len(lines) == 11  # header, nine rows, total
    assert sum(1 for l in lines if l.endswith(" ok")) == 9
    assert "MISMATCH" not in out
    assert lines[-1].split() == ["total", "24", "24"]


def test_census_failure_exits_1(capsys, monkeypatch) -> None:
    def short_census():
        counts = census()
        counts[next(iter(counts))] -= 1
        return counts

    monkeypatch.setattr("symgame.cli.census", short_census)
    code, out, err = run_cli(capsys, "census")
    assert code == 1
    assert "MISMATCH" in out
    assert err == "census self-test failed\n"


_ROWS = taxonomy.CLASS_TABLE


@pytest.mark.parametrize(
    "orderings, mismatched",
    [
        ({0: _ROWS[8].orderings, 8: _ROWS[0].orderings}, [0, 8]),  # Cholesterol <-> Two non-diagonal PO
        ({1: _ROWS[1].orderings + ("a>b>c>d",)}, [0, 1]),  # a Cholesterol ordering also under Deadlock
    ],
    ids=["swapped-rows", "ordering-listed-twice"],
)
def test_census_fails_on_a_corrupted_class_table(capsys, monkeypatch, orderings, mismatched) -> None:
    rows = tuple(dataclasses.replace(row, orderings=orderings.get(k, row.orderings)) for k, row in enumerate(_ROWS))
    region_row = {r.id: k for r in REGIONS for k, row in enumerate(rows) if r.ordering_text in row.orderings}
    monkeypatch.setattr(taxonomy, "CLASS_TABLE", rows)
    monkeypatch.setattr(taxonomy, "REGION_ROW", region_row)
    monkeypatch.setattr(cli, "CLASS_TABLE", rows)
    code, out, err = run_cli(capsys, "census")
    assert code == 1
    assert err == "census self-test failed\n"
    assert [int(line.split()[0]) for line in out.splitlines() if line.endswith(" MISMATCH")] == mismatched


def test_fractions_csv_layout_and_determinism(capsys) -> None:
    argv = ("fractions", "--samples", "20000", "--seed", "3")
    code, out1, _ = run_cli(capsys, *argv)
    assert code == 0
    code, out2, _ = run_cli(capsys, *argv)
    assert code == 0 and out1 == out2
    lines = out1.strip().splitlines()
    assert lines[0] == "kind,id,name,exact,estimate,abs_error,std_error"
    assert len(lines) == 1 + 9 + 24
    rows = list(csv.reader(io.StringIO(out1)))[1:]
    class_rows = [r for r in rows if r[0] == "class"]
    region_rows = [r for r in rows if r[0] == "region"]
    assert len(class_rows) == 9 and len(region_rows) == 24
    assert class_rows[0][:4] == ["class", "0", "Cholesterol: friend or foe", "1/6"]
    assert region_rows[0][:4] == ["region", "0", "a>b>c>d", "1/24"]
    # Nine decimal places on every numeric column.
    for row in rows:
        for value in row[4:]:
            assert len(value.split(".")[1]) == 9


def test_fractions_json_matches_schema(capsys) -> None:
    code, out, _ = run_cli(
        capsys, "fractions", "--samples", "5000", "--seed", "1", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, _schema("fractions.v1.json"))
    assert doc["samples"] == 5000 and doc["workers"] == 1
    assert [row["exact"] for row in doc["classes"]] == [
        "1/6", "1/12", "1/12", "1/8", "1/24", "1/4", "1/24", "1/24", "1/6",
    ]
    assert abs(sum(row["estimate"] for row in doc["classes"]) - 1.0) < 1e-12
    assert all(row["exact"] == "1/24" for row in doc["regions"])
    validator = jsonschema.Draft7Validator(_schema("fractions.v1.json"))
    negative_seed = {**doc, "seed": -1}
    negative_error = json.loads(out)
    negative_error["regions"][3]["std_error"] = -0.1
    for bad in (negative_seed, negative_error):
        assert not validator.is_valid(bad)


@pytest.mark.parametrize(
    "argv", [("--samples", "5000", "--seed", "23", "--workers", "2"), ("--samples", "1")], ids=["5000-23-2", "1"],
)
def test_fractions_rows_follow_from_their_counts(capsys, argv) -> None:
    code, out, _ = run_cli(capsys, "fractions", *argv, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    n = doc["samples"]
    report = mc_region_fractions(n, doc["seed"], doc["workers"])

    def count(row) -> int:
        p = row["estimate"]
        c = round(p * n)
        assert p == c / n  # c / n * n need not round back to c in floats, so redo the division
        assert row["std_error"] == pytest.approx(math.sqrt(p * (1 - p) / n), rel=1e-12)
        assert row["exact_decimal"] == float(Fraction(row["exact"]))
        assert row["abs_error"] == abs(p - row["exact_decimal"])
        return c

    region_counts = tuple(count(row) for row in doc["regions"])
    class_counts = tuple(count(row) for row in doc["classes"])
    assert region_counts == report.region_counts and class_counts == report.class_counts
    rolled = [0] * 9
    for row, c in zip(doc["regions"], region_counts):
        rolled[row["class_index"]] += c
    assert tuple(rolled) == class_counts
    assert sum(region_counts) == n


def test_fractions_single_sample(capsys) -> None:
    code, out, _ = run_cli(
        capsys, "fractions", "--samples", "1", "--format", "json", "--seed", "9",
    )
    assert code == 0
    doc = json.loads(out)
    estimates = sorted(row["estimate"] for row in doc["classes"])
    assert estimates == [0.0] * 8 + [1.0]


def test_fractions_worker_split_is_deterministic(capsys) -> None:
    argv = ("fractions", "--samples", "9999", "--seed", "2", "--workers", "3")
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_interrupt_exits_130_with_one_line(capsys, monkeypatch) -> None:
    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "mc_region_fractions", interrupted)
    try:
        code, out, err = run_cli(capsys, "fractions", "--samples", "10", "--workers", "2")
    except KeyboardInterrupt:
        pytest.fail("main() let KeyboardInterrupt escape")
    assert (code, out, err) == (130, "", "error: interrupted\n")


def _cli_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(Path(symgame.__file__).parents[1])}


def test_ctrl_c_ends_a_pooled_fractions_run_promptly() -> None:
    """SIGINT stops every stream at its next block, not at the end of the run."""
    script = (
        "import sys; from symgame import cli; print('ready', flush=True); "
        "sys.argv[1:] = ['fractions', '--samples', '1000000000', '--workers', '2']; "
        "cli.console_entry()"
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", script],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_cli_env(),
    )
    try:
        assert proc.stdout.readline() == "ready\n"
        time.sleep(0.5)  # into the sampler, which takes a minute for 10^9 samples
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=20)
    finally:
        proc.kill()
        proc.wait()
    assert (proc.returncode, out, err) == (130, "", "error: interrupted\n")


@pytest.mark.parametrize("command", ["census", "map-points"])
def test_closed_stdout_pipe_exits_141_silently(tmp_path, command) -> None:
    """A reader that has gone ends the run quietly, with 128 + SIGPIPE."""
    argv = ["census"]
    if command == "map-points":
        points = tmp_path / "points.txt"
        points.write_text("3,1;4,2\n" * 3000, encoding="utf-8")
        argv = ["map", "--points", str(points)]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "symgame", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=_cli_env(), timeout=60, check=False,
        )
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (141, b"")


@pytest.mark.parametrize(
    "argv", [["census"], ["fractions", "--samples", "10"], ["classify", "3,1;4,2"], ["map", "--out", "-"]],
)
def test_closed_stdout_at_start_up_exits_2_with_one_line(capsys, monkeypatch, argv) -> None:
    """With fd 1 closed, CPython sets sys.stdout to None: a stdout run exits 2 with one line."""
    monkeypatch.setattr(sys, "stdout", None)
    code = main(argv)
    assert (code, capsys.readouterr().err) == (2, "error: stdout is closed\n")


def test_closed_stdout_does_not_stop_a_run_with_out(capsys, monkeypatch, tmp_path) -> None:
    target = tmp_path / "map.svg"
    monkeypatch.setattr(sys, "stdout", None)
    code = main(["map", "--out", str(target)])
    assert (code, capsys.readouterr().err) == (0, "")
    assert ET.parse(target).getroot().tag == "{http://www.w3.org/2000/svg}svg"


@pytest.mark.parametrize("command, expected", [("census", 2), ("map", 0)])
def test_python_m_with_fd_1_closed(tmp_path, command, expected) -> None:
    """The console entry point, run as ``python -m symgame ... >&-``."""
    target = tmp_path / "map.svg"
    argv = ["census"] if command == "census" else ["map", "--out", str(target)]
    result = subprocess.run(
        shlex.join([sys.executable, "-m", "symgame", *argv]) + " >&-", shell=True,
        stderr=subprocess.PIPE, text=True, env=_cli_env(), timeout=60, check=False,
    )
    if expected == 0:
        assert (result.returncode, result.stderr) == (0, "")
        assert ET.parse(target).getroot().tag == "{http://www.w3.org/2000/svg}svg"
    else:
        assert (result.returncode, result.stderr) == (2, "error: stdout is closed\n")


class _FailingStderr(io.StringIO):
    """A stderr on an fd reused read-only, as a closed fd 2 can be before Python starts."""

    def write(self, text):
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))


@pytest.mark.parametrize("stderr", [None, _FailingStderr()], ids=["closed", "failing"])
def test_closed_or_failing_stderr_never_reaches_stdout(capsys, monkeypatch, tmp_path, stderr) -> None:
    """With fd 2 closed, CPython sets sys.stderr to None: error and warning lines are dropped."""
    points = tmp_path / "points.txt"
    points.write_text("3,1;4,2\n1,1;1,1\n", encoding="utf-8")
    monkeypatch.setattr(sys, "stderr", stderr)
    assert (main(["classify", "1,x"]), capsys.readouterr().out) == (2, "")
    with pytest.raises(SystemExit) as usage:
        main(["fractions", "--samples", "abc"])
    assert (usage.value.code, capsys.readouterr().out) == (2, "")
    assert main(["map", "--points", str(points)]) == 0
    assert ET.fromstring(capsys.readouterr().out).tag == "{http://www.w3.org/2000/svg}svg"


@pytest.mark.parametrize("command, expected", [("classify", 2), ("map", 0)])
def test_python_m_with_fd_2_closed(tmp_path, command, expected) -> None:
    """The console entry point, run as ``python -m symgame ... 2>&-``: stdout holds the document or nothing."""
    points = tmp_path / "points.txt"
    points.write_text("1,1;1,1\n", encoding="utf-8")
    argv = ["classify", "1,x"] if command == "classify" else ["map", "--points", str(points)]
    result = subprocess.run(
        shlex.join([sys.executable, "-m", "symgame", *argv]) + " 2>&-", shell=True,
        stdout=subprocess.PIPE, text=True, env=_cli_env(), timeout=60, check=False,
    )
    assert result.returncode == expected
    if expected == 0:
        assert ET.fromstring(result.stdout).tag == "{http://www.w3.org/2000/svg}svg"
    else:
        assert result.stdout == ""


# ---------------------------------------------------------------------------
# ordergraph and map


def test_ordergraph_stdout_and_file_output(capsys, tmp_path) -> None:
    code, out, _ = run_cli(capsys, "ordergraph", "3,1;4,2")
    assert code == 0
    assert out.startswith("digraph order_graph {")
    assert out.count("->") == 8
    target = tmp_path / "graph.dot"
    code, _, _ = run_cli(capsys, "ordergraph", "3,1;4,2", "--out", str(target))
    assert code == 0
    assert target.read_text(encoding="utf-8") == out


@pytest.mark.parametrize("command", ["map", "ordergraph"])
def test_stdout_and_out_give_the_same_bytes(capsysbinary, monkeypatch, tmp_path, command) -> None:
    """The document is written once, whatever the target; a warning on a closed stderr adds nothing."""
    points = tmp_path / "points.txt"
    points.write_text("3,1;4,2\n1,1;1,1\n", encoding="utf-8")
    argv = {
        "map": ["map", "--points", str(points), "--trajectory=-9,-3;-1,1;9,15;5,7;21"],
        "ordergraph": ["ordergraph", "3,1;4,2"],
    }[command]
    target = tmp_path / "out"
    monkeypatch.setattr(sys, "stderr", None)
    outputs = []
    for out in ([], ["--out", "-"]):
        assert main(argv + out) == 0
        outputs.append(capsysbinary.readouterr().out)
    assert main(argv + ["--out", str(target)]) == 0
    assert capsysbinary.readouterr().out == b""
    outputs.append(target.read_bytes())
    assert outputs[0] and outputs == [outputs[0]] * 3


def test_ordergraph_simplified(capsys) -> None:
    code, out, _ = run_cli(capsys, "ordergraph", "3,1;4,2", "--simplified")
    assert code == 0
    assert "->" not in out and "doublecircle" in out


def test_map_renders_deterministic_svg(capsys, tmp_path) -> None:
    target = tmp_path / "map.svg"
    code, _, _ = run_cli(capsys, "map", "--out", str(target))
    assert code == 0
    svg = target.read_text(encoding="utf-8")
    assert svg.count("<polygon") == 24
    assert svg.rstrip().endswith("</svg>")
    code, _, _ = run_cli(capsys, "map", "--out", str(target))
    assert code == 0
    assert target.read_text(encoding="utf-8") == svg


def test_map_marks_points_and_warns_on_constant(capsys, tmp_path) -> None:
    points = tmp_path / "points.txt"
    points.write_text("3,1;4,2\n\n# a comment\n2,2;2,2\n", encoding="utf-8")
    target = tmp_path / "map.svg"
    code, _, err = run_cli(capsys, "map", "--points", str(points), "--out", str(target))
    assert code == 0
    assert "skipping constant matrix [[2,2],[2,2]]" in err
    svg = target.read_text(encoding="utf-8")
    assert "[[3,1],[4,2]]" in svg
    assert "[[2,2],[2,2]]" not in svg


def test_map_reads_a_points_file_saved_with_a_byte_order_mark(capsys, tmp_path) -> None:
    points = tmp_path / "points.txt"
    points.write_bytes(b"\xef\xbb\xbf3,1;4,2\n")
    target = tmp_path / "map.svg"
    code, _, err = run_cli(capsys, "map", "--points", str(points), "--out", str(target))
    assert (code, err) == (0, "")
    root = ET.fromstring(target.read_text(encoding="utf-8"))
    assert sum(c.get("r") == "0.07" for c in root.iter("{http://www.w3.org/2000/svg}circle")) == 1


def test_map_trajectory_flag(capsys, tmp_path) -> None:
    target = tmp_path / "map.svg"
    code, _, _ = run_cli(
        capsys, "map", "--trajectory=-9,-3;-1,1;9,15;5,7;21", "--out", str(target),
    )
    assert code == 0
    svg = target.read_text(encoding="utf-8")
    assert "<polyline" in svg


def test_map_bad_inputs_exit_2(capsys, monkeypatch, tmp_path) -> None:
    code, _, err = run_cli(capsys, "map", "--trajectory=1,2;3,4;5")
    assert code == 2 and "trajectory spec" in err
    monkeypatch.chdir(tmp_path)
    Path("latin.txt").write_bytes(b"1,2;3,4\n5,6;7,8\n\xff\n")
    # Each file error names its flag and its path.
    for path, why in (
        ("missing.txt", "No such file or directory"),
        (".", "Is a directory"),
        ("latin.txt", "not UTF-8 text"),
    ):
        code, _, err = run_cli(capsys, "map", "--points", path)
        assert (code, err) == (2, f"error: --points file {path!r}: {why}\n")
    for command, path, why in (
        (["map"], "missing/map.svg", "No such file or directory"),
        (["ordergraph", "3,1;4,2"], ".", "Is a directory"),
    ):
        code, _, err = run_cli(capsys, *command, "--out", path)
        assert (code, err) == (2, f"error: --out file {path!r}: {why}\n")


@pytest.mark.parametrize("command", ["map", "ordergraph"])
def test_an_unwritable_out_fails_before_the_command_runs(capsys, monkeypatch, command) -> None:
    def never(args):
        raise AssertionError("the command ran before --out was opened")

    monkeypatch.setattr(cli, f"_cmd_{command}", never)
    argv = {"map": ["map", "--trajectory=-9,-3;-1,1;9,15;5,7;100000"], "ordergraph": ["ordergraph", "3,1;4,2"]}
    path = "/nonexistent/dir/out"
    code, out, err = run_cli(capsys, *argv[command], "--out", path)
    assert (code, out, err) == (2, "", f"error: --out file {path!r}: No such file or directory\n")


def test_a_failed_command_leaves_out_as_it_was(capsys, monkeypatch, tmp_path) -> None:
    """An existing file keeps its bytes, and a file the run created is removed again."""
    monkeypatch.chdir(tmp_path)
    Path("keep.dot").write_bytes(b"keep\n")
    for path in ("keep.dot", "new.dot"):
        code, out, err = run_cli(capsys, "ordergraph", "1,x", "--out", path)
        assert (code, out, err) == (2, "", "error: expected 2 rows separated by ';', got 1 in '1,x'\n")
    assert Path("keep.dot").read_bytes() == b"keep\n"
    assert not Path("new.dot").exists()


def test_out_replaces_a_longer_file_and_writes_to_a_device(capsys, tmp_path) -> None:
    expected = run_cli(capsys, "ordergraph", "3,1;4,2")[1]
    target = tmp_path / "graph.dot"
    target.write_text("x" * 10 * len(expected), encoding="utf-8")
    assert run_cli(capsys, "ordergraph", "3,1;4,2", "--out", str(target)) == (0, "", "")
    assert target.read_text(encoding="utf-8") == expected
    if os.path.exists(os.devnull):
        assert run_cli(capsys, "ordergraph", "3,1;4,2", "--out", os.devnull) == (0, "", "")


def test_map_points_files_are_bounded_by_size(capsys, monkeypatch, tmp_path) -> None:
    """The file is read up to one character past the cap, so no line can grow without bound."""
    monkeypatch.setattr(cli, "_MAX_POINTS_CHARS", 64)
    monkeypatch.chdir(tmp_path)
    Path("at_cap.txt").write_text("1,2;3,4\n" + "#" * 55 + "\n", encoding="utf-8")  # 8 + 56 characters
    code, out, err = run_cli(capsys, "map", "--points", "at_cap.txt")
    assert (code, err) == (0, "") and out.count("<circle") == 1
    with monkeypatch.context() as patch:  # a final newline ends the last line and starts none
        patch.setattr(cli, "_MAX_MARKERS", 3)
        for text in ("1,2;3,4\n" * 3, "1,2;3,4\n" * 2 + "1,2;3,4", "1,2;3,4\r\n" * 3, "1,2;3,4\x0c\x85\u2028\n" * 3):
            Path("three.txt").write_bytes(text.encode())
            code, out, err = run_cli(capsys, "map", "--points", "three.txt")
            assert (code, err) == (0, "") and out.count("<circle") == 3
        for text in ("1,2;3,4\n" * 4, "1,2;3,4\n" * 3 + "#", "\n" * 4, "1,2;3,4\r" * 4):
            Path("four.txt").write_bytes(text.encode())
            code, out, err = run_cli(capsys, "map", "--points", "four.txt")
            assert (code, out) == (2, "")
            assert err == "error: --points file 'four.txt' exceeds 3 lines or 64 characters\n"
    Path("over.txt").write_text("1,2;3,4\n" + "#" * 56 + "\n", encoding="utf-8")
    for path in ("over.txt", "/dev/zero"):
        if not os.path.exists(path):
            pytest.skip(f"{path} is missing")
        code, out, err = run_cli(capsys, "map", "--points", path)
        assert (code, out) == (2, "")
        assert err == f"error: --points file {path!r} exceeds 100,000 lines or 64 characters\n"


def test_map_points_memory_is_bounded_by_the_cap(capsys) -> None:
    """An endless --points file is read once, to one character past the cap, then refused."""
    if not os.path.exists("/dev/zero"):
        pytest.skip("/dev/zero is missing")
    tracemalloc.start()
    try:
        code = cli.main(["map", "--points", "/dev/zero", "--out", os.devnull])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and "exceeds" in capsys.readouterr().err
    assert peak < 3 * 2 ** 24


# ---------------------------------------------------------------------------
# the exit contract over arbitrary input

_game_texts = _games.map(lambda e: "{},{};{},{}".format(*e))
_matrix_texts = st.one_of(
    st.text(max_size=80),
    st.text(alphabet="0123456789-+./,; eE", max_size=24),
    _game_texts,
    _games.map(lambda e: json.dumps({"payoff": [e[:2], e[2:]]})),
)
_trajectory_specs = st.one_of(
    st.text(max_size=80),
    st.builds("{};{};{}".format, _game_texts, _game_texts, st.integers(-3, 30)),
)
_points_files = st.one_of(
    st.none(),
    st.binary(max_size=200),
    st.lists(_game_texts, max_size=5).map(lambda lines: "\n".join(lines).encode()),
)


def _outcome(argv, stderr_open: bool = True) -> tuple:
    """(exit code, stdout, stderr) of ``main(argv)``, counting a usage exit as a code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err if stderr_open else None):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _assert_error_exit(code, out, err) -> bool:
    """True for an exit 2 with one ``error:`` line and no output; False for exit 0."""
    if code == 0:
        return False
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1
    return True


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(["classify", "decompose", "ordergraph"]), _matrix_texts)
def test_matrix_commands_exit_0_with_a_document_or_2_with_one_error_line(command, text) -> None:
    argv = [command, "--json", "--", text] if command == "classify" else [command, "--", text]
    code, out, err = _outcome(argv)
    assert _outcome(argv, stderr_open=False) == (code, out, "")  # fd 2 closed: the same stdout
    if _assert_error_exit(code, out, err):
        return
    assert err == ""
    if command == "ordergraph":
        assert out.startswith("digraph order_graph {") and out.endswith("}\n")
    else:
        _validators[{"classify": "report.v1", "decompose": "decompose.v1"}[command]].validate(json.loads(out))


@settings(deadline=None, max_examples=30)
@given(_trajectory_specs, _points_files)
def test_map_exits_0_with_an_svg_or_2_with_one_error_line(spec, points) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["map", f"--trajectory={spec}"]
        if points is not None:
            path = Path(tmp) / "points.txt"
            path.write_bytes(points)
            argv += ["--points", str(path)]
        code, out, err = _outcome(argv)
        assert _outcome(argv, stderr_open=False) == (code, out, "")  # fd 2 closed: the same stdout
    if _assert_error_exit(code, out, err):
        return
    assert all(line.startswith("warning: skipping constant matrix") for line in err.splitlines())
    assert ET.fromstring(out).tag == "{http://www.w3.org/2000/svg}svg"


# ---------------------------------------------------------------------------
# installed entry point


@pytest.mark.skipif(shutil.which("symgame") is None, reason="entry point not installed")
def test_console_script_smoke() -> None:
    result = subprocess.run(
        ["symgame", "census"], capture_output=True, text=True, check=False,
    )
    assert result.returncode == 0
    assert "Chicken" in result.stdout


@pytest.mark.parametrize("module", ["symgame", "symgame.cli"])
def test_python_m_runs_the_cli(module) -> None:
    result = subprocess.run(
        [sys.executable, "-m", module, "census"],
        capture_output=True, text=True, check=False, env=_cli_env(), timeout=60,
    )
    assert result.returncode == 0
    assert "Chicken" in result.stdout
    assert result.stdout.strip().splitlines()[-1].split() == ["total", "24", "24"]


def test_importing_the_cli_leaves_the_thread_pool_unloaded() -> None:
    """concurrent.futures, and with it logging, is imported only when ``fractions`` runs."""
    script = "import sys, symgame.cli; print('concurrent.futures' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=False, env=_cli_env(), timeout=60,
    )
    assert (result.returncode, result.stdout) == (0, "False\n")
