"""Tests of the benchmark itself, on tiny sizes of each workload.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import symgame  # noqa: E402
from symgame import cli  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = sorted(workloads.WORKLOADS)


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(harness, "SETUP_PROBES", 1)
    monkeypatch.setattr(harness, "IMPORT_PROBES", 1)
    monkeypatch.setattr(harness, "OUT", tmp_path)
    # In-process streams see the patched sizes and corruptions below.
    monkeypatch.setattr(harness, "slice_in_fresh_process", harness.slice_in_process)
    monkeypatch.setattr(workloads.ReportMixed, "fixed_ops", 12)
    monkeypatch.setattr(workloads.MCFractions, "samples", 200_000)
    monkeypatch.setattr(workloads.MapTrajectories, "markers", 20)
    monkeypatch.setattr(workloads.MapTrajectories, "trajectory_samples", 11)
    monkeypatch.setattr(workloads.MapTrajectories, "fixed_ops", 2)


def _run(workload: str, trace: int, seed: int = 3) -> tuple:
    buf = io.StringIO()
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace)]
    with contextlib.redirect_stdout(buf):
        status = harness.main(argv)
    lines = buf.getvalue().splitlines()
    return status, lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_is_printed_with_its_unit(tiny, workload, trace):
    status, lines, result = _run(workload, trace)
    assert status == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        if not name.startswith(("count.", "bytes.")):
            assert metric["value"] > 0, name
    if not trace:
        unit = workloads.WORKLOADS[workload].unit
        for label in (f"{unit}_per_s", "op_tail_ms = p", "failed_ops_ratio"):
            assert any(label in line for line in lines), label


def test_counts_repeat_for_a_fixed_seed(tiny):
    counted = []
    for _ in range(2):
        _, _, result = _run("map-trajectories", trace=1, seed=11)
        counted.append({
            name: m["value"] for name, m in result["metrics"].items()
            if name.startswith(("count.", "bytes."))
        })
    assert counted[0] == counted[1]
    assert counted[0]["count.ops"] == sum(w.fixed_ops for w in workloads.WORKLOADS.values())


def _comparable(name: str, out):
    if name == "report-mixed":
        text, _, dot = out
        return text, dot
    if name == "mc-fractions":
        return out
    svg, paths = out
    return svg, [[(s.t, s.matrix, s.boundary) for s in path] for path in paths]


@pytest.mark.parametrize("name", NAMES)
def test_verified_outputs_repeat_for_a_fixed_seed(tiny, name):
    outputs = []
    for _ in range(2):
        wl = workloads.WORKLOADS[name](21)
        inputs = [wl.draw() for _ in range(4)]
        outs = [wl.op(inp) for inp in inputs]
        assert all(wl.check(i, o) is None for i, o in zip(inputs, outs))
        outputs.append([_comparable(name, out) for out in outs])
    assert outputs[0] == outputs[1]


def _flip_reconstruction(monkeypatch):
    real = cli.build_report

    def flipped(P):
        report = real(P)
        if report["decomposition"] is not None:
            report["decomposition"]["reconstruction_exact"] = False
        return report

    monkeypatch.setattr(cli, "build_report", flipped)
    return lambda game: game.kind != "constant"


def _skew_regions(monkeypatch):
    real = cli.mc_region_fractions

    def skewed(n_samples, seed, n_workers=1):
        report = real(n_samples, seed, n_workers)
        counts = list(report.region_counts)
        moved = counts[0] // 2
        counts[0] -= moved
        counts[1] += moved
        return type(report)(report.n_samples, report.seed, report.n_workers,
                            tuple(counts), report.class_counts)

    monkeypatch.setattr(cli, "mc_region_fractions", skewed)
    return lambda argv: True


def _drop_a_marker(monkeypatch):
    real = symgame.render_map

    def dropped(markers=(), trajectories=(), legend=True):
        return real(markers=list(markers)[1:], trajectories=trajectories, legend=legend)

    monkeypatch.setattr(symgame, "render_map", dropped)
    return lambda inp: True


CORRUPTIONS = {
    "report-mixed": _flip_reconstruction,
    "mc-fractions": _skew_regions,
    "map-trajectories": _drop_a_marker,
}


@pytest.mark.parametrize("name", NAMES)
def test_corrupted_outputs_count_as_failed(tiny, monkeypatch, name):
    affected = CORRUPTIONS[name](monkeypatch)
    wl = workloads.WORKLOADS[name](5)
    inputs = [wl.draw() for _ in range(6)]
    result = workloads.run_pass(wl, inputs)
    assert result.attempted == 6
    assert result.failed == sum(map(affected, inputs)) > 0

    status, lines, printed = _run(name, trace=0)
    assert status == 0 and not printed["correct"]
    attempted, failed = printed["attempted"], printed["failed"]
    assert failed > 0
    ratio = printed["metrics"]["verified_ops_ratio"]["value"]
    assert ratio == (attempted - failed) / attempted
    assert f"failed_ops_ratio = {failed / attempted:.6g} ({failed} of {attempted} ops)" in lines


def test_measured_run_in_worker_processes():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "map-trajectories",
         "--seed", "2", "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["attempted"] >= harness.SLICES
    assert f"in {harness.SLICES} processes" in proc.stdout


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "report-mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_percentile_keeps_ten_ops_beyond_it():
    assert harness.tail_percentile(1000, 99) == 99
    assert harness.tail_percentile(999, 99) == 90
    assert harness.tail_percentile(40, 75) == 75
    assert harness.tail_percentile(5, 90) == 50
    assert harness.percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5


def test_self_time_subtracts_direct_children():
    recorded = [
        ["a", 0, 10, -1, 0],
        ["b", 2, 5, 0, 0],
        ["c", 3, 4, 1, 0],
        ["d", 6, 8, 0, 0],
    ]
    assert spans.self_times(recorded) == [5, 2, 1, 2]
    assert spans.self_time_by_layer(recorded) == {"a": 5, "b": 2, "c": 1, "d": 2}
