"""Measurement, traced run and result line of the benchmark; see run.py.

Import it with the checkout's ``src`` directory first on ``sys.path``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import symgame as sg
from symgame import cartography, cli, equilibria, ordergraph, payoff, svgmap, taxonomy

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
OUT = HERE / "out"

#: Fresh interpreters timed per setup_s, after one untimed warm-up start.
SETUP_PROBES = 9
#: Fresh worker processes a measured run is split into, one after another.
#: Python's speed varies from process to process with hash seeds and memory
#: layout; pooling the ops of several processes evens that out.
SLICES = 5
#: ``python -X importtime`` runs per import.*.ms, after one warm-up run.
IMPORT_PROBES = 3
#: Percentiles the tail may be reported at.
PERCENTILES = (50, 75, 90, 99, 99.9)

#: Per-layer timing metric, named after its span plus a unit suffix ->
#: (workload whose spans give it, nanoseconds per unit, workload attribute
#: giving items per call or None, median over self times, not whole spans).
LAYER_TIMES = {
    "payoff.parse_matrix.us": ("report-mixed", 1e3, None, False),
    "payoff.matrices_from_lines.us_per_line": ("map-trajectories", 1e3, "markers", False),
    "payoff.g_transform.us": ("report-mixed", 1e3, None, False),
    "payoff.normalize_cube.us": ("report-mixed", 1e3, None, False),
    "equilibria.pure_nash_set.us": ("report-mixed", 1e3, None, False),
    "equilibria.relaxed_po_set.us": ("report-mixed", 1e3, None, False),
    "equilibria.mixed_nash.us": ("report-mixed", 1e3, None, False),
    "cartography.region_of.us": ("report-mixed", 1e3, None, False),
    "cartography.decompose.us": ("report-mixed", 1e3, None, False),
    "cartography.reconstruct.us": ("report-mixed", 1e3, None, False),
    "cartography.map_point.us": ("report-mixed", 1e3, None, False),
    "cartography.trajectory.us_per_sample": ("map-trajectories", 1e3, "trajectory_samples", False),
    "cartography.mc_region_fractions.ns_per_sample": ("mc-fractions", 1, "samples", False),
    "taxonomy.classify.us": ("report-mixed", 1e3, None, False),
    "ordergraph.build_order_graph.us": ("report-mixed", 1e3, None, False),
    "ordergraph.to_dot.us": ("report-mixed", 1e3, None, False),
    "svgmap.render_map.ms": ("map-trajectories", 1e6, None, False),
    "cli.build_report.us": ("report-mixed", 1e3, None, False),
    "cli.report_json.us": ("report-mixed", 1e3, None, False),
    "cli.main.self_ms": ("mc-fractions", 1e6, None, True),
}

#: Count metric -> (workload whose fixed input set it counts, counter key).
COUNTS = {
    "count.strict": ("report-mixed", "strict"),
    "count.boundary": ("report-mixed", "boundary"),
    "count.trivial": ("report-mixed", "trivial"),
    "count.rational": ("report-mixed", "rational"),
    "count.distinct_inputs": ("report-mixed", "distinct"),
    "count.trajectory_samples": ("map-trajectories", "trajectory_samples"),
    "count.trajectory_boundary": ("map-trajectories", "trajectory_boundary"),
    "count.markers_skipped": ("map-trajectories", "markers_skipped"),
    "count.mc_samples": ("mc-fractions", "mc_samples"),
    "bytes.report_json": ("report-mixed", "bytes.report_json"),
    "bytes.dot": ("report-mixed", "bytes.dot"),
    "bytes.svg": ("map-trajectories", "bytes.svg"),
}


def _start_until_ready(code: str) -> float:
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", code, str(SRC)], stdout=subprocess.PIPE, text=True, cwd=ROOT
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if line != "ready\n" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed with status {proc.returncode}")
    return elapsed


def setup_times(workload) -> list:
    """Seconds from spawn to ready of fresh interpreters, one at a time."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        f"{workload.setup_imports}; print('ready', flush=True)"
    )
    _start_until_ready(code)  # fills the bytecode caches
    return [_start_until_ready(code) for _ in range(SETUP_PROBES)]


def import_times() -> dict:
    """Median cumulative ``-X importtime`` of numpy and symgame, in ms."""
    argv = [
        sys.executable, "-X", "importtime", "-c",
        "import sys; sys.path.insert(0, sys.argv[1]); import symgame", str(SRC),
    ]
    found = {"numpy": [], "symgame": []}
    for probe in range(IMPORT_PROBES + 1):
        run = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=120, check=True)
        if probe == 0:
            continue  # fills the bytecode caches
        for line in run.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() in found:
                found[fields[2].strip()].append(int(fields[1]) / 1e3)
    return {f"import.{name}.ms": statistics.median(values) for name, values in found.items()}


def environment() -> dict:
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": usable,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "symgame": sg.__version__,
    }


def percentile(values: list, q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail_percentile(n: int, target: float) -> float:
    """``target``, or the highest lower percentile with ten of ``n`` ops beyond it."""
    usable = [q for q in PERCENTILES if q <= target and n * (1 - q / 100) >= 10]
    return max(usable, default=PERCENTILES[0])


def peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak * (1 if sys.platform == "darwin" else 1024) / 1e6


def input_properties(result) -> dict:
    """Measured shares of the input properties the workload's ops covered."""
    counts = result.counts
    shares = {}
    if counts["games"]:
        for key in ("strict", "trivial", "rational"):
            shares[f"{key}_share"] = counts[key] / counts["games"]
        shares["distinct_share"] = len(result.distinct) / counts["games"]
    if counts["trajectory_samples"]:
        shares["trajectory_boundary_share"] = (
            counts["trajectory_boundary"] / counts["trajectory_samples"]
        )
    if counts["mc_samples"]:
        shares["distinct_share"] = len(result.distinct) / result.attempted
    return shares


def _line(tag: str, value) -> None:
    print(f"{tag} {json.dumps(value, sort_keys=True)}")


def slice_in_process(name: str, seed: int, stream: int, seconds: float) -> dict:
    """Run one stream of a workload for ``seconds`` of op time, here."""
    wl = workloads.WORKLOADS[name](seed, stream)
    result = workloads.run_pass(wl, workloads.endless(wl), seconds=seconds)
    return {
        "durations": result.durations,
        "work": result.work,
        "failed": result.failed,
        "problems": result.problems,
        "counts": result.counts,
        "distinct": sorted(map(str, result.distinct)),
        "peak_rss_mb": peak_rss_mb(),
    }


def slice_in_fresh_process(name: str, seed: int, stream: int, seconds: float) -> dict:
    """:func:`slice_in_process` in a new interpreter, started by worker.py."""
    argv = [sys.executable, str(HERE / "worker.py"), name, str(seed), str(stream), repr(seconds)]
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=150, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def measure(workload, seed: int, seconds: float) -> tuple:
    """End-to-end metrics of one workload: (metrics, attempted, failed)."""
    setup = setup_times(workload)
    result = workloads.PassResult()
    peaks = []
    for stream in range(SLICES):
        part = slice_in_fresh_process(workload.name, seed, stream, seconds / SLICES)
        result.durations += part["durations"]
        result.work += part["work"]
        result.failed += part["failed"]
        result.problems += part["problems"]
        result.counts.update(part["counts"])
        result.distinct.update(part["distinct"])
        peaks.append(part["peak_rss_mb"])
    n = result.attempted
    tail = tail_percentile(n, workload.tail_percentile)
    metrics = {
        "setup_s": statistics.median(setup),
        "work_per_s": result.work / result.busy,
        "op_p50_ms": percentile(result.durations, 50) * 1e3,
        "op_tail_ms": percentile(result.durations, tail) * 1e3,
        "peak_rss_mb": max(peaks),
        "verified_ops_ratio": (n - result.failed) / n,
    }
    _line("inputs", input_properties(result))
    _line("problems", result.problems)
    print(f"setup_s = {metrics['setup_s']:.4f} s (median of {len(setup)} starts)")
    print(f"{workload.unit}_per_s = {metrics['work_per_s']:.6g} {workload.unit}/s "
          f"over {result.busy:.3f} s of op time in {SLICES} processes")
    print(f"op_p50_ms = {metrics['op_p50_ms']:.4f} ms, op_tail_ms = p{tail:g} = "
          f"{metrics['op_tail_ms']:.4f} ms, of {n} ops")
    print(f"peak_rss_mb = {metrics['peak_rss_mb']:.2f} MB (largest of {SLICES} processes)")
    print(f"failed_ops_ratio = {result.failed / n:.6g} ({result.failed} of {n} ops)")
    return metrics, n, result.failed


def _layer_times(tracers) -> dict:
    out = {}
    for metric, (workload, ns_per_unit, items, self_time) in LAYER_TIMES.items():
        span = metric.rsplit(".", 1)[0]
        recorded = tracers[workload].spans
        per_call = getattr(workloads.WORKLOADS[workload], items) if items else 1
        own = spans.self_times(recorded) if self_time else None
        out[metric] = spans.median_per_call(recorded, span, ns_per_unit * per_call, own)
    return out


def traced(selected, seed: int, seconds: float) -> tuple:
    """Per-layer metrics from the traced run: (metrics, attempted, failed, consistent)."""
    layers = {
        "payoff": payoff, "equilibria": equilibria, "cartography": cartography,
        "taxonomy": taxonomy, "ordergraph": ordergraph, "svgmap": svgmap, "cli": cli,
    }
    targets = spans.public_functions(layers)
    targets["cli.report_json"] = workloads.report_json
    namespaces = [sg, workloads, *layers.values()]
    tracers = {name: spans.Tracer() for name in workloads.WORKLOADS}
    first = {}
    rates = {"plain": [0, 0.0], "traced": [0, 0.0]}
    attempted = failed = 0
    consistent = True
    started = time.perf_counter()
    while not first or time.perf_counter() - started < seconds:
        for name, workload in workloads.WORKLOADS.items():
            wl = workload(seed)
            inputs = [wl.draw() for _ in range(workload.fixed_ops)]
            plain = workloads.run_pass(wl, inputs)
            with spans.installed(tracers[name], targets, namespaces):
                spanned = workloads.run_pass(wl, inputs, tracer=tracers[name])
            for kind, result in (("plain", plain), ("traced", spanned)):
                attempted += result.attempted
                failed += result.failed
                if result.problems:
                    _line(f"problems {name} {kind}", result.problems)
                reference = first.setdefault(name, result)
                consistent = consistent and (result.counts, result.distinct) == (
                    reference.counts, reference.distinct
                )
                if name == selected.name:
                    rates[kind][0] += result.work
                    rates[kind][1] += result.busy

    metrics = _layer_times(tracers)
    metrics.update(import_times())
    for metric, (workload, key) in COUNTS.items():
        reference = first[workload]
        metrics[metric] = len(reference.distinct) if key == "distinct" else reference.counts[key]
    metrics["count.ops"] = sum(result.attempted for result in first.values())
    plain_rate = rates["plain"][0] / rates["plain"][1]
    metrics["trace_overhead_ratio"] = rates["traced"][0] / rates["traced"][1] / plain_rate

    for name, tracer in tracers.items():
        _line(f"inputs {name}", input_properties(first[name]))
        layer_ms = {
            layer: total / 1e6 / tracer.ops
            for layer, total in sorted(spans.self_time_by_layer(tracer.spans).items())
        }
        _line(f"self_ms_per_op {name}", layer_ms)
    path = OUT / f"spans-{selected.name}.jsonl"
    spans.write_jsonl(path, {name: t.spans for name, t in tracers.items()})
    print(f"spans: {sum(len(t.spans) for t in tracers.values())} written to {os.path.relpath(path, ROOT)}")
    return metrics, attempted, failed, consistent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the symgame library and CLI.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    declared = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    print(f"# symgame benchmark: workload {workload.name}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}; closed loop, one client")
    _line("environment", environment())
    if args.trace:
        metrics, attempted, failed, consistent = traced(workload, args.seed, args.seconds)
    else:
        metrics, attempted, failed = measure(workload, args.seed, args.seconds)
        consistent = True
    if set(metrics) != {m["name"] for m in wanted}:
        print(f"error: measured {sorted(metrics)}, declared {sorted(m['name'] for m in wanted)}",
              file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0
