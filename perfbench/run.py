"""Benchmark of the symgame library and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from the ``src`` directory beside this one, so run
it from a checkout of the repository; without that source it exits with
status 2.  The workloads are defined in ``workloads.py``:

* ``report-mixed``: one payoff text per op through ``classify --json`` and
  the order graph's DOT.  It drives the exact core with no numpy in the op.
* ``mc-fractions``: one ``fractions --format json`` run of a fixed sample
  count per op.  It drives the numpy sampler while the exact core is idle.
* ``map-trajectories``: one ``map --points --trajectory`` rendering per op,
  which classifies trajectories sample by sample.

``--trace 0`` times one workload, closed loop with one client, for S seconds
of op time split over five fresh worker processes (``worker.py``) started
one after another, and reports its end-to-end metrics:

* ``setup_s``: median wall time of fresh interpreters, started one at a
  time, from spawn until the workload's modules are imported;
* ``work_per_s``: work completed per second of op time.  The work is a game,
  a Monte Carlo sample or a map, so it is also printed as ``games_per_s``,
  ``samples_per_s`` or ``maps_per_s``;
* ``op_p50_ms`` and ``op_tail_ms``: per-op latency.  The tail is p90 on
  report-mixed, p50 on mc-fractions and p75 on map-trajectories, the
  highest percentile with ten ops beyond it that stays steady in a 10 s run
  (or a lower one when fewer ops ran); the percentile and op count are
  printed;
* ``peak_rss_mb``: peak resident memory of the largest worker process;
* ``verified_ops_ratio``: the share of ops that returned and passed every
  output check, that is one minus the printed ``failed_ops_ratio``.

``--trace 1`` is the traced run.  It takes the fixed seeded input set of
every workload, runs it once plain and once with a span around each call
into the package's modules, and repeats that until S seconds have passed.
Each per-layer metric is a median per call over the inputs of the workload
that owns it (``LAYER_TIMES`` in harness.py).  Counts cover one pass over
the fixed sets and must repeat exactly.  ``trace_overhead_ratio`` is the
selected workload's traced over its plain work per second.  The spans go
to ``perfbench/out/``.

Outputs are checked outside the timed region, and an op whose output fails
a check counts as failed.  The benchmark runs one op at a time in one
process at a time: it waits while its worker processes and the fresh
interpreters it times run one after another.  Every line but
the last describes the run; the last is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The benchmark's own tests:  python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

if __name__ == "__main__":
    if not (SRC / "symgame" / "__init__.py").is_file():
        print(f"error: no symgame package source under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import harness

    sys.exit(harness.main())
