"""In-memory spans around calls into the symgame modules, for the traced run.

The tracer patches the module-level names through which the package's
modules call one another, so every call into a public function of
``payoff``, ``equilibria``, ``cartography``, ``taxonomy``, ``ordergraph``,
``svgmap`` and ``cli`` is recorded: name, start, end, parent span and op id.
Nothing in the package itself changes, and the patches are undone on exit.
Spans are kept in memory and written out once, after the run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
import types
from collections import defaultdict

#: Span fields, in the order each span list stores them.
FIELDS = ("name", "start_ns", "end_ns", "parent", "op")


class Tracer:
    """Records nested spans; only calls made inside an op are recorded."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []
        self._op = None
        self.ops = 0

    def _record(self, name: str, fn, args, kwargs):
        index = len(self.spans)
        span = [name, 0, 0, self._stack[-1] if self._stack else -1, self._op]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()

    def op(self, name: str, fn, arg):
        """Run ``fn(arg)`` as the root span of a new op."""
        self._op = self.ops
        self.ops += 1
        try:
            return self._record(name, fn, (arg,), {})
        finally:
            self._op = None

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            return self._record(name, fn, args, kwargs)

        return traced


def public_functions(modules: dict) -> dict:
    """``{span name: function}`` for the public functions each module defines.

    ``modules`` maps a layer name to its module object.
    """
    found = {}
    for layer, module in modules.items():
        for attr, value in vars(module).items():
            if (
                isinstance(value, types.FunctionType)
                and value.__module__ == module.__name__
                and not attr.startswith("_")
            ):
                found[f"{layer}.{attr}"] = value
    return found


@contextlib.contextmanager
def installed(tracer: Tracer, targets: dict, namespaces):
    """Point every name bound to a target function at its traced wrapper."""
    wrappers = {id(fn): (fn, tracer.wrap(name, fn)) for name, fn in targets.items()}
    saved = []
    try:
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    saved.append((namespace, attr, value))
                    setattr(namespace, attr, entry[1])
        yield tracer
    finally:
        for namespace, attr, value in saved:
            setattr(namespace, attr, value)


def self_times(spans: list) -> list:
    """Each span's duration minus the time its direct children cover (ns)."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def median_per_call(spans: list, name: str, divisor: float, own: list = None) -> float:
    """Median duration of the spans called ``name``, divided by ``divisor``.

    With ``own`` (from :func:`self_times`) the median is over self times.
    """
    values = [
        (own[k] if own is not None else span[2] - span[1]) / divisor
        for k, span in enumerate(spans)
        if span[0] == name
    ]
    if not values:
        raise ValueError(f"no span named {name!r} was recorded")
    return statistics.median(values)


def self_time_by_layer(spans: list) -> dict:
    """Total self time per layer (the span name up to its first dot), in ns."""
    totals = defaultdict(int)
    for span, own in zip(spans, self_times(spans)):
        totals[span[0].split(".", 1)[0]] += own
    return dict(totals)


def write_jsonl(path, spans_by_workload: dict) -> None:
    """Write one JSON object per span, tagged with its workload."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for workload, spans in spans_by_workload.items():
            for index, span in enumerate(spans):
                record = dict(zip(FIELDS, span), workload=workload, id=index)
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")
