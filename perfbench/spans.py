"""In-memory span recorder for the traced benchmark run.

The wrappers sit on the package's public entry points as their callers see
them (module attributes looked up at call time), so nothing under ``src/``
changes. Each call records a span: name, start, end, parent span and run id
(the index of the ``rrcstorm`` command it belongs to), plus counts taken from
the call's arguments and result. A layer's self time is its span durations
minus the time covered by its child spans.
"""
from __future__ import annotations

import functools
import gc
import json
import os
import time
from collections import Counter
from dataclasses import dataclass

# span name -> layer whose self time it adds to
LAYER_OF = {
    "cli.main": "cli",
    "harness.cmd_run": "harness",
    "harness.cmd_table1": "harness",
    "harness.latency_campaign": "harness",
    "harness.cmd_replay": "harness",
    "harness.run": "simnet",
    "simnet.validate_stream": "simnet",
    "simnet.summarize_trace": "simnet",
    "harness.run_stream": "detector",
    "telemetry.write_trace": "telemetry.write_trace",
    "telemetry.read_trace": "telemetry.read_trace",
    "telemetry.write_verdicts": "telemetry.write_verdicts",
    "analytic.full_model": "analytic",
}
LAYERS = sorted(set(LAYER_OF.values()))


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into Tracer.spans, -1 for a root
    run_id: int


def _size(path) -> int:
    return os.path.getsize(path) if isinstance(path, (str, os.PathLike)) else 0


class Tracer:
    """Records spans and counts; install() patches, uninstall() restores."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._run_id = -1
        self._patched: list[tuple[object, str, object]] = []
        self._gc_start = 0.0
        self.gc_s = 0.0
        self.gc_collections = 0

    # -- spans ----------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        if parent == -1:
            self._run_id += 1
        index = len(self.spans)
        span = Span(name, 0.0, 0.0, parent, self._run_id)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, module, attr: str, name: str, count=None) -> None:
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            result = self.call(name, original, *args, **kwargs)
            if count is not None:
                count(self.counts, self.spans[index], args, result)
            return result

        self._patched.append((module, attr, original))
        setattr(module, attr, wrapper)

    # -- install ---------------------------------------------------------

    def install(self) -> None:
        from rrcstorm import analytic, harness, simnet, telemetry

        def sim_counts(c, span, args, result):
            kind = args[0].kind.value
            c["simnet.calls"] += 1
            c["simnet.records"] += len(result.trace)
            c[f"simnet.{kind}.records"] += len(result.trace)
            c[f"simnet.{kind}.busy_s"] += span.end - span.start
            c["simnet.msg3"] += result.accepted_msg3 + result.rejected_msg3
            c["simnet.msg3_rejected"] += result.rejected_msg3

        def det_counts(c, _, args, result):
            c["detector.records_in"] += len(args[0])
            c["detector.verdicts_out"] += len(result)

        def write_counts(op):
            def count(c, _, args, result):
                c[f"telemetry.{op}.records"] += result
                c[f"telemetry.{op}.bytes"] += _size(args[1])
            return count

        def read_counts(c, _, args, result):
            c["telemetry.read_trace.records"] += len(result)
            c["telemetry.read_trace.bytes"] += _size(args[0])

        def cmd_counts(c, _, args, result):
            c["harness.runs"] += 1

        def model_counts(c, _, args, result):
            c["analytic.full_model.calls"] += 1

        for attr in ("cmd_run", "cmd_table1", "latency_campaign", "cmd_replay"):
            self._wrap(harness, attr, f"harness.{attr}", cmd_counts)
        self._wrap(harness, "run", "harness.run", sim_counts)
        self._wrap(harness, "run_stream", "harness.run_stream", det_counts)
        self._wrap(simnet, "validate_stream", "simnet.validate_stream")
        self._wrap(simnet, "summarize_trace", "simnet.summarize_trace")
        self._wrap(telemetry, "write_trace", "telemetry.write_trace", write_counts("write_trace"))
        self._wrap(telemetry, "write_verdicts", "telemetry.write_verdicts",
                   write_counts("write_verdicts"))
        self._wrap(telemetry, "read_trace", "telemetry.read_trace", read_counts)
        self._wrap(analytic, "full_model", "analytic.full_model", model_counts)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1

    # -- results ---------------------------------------------------------

    def busy(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def self_times(self) -> dict[str, float]:
        """Per-layer span time minus the time covered by child spans."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        layers = dict.fromkeys(LAYERS, 0.0)
        for span, children in zip(self.spans, child_time):
            layers[LAYER_OF[span.name]] += span.end - span.start - children
        return layers

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.__dict__) + "\n")
