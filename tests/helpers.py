"""Shared test utilities: random valid traces, trace-replay bookkeeping, the plain
multi-pass forms of the one-pass library loops, kept as their references, the
json.dumps form of trace lines and read_trace's first refusal of them, a
brute-force window counter as the detector's reference, and an engine that
queues every timer as the simulator's reference."""
from __future__ import annotations

import io
import json
import os
import random
from pathlib import Path
from typing import Iterable, Optional

from hypothesis import strategies as st

import rrcstorm
from rrcstorm import (
    DetectionVerdict,
    DetectorConfig,
    EstablishmentCause,
    MsgKind,
    RrcEvent,
    SimResult,
    TraceParseError,
    classify,
    simnet,
)
from rrcstorm.analytic import _round_half_up
from rrcstorm.telemetry import read_trace

CAUSES = list(EstablishmentCause)
KINDS = list(MsgKind)


def child_env() -> dict[str, str]:
    """os.environ for a child interpreter that imports this same rrcstorm."""
    path = [str(Path(rrcstorm.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


def random_trace(rng: random.Random, max_events: int = 40) -> list[RrcEvent]:
    """A structurally valid stream: non-decreasing t, causes on msg3 only."""
    events = []
    t = 0
    for _ in range(rng.randrange(max_events + 1)):
        t += rng.randrange(0, 50)
        kind = rng.choice(KINDS)
        cause = rng.choice(CAUSES) if kind is MsgKind.MSG3 else None
        events.append(RrcEvent(t, kind, f"ue-{rng.getrandbits(16):04x}", cause))
    return events


@st.composite
def any_order_traces(draw, max_events: int = 40) -> list[RrcEvent]:
    """random_trace-style streams that may break its rules.

    Timestamps are sorted or left in draw order; up to three Msg3 rejects or
    releases may come first; at most one event may lose or gain a cause, or
    get a negative timestamp.
    """
    lead = draw(st.lists(st.sampled_from([MsgKind.MSG3_REJECTED, MsgKind.CONTEXT_RELEASED]),
                         max_size=3))
    kinds = lead + draw(st.lists(st.sampled_from(KINDS), max_size=max_events))
    times = draw(st.lists(st.integers(0, 300), min_size=len(kinds), max_size=len(kinds)))
    if draw(st.booleans()):
        times.sort()
    events = [RrcEvent(t, kind, f"ue-{i % 3}",
                       draw(st.sampled_from(CAUSES)) if kind is MsgKind.MSG3 else None)
              for i, (t, kind) in enumerate(zip(times, kinds))]
    if events and draw(st.booleans()):
        i = draw(st.integers(0, len(events) - 1))
        t, kind, ue, cause = events[i].t, events[i].kind, events[i].ue_ref, events[i].cause
        if draw(st.booleans()):
            events[i] = RrcEvent(-1 - t, kind, ue, cause)
        else:
            events[i] = RrcEvent(t, kind, ue, None if cause else draw(st.sampled_from(CAUSES)))
    return events


@st.composite
def reject_traces(draw, max_events: int = 12) -> list[RrcEvent]:
    """Sorted streams of Msg3s, rejects and releases of two UEs within 3 ms, in which a
    reject often names the latest Msg3's ue, its t, both or neither, or repeats one."""
    kinds = draw(st.lists(st.sampled_from(
        [MsgKind.MSG3, MsgKind.MSG3_REJECTED, MsgKind.CONTEXT_RELEASED]), max_size=max_events))
    times = sorted(draw(st.lists(st.integers(0, 3), min_size=len(kinds), max_size=len(kinds))))
    return [RrcEvent(t, kind, draw(st.sampled_from(["a", "b"])),
                     EstablishmentCause.MO_DATA if kind is MsgKind.MSG3 else None)
            for t, kind in zip(times, kinds)]


def occupancy_timeline(trace, preconnected: int) -> list[int]:
    """Pool occupancy reconstructed from the trace alone.

    An accepted Msg3 (no same-timestamp rejection annotation for the same UE)
    takes a context; a context release frees one. Msg5 moves pending to
    connected, which is occupancy-neutral, except that a stale Msg5 (after
    the context already expired) changes nothing -- detected by tracking
    which UEs currently hold a context.
    """
    rejected_at = {(e.t, e.ue_ref) for e in trace if e.kind is MsgKind.MSG3_REJECTED}
    holders: set[str] = {f"pre-{i}" for i in range(preconnected)}
    timeline = []
    for event in trace:
        if event.kind is MsgKind.MSG3 and (event.t, event.ue_ref) not in rejected_at:
            holders.add(event.ue_ref)
        elif event.kind is MsgKind.CONTEXT_RELEASED:
            holders.discard(event.ue_ref)
        timeline.append(len(holders))
    return timeline


def reference_validate_stream(events: Iterable[RrcEvent]) -> Optional[str]:
    """events.validate_stream as four checks per event, in the order and the words
    read_trace reports them, each after "event i: "."""
    prev_t = None
    for i, ev in enumerate(events):
        if ev.t < 0:
            return f"event {i}: 't' must be a non-negative integer, got {ev.t}"
        if prev_t is not None and ev.t < prev_t:
            return f"event {i}: timestamp regression {prev_t} -> {ev.t}"
        if ev.kind is MsgKind.MSG3 and ev.cause is None:
            return f"event {i}: msg3 record without cause"
        if ev.kind is not MsgKind.MSG3 and ev.cause is not None:
            return f"event {i}: cause not allowed on {ev.kind.value}"
        prev_t = ev.t
    return None


def json_trace_line(event: RrcEvent) -> str:
    """The json.dumps form trace_line must reproduce byte for byte."""
    record = {"t": event.t, "kind": event.kind.value, "ue": event.ue_ref}
    if event.cause is not None:
        record["cause"] = event.cause.value
    return json.dumps(record, separators=(",", ":"))


def first_refusal(events: Iterable[RrcEvent]) -> Optional[tuple[int, str]]:
    """(index, reason) of the first line read_trace refuses in the json.dumps form
    of events, or None if it reads them all."""
    text = "".join(json_trace_line(e) + "\n" for e in events)
    try:
        read_trace(io.StringIO(text))
    except TraceParseError as exc:
        return exc.line_no - 1, exc.reason
    return None


def counted_rejects(trace: list[RrcEvent]) -> list[RrcEvent]:
    """The MSG3_REJECTED events of trace that reject a Msg3: those whose ue and t are
    the latest earlier Msg3's, with no reject of that Msg3 between the two."""
    counted = []
    for j, event in enumerate(trace):
        if event.kind is not MsgKind.MSG3_REJECTED:
            continue
        msg3s = [i for i in range(j) if trace[i].kind is MsgKind.MSG3]
        if not msg3s:
            continue
        msg3 = trace[msg3s[-1]]
        if (msg3.t, msg3.ue_ref) != (event.t, event.ue_ref):
            continue
        if any(e.kind is MsgKind.MSG3_REJECTED and (e.t, e.ue_ref) == (msg3.t, msg3.ue_ref)
               for e in trace[msg3s[-1] + 1:j]):
            continue
        counted.append(event)
    return counted


def reference_summarize_trace(trace: list[RrcEvent], waiting_time_ms: int) -> SimResult:
    """simnet.summarize_trace as one pass over the trace per metric."""
    rejects = counted_rejects(trace)
    n_msg3 = sum(1 for e in trace if e.kind is MsgKind.MSG3)
    n_rejected = len(rejects)

    first_msg3 = next((e.t for e in trace if e.kind is MsgKind.MSG3), None)
    first_reject = rejects[0].t if rejects else None

    drop = duration_reject = None
    if first_reject is not None:
        drop = first_reject - first_msg3
        first_release = next(
            (e.t for e in trace
             if e.kind is MsgKind.CONTEXT_RELEASED and e.t > first_reject), None)
        if first_release is not None:
            duration_reject = first_release - first_reject

    acc_fp = rej_fp = 0
    if first_msg3 is not None:
        end = first_msg3 + waiting_time_ms
        msg3_fp = sum(1 for e in trace if e.kind is MsgKind.MSG3 and e.t < end)
        rej_fp = sum(1 for e in rejects if e.t < end)
        acc_fp = msg3_fp - rej_fp
    avail_fp = None
    if acc_fp + rej_fp > 0:
        avail_fp = 100.0 * acc_fp / (acc_fp + rej_fp)

    return SimResult(
        trace=trace,
        accepted_msg3=n_msg3 - n_rejected,
        rejected_msg3=n_rejected,
        first_msg3_ms=first_msg3,
        drop_time_ms=drop,
        duration_reject_ms=duration_reject,
        accepted_first_period=acc_fp,
        rejected_first_period=rej_fp,
        availability_first_period_pct=avail_fp,
    )


def reference_run_stream(events: list[RrcEvent], config: DetectorConfig) -> list[DetectionVerdict]:
    """detector.run_stream by brute force: at each hop, count the Msg3/Msg4/Msg5
    events in (now - window_ms, now] afresh, in O(len(events)) per hop."""
    counted = (MsgKind.MSG3, MsgKind.MSG4, MsgKind.MSG5)
    t_end = max((e.t for e in events if e.kind in counted), default=-1)
    verdicts = []
    for now in range(config.window_ms, t_end + 1, config.hop_ms):
        start = now - config.window_ms
        n3, n4, n5 = (sum(1 for e in events if e.kind is kind and start < e.t <= now)
                      for kind in counted)
        r1, r2, state = classify(n3, n4, n5, config)
        verdicts.append(DetectionVerdict(now, state, n3, n4, n5, r1, r2))
    return verdicts


class ReferenceEngine(simnet._Engine):
    """simnet._Engine with one heap entry per timer: a train queues each firing, one
    at a time, even into a full pool; an accepted Msg3 queues its expiry, even where
    the Msg5 always comes first; a benign UE's reaction to Msg4 is an entry of its
    own after the gNB's; and T300 is queued on the heap, not a lane, after every
    attempt, even where Msg4 always comes first or no retry is left. Such a timer
    does nothing: the reference keeps its own record of pending contexts by
    generation, and a flag per attempt that its Msg4 came, and each timer checks
    them."""

    def __init__(self, scenario, gnb):
        super().__init__(scenario, gnb)
        self.pending = {}   # ue_ref -> generation of its pending context
        self.generation = 0

    def _periodic(self, n, start, period_ms, action):
        action()
        t_next = start + _round_half_up((n + 1) * period_ms)
        if t_next < self.scenario.duration_ms:
            self.schedule(t_next, self._periodic, n + 1, start, period_ms, action)

    def _ra_and_msg3(self, ue_ref, cause, benign=False):
        assert ue_ref not in self.contexts, f"Msg3 on the live ref {ue_ref}"
        for kind in (MsgKind.MSG1, MsgKind.MSG2):
            self.emit(kind, ue_ref)
        self.trace.append(RrcEvent(self.now, MsgKind.MSG3, ue_ref, cause))
        if len(self.contexts) >= self.gnb.capacity:
            self.emit(MsgKind.MSG3_REJECTED, ue_ref)
            return False
        self.contexts.add(ue_ref)
        self.generation += 1
        self.pending[ue_ref] = self.generation
        self.schedule(self.now + self.gnb.msg3_to_msg4_delay_ms, self._gnb_msg4, ue_ref, False)
        self.schedule(self.now + self.gnb.waiting_time_ms, self._expire, ue_ref, self.generation)
        return True

    def _expire(self, ue_ref, generation):
        if self.pending.get(ue_ref) == generation:
            del self.pending[ue_ref]
            self._release(ue_ref)

    def _benign_attempt(self, ue_ref, retries_left):
        answered = []
        if self._ra_and_msg3(ue_ref, EstablishmentCause.MO_DATA, True):
            self.schedule(self.now + self.gnb.msg3_to_msg4_delay_ms, self._benign_on_msg4,
                          ue_ref, self.generation, answered)
        self.schedule(self.now + self.scenario.t300_ms, self._benign_t300, ue_ref,
                      retries_left, answered)

    def _benign_on_msg4(self, ue_ref, generation, answered):
        answered.append(True)
        self.schedule(self.now + self.scenario.msg4_to_msg5_delay_ms, self._benign_msg5,
                      ue_ref, generation)

    def _benign_msg5(self, ue_ref, generation):
        self.emit(MsgKind.MSG5, ue_ref)
        if self.pending.get(ue_ref) == generation:
            del self.pending[ue_ref]
            if self.scenario.benign_hold_ms is not None:
                self.schedule(self.now + self.scenario.benign_hold_ms, self._release, ue_ref)

    def _benign_t300(self, ue_ref, retries_left, answered):
        if retries_left and not answered:
            if ue_ref in self.contexts:   # another UE has drawn the rejected ref since
                ue_ref = self._fresh_ref("bue")
            self._benign_attempt(ue_ref, retries_left - 1)
