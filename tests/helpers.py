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
    StreamViolation,
    TraceParseError,
    classify,
    read_trace,
    simnet,
)
from rrcstorm.analytic import _round_half_up

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


def reference_validate_stream(events: Iterable[RrcEvent]) -> Optional[StreamViolation]:
    """events.validate_stream as four checks per event, in the order and the words
    read_trace reports them."""
    prev_t = None
    for i, ev in enumerate(events):
        if ev.t < 0:
            return StreamViolation(i, f"'t' must be a non-negative integer, got {ev.t}")
        if prev_t is not None and ev.t < prev_t:
            return StreamViolation(i, f"timestamp regression {prev_t} -> {ev.t}")
        if ev.kind is MsgKind.MSG3 and ev.cause is None:
            return StreamViolation(i, "msg3 record without cause")
        if ev.kind is not MsgKind.MSG3 and ev.cause is not None:
            return StreamViolation(i, f"cause not allowed on {ev.kind.value}")
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


def reference_summarize_trace(trace: list[RrcEvent], waiting_time_ms: int) -> SimResult:
    """simnet.summarize_trace as one pass over the trace per metric."""
    n_msg3 = sum(1 for e in trace if e.kind is MsgKind.MSG3)
    n_rejected = sum(1 for e in trace if e.kind is MsgKind.MSG3_REJECTED)

    first_msg3 = next((e.t for e in trace if e.kind is MsgKind.MSG3), None)
    first_reject = next((e.t for e in trace if e.kind is MsgKind.MSG3_REJECTED), None)

    drop = duration_reject = None
    if first_msg3 is not None and first_reject is not None:
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
        rej_fp = sum(1 for e in trace if e.kind is MsgKind.MSG3_REJECTED and e.t < end)
        acc_fp = msg3_fp - rej_fp
    avail_fp = None
    if acc_fp + rej_fp > 0:
        avail_fp = 100.0 * acc_fp / (acc_fp + rej_fp)

    return SimResult(
        trace=trace,
        accepted_msg3=n_msg3 - n_rejected,
        rejected_msg3=n_rejected,
        first_msg3_ms=first_msg3,
        first_reject_ms=first_reject,
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
    own after the gNB's; and T300 is queued after every attempt, even where Msg4
    always comes first or no retry is left; such a timer does nothing."""

    def _periodic(self, n, start, period_ms, action):
        action()
        t_next = start + _round_half_up((n + 1) * period_ms)
        if t_next < self.scenario.duration_ms:
            self.schedule(t_next, self._periodic, n + 1, start, period_ms, action)

    def _ra_and_msg3(self, ue_ref, cause, ue=None):
        for kind in (MsgKind.MSG1, MsgKind.MSG2):
            self.emit(kind, ue_ref)
        self.trace.append(RrcEvent(self.now, MsgKind.MSG3, ue_ref, cause))
        if len(self.contexts) >= self.gnb.capacity or ue_ref in self.contexts:
            self.emit(MsgKind.MSG3_REJECTED, ue_ref)
            return False
        self._generation += 1
        self.contexts[ue_ref] = self._generation
        self.schedule(self.now + self.gnb.msg3_to_msg4_delay_ms, self._gnb_msg4, ue_ref, ue)
        self.schedule(self.now + self.gnb.waiting_time_ms, self._gnb_expire, ue_ref,
                      self._generation)
        return True

    def _gnb_msg4(self, ue_ref, ue):
        self.emit(MsgKind.MSG4, ue_ref)

    def _benign_attempt(self, ue, cause):
        if self._ra_and_msg3(ue.ue_ref, cause, ue):
            self.schedule(self.now + self.gnb.msg3_to_msg4_delay_ms, self._benign_on_msg4, ue)
        self.schedule(self.now + self.scenario.t300_ms, self._benign_t300, ue, cause)

    def _benign_on_msg4(self, ue):
        ue.got_msg4 = True
        self.schedule(self.now + self.scenario.msg4_to_msg5_delay_ms, self._benign_msg5, ue)

    def _benign_t300(self, ue, cause):
        if ue.retries_left:
            super()._benign_t300(ue, cause)
