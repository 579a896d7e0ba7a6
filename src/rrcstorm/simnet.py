"""Deterministic discrete-event simulation of a gNB resource pool under load.

Agents: a storm attacker that loops RA + Msg3 and never completes setups, a
benign fleet (high-load surge) whose UEs always answer Msg4 with Msg5, and
truncated-Poisson background arrivals modelling everyday traffic. The engine is
single-threaded, driven by a heap and a FIFO lane of T300 retries merged in (time,
insertion-sequence) order, and bit-reproducible for a given (scenario, gnb, seed) triple.
"""
from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from enum import Enum
from heapq import heappop, heappush
from itertools import chain, cycle, repeat
from typing import Callable, Optional

from .analytic import _round_half_up, availability_rate
from .events import EstablishmentCause, MsgKind, RrcEvent, _check_types, validate_stream

# Members bound once: a module global reads ~10x faster than MsgKind.MSG3 in the
# per-event code below.
_MSG1, _MSG2, _MSG3, _MSG4, _MSG5 = (MsgKind.MSG1, MsgKind.MSG2, MsgKind.MSG3,
                                     MsgKind.MSG4, MsgKind.MSG5)
_MSG3_REJECTED, _CONTEXT_RELEASED = MsgKind.MSG3_REJECTED, MsgKind.CONTEXT_RELEASED
_MO_DATA = EstablishmentCause.MO_DATA
_REJECT_RUN = (_MSG1, _MSG2, _MSG3, _MSG3_REJECTED)   # one rejected attacker firing
_new = tuple.__new__   # what RrcEvent(...) does, minus the frame of its generated __new__


class ScenarioError(ValueError):
    """Raised for a scenario/config combination that cannot be run."""


@dataclass(frozen=True)
class GnbConfig:
    """gNB-side parameters.

    capacity: simultaneous UE contexts.
    waiting_time_ms: how long a pending context is held awaiting Msg5.
    frame_ms / max_msg1_per_frame: RA admission cap; the attacker's and the
    benign fleet's rates are clamped to max_msg1_per_frame per frame.
    msg3_to_msg4_delay_ms: gNB processing delay before Msg4 goes out.
    """

    capacity: int = 16
    waiting_time_ms: int = 2700
    frame_ms: int = 7
    max_msg1_per_frame: int = 1
    msg3_to_msg4_delay_ms: int = 1

    _POSITIVE = ("capacity", "waiting_time_ms", "frame_ms", "max_msg1_per_frame")
    _NON_NEGATIVE = ("msg3_to_msg4_delay_ms",)

    def __post_init__(self) -> None:
        _check_types(self, ScenarioError)

    @property
    def max_msg1_rate_per_s(self) -> float:
        return 1000.0 * self.max_msg1_per_frame / self.frame_ms


#: Least P(k <= k_max) a TruncatedPoissonSpec may have; the sampler rejects the rest.
MIN_ACCEPTANCE = 1e-3


@dataclass(frozen=True)
class TruncatedPoissonSpec:
    """Poisson(lam) arrivals conditioned on k <= k_max, drawn every tick_ms."""

    lam: float = 2.0
    k_max: int = 3
    tick_ms: int = 100

    _POSITIVE, _NON_NEGATIVE = ("tick_ms",), ("lam", "k_max")

    def __post_init__(self) -> None:
        _check_types(self, ScenarioError)
        # P(k <= k_max) for k ~ Poisson(lam), summed only as far as the floor needs:
        # truncated_poisson_sample makes 1/p draws on average, so a small p hangs it.
        term = p = math.exp(-self.lam)
        k = 0
        while p < MIN_ACCEPTANCE and term > 0 and k < self.k_max:
            k += 1
            term *= self.lam / k
            p += term
        if p < MIN_ACCEPTANCE:
            raise ScenarioError(f"lam={self.lam} with k_max={self.k_max} accepts a draw with "
                                f"probability {p:.3g}, below {MIN_ACCEPTANCE}")


def truncated_poisson_sample(spec: TruncatedPoissonSpec, rng: random.Random) -> int:
    """One draw from Poisson(lam) conditioned on k <= k_max.

    Rejection sampling: Knuth's product method for the Poisson draw, resample
    whenever the draw exceeds the upper bound.
    """
    threshold = math.exp(-spec.lam)
    while True:
        k = 0
        p = 1.0
        while True:
            p *= rng.random()
            if p <= threshold:
                break
            k += 1
        if k <= spec.k_max:
            return k


class ScenarioKind(str, Enum):
    ATTACK = "attack"
    HIGH_LOAD = "high_load"
    NORMAL = "normal"


@dataclass(frozen=True)
class ScenarioSpec:
    """One simulation scenario.

    Scenario traffic (attacker cycles or fleet arrivals) starts at
    onset_ms plus a seed-dependent uniform jitter of up to onset_jitter_ms,
    and stops generating at duration_ms; in-flight handshakes and context
    timers then run to completion so every granted context resolves within
    the trace. Background arrivals, when configured, run from t=0.

    benign_hold_ms: how long a benign UE stays connected before releasing its
    context; None means it never disconnects within the run.
    """

    kind: ScenarioKind
    duration_ms: int
    seed: int = 0
    preconnected_bue: int = 0
    attacker_rate_per_s: Optional[float] = None
    benign_fleet_rate_per_s: Optional[float] = None
    background: Optional[TruncatedPoissonSpec] = None
    msg4_to_msg5_delay_ms: int = 10
    onset_ms: int = 0
    onset_jitter_ms: int = 0
    t300_ms: int = 1000
    max_retries: int = 3
    benign_hold_ms: Optional[int] = None
    attacker_cause: EstablishmentCause = EstablishmentCause.EMERGENCY

    _POSITIVE = ("duration_ms", "t300_ms", "attacker_rate_per_s", "benign_fleet_rate_per_s")
    _NON_NEGATIVE = ("preconnected_bue", "msg4_to_msg5_delay_ms", "onset_ms", "onset_jitter_ms",
                     "max_retries", "benign_hold_ms")

    def __post_init__(self) -> None:
        _check_types(self, ScenarioError)
        for name, enum in (("kind", ScenarioKind), ("attacker_cause", EstablishmentCause)):
            value = getattr(self, name)
            if not isinstance(value, enum):
                raise ScenarioError(f"{name} must be a member of {enum.__name__}, got {value!r}")
        if not isinstance(self.background, (TruncatedPoissonSpec, type(None))):
            raise TypeError(f"background must be a TruncatedPoissonSpec, "
                            f"got {type(self.background).__name__}")
        for kind, name in ((ScenarioKind.ATTACK, "attacker_rate_per_s"),
                           (ScenarioKind.HIGH_LOAD, "benign_fleet_rate_per_s")):
            if self.kind is kind and getattr(self, name) is None:
                raise ScenarioError(f"{kind.value} scenario needs {name} > 0, got None")
        if self.kind is ScenarioKind.NORMAL and self.background is None:
            raise ScenarioError("normal scenario needs a background spec")


@dataclass(frozen=True)
class SimResult:
    """Trace plus metrics derived from it (never from engine internals).

    drop_time_ms and the first-period counts are measured relative to the
    first Msg3 in the trace, which is the flood onset in attack/high-load
    scenarios. The first-period counts cover one waiting time from that
    instant; accepted/rejected cover the whole trace.
    """

    trace: list[RrcEvent]
    accepted_msg3: int
    rejected_msg3: int
    first_msg3_ms: Optional[int]
    drop_time_ms: Optional[int]
    duration_reject_ms: Optional[int]
    accepted_first_period: int
    rejected_first_period: int
    availability_first_period_pct: Optional[float]


def _check_fits(scenario: ScenarioSpec, gnb: GnbConfig) -> None:
    """ScenarioError unless the gNB can run the scenario: the checks that need both."""
    if (held := scenario.preconnected_bue) > gnb.capacity:
        raise ScenarioError(f"preconnected_bue ({held}) exceeds gNB capacity ({gnb.capacity})")
    if scenario.t300_ms < gnb.msg3_to_msg4_delay_ms:
        raise ScenarioError(f"t300_ms ({scenario.t300_ms}) must be >= "
                            f"msg3_to_msg4_delay_ms ({gnb.msg3_to_msg4_delay_ms})")


class _Engine:
    """Event loop: a heap and a T300 lane keyed by (t, seq); ties resolve in insertion
    order. Each T300 is due t300_ms after its queueing, so appends keep the lane in order.

    contexts is the gNB's bounded pool: the set of ue_refs that hold a context,
    pending or connected. Preconnected UEs hold theirs from t=0 and emit nothing.
    """

    def __init__(self, scenario: ScenarioSpec, gnb: GnbConfig):
        _check_fits(scenario, gnb)
        self.scenario = scenario
        self.gnb = gnb
        self.rng = random.Random(scenario.seed)
        self.contexts: set[str] = set()
        self.trace: list[RrcEvent] = []
        self.now = 0
        self._heap: list[tuple[int, int, Callable[..., None], tuple]] = []
        self._lane: deque[tuple[int, int, str, int]] = deque()   # (t, seq, ue_ref, retries_left)
        self._seq = 0
        # A benign context's Msg5 connects it before its expiry unless the expiry,
        # queued first, is due at or before the Msg5: only then is the expiry queued.
        self._benign_expiry = (gnb.msg3_to_msg4_delay_ms + scenario.msg4_to_msg5_delay_ms
                               >= gnb.waiting_time_ms)

    # -- plumbing ---------------------------------------------------------

    def schedule(self, t: int, fn: Callable[..., None], *args) -> None:
        self._seq += 1
        heappush(self._heap, (t, self._seq, fn, args))

    def _periodic(self, n: int, start: int, period_ms: float,
                  action: Callable[[], Optional[bool]]) -> None:
        # Firing n of a train at start + round(n * period_ms), up to duration_ms. Each
        # time is taken from start, not from the last firing, so rounding never drifts.
        # The next firing runs here unless an entry (heap or lane) is queued at or before
        # its time: pushed, it would get the highest seq, so every entry at its time goes
        # first. An action returns False only when _ra_and_msg3 refused an attacker firing.
        # Each later firing run here is refused too, as nothing runs between them to free a
        # context: such a run is drawn and emitted in one step, refs redrawn as _fresh_ref does.
        heap, lane, duration_ms = self._heap, self._lane, self.scenario.duration_ms
        while True:
            refused = action() is False
            n += 1
            now = start + _round_half_up(n * period_ms)
            if refused:
                end = min(duration_ms, heap[0][0] if heap else duration_ms,
                          lane[0][0] if lane else duration_ms)
                getrandbits, contexts, times, refs = self.rng.getrandbits, self.contexts, [], []
                while now < end:
                    ue_ref = f"mue-{getrandbits(32):08x}"
                    if ue_ref not in contexts:
                        times.append(now)
                        refs.append(ue_ref)
                        n += 1
                        now = start + _round_half_up(n * period_ms)
                self.trace.extend(map(_new, repeat(RrcEvent), zip(
                    chain.from_iterable(zip(times, times, times, times)), cycle(_REJECT_RUN),
                    chain.from_iterable(zip(refs, refs, refs, refs)),
                    cycle((None, None, self.scenario.attacker_cause, None)))))
            if now >= duration_ms:
                return
            if heap and heap[0][0] <= now or lane and lane[0][0] <= now:
                self._seq += 1
                heappush(heap, (now, self._seq, self._periodic, (n, start, period_ms, action)))
                return
            self.now = now

    def emit(self, kind: MsgKind, ue_ref: str) -> None:
        self.trace.append(_new(RrcEvent, (self.now, kind, ue_ref, None)))

    def _fresh_ref(self, prefix: str) -> str:
        # Redraw on a live ref: a Msg3 may only carry a ref that holds no context.
        while True:
            ue_ref = f"{prefix}-{self.rng.getrandbits(32):08x}"
            if ue_ref not in self.contexts:
                return ue_ref

    # -- gNB --------------------------------------------------------------

    def _ra_and_msg3(self, ue_ref: str, cause: EstablishmentCause,
                     benign: bool = False) -> bool:
        """Msg1-Msg3 from ue_ref, then the gNB's reject, or its Msg4 and (where it can
        fire) its expiry scheduled. benign: a benign UE, which answers the Msg4, sent it.

        ue_ref holds no context (_fresh_ref, _periodic and run()'s T300 see to it), so
        only a full pool refuses it.
        """
        now, gnb, trace, contexts = self.now, self.gnb, self.trace, self.contexts
        trace.extend((_new(RrcEvent, (now, _MSG1, ue_ref, None)),
                      _new(RrcEvent, (now, _MSG2, ue_ref, None)),
                      _new(RrcEvent, (now, _MSG3, ue_ref, cause))))
        if len(contexts) >= gnb.capacity:
            trace.append(_new(RrcEvent, (now, _MSG3_REJECTED, ue_ref, None)))
            return False
        contexts.add(ue_ref)
        assert len(contexts) <= gnb.capacity
        self._seq += 1
        heappush(self._heap, (now + gnb.msg3_to_msg4_delay_ms, self._seq, self._gnb_msg4,
                              (ue_ref, benign)))
        # The expiry is queued only where the context is sure to be pending when it
        # fires: nothing else frees an attacker's, and a benign Msg5 never comes first.
        if not benign or self._benign_expiry:
            self.schedule(now + gnb.waiting_time_ms, self._release, ue_ref)
        return True

    def _gnb_msg4(self, ue_ref: str, benign: bool) -> None:
        self.emit(_MSG4, ue_ref)
        if benign:
            self.schedule(self.now + self.scenario.msg4_to_msg5_delay_ms, self._benign_msg5,
                          ue_ref)

    def _release(self, ue_ref: str) -> None:
        # A context's expiry or its UE's leave: whichever is queued for it frees it.
        self.contexts.remove(ue_ref)
        self.emit(_CONTEXT_RELEASED, ue_ref)

    # -- attacker ---------------------------------------------------------

    def _attacker_cycle(self) -> bool:
        # One RA loop then Msg3; Msg4 and T300 are ignored, no Msg5 ever.
        return self._ra_and_msg3(self._fresh_ref("mue"), self.scenario.attacker_cause)

    # -- benign UEs -------------------------------------------------------

    def _benign_attempt(self, ue_ref: str, retries_left: int) -> None:
        # T300 is no shorter than the Msg4 delay (_check_fits), so after an accept the
        # Msg4 stops it first: it is queued only after a reject, on the lane run() pops.
        if not self._ra_and_msg3(ue_ref, _MO_DATA, True) and retries_left:
            self._seq += 1
            self._lane.append((self.now + self.scenario.t300_ms, self._seq, ue_ref, retries_left))

    def _benign_msg5(self, ue_ref: str) -> None:
        self.emit(_MSG5, ue_ref)
        # With a benign expiry the context is already released and the Msg5 is stale;
        # otherwise it connects the context, which only the UE's leave frees.
        if not self._benign_expiry and self.scenario.benign_hold_ms is not None:
            self.schedule(self.now + self.scenario.benign_hold_ms, self._release, ue_ref)

    def _spawn_benign(self) -> None:
        self._benign_attempt(self._fresh_ref("bue"), self.scenario.max_retries)

    def _background_tick(self) -> None:
        for _ in range(truncated_poisson_sample(self.scenario.background, self.rng)):
            self._spawn_benign()

    # -- run --------------------------------------------------------------

    def run(self) -> SimResult:
        self.contexts.update(f"pre-{i}" for i in range(self.scenario.preconnected_bue))

        onset = self.scenario.onset_ms
        if self.scenario.onset_jitter_ms:
            onset += self.rng.randrange(self.scenario.onset_jitter_ms)
        if onset >= self.scenario.duration_ms:
            raise ScenarioError("onset lies beyond duration_ms")

        cap = self.gnb.max_msg1_rate_per_s
        if self.scenario.kind is ScenarioKind.ATTACK:
            rate = min(self.scenario.attacker_rate_per_s, cap)
            self.schedule(onset, self._periodic, 0, onset, 1000.0 / rate, self._attacker_cycle)
        elif self.scenario.kind is ScenarioKind.HIGH_LOAD:
            rate = min(self.scenario.benign_fleet_rate_per_s, cap)
            self.schedule(onset, self._periodic, 0, onset, 1000.0 / rate, self._spawn_benign)
        if self.scenario.background is not None:
            self.schedule(0, self._periodic, 0, 0, self.scenario.background.tick_ms,
                          self._background_tick)

        heap, lane, pop, popleft = self._heap, self._lane, heappop, self._lane.popleft
        while heap or lane:
            if not lane or heap and heap[0] < lane[0]:
                t, _, fn, args = pop(heap)
                assert t >= self.now, "event queue regressed"
                self.now = t
                fn(*args)
                continue
            # A T300: the UE retries, under a fresh ref if another UE has drawn its own since.
            self.now, _, ue_ref, retries_left = popleft()
            if ue_ref in self.contexts:
                ue_ref = self._fresh_ref("bue")
            self._benign_attempt(ue_ref, retries_left - 1)

        try:
            return summarize_trace(self.trace, self.gnb.waiting_time_ms)
        except ValueError as exc:
            raise AssertionError(f"engine produced an invalid trace: {exc}") from None


def summarize_trace(trace: list[RrcEvent], waiting_time_ms: int) -> SimResult:
    """Compute SimResult metrics from an event trace alone, in one pass.

    ValueError, in validate_stream's words, for a trace that validate_stream refuses.
    A MSG3_REJECTED rejects a Msg3 only when its ue and t are those of the latest Msg3
    not yet rejected; any other rejects none and counts in nothing. Every Msg3 not
    rejected was accepted. The first-period counts take every Msg3 timed before
    first_msg3 + waiting_time_ms, and the rejects of those Msg3s.
    """
    n_msg3 = n_rejected = msg3_fp = rej_fp = prev_t = 0
    first_msg3 = first_reject = drop = duration_reject = end = open_t = open_ue = None
    for t, kind, ue, cause in trace:
        if t < prev_t:
            break
        prev_t = t
        if kind is _MSG3:
            if cause is None:
                break
            n_msg3 += 1
            open_t, open_ue = t, ue
            if end is None:
                first_msg3 = t
                end = t + waiting_time_ms
            if t < end:
                msg3_fp += 1
            continue
        if cause is not None:
            break
        if kind is _MSG3_REJECTED and t == open_t and ue == open_ue:
            open_ue = None
            n_rejected += 1
            if first_reject is None:
                first_reject, drop = t, t - first_msg3
            if t < end:
                rej_fp += 1
        elif kind is _CONTEXT_RELEASED and duration_reject is None:
            if first_reject is not None and t > first_reject:
                duration_reject = t - first_reject
    else:   # no break: validate_stream passes the trace
        acc_fp = msg3_fp - rej_fp
        return SimResult(
            trace=trace,
            accepted_msg3=n_msg3 - n_rejected,
            rejected_msg3=n_rejected,
            first_msg3_ms=first_msg3,
            drop_time_ms=drop,
            duration_reject_ms=duration_reject,
            accepted_first_period=acc_fp,
            rejected_first_period=rej_fp,
            availability_first_period_pct=availability_rate(acc_fp, rej_fp),
        )
    raise ValueError(validate_stream(trace))


def run(scenario: ScenarioSpec, gnb: GnbConfig) -> SimResult:
    """Run one scenario; identical (scenario, gnb, seed) yields identical traces."""
    return _Engine(scenario, gnb).run()
