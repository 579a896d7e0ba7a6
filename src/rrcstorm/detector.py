"""Sliding-window gNB state classifier fed by the RRC message stream alone.

The detector sees only Msg3/Msg4/Msg5 observations (never gNB internals),
keeps the last window_ms of timestamps, and derives three features per
window: the Msg3 count, r1 = Msg5/Msg3 and r2 = Msg5/Msg4. An elevated Msg3
count flags an abnormal window; r2 separates a storm (Msg4s go unanswered,
r2 -> 0) from a legitimate surge (served UEs still complete, r2 stays ~1);
a silent gNB (no Msg4 at all) means its pool is exhausted.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, NamedTuple, Optional

from .events import MsgKind, RrcEvent, _check_types


#: Below this many Msg3s in a window, r1 is not meaningful and reads as 1 (idle).
MIN_MSG3_FOR_R1 = 3


class StreamOrderError(ValueError):
    """An event arrived with a timestamp older than the one before it."""


class GnbState(str, Enum):
    NORMAL = "normal"
    ATTACK = "attack"
    HIGH_LOAD = "high_load"
    OVERLOAD = "overload"


# Members bound once: a module global reads ~10x faster than GnbState.NORMAL in
# the per-hop and per-event code below. _COUNTED: the kinds the detector reads.
_NORMAL, _ATTACK, _HIGH_LOAD, _OVERLOAD = (GnbState.NORMAL, GnbState.ATTACK,
                                           GnbState.HIGH_LOAD, GnbState.OVERLOAD)
_MSG3, _MSG4, _MSG5 = _COUNTED = MsgKind.MSG3, MsgKind.MSG4, MsgKind.MSG5
_new = tuple.__new__   # what a NamedTuple(...) call does, minus the frame of its __new__


@dataclass(frozen=True)
class DetectorConfig:
    window_ms: int = 625
    hop_ms: int = 25
    r1_threshold: float = 0.5
    r2_threshold: float = 0.5
    msg3_watermark: int = 8          # per-window Msg3 count above which traffic is abnormal

    _POSITIVE = ("window_ms", "hop_ms", "r1_threshold", "r2_threshold", "msg3_watermark")
    _NON_NEGATIVE = ()

    def __post_init__(self) -> None:
        _check_types(self)
        if self.hop_ms > self.window_ms:
            raise ValueError(f"hop_ms must be <= window_ms ({self.window_ms}), got {self.hop_ms}")
        for name in ("r1_threshold", "r2_threshold"):
            if (value := getattr(self, name)) >= 1:
                raise ValueError(f"{name} must be < 1, got {value!r}")


class DetectionVerdict(NamedTuple):
    """One hop's decision and the window (t_ms - window_ms, t_ms] it was made from."""
    t_ms: int
    state: GnbState
    n_msg3: int
    n_msg4: int
    n_msg5: int
    r1: float   # Msg5/Msg3 completion ratio, clamped to [0, 1]
    r2: float   # Msg5/Msg4 response ratio, clamped to [0, 1]


def classify(n_msg3: int, n_msg4: int, n_msg5: int,
             config: DetectorConfig) -> tuple[float, float, GnbState]:
    """Pure decision rule over one window's counts: (r1, r2, state).

    The ratios have degenerate-denominator rules. Fewer than MIN_MSG3_FOR_R1 Msg3s ->
    r1 reads as 1 (idle). No Msg4 and no Msg5 reads as gNB silence (r2 = 0) when the
    Msg3 count is abnormal, idle (r2 = 1) otherwise. Both ratios are clamped to [0, 1].

    Order matters: the watermark guard suppresses verdicts on tiny samples,
    and gNB silence is checked before the ratio rules so a fully silent gNB
    reads as Overload rather than Attack.
    """
    if n_msg3 < MIN_MSG3_FOR_R1:
        r1 = 1.0
    else:
        r1 = min(1.0, n_msg5 / n_msg3)
    if n_msg4 == 0:
        if n_msg5 == 0:
            r2 = 0.0 if n_msg3 > config.msg3_watermark else 1.0
        else:
            r2 = 1.0
    else:
        r2 = min(1.0, n_msg5 / n_msg4)
    if n_msg3 <= config.msg3_watermark:
        state = _NORMAL
    elif n_msg4 == 0:
        state = _OVERLOAD
    elif r1 < config.r1_threshold and r2 < config.r2_threshold:
        state = _ATTACK
    elif r1 < config.r1_threshold and r2 >= config.r2_threshold:
        state = _HIGH_LOAD
    else:
        state = _NORMAL
    return r1, r2, state


def iter_verdicts(events: Iterable[RrcEvent],
                  config: Optional[DetectorConfig] = None) -> Iterator[DetectionVerdict]:
    """Classify an ordered event stream as it arrives, one verdict per hop.

    Hops run from window_ms to the last observable (Msg3/4/5) timestamp in hop_ms
    steps; each is yielded once a later counted event arrives, so only the window
    is held, and live and replayed streams give the same verdicts. An event older
    than the one before it raises StreamOrderError.
    """
    config = config or DetectorConfig()
    windows = w3, w4, w5 = deque(), deque(), deque()
    decided = {}   # (n_msg3, n_msg4, n_msg5) -> (r1, r2, state): one entry per triple seen
    append = {_MSG3: w3.append, _MSG4: w4.append, _MSG5: w5.append}.get
    now, newest, last = config.window_ms, float("-inf"), float("-inf")
    for event in events:
        t = event.t
        if t < newest:
            raise StreamOrderError(f"event at t={t} after t={newest}")
        newest = t
        add = append(event.kind)
        if add is None:
            continue
        while now < t:
            yield _verdict(now, windows, config, decided)
            now += config.hop_ms
        add(t)
        last = t
    if now <= last:   # the hop at the last counted event; every earlier one is out
        yield _verdict(now, windows, config, decided)


def _verdict(now: int, windows: tuple[deque, ...], config: DetectorConfig,
             decided: dict) -> DetectionVerdict:
    """Evict what left (now - window_ms, now]; classify a counts triple at its first hop only."""
    horizon = now - config.window_ms
    w3, w4, w5 = windows
    while w3 and w3[0] <= horizon:
        w3.popleft()
    while w4 and w4[0] <= horizon:
        w4.popleft()
    while w5 and w5[0] <= horizon:
        w5.popleft()
    counts = n3, n4, n5 = len(w3), len(w4), len(w5)
    try:
        r1, r2, state = decided[counts]
    except KeyError:
        r1, r2, state = decided[counts] = classify(n3, n4, n5, config)
    return _new(DetectionVerdict, (now, state, n3, n4, n5, r1, r2))


def run_stream(events: Iterable[RrcEvent],
               config: Optional[DetectorConfig] = None) -> list[DetectionVerdict]:
    """iter_verdicts as a list; not re-exported, it stays for the benchmark (ROADMAP item 5)."""
    return list(iter_verdicts(events, config))


def detection_latency(verdicts: Iterable[DetectionVerdict],
                      onset_ms: int, target: GnbState) -> Optional[int]:
    """ms from onset to the first verdict in the target state at or after onset;
    None if never."""
    for verdict in verdicts:
        if verdict.state is target and verdict.t_ms >= onset_ms:
            return verdict.t_ms - onset_ms
    return None
