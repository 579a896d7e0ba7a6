"""RRC control-plane event vocabulary shared by simulator, telemetry and detector."""
from __future__ import annotations

import dataclasses
import math
from enum import Enum
from typing import Iterable, NamedTuple, Optional


class MsgKind(str, Enum):
    """Connection-establishment messages plus two simulator-side annotations."""

    MSG1 = "msg1"  # RA preamble
    MSG2 = "msg2"  # RA response
    MSG3 = "msg3"  # RRC Setup Request
    MSG4 = "msg4"  # RRC Setup
    MSG5 = "msg5"  # RRC Setup Complete
    MSG3_REJECTED = "msg3_rejected"      # gNB had no free context
    CONTEXT_RELEASED = "context_released"  # waiting-time expiry or UE disconnect


class EstablishmentCause(str, Enum):
    MO_DATA = "mo_data"
    MO_SIGNALLING = "mo_signalling"
    EMERGENCY = "emergency"
    HIGH_PRIORITY_ACCESS = "high_priority_access"


_MSG3 = MsgKind.MSG3   # bound once for the per-event checks


def _check_types(config: object, error: type[Exception] = ValueError) -> None:
    """TypeError unless an int or Optional[int] field of a config dataclass holds an int (a
    float would give float timestamps, a bool count as a context), a float one an int or a
    float but no bool, and None is only in an Optional one (f.type is the annotation); error
    unless a float is finite, a field in the class's _POSITIVE > 0, one in _NON_NEGATIVE >= 0."""
    for f in dataclasses.fields(config):
        value, base = getattr(config, f.name), f.type.removeprefix("Optional[").rstrip("]")
        if value is None and base != f.type:
            continue
        if base == "int" and type(value) is not int:
            raise TypeError(f"{f.name} must be an integer, got {value!r}")
        if base == "float" and type(value) not in (int, float):
            raise TypeError(f"{f.name} must be a number, got {value!r}")
        if base == "float" and not -math.inf < value < math.inf:
            raise error(f"{f.name} must be finite, got {value!r}")
        if f.name in config._POSITIVE and not value > 0:
            raise error(f"{f.name} must be > 0, got {value!r}")
        if f.name in config._NON_NEGATIVE and not value >= 0:
            raise error(f"{f.name} must be >= 0, got {value!r}")


class RrcEvent(NamedTuple):
    """One timestamped control-plane message observation.

    ``t`` is simulated time in integer milliseconds, starting at 0.
    ``ue_ref`` is opaque: consumers other than the simulator must not branch
    on its value (a storm attacker registers under a fresh random identity
    per attempt, so identity carries no information).
    ``cause`` is present exactly on MSG3 events.
    """

    t: int
    kind: MsgKind
    ue_ref: str
    cause: Optional[EstablishmentCause] = None


def _event_refusal(t, kind, ue, cause, prev_t: int) -> Optional[str]:
    """Why a trace may not hold the event (t, kind, ue, cause) after one at prev_t, or
    None. The one rule, in read_trace's order and words: t an int >= 0 that did not
    regress, kind a MsgKind, ue a non-empty str, and cause an EstablishmentCause on
    msg3 and None on every other kind.
    """
    if type(t) is not int or t < 0:
        return f"'t' must be a non-negative integer, got {t!r}"
    if t < prev_t:
        return f"timestamp regression {prev_t} -> {t}"
    if type(kind) is not MsgKind:
        return f"unknown kind {kind!r}"
    if type(ue) is not str or not ue:
        return "'ue' must be a non-empty string"
    if kind is not _MSG3:
        return None if cause is None else f"cause not allowed on {kind.value}"
    if cause is None:
        return "msg3 record without cause"
    return None if type(cause) is EstablishmentCause else f"unknown cause {cause!r}"


def validate_stream(events: Iterable[RrcEvent]) -> Optional[str]:
    """The first violation in an ordered event stream as "event i: reason", or None if ok.

    Violations are data findings, not failures: a negative timestamp, a timestamp
    regression between adjacent events, a cause missing on MSG3 or present on any
    other event, each in read_trace's words. Kinds, refs and cause types are tested
    only on an event that fails one of these, which then gets its first fault.
    Not re-exported: summarize_trace is the public check; this stays for the benchmark.
    """
    prev_t = 0    # a first event below 0 is negative, never a regression
    for i, ev in enumerate(events):
        t = ev.t
        if t < prev_t or (ev.kind is _MSG3) is (ev.cause is None):
            return f"event {i}: {_event_refusal(*ev, prev_t)}"
        prev_t = t
    return None
