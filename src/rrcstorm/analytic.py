"""Closed-form model of a gNB under a sustained RRC connection-request flood.

Given the waiting time, gNB context capacity, flood rate and pre-existing
load, the model predicts when the gNB saturates (drop time), how the waiting
period splits into accept/reject phases, how many requests land on each side,
and the resulting availability rate. All rate/time arithmetic is double
precision; message counts are rounded half-up at the boundary.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .events import _check_types

#: Waiting time configured on the reference testbed.
WAITING_TIME_NOMINAL_MS = 2700.0
#: Waiting time back-solved from the reference results: every reported
#: accept/reject split sums to 2.757 s, not the stated 2.7 s. Shipping both
#: keeps the discrepancy visible instead of papering over it.
WAITING_TIME_EFFECTIVE_MS = 2757.0


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


@dataclass(frozen=True)
class AnalyticInputs:
    """The five model inputs.

    waiting_time_ms: how long the gNB holds a pending context awaiting Msg5.
    capacity: simultaneous UE contexts the gNB supports.
    attack_rate_per_s: attacker Msg3 rate.
    benign_rate_per_s: aggregate benign Msg3 rate.
    connected_ues: benign UEs already holding a context at flood start.
    """

    waiting_time_ms: float
    capacity: int
    attack_rate_per_s: float
    benign_rate_per_s: float = 0.0
    connected_ues: int = 0

    _POSITIVE = ("waiting_time_ms", "capacity", "attack_rate_per_s")
    _NON_NEGATIVE = ("benign_rate_per_s", "connected_ues")

    def __post_init__(self) -> None:
        _check_types(self)
        if (connected := self.connected_ues) > (capacity := self.capacity):
            raise ValueError(f"connected_ues must be <= capacity ({capacity}), got {connected}")


@dataclass(frozen=True)
class AnalyticOutputs:
    """The six model outputs for a single flood period."""

    accepted: int
    rejected: int           # reject duration times total incoming rate
    rejected_approx: int    # attacker rate only (benign rate neglected)
    drop_time_ms: float
    accept_duration_ms: float
    reject_duration_ms: float
    availability_pct: float
    overloaded: bool        # False when the pool cannot fill within one waiting time


def drop_time(inputs: AnalyticInputs) -> float:
    """Time in ms until the flood consumes the free capacity.

    free capacity / attack rate; with no connected UEs this is simply
    capacity / attack rate. full_model's drop_time_ms is the public form; the package
    does not re-export this, which stays for the benchmark (ROADMAP item 5).
    """
    free = inputs.capacity - inputs.connected_ues
    return free / inputs.attack_rate_per_s * 1000.0


def availability_rate(accepted: int, rejected: int) -> Optional[float]:
    """Percentage of requests served: 100 * accepted / (accepted + rejected), or None
    when both are 0."""
    total = accepted + rejected
    return 100.0 * accepted / total if total else None


def full_model(inputs: AnalyticInputs) -> AnalyticOutputs:
    """All six outputs for a single repetition.

    The flood takes the free capacity in the drop time. Overload occurs only when
    that is within the waiting time, whose remainder is then spent rejecting at the
    total Msg3 rate (rejected), or, neglecting the benign rate, at the attack rate
    (rejected_approx). Otherwise the gNB stays available and rejects nothing. With
    nothing offered at all, availability reads 0.0.
    """
    t_drop = drop_time(inputs)
    n_accepted = inputs.capacity - inputs.connected_ues
    if t_drop > inputs.waiting_time_ms:
        t_accept, t_reject, overloaded = inputs.waiting_time_ms, 0.0, False
        n_rejected = n_rejected_approx = 0
    else:
        t_accept, t_reject, overloaded = t_drop, inputs.waiting_time_ms - t_drop, True
        reject_s = t_reject / 1000.0
        n_rejected = _round_half_up(reject_s * (inputs.attack_rate_per_s
                                                + inputs.benign_rate_per_s))
        n_rejected_approx = _round_half_up(reject_s * inputs.attack_rate_per_s)
    return AnalyticOutputs(
        accepted=n_accepted,
        rejected=n_rejected,
        rejected_approx=n_rejected_approx,
        drop_time_ms=t_drop,
        accept_duration_ms=t_accept,
        reject_duration_ms=t_reject,
        availability_pct=availability_rate(n_accepted, n_rejected) or 0.0,
        overloaded=overloaded,
    )
