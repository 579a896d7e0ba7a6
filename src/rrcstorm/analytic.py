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
from typing import Sequence

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

    def __post_init__(self) -> None:
        if self.waiting_time_ms <= 0:
            raise ValueError("waiting_time_ms must be > 0")
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not 0 <= self.connected_ues <= self.capacity:
            raise ValueError("connected_ues must be in [0, capacity]")
        attack, benign = self.attack_rate_per_s, self.benign_rate_per_s
        if not 0 < attack < math.inf:
            raise ValueError(f"attack_rate_per_s must be finite and > 0, got {attack}")
        if not 0 <= benign < math.inf:
            raise ValueError(f"benign_rate_per_s must be finite and >= 0, got {benign}")


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
    capacity / attack rate.
    """
    free = inputs.capacity - inputs.connected_ues
    return free / inputs.attack_rate_per_s * 1000.0


def accept_reject_durations(inputs: AnalyticInputs) -> tuple[float, float, bool]:
    """Split one waiting period into (accept_ms, reject_ms, overloaded).

    The accept duration equals the drop time and the remainder of the waiting
    time is spent rejecting. Overload only occurs when the pool fills faster
    than contexts expire (drop time <= waiting time); otherwise the gNB stays
    available for the whole period and the reject duration is zero.
    """
    t_drop = drop_time(inputs)
    if t_drop > inputs.waiting_time_ms:
        return inputs.waiting_time_ms, 0.0, False
    return t_drop, inputs.waiting_time_ms - t_drop, True


def accepted_count(inputs: AnalyticInputs) -> int:
    """Contexts the flood can consume: capacity minus already-connected UEs."""
    return inputs.capacity - inputs.connected_ues


def rejected_count(inputs: AnalyticInputs) -> tuple[int, int]:
    """Requests rejected during the reject phase, as (exact, approx).

    Exact multiplies the reject duration by the total incoming Msg3 rate;
    the approximation drops the benign term, which is negligible against a
    flood. Both are zero when no overload occurs.
    """
    _, t_reject, overloaded = accept_reject_durations(inputs)
    if not overloaded:
        return 0, 0
    reject_s = t_reject / 1000.0
    exact = _round_half_up(reject_s * (inputs.attack_rate_per_s + inputs.benign_rate_per_s))
    approx = _round_half_up(reject_s * inputs.attack_rate_per_s)
    return exact, approx


def availability_rate(accepted: Sequence[int], rejected: Sequence[int]) -> tuple[float, float]:
    """Percentage of requests served across repetitions, and its complement.

    100 * sum(accepted) / sum(accepted + rejected).
    """
    if len(accepted) != len(rejected) or not accepted:
        raise ValueError("accepted and rejected must be equal-length, non-empty")
    total = sum(accepted) + sum(rejected)
    if total == 0:
        raise ValueError("accepted + rejected sums to zero")
    avail = 100.0 * sum(accepted) / total
    return avail, 100.0 - avail


def full_model(inputs: AnalyticInputs) -> AnalyticOutputs:
    """All six outputs for a single repetition."""
    t_drop = drop_time(inputs)
    t_accept, t_reject, overloaded = accept_reject_durations(inputs)
    n_accepted = accepted_count(inputs)
    n_rejected, n_rejected_approx = rejected_count(inputs)
    if n_accepted + n_rejected > 0:
        avail, _ = availability_rate([n_accepted], [n_rejected])
    else:
        avail = 0.0
    return AnalyticOutputs(
        accepted=n_accepted,
        rejected=n_rejected,
        rejected_approx=n_rejected_approx,
        drop_time_ms=t_drop,
        accept_duration_ms=t_accept,
        reject_duration_ms=t_reject,
        availability_pct=avail,
        overloaded=overloaded,
    )
