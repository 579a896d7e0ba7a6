"""Named scenario presets pinning the reference environment's constants.

The reference setup: a 16-context gNB with a 2.7 s waiting time, a storm
rate of 132.07 Msg3/s (one per 7 ms frame, as measured), a 625 ms detection
window, and truncated-Poisson(2) background arrivals bounded to [0, 3] every
100 ms. Attack presets exist at 0/25/50/75% pre-existing occupancy.
"""
from __future__ import annotations

from .detector import DetectorConfig
from .simnet import GnbConfig, ScenarioKind, ScenarioSpec, TruncatedPoissonSpec

ATTACK_RATE_PER_S = 132.07
GNB_CAPACITY = 16
WAITING_TIME_MS = 2700
WINDOW_MS = 625
HOP_MS = 25

#: Attack/high-load traffic starts after the detector has a full window of
#: quiet history; the seed-dependent jitter de-aliases onset from the hop
#: grid so latency statistics over many seeds are not a single repeated value.
ONSET_MS = 1000
ONSET_JITTER_MS = 200

#: High-load surge: a busy cell (12 of 16 contexts held) hit by a benign
#: fleet at 80 arrivals/s -- far above the ~5.9/s the pool can turn over, far
#: below the storm rate, and fast enough that the abnormal-Msg3 watermark
#: trips within a couple hundred ms. Fleet UEs hold their connection.
HIGHLOAD_RATE_PER_S = 80.0
HIGHLOAD_PRECONNECTED = 12

#: Background sessions are short-held: at most 3 arrivals per 100 ms tick
#: alive for ~211 ms keeps worst-case occupancy at 9 of 16 contexts, so a
#: normal run never rejects.
BACKGROUND_HOLD_MS = 200

PRESET_NAMES = (
    "paper-attack-0",
    "paper-attack-25",
    "paper-attack-50",
    "paper-attack-75",
    "paper-highload",
    "paper-normal",
)


def default_gnb(capacity: int = GNB_CAPACITY,
                waiting_time_ms: int = WAITING_TIME_MS) -> GnbConfig:
    return GnbConfig(capacity=capacity, waiting_time_ms=waiting_time_ms)


def default_detector() -> DetectorConfig:
    return DetectorConfig(window_ms=WINDOW_MS, hop_ms=HOP_MS)


def default_background() -> TruncatedPoissonSpec:
    return TruncatedPoissonSpec(lam=2.0, k_max=3, tick_ms=100)


def occupied_contexts(capacity: int, occupancy_pct: int) -> int:
    """The contexts held at occupancy_pct of capacity, rounded half to even."""
    if not 0 <= occupancy_pct <= 100:
        raise ValueError(f"occupancy_pct must be in [0, 100], got {occupancy_pct}")
    return round(capacity * occupancy_pct / 100)


def attack_scenario(occupancy_pct: int, seed: int,
                    capacity: int = GNB_CAPACITY,
                    rate_per_s: float = ATTACK_RATE_PER_S,
                    duration_ms: int = 4000) -> ScenarioSpec:
    """Storm against a gNB with occupancy_pct of its contexts already held."""
    return ScenarioSpec(
        kind=ScenarioKind.ATTACK,
        duration_ms=duration_ms,
        seed=seed,
        preconnected_bue=occupied_contexts(capacity, occupancy_pct),
        attacker_rate_per_s=rate_per_s,
        onset_ms=ONSET_MS,
        onset_jitter_ms=ONSET_JITTER_MS,
    )


def highload_scenario(seed: int, duration_ms: int = 3000) -> ScenarioSpec:
    return ScenarioSpec(
        kind=ScenarioKind.HIGH_LOAD,
        duration_ms=duration_ms,
        seed=seed,
        preconnected_bue=HIGHLOAD_PRECONNECTED,
        benign_fleet_rate_per_s=HIGHLOAD_RATE_PER_S,
        onset_ms=ONSET_MS,
        onset_jitter_ms=ONSET_JITTER_MS,
        benign_hold_ms=None,
    )


def normal_scenario(seed: int, duration_ms: int = 60_000) -> ScenarioSpec:
    return ScenarioSpec(
        kind=ScenarioKind.NORMAL,
        duration_ms=duration_ms,
        seed=seed,
        background=default_background(),
        benign_hold_ms=BACKGROUND_HOLD_MS,
    )


def scenario_from_preset(name: str, seed: int) -> ScenarioSpec:
    if name.startswith("paper-attack-"):
        pct = int(name.removeprefix("paper-attack-"))
        return attack_scenario(pct, seed)
    if name == "paper-highload":
        return highload_scenario(seed)
    if name == "paper-normal":
        return normal_scenario(seed)
    raise ValueError(f"unknown preset {name!r}; known: {', '.join(PRESET_NAMES)}")
