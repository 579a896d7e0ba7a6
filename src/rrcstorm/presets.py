"""Named scenario presets on the reference environment.

The config defaults hold the reference setup: a 16-context gNB with a 2.7 s waiting
time, a 625 ms detection window on a 25 ms hop, and truncated-Poisson(2) background
arrivals bounded to [0, 3] every 100 ms. The presets add the storm rate of 132.07
Msg3/s (one per 7 ms frame, as measured), the onset, the high-load surge and the
background hold.
"""
from __future__ import annotations

from functools import partial

from .detector import DetectorConfig
from .simnet import GnbConfig, ScenarioKind, ScenarioSpec, TruncatedPoissonSpec

ATTACK_RATE_PER_S = 132.07

#: Attack/high-load traffic starts after the detector has a full window of
#: quiet history; the seed-dependent jitter de-aliases onset from the hop
#: grid so latency statistics over many seeds are not a single repeated value.
ONSET_MS = 1000
ONSET_JITTER_MS = 200

#: High-load surge: a busy cell (75% of contexts held, 12 of 16) hit by a benign
#: fleet at 80 arrivals/s -- far above the ~5.9/s the pool can turn over, far
#: below the storm rate, and fast enough that the abnormal-Msg3 watermark
#: trips within a couple hundred ms. Fleet UEs hold their connection.
HIGHLOAD_RATE_PER_S = 80.0
HIGHLOAD_OCCUPANCY_PCT = 75

#: Background sessions are short-held: at most 3 arrivals per 100 ms tick
#: alive for ~211 ms keeps worst-case occupancy at 9 of 16 contexts, so a
#: normal run never rejects.
BACKGROUND_HOLD_MS = 200

#: The pre-existing occupancies, in percent of capacity, of the attack presets.
_ATTACK_OCCUPANCIES = (0, 25, 50, 75)


def default_gnb() -> GnbConfig:
    return GnbConfig()


def default_detector() -> DetectorConfig:
    return DetectorConfig()


def occupied_contexts(capacity: int, occupancy_pct: int) -> int:
    """The contexts held at occupancy_pct of capacity, rounded half to even."""
    if not 0 <= occupancy_pct <= 100:
        raise ValueError(f"occupancy_pct must be in [0, 100], got {occupancy_pct}")
    return round(capacity * occupancy_pct / 100)


def attack_scenario(occupancy_pct: int, seed: int, duration_ms: int = 4000) -> ScenarioSpec:
    """Storm against a gNB with occupancy_pct of its contexts already held."""
    return ScenarioSpec(
        kind=ScenarioKind.ATTACK,
        duration_ms=duration_ms,
        seed=seed,
        preconnected_bue=occupied_contexts(GnbConfig.capacity, occupancy_pct),
        attacker_rate_per_s=ATTACK_RATE_PER_S,
        onset_ms=ONSET_MS,
        onset_jitter_ms=ONSET_JITTER_MS,
    )


def highload_scenario(seed: int, duration_ms: int = 3000) -> ScenarioSpec:
    return ScenarioSpec(
        kind=ScenarioKind.HIGH_LOAD,
        duration_ms=duration_ms,
        seed=seed,
        preconnected_bue=occupied_contexts(GnbConfig.capacity, HIGHLOAD_OCCUPANCY_PCT),
        benign_fleet_rate_per_s=HIGHLOAD_RATE_PER_S,
        onset_ms=ONSET_MS,
        onset_jitter_ms=ONSET_JITTER_MS,
    )


def normal_scenario(seed: int, duration_ms: int = 60_000) -> ScenarioSpec:
    return ScenarioSpec(
        kind=ScenarioKind.NORMAL,
        duration_ms=duration_ms,
        seed=seed,
        background=TruncatedPoissonSpec(),
        benign_hold_ms=BACKGROUND_HOLD_MS,
    )


_PRESETS = {**{f"paper-attack-{p}": partial(attack_scenario, p) for p in _ATTACK_OCCUPANCIES},
            "paper-highload": highload_scenario, "paper-normal": normal_scenario}
PRESET_NAMES = tuple(_PRESETS)
#: The percent of capacity each preset holds at t=0, which the CLI rescales to a --capacity.
_OCCUPANCY_PCT = {**{f"paper-attack-{p}": p for p in _ATTACK_OCCUPANCIES},
                  "paper-highload": HIGHLOAD_OCCUPANCY_PCT, "paper-normal": 0}


def scenario_from_preset(name: str, seed: int) -> ScenarioSpec:
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; known: {', '.join(PRESET_NAMES)}")
    return _PRESETS[name](seed)
