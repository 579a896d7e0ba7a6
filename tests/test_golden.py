"""Byte-stability regression against pinned golden files.

The goldens were produced by one live run of the scenario below and frozen;
any engine, detector or serialization change that shifts output bytes must be
deliberate and regenerate them.
"""
import hashlib
from pathlib import Path

import pytest

from rrcstorm import (
    GnbConfig,
    ScenarioKind,
    ScenarioSpec,
    read_trace,
    run,
    run_stream,
    write_trace,
    write_verdicts,
)
from rrcstorm.presets import default_detector, default_gnb, normal_scenario, scenario_from_preset

DATA = Path(__file__).parent / "data"

GOLDEN_GNB = GnbConfig(capacity=4, waiting_time_ms=800)
GOLDEN_SCENARIO = ScenarioSpec(kind=ScenarioKind.ATTACK, duration_ms=1200,
                               seed=7, attacker_rate_per_s=40.0)


def test_trace_bytes_stable(tmp_path):
    result = run(GOLDEN_SCENARIO, GOLDEN_GNB)
    path = tmp_path / "regen.rrctrace.jsonl"
    write_trace(result.trace, path)
    assert path.read_bytes() == (DATA / "golden-attack.rrctrace.jsonl").read_bytes()


def test_verdict_bytes_stable(tmp_path):
    result = run(GOLDEN_SCENARIO, GOLDEN_GNB)
    verdicts = run_stream(result.trace, default_detector())
    path = tmp_path / "regen.verdicts.jsonl"
    write_verdicts(verdicts, path)
    assert path.read_bytes() == (DATA / "golden-attack.verdicts.jsonl").read_bytes()


def test_replaying_golden_trace_reproduces_golden_verdicts(tmp_path):
    events = read_trace(DATA / "golden-attack.rrctrace.jsonl")
    verdicts = run_stream(events, default_detector())
    path = tmp_path / "replayed.verdicts.jsonl"
    write_verdicts(verdicts, path)
    assert path.read_bytes() == (DATA / "golden-attack.verdicts.jsonl").read_bytes()


# sha256 of write_trace bytes for the engine paths the capacity-4 attack above
# never takes: benign retries after T300 and Msg4 -> Msg5 completions
# (paper-highload), short-held background sessions that release their context
# (normal), and a storm against a half-occupied paper gNB (paper-attack-50).
TRACE_DIGESTS = [
    (scenario_from_preset("paper-highload", 3),
     "b51a603ea490ac506d190a6f3d55e4c617c8177c1a6b40d0886f55bfc2381be8"),
    (normal_scenario(3, duration_ms=5000),
     "8509685a68889f1ece627396604f5bafb74409ff965f86f9369fd8b588e7b6f4"),
    (scenario_from_preset("paper-attack-50", 3),
     "49e83193f6909fdb719424ea9a871949dc3266adad7cae7504ba75fa106a2748"),
]


@pytest.mark.parametrize("scenario,digest", TRACE_DIGESTS,
                         ids=["paper-highload", "normal-5s", "paper-attack-50"])
def test_trace_digest_stable(tmp_path, scenario, digest):
    path = tmp_path / "regen.rrctrace.jsonl"
    write_trace(run(scenario, default_gnb()).trace, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
