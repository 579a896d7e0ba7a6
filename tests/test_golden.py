"""Byte-stability regression against pinned golden files.

The goldens were produced by one live run of the scenario below and frozen;
any engine, detector or serialization change that shifts output bytes must be
deliberate and regenerate them.
"""
import dataclasses
import hashlib
import io
from pathlib import Path

import pytest

from rrcstorm import (
    GnbConfig,
    MsgKind,
    RrcEvent,
    ScenarioKind,
    ScenarioSpec,
    TruncatedPoissonSpec,
    read_trace,
    run,
    run_stream,
    write_trace,
    write_verdicts,
)
from rrcstorm.cli import main
from rrcstorm.presets import (
    PRESET_NAMES,
    default_detector,
    default_gnb,
    highload_scenario,
    normal_scenario,
    scenario_from_preset,
)

DATA = Path(__file__).parent / "data"

GOLDEN_GNB = GnbConfig(capacity=4, waiting_time_ms=800)
GOLDEN_SCENARIO = ScenarioSpec(kind=ScenarioKind.ATTACK, duration_ms=1200,
                               seed=7, attacker_rate_per_s=40.0)


def test_trace_bytes_stable(tmp_path):
    result = run(GOLDEN_SCENARIO, GOLDEN_GNB)
    path = tmp_path / "regen.rrctrace.jsonl"
    write_trace(result.trace, path)
    assert path.read_bytes() == (DATA / "golden-attack.rrctrace.jsonl").read_bytes()


def test_read_back_trace_writes_the_golden_bytes():
    # Read back, a t or ue equal to the last event's is a distinct object.
    golden = DATA / "golden-attack.rrctrace.jsonl"
    buf = io.StringIO()
    write_trace(read_trace(golden), buf)
    assert buf.getvalue().encode() == golden.read_bytes()


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
# Then the engine's ties, pinned before its trains ran inline: a storm and
# background ticks on the same 7 ms grid; T300 firing on the ms of a Msg4
# delayed 5 ms; and an expiry on the Msg4's ms. Last, the edges of the timers
# the engine leaves out, pinned before it did: an expiry on the Msg5's ms, and
# UEs with no retry left.
EDGE_HIGHLOAD = dataclasses.replace(highload_scenario(3), preconnected_bue=0, benign_hold_ms=50)
MSG4_AFTER_5MS = GnbConfig(msg3_to_msg4_delay_ms=5)
EXPIRY_ON_MSG5 = GnbConfig(waiting_time_ms=15, msg3_to_msg4_delay_ms=5)   # d4 + d5 = 5 + 10
NO_RETRIES = dataclasses.replace(highload_scenario(3), t300_ms=5, max_retries=0)
TRACE_DIGESTS = [
    (scenario_from_preset("paper-highload", 3), default_gnb(),
     "b51a603ea490ac506d190a6f3d55e4c617c8177c1a6b40d0886f55bfc2381be8"),
    (normal_scenario(3, duration_ms=5000), default_gnb(),
     "8509685a68889f1ece627396604f5bafb74409ff965f86f9369fd8b588e7b6f4"),
    (scenario_from_preset("paper-attack-50", 3), default_gnb(),
     "49e83193f6909fdb719424ea9a871949dc3266adad7cae7504ba75fa106a2748"),
    (ScenarioSpec(kind=ScenarioKind.ATTACK, duration_ms=3000, seed=3, preconnected_bue=4,
                  attacker_rate_per_s=200.0, onset_ms=700, benign_hold_ms=200,
                  background=TruncatedPoissonSpec(lam=0.3, k_max=2, tick_ms=7)),
     default_gnb(),
     "c4e83ffe17a2a1d6e3783ebdee0c45857603fa86f82ce7e237b9110ed81af6c0"),
    (dataclasses.replace(EDGE_HIGHLOAD, t300_ms=5), MSG4_AFTER_5MS,
     "5a0983105eadb7cf9b781247191703c065f9b667ca9db05b46e3ae8bf1fd1cc2"),
    (highload_scenario(3), GnbConfig(waiting_time_ms=5, msg3_to_msg4_delay_ms=5),
     "d186991636db42b0cad01f85d81bb27ee6fdacd4a66974be62f02c12eb6b9d8d"),
    (EDGE_HIGHLOAD, EXPIRY_ON_MSG5,
     "2f652b564d96776faab7545bd6790df0bf1beb00670190293da4b287d4fa7468"),
    (NO_RETRIES, MSG4_AFTER_5MS,
     "67329bdec47ac4e0de7de04ceccf2350f1e962c765c0b54f2ae6f73ebec6593e"),
]


@pytest.mark.parametrize("scenario,gnb,digest", TRACE_DIGESTS,
                         ids=["paper-highload", "normal-5s", "paper-attack-50",
                              "attack-background-same-tick", "t300-on-msg4", "expiry-on-msg4",
                              "expiry-on-msg5", "no-retries"])
def test_trace_digest_stable(tmp_path, scenario, gnb, digest):
    path = tmp_path / "regen.rrctrace.jsonl"
    write_trace(run(scenario, gnb).trace, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# sha256 of the CSVs that `latency --seed 1 --reps 3` and `run --seed 1 --reps 2` write
# for each preset: (latency CSV, metrics CSV).
CSV_DIGESTS = {
    "paper-attack-0": ("741c842ac29e4bac016d1e07c930f41c8217ae56726bdcbdb32ff87517b1634e",
                       "4f60f6900671a03bce2e10c1883a04f888f5cc433164f0dc0075d214458ed91f"),
    "paper-attack-25": ("6dbfbf7d47c2eda49246657e55bb75c9d7286a45f04153071b3bc64fa39f35a8",
                        "05bfa80b2c35944bb9d52802c9fa1946ce7121c951a364ece42c8411860a2fee"),
    "paper-attack-50": ("77548397dc3211ea08050ac6eca835000076a4b129115172aafbec3cce940afd",
                        "16629a38c6396f8687249a77645fb7b46ad53c6c985916e78910bb30d8eebb6d"),
    "paper-attack-75": ("ea01921bb62ded902b34bfc6e3447977c1aa2308eff4c4ad57f4e1e8534c4453",
                        "d65a33bdc611a248c728759d4b9cc7074d29b8cc65dc25de9ca9af539d70eeae"),
    "paper-highload": ("403f6282a81bc4fdec34f6db1b767762a8f6ffd70fa97198462a877a05ca0c4c",
                       "9838b27a141b5bcf8a47f86edfd0fb8cc129936de18e14f8024a46f78e553317"),
    "paper-normal": ("2ddb2fcdc99d067ca76fcbc52fb3b009d302225750f06b4567e7360a8f611e01",
                     "813cbe8736e9fd7e38f0ab6ef4373250033a8d94180a5664fbc1307af604e4d6"),
}


@pytest.mark.parametrize("cmd,reps,csv_name,column", [("latency", "3", "latency", 0),
                                                      ("run", "2", "metrics", 1)],
                         ids=["latency", "run"])
@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_csv_digest_stable(tmp_path, capsys, preset, cmd, reps, csv_name, column):
    main([cmd, "--scenario", preset, "--seed", "1", "--reps", reps, "--out", str(tmp_path)])
    csv_bytes = (tmp_path / f"{preset}-{csv_name}.csv").read_bytes()
    assert hashlib.sha256(csv_bytes).hexdigest() == CSV_DIGESTS[preset][column]


def test_expiry_on_the_msg5s_ms_comes_first():
    # Queued at the Msg3, before the Msg5 is, the expiry releases the context and
    # the Msg5 that follows on the same ms finds none to connect.
    trace = run(EDGE_HIGHLOAD, EXPIRY_ON_MSG5).trace
    msg3_at = {e.ue_ref: e.t for e in trace if e.kind is MsgKind.MSG3}
    released = [i for i, e in enumerate(trace) if e.kind is MsgKind.CONTEXT_RELEASED]
    assert len(released) == len(msg3_at) > 0
    for i in released:
        ue, t = trace[i].ue_ref, trace[i].t
        assert t == msg3_at[ue] + 15
        assert trace[i + 1] == RrcEvent(t, MsgKind.MSG5, ue)


def test_no_retry_after_a_reject_or_an_early_t300():
    result = run(NO_RETRIES, MSG4_AFTER_5MS)
    msg3 = [e.ue_ref for e in result.trace if e.kind is MsgKind.MSG3]
    assert result.rejected_msg3 > 0
    assert len(msg3) == len(set(msg3))
