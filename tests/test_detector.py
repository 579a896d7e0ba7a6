import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrcstorm import (
    DetectionVerdict,
    DetectorConfig,
    EstablishmentCause,
    GnbConfig,
    GnbState,
    MsgKind,
    RrcEvent,
    StreamOrderError,
    classify,
    detection_latency,
    iter_verdicts,
    run,
    run_stream,
)
from rrcstorm.detector import compute_ratios
from rrcstorm.presets import (
    attack_scenario,
    default_detector,
    highload_scenario,
    normal_scenario,
)

from helpers import CAUSES, KINDS, reference_run_stream


def state_of(n3, n4, n5, config=None):
    r1, r2, state = classify(n3, n4, n5, config or DetectorConfig())
    return state


class TestRatios:
    def test_all_setups_complete(self):
        assert compute_ratios(10, 10, 10, DetectorConfig()) == (1.0, 1.0)

    def test_silent_gnb_under_flood(self):
        assert compute_ratios(80, 16, 0, DetectorConfig()) == (0.0, 0.0)

    def test_surge_with_served_ues_completing(self):
        r1, r2 = compute_ratios(80, 16, 16, DetectorConfig())
        assert r1 == pytest.approx(0.2)
        assert r2 == 1.0

    def test_idle_window_reads_as_complete(self):
        assert compute_ratios(0, 0, 0, DetectorConfig()) == (1.0, 1.0)

    def test_no_msg4_no_msg5_above_watermark_is_silence(self):
        r1, r2 = compute_ratios(80, 0, 0, DetectorConfig())
        assert (r1, r2) == (0.0, 0.0)

    @pytest.mark.parametrize("counts,ratios", [
        ((2, 2, 0), (1.0, 0.0)),   # below 3 Msg3s r1 reads as idle
        ((3, 3, 0), (0.0, 0.0)),   # from 3 Msg3s on r1 is the real ratio
    ])
    def test_r1_cutoff_at_three_msg3(self, counts, ratios):
        assert compute_ratios(*counts, DetectorConfig()) == ratios

    def test_ratios_clamped_to_unit_interval(self):
        r1, r2 = compute_ratios(5, 2, 9, DetectorConfig())
        assert r1 == 1.0
        assert r2 == 1.0


class TestClassify:
    def test_below_watermark_is_normal(self):
        assert state_of(2, 2, 2) is GnbState.NORMAL

    def test_flood_signature_is_attack(self):
        assert state_of(80, 16, 0) is GnbState.ATTACK

    def test_silent_gnb_is_overload_not_attack(self):
        assert state_of(80, 0, 0) is GnbState.OVERLOAD

    def test_surge_signature_is_high_load(self):
        assert state_of(80, 16, 16) is GnbState.HIGH_LOAD

    def test_healthy_traffic_is_normal(self):
        assert state_of(20, 20, 20) is GnbState.NORMAL

    def test_classification_is_pure(self):
        config = DetectorConfig()
        assert classify(80, 16, 3, config) == classify(80, 16, 3, config)

    def test_attack_and_high_load_mutually_exclusive(self):
        rng = random.Random(5)
        config = DetectorConfig()
        for _ in range(500):
            n3 = rng.randrange(0, 120)
            n4 = rng.randrange(0, n3 + 1)
            n5 = rng.randrange(0, n4 + 1)
            r1, r2, state = classify(n3, n4, n5, config)
            assert (r1, r2) == compute_ratios(n3, n4, n5, config)
            if state is GnbState.ATTACK:
                assert r1 < 0.5 and r2 < 0.5
            if state is GnbState.HIGH_LOAD:
                assert r1 < 0.5 and r2 >= 0.5

    def test_watermark_guard_forces_normal(self):
        rng = random.Random(6)
        config = DetectorConfig()
        for _ in range(200):
            n3 = rng.randrange(0, config.msg3_watermark + 1)
            n4 = rng.randrange(0, 10)
            n5 = rng.randrange(0, 10)
            assert state_of(n3, n4, n5, config) is GnbState.NORMAL


def msg3(t):
    return RrcEvent(t, MsgKind.MSG3, "u", EstablishmentCause.MO_DATA)


class TestIngest:
    def test_counted_kind_retained(self):
        [verdict] = iter_verdicts(iter([msg3(625)]))
        assert verdict.n_msg3 == 1

    def test_annotations_invisible(self):
        events = [RrcEvent(1, MsgKind.MSG3_REJECTED, "u"),
                  RrcEvent(2, MsgKind.CONTEXT_RELEASED, "u"),
                  RrcEvent(3, MsgKind.MSG1, "u"),
                  RrcEvent(650, MsgKind.MSG5, "u")]   # closes the hop at 625
        verdict = next(iter_verdicts(iter(events)))
        assert verdict.t_ms == 625
        assert (verdict.n_msg3, verdict.n_msg4, verdict.n_msg5) == (0, 0, 0)

    def test_out_of_order_rejected(self):
        with pytest.raises(StreamOrderError):
            list(iter_verdicts(iter([msg3(2000), msg3(1000)])))

    def test_window_eviction_is_exclusive_left_inclusive_right(self):
        config = DetectorConfig(window_ms=625, hop_ms=1)
        events = [RrcEvent(0, MsgKind.MSG4, "u"), RrcEvent(625, MsgKind.MSG4, "u")]
        # window is (0, 625]: t=0 falls out, t=625 stays
        [verdict] = iter_verdicts(iter(events), config)
        assert verdict.n_msg4 == 1
        events2 = [RrcEvent(1, MsgKind.MSG4, "u"), RrcEvent(626, MsgKind.MSG5, "u")]
        at_625, at_626 = iter_verdicts(iter(events2), config)
        assert at_625.n_msg4 == 1
        assert at_626.n_msg4 == 0


class TestRunStream:
    def test_normal_trace_all_normal(self):
        result = run(normal_scenario(seed=2, duration_ms=60_000), GnbConfig())
        verdicts = run_stream(result.trace, default_detector())
        assert verdicts
        assert {v.state for v in verdicts} == {GnbState.NORMAL}

    def test_attack_trace_detected_then_overloaded(self):
        result = run(attack_scenario(0, seed=3), GnbConfig())
        verdicts = run_stream(result.trace, default_detector())
        latency = detection_latency(verdicts, result.first_msg3_ms, GnbState.ATTACK)
        assert latency is not None
        assert 60 <= latency <= 120
        first_attack = next(v.t_ms for v in verdicts if v.state is GnbState.ATTACK)
        first_overload = next(v.t_ms for v in verdicts if v.state is GnbState.OVERLOAD)
        assert first_attack < first_overload

    def test_highload_trace_no_attack_verdicts(self):
        result = run(highload_scenario(seed=4), GnbConfig())
        verdicts = run_stream(result.trace, default_detector())
        assert not any(v.state is GnbState.ATTACK for v in verdicts)
        latency = detection_latency(verdicts, result.first_msg3_ms, GnbState.HIGH_LOAD)
        assert latency is not None
        assert latency <= 200

    def test_one_verdict_per_hop(self):
        result = run(attack_scenario(0, seed=5), GnbConfig())
        config = default_detector()
        verdicts = run_stream(result.trace, config)
        assert [v.t_ms for v in verdicts] == list(
            range(config.window_ms, verdicts[-1].t_ms + 1, config.hop_ms))

    def test_empty_stream_no_verdicts(self):
        assert run_stream([], default_detector()) == []

    def test_short_stream_no_verdicts(self):
        events = [RrcEvent(10, MsgKind.MSG3, "u", EstablishmentCause.MO_DATA)]
        assert run_stream(events, DetectorConfig(window_ms=625)) == []

    def test_verdicts_depend_only_on_observable_messages(self):
        result = run(attack_scenario(0, seed=6), GnbConfig())
        observable = [e for e in result.trace
                      if e.kind in (MsgKind.MSG3, MsgKind.MSG4, MsgKind.MSG5)]
        config = default_detector()
        assert run_stream(result.trace, config) == run_stream(observable, config)

    def test_r2_non_increasing_while_saturated(self):
        result = run(attack_scenario(0, seed=7), GnbConfig())
        verdicts = run_stream(result.trace, default_detector())
        saturated_from = result.first_msg3_ms + result.drop_time_ms
        attack_end = max(e.t for e in result.trace if e.kind is MsgKind.MSG3)
        window = [v for v in verdicts if saturated_from <= v.t_ms <= attack_end]
        r2_values = [v.r2 for v in window]
        assert all(a >= b for a, b in zip(r2_values, r2_values[1:]))

    def test_ordering_error_propagates(self):
        events = [
            RrcEvent(2000, MsgKind.MSG3, "u", EstablishmentCause.MO_DATA),
            RrcEvent(1000, MsgKind.MSG3, "u", EstablishmentCause.MO_DATA),
        ]
        with pytest.raises(StreamOrderError):
            run_stream(events, DetectorConfig())

    def test_regression_after_the_last_hop_is_caught(self):
        # 750 < 800 comes after the last counted event, where no hop ingests it
        events = [msg3(700), RrcEvent(800, MsgKind.MSG1, "u"), RrcEvent(750, MsgKind.MSG1, "u")]
        with pytest.raises(StreamOrderError, match="t=750 after t=800"):
            run_stream(events, DetectorConfig())

    def test_verdicts_before_a_regression_are_yielded(self):
        config = DetectorConfig(window_ms=100, hop_ms=50)
        verdicts = iter_verdicts(iter([msg3(100), msg3(200), msg3(150)]), config)
        assert [next(verdicts).t_ms for _ in range(2)] == [100, 150]
        with pytest.raises(StreamOrderError, match="t=150 after t=200"):
            next(verdicts)

    def test_streams_advanced_in_turns_keep_their_own_decisions(self):
        # The same window counts classified under two rules: a decision shared
        # between calls, or remembered by counts alone, would leak across streams.
        trace = run(highload_scenario(seed=4), GnbConfig()).trace
        configs = [default_detector(),
                   DetectorConfig(window_ms=625, hop_ms=25, r1_threshold=0.9, msg3_watermark=40)]
        alone = [run_stream(trace, config) for config in configs]
        assert ([v._replace(state=None) for v in alone[0]]
                == [v._replace(state=None) for v in alone[1]])
        assert [v.state for v in alone[0]] != [v.state for v in alone[1]]
        streams = [iter_verdicts(iter(trace), config) for config in configs]
        in_turns = [[], []]
        for pair in zip(*streams):
            for verdicts, verdict in zip(in_turns, pair):
                verdicts.append(verdict)
        assert in_turns == alone


class TestDetectionLatency:
    def _verdict(self, t, state):
        return DetectionVerdict(t, state, 0, 0, 0, 1.0, 1.0)

    def test_attack_detected_90ms_after_onset(self):
        verdicts = [self._verdict(1050, GnbState.NORMAL),
                    self._verdict(1090, GnbState.ATTACK)]
        assert detection_latency(verdicts, 1000, GnbState.ATTACK) == 90

    def test_no_detection_returns_none(self):
        verdicts = [self._verdict(t, GnbState.NORMAL) for t in (625, 650)]
        assert detection_latency(verdicts, 0, GnbState.ATTACK) is None

    def test_highload_latency(self):
        verdicts = [self._verdict(1131, GnbState.HIGH_LOAD)]
        assert detection_latency(verdicts, 1000, GnbState.HIGH_LOAD) == 131


class TestConfigValidation:
    def test_threshold_must_stay_below_one(self):
        with pytest.raises(ValueError, match=r"^r1_threshold must be < 1, got 1\.0$"):
            DetectorConfig(r1_threshold=1.0)

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError, match=r"^r2_threshold must be > 0, got 0\.0$"):
            DetectorConfig(r2_threshold=0.0)

    @pytest.mark.parametrize("name", ["r1_threshold", "r2_threshold"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_threshold_must_be_finite(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value!r}$"):
            DetectorConfig(**{name: value})

    def test_hop_cannot_exceed_window(self):
        with pytest.raises(ValueError, match=r"^hop_ms must be <= window_ms \(100\), got 200$"):
            DetectorConfig(window_ms=100, hop_ms=200)

    def test_watermark_at_least_one(self):
        with pytest.raises(ValueError, match="^msg3_watermark must be > 0, got 0$"):
            DetectorConfig(msg3_watermark=0)


# Every kind can appear, but the counted ones carry the weight, so that windows
# cross the watermark and all four states occur.
WEIGHTED_KINDS = [MsgKind.MSG3] * 6 + [MsgKind.MSG4] * 3 + [MsgKind.MSG5] * 2 + KINDS


@st.composite
def ordered_traces(draw, max_events: int = 80) -> list[RrcEvent]:
    """Non-decreasing timestamps, a cause on exactly the Msg3s."""
    n_events = draw(st.integers(0, max_events))   # lists() would favour short traces
    events, t = [], 0
    for gap in draw(st.lists(st.integers(0, 20), min_size=n_events, max_size=n_events)):
        t += gap
        kind = draw(st.sampled_from(WEIGHTED_KINDS))
        cause = draw(st.sampled_from(CAUSES)) if kind is MsgKind.MSG3 else None
        events.append(RrcEvent(t, kind, "ue-0", cause))
    return events


@st.composite
def detector_configs(draw) -> DetectorConfig:
    window_ms = draw(st.integers(1, 300))
    return DetectorConfig(window_ms=window_ms,
                          hop_ms=draw(st.integers(1, window_ms)),
                          r1_threshold=draw(st.floats(0.01, 0.99)),
                          r2_threshold=draw(st.floats(0.01, 0.99)),
                          msg3_watermark=draw(st.integers(1, 8)))


@settings(max_examples=300, deadline=None)
@given(ordered_traces(), detector_configs())
def test_run_stream_equals_brute_force_window_counter(events, config):
    assert run_stream(events, config) == reference_run_stream(events, config)


@settings(max_examples=300, deadline=None)
@given(ordered_traces(), detector_configs())
def test_iter_verdicts_of_an_iterator_equals_brute_force_window_counter(events, config):
    assert list(iter_verdicts(iter(events), config)) == reference_run_stream(events, config)
