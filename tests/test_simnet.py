import dataclasses
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrcstorm import (
    AnalyticInputs,
    DetectorConfig,
    EstablishmentCause,
    GnbConfig,
    MsgKind,
    ScenarioError,
    ScenarioKind,
    ScenarioSpec,
    TruncatedPoissonSpec,
    full_model,
    run,
    simnet,
    summarize_trace,
    truncated_poisson_sample,
    validate_stream,
)
from rrcstorm.presets import PRESET_NAMES, default_gnb, normal_scenario, scenario_from_preset

from helpers import (
    ReferenceEngine,
    any_order_traces,
    occupancy_timeline,
    reference_summarize_trace,
)


def attack(duration_ms=3000, seed=1, rate=132.07, preconnected=0, **kwargs):
    return ScenarioSpec(kind=ScenarioKind.ATTACK, duration_ms=duration_ms,
                        seed=seed, attacker_rate_per_s=rate,
                        preconnected_bue=preconnected, **kwargs)


def msg3_times(trace):
    return [e.t for e in trace if e.kind is MsgKind.MSG3]


class TestAttackRun:
    def test_paper_defaults_cold_start(self):
        result = run(attack(), GnbConfig())
        assert result.accepted_first_period == 16
        assert 120 <= result.drop_time_ms <= 160
        assert validate_stream(result.trace) is None

    def test_two_context_hand_trace(self):
        # One Msg3 every 10 ms against two contexts: t=0 accepted,
        # t=10 accepted (pool now full), t=20 is the first rejection.
        gnb = GnbConfig(capacity=2, waiting_time_ms=1000,
                        msg3_to_msg4_delay_ms=0, max_msg1_per_frame=1000)
        result = run(attack(duration_ms=1000, rate=100.0), gnb)
        times = msg3_times(result.trace)
        assert times[:3] == [0, 10, 20]
        rejects = [e.t for e in result.trace if e.kind is MsgKind.MSG3_REJECTED]
        assert rejects[0] == 20
        assert result.accepted_msg3 == 2
        assert result.drop_time_ms == 20

    def test_readmission_after_expiry_hand_trace(self):
        # One context, held 30 ms: the Msg3 at t=0 takes it, 10 and 20 are rejected,
        # the expiry queued at t=0 frees it at 30 before that ms's Msg3, which takes it
        # again, and 40 is rejected. Its own expiry frees it after the run, at 60.
        gnb = GnbConfig(capacity=1, waiting_time_ms=30,
                        msg3_to_msg4_delay_ms=0, max_msg1_per_frame=1000)
        trace = run(attack(duration_ms=45, rate=100.0), gnb).trace
        pool_events = [(e.t, e.kind.value) for e in trace if e.kind in (
            MsgKind.MSG3, MsgKind.MSG3_REJECTED, MsgKind.CONTEXT_RELEASED)]
        assert pool_events == [
            (0, "msg3"), (10, "msg3"), (10, "msg3_rejected"), (20, "msg3"),
            (20, "msg3_rejected"), (30, "context_released"), (30, "msg3"),
            (40, "msg3"), (40, "msg3_rejected"), (60, "context_released")]
        holders = [e.ue_ref for e in trace if e.kind is MsgKind.MSG4]
        assert [e.ue_ref for e in trace if e.kind is MsgKind.CONTEXT_RELEASED] == holders

    def test_normal_background_never_saturates(self):
        result = run(normal_scenario(seed=3, duration_ms=60_000), GnbConfig())
        assert result.drop_time_ms is None
        assert result.rejected_msg3 == 0
        assert not any(e.kind is MsgKind.MSG3_REJECTED for e in result.trace)

    def test_attacker_never_sends_msg5(self):
        result = run(attack(), GnbConfig())
        assert not any(e.kind is MsgKind.MSG5 for e in result.trace)

    def test_ra_loop_precedes_every_msg3(self):
        result = run(attack(duration_ms=500), GnbConfig())
        kinds = [e.kind for e in result.trace]
        for i, kind in enumerate(kinds):
            if kind is MsgKind.MSG3:
                assert kinds[i - 2] is MsgKind.MSG1
                assert kinds[i - 1] is MsgKind.MSG2

    def test_attack_cause_carried_on_every_msg3(self):
        result = run(attack(duration_ms=500), GnbConfig())
        for event in result.trace:
            if event.kind is MsgKind.MSG3:
                assert event.cause is EstablishmentCause.EMERGENCY


class TestAttackerSchedule:
    def test_rate_over_one_second(self):
        result = run(attack(duration_ms=1000), GnbConfig())
        # grid includes t=0, so one second holds rate+1 grid points
        assert abs(len(msg3_times(result.trace)) - 132.07) <= 1

    def test_one_per_second(self):
        result = run(attack(duration_ms=3000, rate=1.0), GnbConfig())
        assert msg3_times(result.trace) == [0, 1000, 2000]

    def test_long_run_rate_is_exact(self):
        result = run(attack(duration_ms=10_000), GnbConfig())
        assert abs(len(msg3_times(result.trace)) - 132.07 * 10) <= 2

    def test_rate_clamped_by_msg1_per_frame_cap(self):
        # 300/s requested, but one Msg1 per 7 ms frame caps at ~142.9/s
        result = run(attack(duration_ms=1000, rate=300.0), GnbConfig())
        count = len(msg3_times(result.trace))
        assert abs(count - 1000 / 7) <= 1.5

    def test_uncapped_when_frame_cap_raised(self):
        gnb = GnbConfig(max_msg1_per_frame=1000)
        result = run(attack(duration_ms=1000, rate=300.0), gnb)
        assert abs(len(msg3_times(result.trace)) - 300) <= 1


class TestBenignUe:
    def test_msg5_follows_msg4_after_delay(self):
        scenario = ScenarioSpec(kind=ScenarioKind.HIGH_LOAD, duration_ms=500,
                                seed=1, benign_fleet_rate_per_s=1.0,
                                msg4_to_msg5_delay_ms=10)
        result = run(scenario, GnbConfig())
        msg4 = next(e for e in result.trace if e.kind is MsgKind.MSG4)
        msg5 = next(e for e in result.trace if e.kind is MsgKind.MSG5)
        assert msg4.t == 1   # msg3 at 0 plus gNB processing delay
        assert msg5.t == msg4.t + 10

    def test_t300_retransmissions_then_give_up(self):
        # full pool: the lone benign arrival is rejected, retries every
        # T300=1000 ms up to the cap of 3, keeping one stable identity
        scenario = ScenarioSpec(kind=ScenarioKind.HIGH_LOAD, duration_ms=500,
                                seed=1, benign_fleet_rate_per_s=1.0,
                                preconnected_bue=16)
        result = run(scenario, GnbConfig())
        times = msg3_times(result.trace)
        assert times == [0, 1000, 2000, 3000]
        assert len({e.ue_ref for e in result.trace if e.kind is MsgKind.MSG3}) == 1
        assert result.rejected_msg3 == 4
        assert not any(e.kind is MsgKind.MSG5 for e in result.trace)

    def test_msg5_strictly_before_expiry_wins(self):
        # waiting time 12 ms, Msg5 lands at t=11: connected, never released
        gnb = GnbConfig(capacity=1, waiting_time_ms=12)
        scenario = ScenarioSpec(kind=ScenarioKind.HIGH_LOAD, duration_ms=100,
                                seed=1, benign_fleet_rate_per_s=1.0,
                                msg4_to_msg5_delay_ms=10)
        result = run(scenario, gnb)
        assert any(e.kind is MsgKind.MSG5 for e in result.trace)
        assert not any(e.kind is MsgKind.CONTEXT_RELEASED for e in result.trace)

    def test_msg5_at_expiry_instant_loses(self):
        # waiting time 11 ms, Msg5 lands exactly at expiry: the timer fires
        # first (scheduled earlier), the context is released, Msg5 is stale
        gnb = GnbConfig(capacity=1, waiting_time_ms=11)
        scenario = ScenarioSpec(kind=ScenarioKind.HIGH_LOAD, duration_ms=100,
                                seed=1, benign_fleet_rate_per_s=1.0,
                                msg4_to_msg5_delay_ms=10)
        result = run(scenario, gnb)
        release = next(e for e in result.trace if e.kind is MsgKind.CONTEXT_RELEASED)
        msg5 = next(e for e in result.trace if e.kind is MsgKind.MSG5)
        assert release.t == msg5.t == 11
        assert result.trace.index(release) < result.trace.index(msg5)


class TestTruncatedPoisson:
    def test_degenerate_lambda_zero(self):
        spec = TruncatedPoissonSpec(lam=0.0)
        rng = random.Random(1)
        assert all(truncated_poisson_sample(spec, rng) == 0 for _ in range(100))

    def test_bounds_hold(self):
        spec = TruncatedPoissonSpec()
        rng = random.Random(2)
        draws = [truncated_poisson_sample(spec, rng) for _ in range(20_000)]
        assert set(draws) <= {0, 1, 2, 3}
        assert set(draws) == {0, 1, 2, 3}

    def test_mean_matches_conditional_law(self):
        # oracle: sum k*p(k) / sum p(k) over k=0..3 with p(k)=e^-2 2^k/k!
        p = [math.exp(-2) * 2 ** k / math.factorial(k) for k in range(4)]
        expected = sum(k * pk for k, pk in enumerate(p)) / sum(p)
        assert expected == pytest.approx(30 / 19)
        rng = random.Random(3)
        spec = TruncatedPoissonSpec()
        n = 100_000
        mean = sum(truncated_poisson_sample(spec, rng) for _ in range(n)) / n
        assert mean == pytest.approx(expected, abs=0.02)


class TestDeterminism:
    def test_identical_seed_identical_trace(self):
        a = run(attack(seed=9), GnbConfig())
        b = run(attack(seed=9), GnbConfig())
        assert a.trace == b.trace

    def test_identical_seed_identical_trace_all_kinds(self):
        gnb = GnbConfig()
        scenarios = [
            normal_scenario(seed=8, duration_ms=5000),
            ScenarioSpec(kind=ScenarioKind.HIGH_LOAD, duration_ms=2000, seed=8,
                         benign_fleet_rate_per_s=80.0, preconnected_bue=12),
        ]
        for scenario in scenarios:
            assert run(scenario, gnb).trace == run(scenario, gnb).trace

    def test_distinct_seeds_distinct_attacker_identities(self):
        a = run(attack(seed=1, duration_ms=500), GnbConfig())
        b = run(attack(seed=2, duration_ms=500), GnbConfig())
        refs_a = [e.ue_ref for e in a.trace if e.kind is MsgKind.MSG3]
        refs_b = [e.ue_ref for e in b.trace if e.kind is MsgKind.MSG3]
        assert refs_a != refs_b

    def test_fresh_identity_per_attack_cycle(self):
        result = run(attack(duration_ms=1000), GnbConfig())
        refs = [e.ue_ref for e in result.trace if e.kind is MsgKind.MSG3]
        assert len(refs) == len(set(refs))


class TestInvariants:
    @pytest.mark.parametrize("seed", range(5))
    def test_pool_never_exceeds_capacity(self, seed):
        gnb = GnbConfig()
        for scenario in (attack(seed=seed),
                         normal_scenario(seed=seed, duration_ms=10_000)):
            result = run(scenario, gnb)
            timeline = occupancy_timeline(result.trace, scenario.preconnected_bue)
            assert max(timeline, default=0) <= gnb.capacity

    def test_attack_conservation_all_contexts_expire(self):
        # attacker never completes, so every accepted Msg3 must eventually
        # be followed by a context release in the drained trace
        result = run(attack(duration_ms=1500, seed=4), GnbConfig())
        releases = sum(1 for e in result.trace if e.kind is MsgKind.CONTEXT_RELEASED)
        assert releases == result.accepted_msg3

    def test_normal_conservation_all_setups_complete(self):
        result = run(normal_scenario(seed=6, duration_ms=5000), GnbConfig())
        rejected = {(e.t, e.ue_ref) for e in result.trace
                    if e.kind is MsgKind.MSG3_REJECTED}
        assert not rejected
        msg5_refs = {e.ue_ref for e in result.trace if e.kind is MsgKind.MSG5}
        accepted_refs = {e.ue_ref for e in result.trace if e.kind is MsgKind.MSG3}
        assert accepted_refs == msg5_refs

    def test_live_ref_collision_redrawn_not_rejected(self, monkeypatch):
        # Each 32-bit draw repeats once, so every attack cycle first draws the
        # ref of the context it admitted last; with room in the pool, none of
        # those Msg3s may be rejected.
        draws = itertools.chain.from_iterable((n, n) for n in itertools.count())
        monkeypatch.setattr(random.Random, "getrandbits", lambda self, k: next(draws))
        result = run(attack(duration_ms=1000), GnbConfig(capacity=1000))
        refs = [e.ue_ref for e in result.trace if e.kind is MsgKind.MSG3]
        assert result.rejected_msg3 == 0
        assert result.accepted_msg3 == len(refs) == len(set(refs))

    def test_metrics_recomputable_from_trace(self):
        result = run(attack(seed=11), GnbConfig())
        n_msg3 = sum(1 for e in result.trace if e.kind is MsgKind.MSG3)
        assert result.accepted_msg3 + result.rejected_msg3 == n_msg3


class TestOracleEquivalence:
    def test_sim_matches_closed_form(self):
        # deterministic attacker, zero delays, run spans one waiting period
        rng = random.Random(7)
        for i in range(20):
            while True:
                capacity = rng.randint(2, 32)
                rate = rng.uniform(10.0, 500.0)
                waiting = rng.randint(500, 3000)
                preconnected = rng.randrange(capacity)
                if (capacity - preconnected) / rate * 1000.0 <= 0.8 * waiting:
                    break
            gnb = GnbConfig(capacity=capacity, waiting_time_ms=waiting,
                            msg3_to_msg4_delay_ms=0, max_msg1_per_frame=1000)
            scenario = attack(duration_ms=waiting, seed=100 + i, rate=rate,
                              preconnected=preconnected)
            result = run(scenario, gnb)
            theory = full_model(AnalyticInputs(
                waiting_time_ms=waiting, capacity=capacity,
                attack_rate_per_s=rate, connected_ues=preconnected))
            period = 1000.0 / rate
            assert result.accepted_msg3 == theory.accepted
            assert abs(result.drop_time_ms - theory.drop_time_ms) <= period
            assert abs(result.rejected_msg3 - theory.rejected_approx) <= 2


class TestValidation:
    def test_attack_needs_rate(self):
        with pytest.raises(ScenarioError):
            ScenarioSpec(kind=ScenarioKind.ATTACK, duration_ms=100, seed=1)

    def test_normal_needs_background(self):
        with pytest.raises(ScenarioError):
            ScenarioSpec(kind=ScenarioKind.NORMAL, duration_ms=100, seed=1)

    def test_preconnected_beyond_capacity_rejected(self):
        with pytest.raises(ScenarioError):
            run(attack(preconnected=17), GnbConfig(capacity=16))

    def test_bad_gnb_config_rejected(self):
        with pytest.raises(ScenarioError):
            GnbConfig(capacity=0)

    def test_onset_beyond_duration_rejected(self):
        with pytest.raises(ScenarioError):
            run(attack(duration_ms=100, onset_ms=200), GnbConfig())

    @pytest.mark.parametrize("field", ["attacker_rate_per_s", "benign_fleet_rate_per_s"])
    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_rate_must_be_finite(self, field, rate):
        with pytest.raises(ScenarioError, match=f"{field} must be finite, got {rate}"):
            dataclasses.replace(attack(), **{field: rate})

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -1.0])
    def test_lam_must_be_finite_and_non_negative(self, lam):
        with pytest.raises(ScenarioError, match=f"lam must be finite and >= 0, got {lam}"):
            TruncatedPoissonSpec(lam=lam)

    def test_k_max_nan_rejected(self):
        with pytest.raises(ScenarioError, match="k_max must be >= 0"):
            TruncatedPoissonSpec(lam=0.0, k_max=math.nan)

    @pytest.mark.parametrize("lam,k_max,p", [(60.0, 3, "3.32e-22"), (13.5, 3, "0.000707"),
                                             (800.0, 10_000, "0")])
    def test_lam_the_sampler_would_almost_always_reject(self, lam, k_max, p):
        with pytest.raises(ScenarioError, match=f"probability {p}, below 0.001"):
            TruncatedPoissonSpec(lam=lam, k_max=k_max)

    @pytest.mark.parametrize("lam,k_max", [(2.0, 3), (13.0, 3), (60.0, 60), (0.0, 0),
                                           (500.0, 10**9)])
    def test_lam_with_acceptance_above_the_floor_samples(self, lam, k_max):
        spec = TruncatedPoissonSpec(lam=lam, k_max=k_max)
        rng = random.Random(1)
        assert all(0 <= truncated_poisson_sample(spec, rng) <= k_max for _ in range(20))


@settings(deadline=None, max_examples=300)
@given(any_order_traces(), st.integers(1, 400))
def test_summarize_trace_equals_reference(trace, waiting_time_ms):
    assert summarize_trace(trace, waiting_time_ms) == reference_summarize_trace(
        trace, waiting_time_ms)


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_summarize_engine_trace_equals_reference(preset):
    gnb = default_gnb()
    result = run(scenario_from_preset(preset, 3), gnb)
    assert result == reference_summarize_trace(result.trace, gnb.waiting_time_ms)


@st.composite
def engine_configs(draw):
    """A (ScenarioSpec, GnbConfig) pair at the engine's tie points: trains on the
    same tick, T300 below, at or above the Msg4 delay, an expiry at the Msg4's ms,
    zero delays and up to three Msg1 per 1 ms frame."""
    frame_ms = draw(st.sampled_from([1, 1, 2, 7]))
    delay = draw(st.integers(0, 5))
    waiting = draw(st.sampled_from([max(delay, 1), 1, 40, 300]))
    gnb = GnbConfig(capacity=draw(st.integers(1, 6)), waiting_time_ms=waiting,
                    frame_ms=frame_ms, max_msg1_per_frame=draw(st.integers(1, 3)),
                    msg3_to_msg4_delay_ms=delay)
    kind = draw(st.sampled_from(ScenarioKind))
    background = None
    if kind is ScenarioKind.NORMAL or draw(st.booleans()):
        background = TruncatedPoissonSpec(
            lam=draw(st.sampled_from([0.0, 0.5, 2.0])), k_max=draw(st.integers(0, 3)),
            tick_ms=draw(st.sampled_from([frame_ms, 1, 5, 50])))
    duration = draw(st.integers(1, 400))
    onset = draw(st.integers(0, duration - 1))
    rate = draw(st.sampled_from([5.0, 40.0, 333.3, 1e4]))
    scenario = ScenarioSpec(
        kind=kind, duration_ms=duration, seed=draw(st.integers(0, 2**16)),
        preconnected_bue=draw(st.integers(0, gnb.capacity)),
        attacker_rate_per_s=rate if kind is ScenarioKind.ATTACK else None,
        benign_fleet_rate_per_s=rate if kind is ScenarioKind.HIGH_LOAD else None,
        background=background,
        msg4_to_msg5_delay_ms=draw(st.sampled_from([0, 1, 10])),
        onset_ms=onset, onset_jitter_ms=draw(st.integers(0, duration - onset)),
        t300_ms=draw(st.sampled_from([max(delay - 1, 1), max(delay, 1), delay + 1, 30])),
        max_retries=draw(st.integers(0, 3)),
        benign_hold_ms=draw(st.sampled_from([None, 0, 20])))
    return scenario, gnb


@settings(deadline=None, max_examples=300)
@given(engine_configs())
def test_engine_equals_reference_engine(config):
    # The engine runs trains inline and skips timers that cannot fire; the reference
    # queues each of them, so the two must agree on every trace and metric.
    scenario, gnb = config
    assert run(scenario, gnb) == ReferenceEngine(scenario, gnb).run()


class EightRefs(random.Random):
    """A Random whose 32-bit draws take one of 8 values, so that a UE ref drawn for
    a new Msg3 often names a live context."""

    def getrandbits(self, k):
        return super().getrandbits(3) << 29 if k == 32 else super().getrandbits(k)


def run_with_eight_refs(engine_class, scenario, gnb):
    engine = engine_class(scenario, gnb)
    engine.rng = EightRefs(scenario.seed)
    return engine.run()


@settings(deadline=None, max_examples=300)
@given(engine_configs())
def test_engines_agree_when_drawn_refs_name_live_contexts(config):
    # A draw naming a live context is drawn again, in a reject run as in _fresh_ref.
    # With at most 6 contexts and 8 refs per prefix, each redraw ends.
    scenario, gnb = config
    assert (run_with_eight_refs(simnet._Engine, scenario, gnb)
            == run_with_eight_refs(ReferenceEngine, scenario, gnb))


MS_CONFIGS = [attack(), GnbConfig(), TruncatedPoissonSpec(), DetectorConfig()]


@pytest.mark.parametrize("config,field", [
    (config, f.name) for config in MS_CONFIGS for f in dataclasses.fields(config)
    if f.name.endswith("_ms")])
@pytest.mark.parametrize("bad", [2.0, 2.5, True, "25"])
def test_ms_field_must_be_an_integer(config, field, bad):
    with pytest.raises(TypeError, match=f"{field} must be an integer, got {bad!r}"):
        dataclasses.replace(config, **{field: bad})
