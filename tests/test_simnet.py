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
    RrcEvent,
    ScenarioError,
    ScenarioKind,
    ScenarioSpec,
    TruncatedPoissonSpec,
    full_model,
    run,
    simnet,
    summarize_trace,
    truncated_poisson_sample,
)
from rrcstorm.events import validate_stream
from rrcstorm.presets import PRESET_NAMES, default_gnb, normal_scenario, scenario_from_preset

from helpers import (
    ReferenceEngine,
    any_order_traces,
    occupancy_timeline,
    reference_summarize_trace,
    reject_traces,
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

    def test_msg3s_before_a_slow_msg4_are_admitted(self):
        # One Msg3 every 10 ms, each Msg4 25 ms after its Msg3: t=10 and t=20 run
        # before the first Msg4 and take the two contexts left; t=30 is the first
        # rejection, and the pool stays full to the end.
        gnb = GnbConfig(capacity=3, waiting_time_ms=1000,
                        msg3_to_msg4_delay_ms=25, max_msg1_per_frame=1000)
        result = run(attack(duration_ms=100, rate=100.0), gnb)
        rejects = [e.t for e in result.trace if e.kind is MsgKind.MSG3_REJECTED]
        assert rejects == list(range(30, 100, 10))
        assert result.accepted_msg3 == 3

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

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_normal_background_never_rejects_from_nine_contexts(self, seed):
        # At most 3 arrivals per 100 ms tick, each holding its context 211 ms (1 + 10 +
        # 200): at most 9 contexts are alive at once, so 9 never reject and 8 can.
        assert run(normal_scenario(seed), GnbConfig(capacity=9)).rejected_msg3 == 0
        assert run(normal_scenario(seed), GnbConfig(capacity=8)).rejected_msg3 > 0

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


@st.composite
def unjittered_floods(draw, jitter=0):
    """An attack (ScenarioSpec, GnbConfig) pair with no background and the given onset
    jitter, whose flood starts before its end: table1's scenario over small ranges."""
    gnb = GnbConfig(capacity=draw(st.integers(1, 8)), waiting_time_ms=draw(st.integers(1, 300)),
                    msg3_to_msg4_delay_ms=draw(st.integers(0, 5)))
    scenario = ScenarioSpec(
        kind=ScenarioKind.ATTACK, duration_ms=draw(st.integers(jitter + 1, jitter + 400)),
        preconnected_bue=draw(st.integers(0, gnb.capacity)),
        attacker_rate_per_s=draw(st.floats(1.0, 2000.0)), onset_jitter_ms=jitter)
    return scenario, gnb


def seed_blind(scenario, gnb, seed):
    """A run at seed with its UE refs left out: the (t, kind, cause) of each event, and
    every other field of its SimResult."""
    result = run(dataclasses.replace(scenario, seed=seed), gnb)
    return [(e.t, e.kind, e.cause) for e in result.trace], dataclasses.replace(result, trace=[])


SEEDS = st.integers(0, 2**32)


# table1 runs each occupancy's flood once, at seed 0: with no onset jitter and no
# background, the seed only picks UE refs, and a redraw after a collision with a live
# ref moves no timestamp.
@settings(deadline=None, max_examples=200)
@given(unjittered_floods(), SEEDS, SEEDS)
def test_a_flood_without_jitter_or_background_ignores_its_seed(config, seed_a, seed_b):
    assert seed_blind(*config, seed_a) == seed_blind(*config, seed_b)


@settings(deadline=None, max_examples=50)
@given(unjittered_floods(jitter=200))
def test_a_jittered_flood_depends_on_its_seed(config):
    # The control: the same comparison sees the seed once it draws the onset.
    first = seed_blind(*config, 0)
    assert any(seed_blind(*config, seed) != first for seed in range(1, 8))


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

    @pytest.mark.parametrize("capacity,waiting", [(10**3, 1000), (10**4, 5000)])
    def test_sim_matches_closed_form_above_capacity_32(self, capacity, waiting):
        # Every firing admitted (rate 2000/s under a 1000-per-frame Msg1 cap), a quarter
        # of the pool held from t=0, one waiting period of flood.
        gnb = GnbConfig(capacity=capacity, waiting_time_ms=waiting, max_msg1_per_frame=1000,
                        msg3_to_msg4_delay_ms=0)
        result = run(attack(duration_ms=waiting, rate=2000.0, preconnected=capacity // 4), gnb)
        theory = full_model(AnalyticInputs(waiting_time_ms=waiting, capacity=capacity,
                                           attack_rate_per_s=2000.0,
                                           connected_ues=capacity // 4))
        assert result.accepted_msg3 == theory.accepted
        assert result.drop_time_ms == theory.drop_time_ms
        assert abs(result.rejected_msg3 - theory.rejected_approx) <= 2


class TestValidation:
    def test_attack_needs_rate(self):
        with pytest.raises(ScenarioError,
                           match=r"^attack scenario needs attacker_rate_per_s > 0, got None$"):
            ScenarioSpec(kind=ScenarioKind.ATTACK, duration_ms=100, seed=1)

    def test_high_load_needs_rate(self):
        with pytest.raises(ScenarioError, match=r"^high_load scenario needs "
                                                r"benign_fleet_rate_per_s > 0, got None$"):
            ScenarioSpec(kind=ScenarioKind.HIGH_LOAD, duration_ms=100, attacker_rate_per_s=5.0)

    def test_kind_must_be_a_member(self):
        message = "kind must be a member of ScenarioKind, got 'attack'"
        with pytest.raises(ScenarioError, match=message):
            ScenarioSpec(kind="attack", duration_ms=1000, attacker_rate_per_s=50)

    def test_normal_needs_background(self):
        with pytest.raises(ScenarioError):
            ScenarioSpec(kind=ScenarioKind.NORMAL, duration_ms=100, seed=1)

    def test_background_must_be_a_spec(self):
        # A dict used to reach the engine: AttributeError: 'dict' object has no attribute 'tick_ms'.
        with pytest.raises(TypeError, match="^background must be a TruncatedPoissonSpec, got dict$"):
            ScenarioSpec(kind=ScenarioKind.NORMAL, duration_ms=1000, background={"lam": 2.0})

    def test_preconnected_beyond_capacity_rejected(self):
        with pytest.raises(ScenarioError):
            run(attack(preconnected=17), GnbConfig(capacity=16))

    def test_bad_gnb_config_rejected(self):
        with pytest.raises(ScenarioError):
            GnbConfig(capacity=0)

    @pytest.mark.parametrize("t300_ms,delay", [(1, 5), (4, 5), (1, 2)])
    def test_t300_shorter_than_the_msg4_delay_rejected(self, t300_ms, delay):
        message = (rf"t300_ms \({t300_ms}\) must be >= "
                   rf"msg3_to_msg4_delay_ms \({delay}\)")
        with pytest.raises(ScenarioError, match=message):
            run(dataclasses.replace(normal_scenario(1, 1000), t300_ms=t300_ms),
                GnbConfig(msg3_to_msg4_delay_ms=delay))

    def test_onset_beyond_duration_rejected(self):
        with pytest.raises(ScenarioError):
            run(attack(duration_ms=100, onset_ms=200), GnbConfig())

    @pytest.mark.parametrize("field", ["attacker_rate_per_s", "benign_fleet_rate_per_s"])
    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
    def test_rate_must_be_finite(self, field, rate):
        with pytest.raises(ScenarioError, match=f"^{field} must be finite, got {rate!r}$"):
            dataclasses.replace(attack(), **{field: rate})

    @pytest.mark.parametrize("lam,words", [
        (math.nan, "finite"), (math.inf, "finite"), (-math.inf, "finite"), (-1.0, ">= 0"),
        (-1, ">= 0")], ids=["nan", "inf", "-inf", "-1.0", "-1"])
    def test_lam_must_be_finite_and_non_negative(self, lam, words):
        with pytest.raises(ScenarioError, match=f"^lam must be {words}, got {lam!r}$"):
            TruncatedPoissonSpec(lam=lam)

    def test_k_max_nan_rejected(self):
        with pytest.raises(TypeError, match="k_max must be an integer, got nan"):
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


# summarize_trace is run()'s one check-and-summary pass: on a trace validate_stream
# passes it must equal the multi-pass reference summary, and it must refuse any other
# in validate_stream's words.
@settings(deadline=None, max_examples=300)
@given(any_order_traces() | reject_traces(), st.integers(1, 400))
def test_summarize_trace_equals_reference(trace, waiting_time_ms):
    violation = validate_stream(trace)
    if violation is None:
        assert summarize_trace(trace, waiting_time_ms) == reference_summarize_trace(
            trace, waiting_time_ms)
    else:
        with pytest.raises(ValueError) as excinfo:
            summarize_trace(trace, waiting_time_ms)
        assert str(excinfo.value) == violation


def test_summarize_trace_refuses_a_regressing_trace():
    trace = [RrcEvent(10, MsgKind.MSG3, "ue-0", EstablishmentCause.MO_DATA),
             RrcEvent(5, MsgKind.MSG3_REJECTED, "ue-0")]
    with pytest.raises(ValueError, match="^event 1: timestamp regression 10 -> 5$"):
        summarize_trace(trace, 100)


def test_summarize_trace_reject_and_release_before_any_msg3():
    # A sorted trace may open with a reject and a release: that reject names no Msg3
    # and counts in nothing. The reject at 6 rejects the Msg3 at 6, so the pool
    # dropped 2 ms after the first Msg3, and the release at 9 ends the reject duration.
    trace = [RrcEvent(0, MsgKind.MSG3_REJECTED, "ue-0"),
             RrcEvent(0, MsgKind.CONTEXT_RELEASED, "ue-1"),
             RrcEvent(4, MsgKind.MSG3, "ue-2", EstablishmentCause.MO_DATA),
             RrcEvent(6, MsgKind.MSG3, "ue-0", EstablishmentCause.MO_DATA),
             RrcEvent(6, MsgKind.MSG3_REJECTED, "ue-0"),
             RrcEvent(9, MsgKind.CONTEXT_RELEASED, "ue-2")]
    result = summarize_trace(trace, 5)
    assert result == reference_summarize_trace(trace, 5)
    assert (result.drop_time_ms, result.duration_reject_ms) == (2, 3)
    assert (result.accepted_first_period, result.rejected_first_period) == (1, 1)
    assert (result.accepted_msg3, result.rejected_msg3) == (1, 1)


@pytest.mark.parametrize("rejects", [
    [(1, "x"), (2, "y")],   # other UEs, later: once -100% availability
    [(1, "a")],             # its UE, a later t
    [(0, "b")],             # its t, another UE
])
def test_summarize_trace_counts_no_reject_of_another_ue_or_time(rejects):
    # No reject names the one Msg3 (a at 0) by both ue and t, so none counts against it.
    trace = [RrcEvent(0, MsgKind.MSG3, "a", EstablishmentCause.MO_DATA),
             *(RrcEvent(t, MsgKind.MSG3_REJECTED, ue) for t, ue in rejects)]
    result = summarize_trace(trace, 100)
    assert result == reference_summarize_trace(trace, 100)
    assert (result.accepted_msg3, result.rejected_msg3, result.drop_time_ms) == (1, 0, None)
    assert (result.accepted_first_period, result.rejected_first_period) == (1, 0)
    assert result.availability_first_period_pct == 100.0


def test_summarize_trace_counts_a_repeated_reject_once():
    # The second reject of a at 0 finds its Msg3 already rejected.
    trace = [RrcEvent(0, MsgKind.MSG3, "a", EstablishmentCause.MO_DATA),
             RrcEvent(0, MsgKind.MSG3_REJECTED, "a"),
             RrcEvent(0, MsgKind.MSG3_REJECTED, "a")]
    result = summarize_trace(trace, 100)
    assert result == reference_summarize_trace(trace, 100)
    assert (result.accepted_msg3, result.rejected_msg3, result.drop_time_ms) == (0, 1, 0)
    assert result.availability_first_period_pct == 0.0


@settings(deadline=None, max_examples=300)
@given(any_order_traces() | reject_traces(), st.integers(1, 400))
def test_summarize_trace_metrics_are_in_range(trace, waiting_time_ms):
    # A reject counts only against its own Msg3, so no count, drop time or availability
    # can leave its range, whatever rejects a foreign trace holds.
    if validate_stream(trace) is not None:
        return
    result = summarize_trace(trace, waiting_time_ms)
    counts = (result.accepted_msg3, result.rejected_msg3, result.accepted_first_period,
              result.rejected_first_period)
    assert min(counts) >= 0 and (result.drop_time_ms or 0) >= 0
    if result.first_msg3_ms is not None:
        end = result.first_msg3_ms + waiting_time_ms
        msg3_fp = sum(1 for e in trace if e.kind is MsgKind.MSG3 and e.t < end)
        assert result.rejected_first_period <= msg3_fp
    avail = result.availability_first_period_pct
    assert avail is None or 0.0 <= avail <= 100.0


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_summarize_engine_trace_equals_reference(preset):
    gnb = default_gnb()
    result = run(scenario_from_preset(preset, 3), gnb)
    assert result == reference_summarize_trace(result.trace, gnb.waiting_time_ms)


def _bad_event_after(monkeypatch, step, bad_event):
    """Patch the engine step so that each call appends bad_event(engine, *args) after
    its own events; return the list that gets the trace index of each one appended."""
    appended = []
    original = getattr(simnet._Engine, step)

    def patched(engine, *args):
        original(engine, *args)
        appended.append(len(engine.trace))
        engine.trace.append(bad_event(engine, *args))

    monkeypatch.setattr(simnet._Engine, step, patched)
    return appended


def test_run_refuses_an_engine_trace_whose_time_regresses(monkeypatch):
    appended = _bad_event_after(monkeypatch, "_release", lambda engine, ue_ref: RrcEvent(
        engine.now - 1, MsgKind.MSG5, ue_ref))
    with pytest.raises(AssertionError) as excinfo:
        run(attack(), GnbConfig())
    assert str(excinfo.value) == (f"engine produced an invalid trace: event {appended[0]}: "
                                  "timestamp regression 2700 -> 2699")


def test_run_refuses_an_engine_msg4_with_a_cause(monkeypatch):
    appended = _bad_event_after(monkeypatch, "_gnb_msg4", lambda engine, ue_ref, benign: RrcEvent(
        engine.now, MsgKind.MSG4, ue_ref, EstablishmentCause.MO_DATA))
    with pytest.raises(AssertionError) as excinfo:
        run(attack(), GnbConfig())
    assert str(excinfo.value) == (f"engine produced an invalid trace: event {appended[0]}: "
                                  "cause not allowed on msg4")


@st.composite
def engine_configs(draw):
    """A (ScenarioSpec, GnbConfig) pair at the engine's tie points: trains on the
    same tick, T300 at or above the Msg4 delay, an expiry at the Msg4's ms,
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
        t300_ms=draw(st.sampled_from([max(delay, 1), delay + 1, 30])),
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


@st.composite
def saturated_high_loads(draw, max_free=8):
    """A high-load (ScenarioSpec, GnbConfig) pair at scale, as in paper-highload: a
    pool of 8-512 contexts (log-uniform) with at most max_free of them not
    preconnected, a fleet that spawns faster than those free contexts turn over
    and below the Msg1 cap, and a T300 up to whole multiples of the fleet period,
    so retries tie with spawns. A hold of 20 or 200 ms frees contexts now and then,
    so some retries are admitted. At most 1000 spawns of 16 records each."""
    capacity = round(2 ** draw(st.floats(3, 9)))
    free = draw(st.integers(0, max_free))
    delay, msg5_delay = draw(st.integers(0, 5)), draw(st.sampled_from([0, 1, 10]))
    hold = draw(st.sampled_from([None, 20, 200]))
    # A context turns over in at least delay + msg5_delay + hold ms, and in that time
    # the fleet spawns more UEs than there are free contexts. Without a hold none
    # turns over, and the period is kept below 40 ms.
    turnover_ms = 40 if hold is None else delay + msg5_delay + hold
    half_periods = draw(st.integers(1, 2 * turnover_ms // max(free, 1) - 1))
    period_ms = half_periods / 2
    lowest = max(delay, 1)
    multiple_ms = max(lowest, draw(st.integers(1, 8)) * (2 if half_periods % 2 else 1)
                      * half_periods // 2)
    t300_ms = draw(st.integers(lowest, multiple_ms) | st.just(multiple_ms))
    frame_ms = draw(st.sampled_from([1, 7]))
    gnb = GnbConfig(capacity=capacity, waiting_time_ms=draw(st.sampled_from([40, 300, 2700])),
                    frame_ms=frame_ms, max_msg1_per_frame=2 * frame_ms,
                    msg3_to_msg4_delay_ms=delay)
    onset = draw(st.integers(0, 20))
    scenario = ScenarioSpec(
        kind=ScenarioKind.HIGH_LOAD, seed=draw(st.integers(0, 2**16)),
        duration_ms=onset + math.ceil(draw(st.integers(1, 1000)) * period_ms),
        preconnected_bue=capacity - free,
        benign_fleet_rate_per_s=1000 / period_ms, msg4_to_msg5_delay_ms=msg5_delay,
        onset_ms=onset, t300_ms=t300_ms, max_retries=draw(st.integers(1, 3)),
        benign_hold_ms=hold)
    return scenario, gnb


@settings(deadline=None, max_examples=60)
@given(saturated_high_loads())
def test_engine_equals_reference_engine_in_a_saturated_high_load(config):
    # Most retries meet a full pool and are refused on the T300 lane; the reference
    # queues every T300 on its heap.
    scenario, gnb = config
    assert run(scenario, gnb) == ReferenceEngine(scenario, gnb).run()


@settings(deadline=None, max_examples=60)
@given(saturated_high_loads(max_free=7))
def test_engines_agree_in_a_saturated_high_load_when_refs_name_live_contexts(config):
    # Fewer than 8 benign contexts, so a redraw among 8 refs ends.
    scenario, gnb = config
    assert (run_with_eight_refs(simnet._Engine, scenario, gnb)
            == run_with_eight_refs(ReferenceEngine, scenario, gnb))


@settings(deadline=None, max_examples=300)
@given(engine_configs())
def test_only_a_full_pool_rejects_a_msg3(config):
    scenario, gnb = config
    trace = run(scenario, gnb).trace
    timeline = occupancy_timeline(trace, scenario.preconnected_bue)
    assert max(timeline, default=0) <= gnb.capacity
    for event, occupancy in zip(trace, timeline):
        if event.kind is MsgKind.MSG3_REJECTED:
            assert occupancy == gnb.capacity, event


@settings(deadline=None, max_examples=300)
@given(engine_configs())
def test_every_reject_directly_follows_its_msg3(config):
    # summarize_trace counts a reject only against the latest Msg3, of its ue and t.
    trace = run(*config).trace
    for i, event in enumerate(trace):
        if event.kind is MsgKind.MSG3_REJECTED:
            msg3 = trace[i - 1]
            assert i and (msg3.kind, msg3.t, msg3.ue_ref) == (MsgKind.MSG3, event.t, event.ue_ref)


def test_retry_on_a_ref_another_ue_took_is_redrawn():
    # A benign UE every 10 ms into two contexts, each held 25 ms. The UE at t=20 is
    # rejected; at t=30 the UE that arrives draws the same ref and takes the context
    # freed at 25. At t=40 the first UE's T300 fires with a context free since 35:
    # its ref is held, so it retries under a fresh one and is admitted.
    gnb = GnbConfig(capacity=2, waiting_time_ms=1000, msg3_to_msg4_delay_ms=0,
                    max_msg1_per_frame=1000)
    scenario = ScenarioSpec(kind=ScenarioKind.HIGH_LOAD, duration_ms=31, seed=1,
                            benign_fleet_rate_per_s=100.0, msg4_to_msg5_delay_ms=0,
                            t300_ms=20, benign_hold_ms=25)
    result = run_with_eight_refs(simnet._Engine, scenario, gnb)
    msg3 = [(e.t, e.ue_ref) for e in result.trace if e.kind is MsgKind.MSG3]
    assert [t for t, _ in msg3] == [0, 10, 20, 30, 40]
    assert msg3[3][1] == msg3[2][1] != msg3[4][1]
    assert [(e.t, e.ue_ref) for e in result.trace
            if e.kind is MsgKind.MSG3_REJECTED] == [msg3[2]]
    assert result == run_with_eight_refs(ReferenceEngine, scenario, gnb)


MS_CONFIGS = [attack(), GnbConfig(), TruncatedPoissonSpec(), DetectorConfig()]


@pytest.mark.parametrize("config,field", [
    (config, f.name) for config in MS_CONFIGS for f in dataclasses.fields(config)
    if f.name.endswith("_ms")])
@pytest.mark.parametrize("bad", [2.0, 2.5, True, "25"])
def test_ms_field_must_be_an_integer(config, field, bad):
    with pytest.raises(TypeError, match=f"{field} must be an integer, got {bad!r}"):
        dataclasses.replace(config, **{field: bad})


# The int fields the test above misses, listed by hand, not read from the annotations
# the rule reads; AnalyticInputs' two are in test_analytic.
COUNT_FIELDS = [
    *((GnbConfig(), f) for f in ("capacity", "max_msg1_per_frame")),
    *((attack(), f) for f in ("seed", "preconnected_bue", "max_retries")),
    (TruncatedPoissonSpec(), "k_max"),
    (DetectorConfig(), "msg3_watermark"),
]
ANALYTIC = AnalyticInputs(waiting_time_ms=2700, capacity=16, attack_rate_per_s=100)
FLOAT_FIELDS = [
    *((attack(), f) for f in ("attacker_rate_per_s", "benign_fleet_rate_per_s")),
    (TruncatedPoissonSpec(), "lam"),
    *((DetectorConfig(), f) for f in ("r1_threshold", "r2_threshold")),
    *((ANALYTIC, f) for f in ("waiting_time_ms", "attack_rate_per_s", "benign_rate_per_s")),
]


@pytest.mark.parametrize("config,field", COUNT_FIELDS,
                         ids=[f"{type(c).__name__}.{f}" for c, f in COUNT_FIELDS])
@pytest.mark.parametrize("bad", [2.0, 1.5, True])
def test_count_field_must_be_an_integer(config, field, bad):
    with pytest.raises(TypeError) as excinfo:
        dataclasses.replace(config, **{field: bad})
    assert str(excinfo.value) == f"{field} must be an integer, got {bad!r}"


@pytest.mark.parametrize("config,field", FLOAT_FIELDS,
                         ids=[f"{type(c).__name__}.{f}" for c, f in FLOAT_FIELDS])
@pytest.mark.parametrize("bad", [True, "0.5"])
def test_float_field_must_be_a_number(config, field, bad):
    with pytest.raises(TypeError) as excinfo:
        dataclasses.replace(config, **{field: bad})
    assert str(excinfo.value) == f"{field} must be a number, got {bad!r}"


# The number field whose sign no bound checks: any seed runs. Every other int or float
# field, a scenario rate its kind does not read included, is in its class's _POSITIVE or
# _NON_NEGATIVE.
FREE_FIELDS = {"seed"}
CONFIGS = [attack(), GnbConfig(), TruncatedPoissonSpec(), DetectorConfig(), ANALYTIC]


@pytest.mark.parametrize("config", CONFIGS, ids=[type(c).__name__ for c in CONFIGS])
def test_every_number_field_is_bounded_or_free(config):
    fields = dataclasses.fields(config)
    assert {*config._POSITIVE, *config._NON_NEGATIVE} <= {f.name for f in fields}
    lists = (config._POSITIVE, config._NON_NEGATIVE, FREE_FIELDS)
    for f in fields:
        if f.type.removeprefix("Optional[").rstrip("]") in ("int", "float"):
            assert sum(f.name in names for names in lists) == 1, f.name


# Each bounded field at its first refused value: 0 for a > 0 field, -1 for a >= 0 one.
FIRST_REFUSED = [
    *((GnbConfig(), f, 0) for f in ("capacity", "waiting_time_ms", "frame_ms",
                                    "max_msg1_per_frame")),
    (GnbConfig(), "msg3_to_msg4_delay_ms", -1),
    (TruncatedPoissonSpec(), "tick_ms", 0),
    *((TruncatedPoissonSpec(), f, -1) for f in ("lam", "k_max")),
    *((attack(), f, 0) for f in ("duration_ms", "t300_ms", "attacker_rate_per_s",
                                 "benign_fleet_rate_per_s")),
    *((attack(), f, -1) for f in ("preconnected_bue", "msg4_to_msg5_delay_ms", "onset_ms",
                                  "onset_jitter_ms", "max_retries", "benign_hold_ms")),
    *((DetectorConfig(), f, 0) for f in ("window_ms", "hop_ms", "msg3_watermark")),
    *((DetectorConfig(), f, 0.0) for f in ("r1_threshold", "r2_threshold")),
    *((ANALYTIC, f, 0) for f in ("waiting_time_ms", "capacity", "attack_rate_per_s")),
    *((ANALYTIC, f, -1) for f in ("benign_rate_per_s", "connected_ues")),
]
SIMNET_CONFIGS = (GnbConfig, TruncatedPoissonSpec, ScenarioSpec)


@pytest.mark.parametrize("config,field,bad", FIRST_REFUSED,
                         ids=[f"{type(c).__name__}.{f}" for c, f, _ in FIRST_REFUSED])
def test_bounded_field_refuses_its_first_value_out(config, field, bad):
    with pytest.raises(ValueError) as excinfo:
        dataclasses.replace(config, **{field: bad})
    error = ScenarioError if isinstance(config, SIMNET_CONFIGS) else ValueError
    assert type(excinfo.value) is error
    assert str(excinfo.value) == f"{field} must be {'>' if bad == 0 else '>='} 0, got {bad!r}"


def ints(low, high):
    """An int in [low, high], high first: hypothesis draws a strategy's simplest value (0,
    or sampled_from's first) far more often than the rest, and one field out of range
    refuses a whole config, so a low first would leave few draws for run."""
    return st.sampled_from(range(high, low - 1, -1))


# Each int field of ScenarioSpec and GnbConfig, drawn from its first refused value up: 0
# for a > 0 field, -1 for a >= 0 one. The upper ends keep a run small (duration_ms <= 500,
# capacity <= 8) and most draws runnable: run refuses a pool that preconnected UEs
# overfill, an onset past the end and a T300 shorter than the Msg4 delay.
SCENARIO_INTS = {
    "duration_ms": ints(0, 500), "seed": ints(0, 3), "preconnected_bue": ints(-1, 3),
    "msg4_to_msg5_delay_ms": ints(-1, 10), "onset_ms": ints(-1, 50),
    "onset_jitter_ms": ints(-1, 50), "t300_ms": ints(0, 50), "max_retries": ints(-1, 10),
    "benign_hold_ms": st.none() | ints(-1, 10),
}
GNB_INTS = {
    "capacity": ints(0, 8), "waiting_time_ms": ints(0, 500), "frame_ms": ints(0, 50),
    "max_msg1_per_frame": ints(0, 50), "msg3_to_msg4_delay_ms": ints(-1, 10),
}


@settings(max_examples=500, deadline=None)
@given(kind=st.sampled_from(ScenarioKind), scenario=st.fixed_dictionaries(SCENARIO_INTS),
       gnb=st.fixed_dictionaries(GNB_INTS))
def test_a_config_that_constructs_also_runs(kind, scenario, gnb):
    try:
        spec = ScenarioSpec(kind=kind, attacker_rate_per_s=200.0, benign_fleet_rate_per_s=100.0,
                            background=TruncatedPoissonSpec(), **scenario)
        config = GnbConfig(**gnb)
    except (ScenarioError, TypeError):
        return
    try:
        run(spec, config)
    except ScenarioError:
        pass
