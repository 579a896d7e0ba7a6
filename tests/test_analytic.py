import math
import random

import pytest

import rrcstorm.analytic as analytic
from rrcstorm.analytic import (
    AnalyticInputs,
    WAITING_TIME_EFFECTIVE_MS,
    WAITING_TIME_NOMINAL_MS,
    accept_reject_durations,
    accepted_count,
    availability_rate,
    drop_time,
    full_model,
    rejected_count,
)

TABLE_RATE = 132.07


def table_inputs(connected, waiting_time_ms=WAITING_TIME_EFFECTIVE_MS):
    return AnalyticInputs(waiting_time_ms=waiting_time_ms, capacity=16,
                          attack_rate_per_s=TABLE_RATE, connected_ues=connected)


class TestDropTime:
    def test_empty_gnb(self):
        # 16 / 132.07 per s = 0.121 s
        assert drop_time(table_inputs(0)) == pytest.approx(121, abs=0.5)

    def test_quarter_occupied(self):
        assert drop_time(table_inputs(4)) == pytest.approx(91, abs=0.5)

    def test_zero_free_capacity(self):
        inputs = AnalyticInputs(waiting_time_ms=2700, capacity=16,
                                attack_rate_per_s=100, connected_ues=16)
        assert drop_time(inputs) == 0.0

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError):
            AnalyticInputs(waiting_time_ms=2700, capacity=16, attack_rate_per_s=0)

    @pytest.mark.parametrize("field", ["attack_rate_per_s", "benign_rate_per_s"])
    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_non_finite_rate_rejected(self, field, rate):
        inputs = {"waiting_time_ms": 2700, "capacity": 16, "attack_rate_per_s": 100}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            AnalyticInputs(**{**inputs, field: rate})


class TestAcceptRejectDurations:
    def test_quarter_occupied_effective_wait(self):
        t_accept, t_reject, overloaded = accept_reject_durations(table_inputs(4))
        assert overloaded
        assert t_accept == pytest.approx(91, abs=0.5)
        assert t_reject == pytest.approx(2666, abs=0.5)

    def test_nominal_wait_direct_substitution(self):
        # oracle: reject duration = waiting time - free/rate
        expected_drop = 16 / TABLE_RATE * 1000.0
        t_accept, t_reject, overloaded = accept_reject_durations(
            table_inputs(0, waiting_time_ms=WAITING_TIME_NOMINAL_MS))
        assert overloaded
        assert t_accept == pytest.approx(expected_drop)
        assert t_reject == pytest.approx(WAITING_TIME_NOMINAL_MS - expected_drop)
        assert t_accept == pytest.approx(121, abs=0.5)
        assert t_reject == pytest.approx(2579, abs=0.5)

    def test_slow_flood_never_overloads(self):
        inputs = AnalyticInputs(waiting_time_ms=1000, capacity=16, attack_rate_per_s=1)
        t_accept, t_reject, overloaded = accept_reject_durations(inputs)
        assert not overloaded
        assert t_reject == 0.0
        assert t_accept == 1000.0


class TestAcceptedCount:
    @pytest.mark.parametrize("connected,expected", [(4, 12), (0, 16), (16, 0)])
    def test_table_rows(self, connected, expected):
        assert accepted_count(table_inputs(connected)) == expected


class TestRejectedCount:
    def test_quarter_occupied(self):
        exact, approx = rejected_count(table_inputs(4))
        assert exact == 352
        assert approx == 352

    def test_half_occupied(self):
        exact, approx = rejected_count(table_inputs(8))
        assert exact == 356

    def test_no_overload_gives_zero(self):
        inputs = AnalyticInputs(waiting_time_ms=1000, capacity=16, attack_rate_per_s=1)
        assert rejected_count(inputs) == (0, 0)


class TestAvailabilityRate:
    def test_empty_gnb_row(self):
        avail, unavail = availability_rate([16], [346])
        assert avail == pytest.approx(4.42, abs=0.01)
        assert unavail == pytest.approx(100 - avail)

    def test_quarter_row(self):
        avail, _ = availability_rate([12], [352])
        assert avail == pytest.approx(3.30, abs=0.02)

    def test_no_rejections_is_fully_available(self):
        assert availability_rate([5], [0])[0] == 100.0

    def test_all_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            availability_rate([0], [0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            availability_rate([1, 2], [3])


class TestFullModel:
    def test_half_occupied_row(self):
        out = full_model(table_inputs(8))
        assert out.accepted == 8
        assert out.rejected == 356
        assert out.drop_time_ms == pytest.approx(61, abs=0.5)
        assert out.reject_duration_ms == pytest.approx(2696, abs=0.5)
        assert out.availability_pct == pytest.approx(2.20, abs=0.01)

    def test_three_quarter_occupied_row(self):
        out = full_model(table_inputs(12))
        assert out.accepted == 4
        assert out.drop_time_ms == pytest.approx(30, abs=0.5)
        assert out.availability_pct == pytest.approx(1.10, abs=0.01)

    def test_nominal_waiting_time(self):
        out = full_model(table_inputs(0, waiting_time_ms=WAITING_TIME_NOMINAL_MS))
        assert out.accepted == 16
        assert out.drop_time_ms == pytest.approx(121, abs=0.5)
        assert out.reject_duration_ms == pytest.approx(2579, abs=0.5)
        assert out.rejected == 341
        assert out.availability_pct == pytest.approx(4.48, abs=0.01)


def random_inputs(rng):
    capacity = rng.randint(1, 64)
    return AnalyticInputs(
        waiting_time_ms=rng.uniform(100, 5000),
        capacity=capacity,
        attack_rate_per_s=rng.uniform(1, 500),
        benign_rate_per_s=rng.uniform(0, 20),
        connected_ues=rng.randint(0, capacity),
    )


class TestProperties:
    def test_drop_time_monotone_in_rate_and_load(self):
        rng = random.Random(1)
        for _ in range(200):
            inputs = random_inputs(rng)
            if inputs.connected_ues == inputs.capacity:
                continue
            faster = AnalyticInputs(
                inputs.waiting_time_ms, inputs.capacity,
                inputs.attack_rate_per_s * rng.uniform(1.1, 3.0),
                inputs.benign_rate_per_s, inputs.connected_ues)
            assert drop_time(faster) < drop_time(inputs)
            busier = AnalyticInputs(
                inputs.waiting_time_ms, inputs.capacity, inputs.attack_rate_per_s,
                inputs.benign_rate_per_s, inputs.connected_ues + 1)
            assert drop_time(busier) < drop_time(inputs)

    def test_availability_non_increasing_in_connected_ues(self):
        prev = None
        for connected in range(0, 17):
            out = full_model(table_inputs(connected))
            if prev is not None:
                assert out.availability_pct <= prev + 1e-9
            prev = out.availability_pct

    def test_duration_identities(self):
        rng = random.Random(2)
        for _ in range(300):
            inputs = random_inputs(rng)
            t_accept, t_reject, overloaded = accept_reject_durations(inputs)
            if overloaded:
                assert t_accept == pytest.approx(drop_time(inputs))
                assert t_accept + t_reject == pytest.approx(inputs.waiting_time_ms)

    def test_full_model_matches_composed_operations(self):
        rng = random.Random(3)
        for _ in range(300):
            inputs = random_inputs(rng)
            out = full_model(inputs)
            t_accept, t_reject, overloaded = accept_reject_durations(inputs)
            exact, approx = rejected_count(inputs)
            assert out.overloaded == overloaded
            assert out.accepted == accepted_count(inputs)
            assert out.rejected == exact
            assert out.rejected_approx == approx
            assert out.drop_time_ms == pytest.approx(drop_time(inputs))
            assert out.accept_duration_ms == pytest.approx(t_accept)
            assert out.reject_duration_ms == pytest.approx(t_reject)

    def test_approximation_gap_is_reject_duration_times_benign_rate(self):
        rng = random.Random(4)
        for _ in range(300):
            inputs = random_inputs(rng)
            _, t_reject, overloaded = accept_reject_durations(inputs)
            if not overloaded:
                continue
            exact, approx = rejected_count(inputs)
            gap = t_reject / 1000.0 * inputs.benign_rate_per_s
            # both counts are independently rounded half-up
            assert abs((exact - approx) - gap) <= 1.0
            if inputs.benign_rate_per_s == 0:
                assert exact == approx


def test_round_half_up_boundary():
    assert analytic._round_half_up(2.5) == 3
    assert analytic._round_half_up(2.4999) == 2
    assert analytic._round_half_up(352.09) == 352
