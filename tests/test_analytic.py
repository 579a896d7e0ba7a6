import math
import random

import pytest

import rrcstorm.analytic as analytic
from rrcstorm.analytic import (
    AnalyticInputs,
    WAITING_TIME_EFFECTIVE_MS,
    WAITING_TIME_NOMINAL_MS,
    availability_rate,
    full_model,
)

TABLE_RATE = 132.07


def table_inputs(connected, waiting_time_ms=WAITING_TIME_EFFECTIVE_MS):
    return AnalyticInputs(waiting_time_ms=waiting_time_ms, capacity=16,
                          attack_rate_per_s=TABLE_RATE, connected_ues=connected)


class TestDropTime:
    def test_empty_gnb(self):
        # 16 / 132.07 per s = 0.121 s
        assert full_model(table_inputs(0)).drop_time_ms == pytest.approx(121, abs=0.5)

    def test_quarter_occupied(self):
        assert full_model(table_inputs(4)).drop_time_ms == pytest.approx(91, abs=0.5)

    def test_zero_free_capacity(self):
        inputs = AnalyticInputs(waiting_time_ms=2700, capacity=16,
                                attack_rate_per_s=100, connected_ues=16)
        assert full_model(inputs).drop_time_ms == 0.0

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError):
            AnalyticInputs(waiting_time_ms=2700, capacity=16, attack_rate_per_s=0)

    @pytest.mark.parametrize("field", ["attack_rate_per_s", "benign_rate_per_s"])
    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
    def test_non_finite_rate_rejected(self, field, rate):
        inputs = {"waiting_time_ms": 2700, "capacity": 16, "attack_rate_per_s": 100}
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {rate!r}$"):
            AnalyticInputs(**{**inputs, field: rate})

    @pytest.mark.parametrize("field,value", [
        ("capacity", math.inf), ("capacity", math.nan), ("capacity", 16.5), ("capacity", 16.0),
        ("capacity", True), ("connected_ues", 2.5), ("connected_ues", 2.0),
        ("connected_ues", False)])
    def test_context_counts_must_be_integers(self, field, value):
        inputs = {"waiting_time_ms": 2700, "capacity": 16, "attack_rate_per_s": 100}
        with pytest.raises(TypeError) as excinfo:
            AnalyticInputs(**{**inputs, field: value})
        assert str(excinfo.value) == f"{field} must be an integer, got {value!r}"

    @pytest.mark.parametrize("capacity,connected,message", [
        (0, 0, "capacity must be > 0, got 0"), (-3, 0, "capacity must be > 0, got -3"),
        (16, 17, "connected_ues must be <= capacity (16), got 17"),
        (16, -1, "connected_ues must be >= 0, got -1")])
    def test_context_counts_out_of_range_rejected(self, capacity, connected, message):
        with pytest.raises(ValueError) as excinfo:
            AnalyticInputs(waiting_time_ms=2700, capacity=capacity, attack_rate_per_s=100,
                           connected_ues=connected)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("wait", [math.nan, math.inf, -math.inf])
    def test_non_finite_waiting_time_rejected(self, wait):
        with pytest.raises(ValueError) as excinfo:
            AnalyticInputs(waiting_time_ms=wait, capacity=16, attack_rate_per_s=100)
        assert str(excinfo.value) == f"waiting_time_ms must be finite, got {wait!r}"


class TestAcceptRejectDurations:
    def test_quarter_occupied_effective_wait(self):
        out = full_model(table_inputs(4))
        assert out.overloaded
        assert out.accept_duration_ms == pytest.approx(91, abs=0.5)
        assert out.reject_duration_ms == pytest.approx(2666, abs=0.5)

    def test_nominal_wait_direct_substitution(self):
        # oracle: reject duration = waiting time - free/rate
        expected_drop = 16 / TABLE_RATE * 1000.0
        out = full_model(table_inputs(0, waiting_time_ms=WAITING_TIME_NOMINAL_MS))
        assert out.overloaded
        assert out.accept_duration_ms == pytest.approx(expected_drop)
        assert out.reject_duration_ms == pytest.approx(WAITING_TIME_NOMINAL_MS - expected_drop)
        assert out.accept_duration_ms == pytest.approx(121, abs=0.5)
        assert out.reject_duration_ms == pytest.approx(2579, abs=0.5)

    def test_slow_flood_never_overloads(self):
        inputs = AnalyticInputs(waiting_time_ms=1000, capacity=16, attack_rate_per_s=1)
        out = full_model(inputs)
        assert not out.overloaded
        assert out.reject_duration_ms == 0.0
        assert out.accept_duration_ms == 1000.0

    def test_pool_filling_exactly_at_the_waiting_time_overloads(self):
        # 27 contexts at 10/s fill in 2700 ms: the boundary of drop time <= waiting time
        inputs = AnalyticInputs(waiting_time_ms=2700, capacity=27, attack_rate_per_s=10)
        out = full_model(inputs)
        assert out.drop_time_ms == 2700.0
        assert out.overloaded
        assert out.reject_duration_ms == 0


class TestAcceptedCount:
    @pytest.mark.parametrize("connected,expected", [(4, 12), (0, 16), (16, 0)])
    def test_table_rows(self, connected, expected):
        assert full_model(table_inputs(connected)).accepted == expected


class TestRejectedCount:
    def test_quarter_occupied(self):
        out = full_model(table_inputs(4))
        assert out.rejected == 352
        assert out.rejected_approx == 352

    def test_half_occupied(self):
        assert full_model(table_inputs(8)).rejected == 356

    def test_no_overload_gives_zero(self):
        out = full_model(AnalyticInputs(waiting_time_ms=1000, capacity=16, attack_rate_per_s=1))
        assert (out.rejected, out.rejected_approx) == (0, 0)


class TestAvailabilityRate:
    def test_empty_gnb_row(self):
        assert availability_rate(16, 346) == pytest.approx(4.42, abs=0.01)

    def test_quarter_row(self):
        assert availability_rate(12, 352) == pytest.approx(3.30, abs=0.02)

    def test_no_rejections_is_fully_available(self):
        assert availability_rate(5, 0) == 100.0

    def test_nothing_offered_is_none(self):
        assert availability_rate(0, 0) is None


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

    def test_nothing_offered_reads_zero_availability(self):
        # A full pool gives no accept, and 1 ms of rejecting at 1 Msg3/s rounds to none.
        out = full_model(AnalyticInputs(waiting_time_ms=1, capacity=4, attack_rate_per_s=1,
                                        connected_ues=4))
        assert (out.accepted, out.rejected, out.overloaded) == (0, 0, True)
        assert out.availability_pct == 0.0


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
            assert full_model(faster).drop_time_ms < full_model(inputs).drop_time_ms
            busier = AnalyticInputs(
                inputs.waiting_time_ms, inputs.capacity, inputs.attack_rate_per_s,
                inputs.benign_rate_per_s, inputs.connected_ues + 1)
            assert full_model(busier).drop_time_ms < full_model(inputs).drop_time_ms

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
            out = full_model(inputs)
            if out.overloaded:
                assert out.accept_duration_ms == pytest.approx(out.drop_time_ms)
                assert (out.accept_duration_ms + out.reject_duration_ms
                        == pytest.approx(inputs.waiting_time_ms))

    def test_approximation_gap_is_reject_duration_times_benign_rate(self):
        rng = random.Random(4)
        for _ in range(300):
            inputs = random_inputs(rng)
            out = full_model(inputs)
            if not out.overloaded:
                continue
            gap = out.reject_duration_ms / 1000.0 * inputs.benign_rate_per_s
            # both counts are independently rounded half-up
            assert abs((out.rejected - out.rejected_approx) - gap) <= 1.0
            if inputs.benign_rate_per_s == 0:
                assert out.rejected == out.rejected_approx


def test_round_half_up_boundary():
    assert analytic._round_half_up(2.5) == 3
    assert analytic._round_half_up(2.4999) == 2
    assert analytic._round_half_up(352.09) == 352
