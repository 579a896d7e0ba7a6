"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every check uses the tolerance stated next to it.
"""
import io
import math
import random
import time

import pytest

from rrcstorm import (
    AnalyticInputs,
    GnbConfig,
    GnbState,
    ScenarioKind,
    ScenarioSpec,
    TruncatedPoissonSpec,
    full_model,
    run,
    truncated_poisson_sample,
    write_trace,
    write_verdicts,
)
from rrcstorm.detector import run_stream
from rrcstorm.harness import ExperimentConfig, cmd_table1, latency_campaign
from rrcstorm.presets import (
    attack_scenario,
    default_detector,
    default_gnb,
    highload_scenario,
    normal_scenario,
)
from rrcstorm.telemetry import read_trace

from helpers import random_trace


def report(criterion: str, failures: list[str], detail: str) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance] {criterion}: {status} ({detail})", flush=True)
    assert not failures, "; ".join(failures)


@pytest.fixture(scope="module")
def attack_runs():
    """20 seeded attack runs at paper defaults, with live verdicts."""
    runs = []
    for seed in range(1, 21):
        result = run(attack_scenario(0, seed=seed), default_gnb())
        verdicts = run_stream(result.trace, default_detector())
        runs.append((seed, result, verdicts))
    return runs


def test_criterion_1_analytic_table_reproduction():
    expected = {
        0: (16, 346, 0.121, 4.42),
        25: (12, 352, 0.091, 3.29),
        50: (8, 356, 0.061, 2.20),
        75: (4, 359, 0.030, 1.10),
    }
    start = time.perf_counter()
    failures = []
    theory = {r.occupancy_pct: r for r in cmd_table1() if r.source == "theoretical"}
    for pct, (acc, rej, drop_s, avail) in expected.items():
        row = theory[pct]
        if row.accepted != acc:
            failures.append(f"{pct}%: accepted {row.accepted} != {acc}")
        if abs(row.drop_time_s - drop_s) > 0.002:
            failures.append(f"{pct}%: drop {row.drop_time_s:.4f} vs {drop_s} (tol 0.002)")
        if abs(row.rejected - rej) > 6:
            failures.append(f"{pct}%: rejected {row.rejected} vs {rej} (tol 6)")
        if abs(row.availability_pct - avail) > 0.15:
            failures.append(f"{pct}%: avail {row.availability_pct:.3f} vs {avail} (tol 0.15)")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    report("criterion 1 (analytic table)", failures, f"runtime {elapsed:.3f}s")


def test_criterion_2_simulated_attack_at_paper_defaults():
    start = time.perf_counter()
    failures = []
    for seed in range(1, 11):
        result = run(attack_scenario(0, seed=seed), default_gnb())
        drop_s = result.drop_time_ms / 1000.0
        avail = result.availability_first_period_pct
        if result.accepted_first_period != 16:
            failures.append(f"seed {seed}: accepted {result.accepted_first_period} != 16")
        if not 0.115 <= drop_s <= 0.160:
            failures.append(f"seed {seed}: drop {drop_s:.3f}s outside [0.115, 0.160]")
        if not 3.5 <= avail <= 5.0:
            failures.append(f"seed {seed}: availability {avail:.2f}% outside [3.5, 5.0]")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f}s >= 10s")
    report("criterion 2 (simulated attack)", failures,
           f"10 seeds, runtime {elapsed:.2f}s")


def test_criterion_3_oracle_equivalence_sweep():
    start = time.perf_counter()
    failures = []
    rng = random.Random(20_250_809)
    for i in range(100):
        while True:
            capacity = rng.randint(2, 32)
            rate = rng.uniform(10.0, 500.0)
            waiting = rng.randint(500, 3000)
            preconnected = rng.randrange(capacity)
            if (capacity - preconnected) / rate * 1000.0 <= 0.8 * waiting:
                break
        gnb = GnbConfig(capacity=capacity, waiting_time_ms=waiting,
                        msg3_to_msg4_delay_ms=0, max_msg1_per_frame=1000)
        scenario = ScenarioSpec(kind=ScenarioKind.ATTACK, duration_ms=waiting,
                                seed=500 + i, attacker_rate_per_s=rate,
                                preconnected_bue=preconnected)
        result = run(scenario, gnb)
        theory = full_model(AnalyticInputs(
            waiting_time_ms=waiting, capacity=capacity,
            attack_rate_per_s=rate, connected_ues=preconnected))
        period_ms = 1000.0 / rate
        tag = f"cfg {i} (cap={capacity} rate={rate:.1f}/s wait={waiting} pre={preconnected})"
        if result.accepted_msg3 != theory.accepted:
            failures.append(f"{tag}: accepted {result.accepted_msg3} != {theory.accepted}")
        if abs(result.drop_time_ms - theory.drop_time_ms) > period_ms:
            failures.append(f"{tag}: drop {result.drop_time_ms} vs "
                            f"{theory.drop_time_ms:.1f} (tol {period_ms:.1f}ms)")
        if abs(result.rejected_msg3 - theory.rejected_approx) > 2:
            failures.append(f"{tag}: rejected {result.rejected_msg3} vs "
                            f"{theory.rejected_approx} (tol 2)")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.2f}s >= 30s")
    report("criterion 3 (oracle equivalence)", failures,
           f"100 configs, runtime {elapsed:.2f}s")


def test_criterion_4_detection_latency(attack_runs):
    start = time.perf_counter()
    failures = []
    latencies, margins = [], []
    for seed, result, verdicts in attack_runs:
        first_attack = next((v.t_ms for v in verdicts if v.state is GnbState.ATTACK), None)
        if first_attack is None:
            failures.append(f"seed {seed}: attack never detected")
            continue
        latency = first_attack - result.first_msg3_ms
        if latency >= result.drop_time_ms:
            failures.append(f"seed {seed}: latency {latency} not before drop "
                            f"{result.drop_time_ms}")
        latencies.append(latency)
        margins.append(result.drop_time_ms - latency)
    mean_latency = sum(latencies) / len(latencies)
    mean_margin = sum(margins) / len(margins)
    if not 60 <= mean_latency <= 120:
        failures.append(f"mean latency {mean_latency:.1f}ms outside [60, 120]")
    if mean_margin < 30:
        failures.append(f"mean margin {mean_margin:.1f}ms < 30")
    elapsed = time.perf_counter() - start
    if elapsed >= 20.0:
        failures.append(f"runtime {elapsed:.2f}s >= 20s")
    report("criterion 4 (detection latency)", failures,
           f"20 runs, mean latency {mean_latency:.1f}ms, "
           f"mean margin {mean_margin:.1f}ms, runtime {elapsed:.2f}s")


def test_criterion_5_discrimination():
    start = time.perf_counter()
    failures = []
    highload = ExperimentConfig(
        name="hl", scenario=highload_scenario(seed=0), gnb=default_gnb(),
        detector=default_detector(), seeds=list(range(1, 21)))
    rows, summary = latency_campaign(highload)
    if summary.total_attack_verdicts != 0:
        failures.append(f"{summary.total_attack_verdicts} attack verdicts in high-load runs")
    if summary.detected != 20:
        failures.append(f"only {summary.detected}/20 high-load runs detected")
    elif summary.mean_latency_ms > 200:
        failures.append(f"mean high-load latency {summary.mean_latency_ms:.1f}ms > 200")
    non_normal = 0
    for seed in range(1, 21):
        result = run(normal_scenario(seed=seed, duration_ms=60_000), default_gnb())
        verdicts = run_stream(result.trace, default_detector())
        non_normal += sum(1 for v in verdicts if v.state is not GnbState.NORMAL)
    if non_normal:
        failures.append(f"{non_normal} non-Normal verdicts across normal runs")
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.2f}s >= 60s")
    report("criterion 5 (discrimination)", failures,
           f"mean high-load latency {summary.mean_latency_ms:.1f}ms, "
           f"runtime {elapsed:.2f}s")


def test_criterion_6_state_progression(attack_runs):
    failures = []
    for seed, result, verdicts in attack_runs:
        assert default_detector().hop_ms == 25 < result.drop_time_ms
        states = [v.state for v in verdicts]
        order = (GnbState.NORMAL, GnbState.ATTACK, GnbState.OVERLOAD)
        pos = 0
        for state in states:
            if pos < len(order) and state is order[pos]:
                pos += 1
        if pos != len(order):
            failures.append(f"seed {seed}: progression stalled at {order[pos].value} "
                            f"(saw {[s.value for s in states[:6]]}...)")
    report("criterion 6 (state progression)", failures,
           "Normal->Attack->Overload in all 20 runs")


def test_criterion_7_determinism_and_round_trip(tmp_path):
    failures = []
    # identical seed -> byte-identical trace files
    for seed in (3, 14):
        paths = []
        for tag in ("a", "b"):
            result = run(attack_scenario(0, seed=seed, duration_ms=2500), default_gnb())
            path = tmp_path / f"det-{seed}-{tag}.rrctrace.jsonl"
            write_trace(result.trace, path)
            paths.append(path)
        if paths[0].read_bytes() != paths[1].read_bytes():
            failures.append(f"seed {seed}: trace bytes differ across identical runs")
    # live verdicts == replay verdicts for 10 random seeds
    rng = random.Random(99)
    for _ in range(10):
        seed = rng.randrange(1_000_000)
        result = run(attack_scenario(0, seed=seed, duration_ms=2500), default_gnb())
        live = run_stream(result.trace, default_detector())
        path = tmp_path / "replay.rrctrace.jsonl"
        write_trace(result.trace, path)
        replayed = run_stream(read_trace(path), default_detector())
        if live != replayed:
            failures.append(f"seed {seed}: live and replay verdicts differ")
            continue
        live_buf, replay_buf = io.StringIO(), io.StringIO()
        write_verdicts(live, live_buf)
        write_verdicts(replayed, replay_buf)
        if live_buf.getvalue() != replay_buf.getvalue():
            failures.append(f"seed {seed}: verdict serializations differ")
    # telemetry round-trip on 1000 generated traces
    rng = random.Random(7)
    for i in range(1000):
        events = random_trace(rng)
        buf = io.StringIO()
        write_trace(events, buf)
        if read_trace(io.StringIO(buf.getvalue())) != events:
            failures.append(f"generated trace {i} failed round-trip")
            break
    report("criterion 7 (determinism and round-trip)", failures,
           "2 seed pairs, 10 replay seeds, 1000 generated traces")


def test_criterion_8_truncated_poisson_oracle():
    # brute-force conditional mean over the support
    lam, k_max = 2.0, 3
    pmf = [math.exp(-lam) * lam ** k / math.factorial(k) for k in range(k_max + 1)]
    expected_mean = sum(k * p for k, p in enumerate(pmf)) / sum(pmf)
    rng = random.Random(12345)
    spec = TruncatedPoissonSpec(lam=lam, k_max=k_max)
    n = 1_000_000
    total = 0
    seen = set()
    for _ in range(n):
        k = truncated_poisson_sample(spec, rng)
        total += k
        seen.add(k)
    mean = total / n
    failures = []
    if not seen <= {0, 1, 2, 3}:
        failures.append(f"samples outside bounds: {sorted(seen - {0, 1, 2, 3})}")
    if abs(mean - expected_mean) > 0.01:
        failures.append(f"mean {mean:.4f} vs {expected_mean:.4f} (tol 0.01)")
    report("criterion 8 (truncated Poisson)", failures,
           f"mean {mean:.4f}, oracle {expected_mean:.4f}")
