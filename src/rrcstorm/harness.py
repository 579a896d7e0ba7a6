"""Experiment drivers behind the CLI: scenario runs, the theory-vs-simulation
comparison table, seeded latency campaigns, and offline trace replay.

The repetitions of run and latency are independent seeded engine runs, and
their rows are written in seed order. Each repetition is reduced to its row in
one call (run writes its trace and verdict files there), so they hold one
repetition's trace and verdicts at a time, freed before the next run starts.
table1 runs each occupancy's flood once: its scenario has no seeded draw that a
row can see.
"""
from __future__ import annotations

import csv
import dataclasses
import statistics
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Optional, Sequence

from . import analytic, presets, telemetry
from .analytic import AnalyticInputs, WAITING_TIME_EFFECTIVE_MS, WAITING_TIME_NOMINAL_MS
from .detector import (_COUNTED, DetectionVerdict, DetectorConfig, GnbState,
                       detection_latency, iter_verdicts, run_stream)
from .simnet import GnbConfig, ScenarioKind, ScenarioSpec, SimResult, run


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    scenario: ScenarioSpec
    gnb: GnbConfig
    detector: DetectorConfig
    seeds: Sequence[int]
    out_dir: Optional[Path] = None   # required only by commands that write files

    def __post_init__(self) -> None:
        if not self.seeds:
            raise ValueError("at least one seed required")


def _seeded_run(scenario: ScenarioSpec, seed: int, gnb: GnbConfig, detector: DetectorConfig,
                ) -> tuple[SimResult, list[DetectionVerdict]]:
    """The engine run of scenario at seed, and the detector's verdicts over its trace."""
    result = run(dataclasses.replace(scenario, seed=seed), gnb)
    return result, run_stream(result.trace, detector)


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Header plus rows in csv.writer's default dialect, CRLF ends and all, through
    telemetry's .part file and rename; None is written as an empty cell."""
    # writerow returns what write returns, here the row's text; _write_lines puts
    # back the LF cut from its CRLF.
    row_text = csv.writer(SimpleNamespace(write=str)).writerow
    telemetry._write_lines((row_text(row)[:-1] for row in chain([header], rows)), path)


@dataclass(frozen=True)
class TableOneRow:
    occupancy_pct: int
    source: str                 # "theoretical" | "simulated"
    accepted: float
    rejected: float
    drop_time_s: float
    accept_duration_s: float
    reject_duration_s: float
    availability_pct: float


TABLE1_OCCUPANCIES = presets._ATTACK_OCCUPANCIES


def table1_theoretical_row(occupancy_pct: int,
                           capacity: int = GnbConfig.capacity,
                           rate_per_s: float = presets.ATTACK_RATE_PER_S,
                           waiting_time_ms: float = WAITING_TIME_EFFECTIVE_MS,
                           ) -> TableOneRow:
    inputs = AnalyticInputs(
        waiting_time_ms=waiting_time_ms,
        capacity=capacity,
        attack_rate_per_s=rate_per_s,
        connected_ues=presets.occupied_contexts(capacity, occupancy_pct),
    )
    out = analytic.full_model(inputs)
    return TableOneRow(
        occupancy_pct=occupancy_pct,
        source="theoretical",
        accepted=out.accepted,
        rejected=out.rejected,
        drop_time_s=out.drop_time_ms / 1000.0,
        accept_duration_s=out.accept_duration_ms / 1000.0,
        reject_duration_s=out.reject_duration_ms / 1000.0,
        availability_pct=out.availability_pct,
    )


def table1_scenario(occupancy_pct: int, seed: int,
                    capacity: int = GnbConfig.capacity,
                    rate_per_s: float = presets.ATTACK_RATE_PER_S,
                    waiting_time_ms: int = GnbConfig.waiting_time_ms) -> ScenarioSpec:
    # Cold-start flood covering one full waiting period, no onset delay, so
    # the measured first period lines up with the closed-form single period.
    return ScenarioSpec(
        kind=ScenarioKind.ATTACK,
        duration_ms=waiting_time_ms + 100,
        seed=seed,
        preconnected_bue=presets.occupied_contexts(capacity, occupancy_pct),
        attacker_rate_per_s=rate_per_s,
    )


def table1_simulated_row(occupancy_pct: int, gnb: GnbConfig,
                         rate_per_s: float = presets.ATTACK_RATE_PER_S) -> TableOneRow:
    """One flood: table1_scenario has no onset jitter and no background, so its seed
    only picks UE refs, which no row holds, and every seed gives this row."""
    r = run(table1_scenario(occupancy_pct, 0, gnb.capacity, rate_per_s, gnb.waiting_time_ms),
            gnb)
    if r.drop_time_ms is None:
        raise ValueError(f"flood at {occupancy_pct}% occupancy did not saturate")
    drop_s = r.drop_time_ms / 1000.0
    return TableOneRow(
        occupancy_pct=occupancy_pct,
        source="simulated",
        accepted=r.accepted_first_period,
        rejected=r.rejected_first_period,
        drop_time_s=drop_s,
        accept_duration_s=drop_s,
        # With no release after the first reject the pool rejects to the period's end.
        reject_duration_s=(r.duration_reject_ms if r.duration_reject_ms is not None
                           else gnb.waiting_time_ms - r.drop_time_ms) / 1000.0,
        availability_pct=r.availability_first_period_pct,
    )


def cmd_table1(gnb: GnbConfig = GnbConfig(), out_path: Optional[Path] = None,
               rate_per_s: float = presets.ATTACK_RATE_PER_S) -> list[TableOneRow]:
    """Theory next to simulation for each occupancy level, optionally as CSV.

    The theory rows model the simulated gNB: its waiting time plus the offset
    the reference results show over the nominal one, and the attack rate after
    the engine's Msg1-per-frame clamp.
    """
    theory_wait_ms = gnb.waiting_time_ms + (WAITING_TIME_EFFECTIVE_MS - WAITING_TIME_NOMINAL_MS)
    theory_rate = min(rate_per_s, gnb.max_msg1_rate_per_s)
    rows = []
    for pct in TABLE1_OCCUPANCIES:
        rows.append(table1_theoretical_row(pct, gnb.capacity, theory_rate, theory_wait_ms))
        rows.append(table1_simulated_row(pct, gnb, rate_per_s))
    if out_path is not None:
        _write_csv(out_path, ["occupancy_pct", "source", "accepted_msg3", "rejected_msg3",
                              "drop_time_s", "accept_duration_s", "reject_duration_s",
                              "availability_pct"],
                   ([r.occupancy_pct, r.source, f"{r.accepted:.1f}", f"{r.rejected:.1f}",
                     f"{r.drop_time_s:.3f}", f"{r.accept_duration_s:.3f}",
                     f"{r.reject_duration_s:.3f}", f"{r.availability_pct:.2f}"] for r in rows))
    return rows


@dataclass(frozen=True)
class LatencyRow:
    seed: int
    onset_ms: int
    drop_time_ms: Optional[int]
    latency_ms: Optional[int]
    margin_ms: Optional[int]
    attack_verdicts: int
    highload_verdicts: int


@dataclass(frozen=True)
class LatencySummary:
    target: GnbState
    runs: int
    detected: int
    mean_latency_ms: Optional[float]
    min_latency_ms: Optional[int]
    max_latency_ms: Optional[int]
    mean_margin_ms: Optional[float]
    total_attack_verdicts: int


def _latency_row(config: ExperimentConfig, seed: int, target: GnbState) -> LatencyRow:
    """One seed's row; its trace and verdicts are freed on return, before the next run."""
    result, verdicts = _seeded_run(config.scenario, seed, config.gnb, config.detector)
    onset = result.first_msg3_ms
    if onset is None:
        raise ValueError(f"seed {seed}: scenario produced no Msg3")
    latency = detection_latency(verdicts, onset, target)
    margin = None
    if latency is not None and result.drop_time_ms is not None:
        margin = result.drop_time_ms - latency
    states = [v.state for v in verdicts]
    return LatencyRow(
        seed=seed,
        onset_ms=onset,
        drop_time_ms=result.drop_time_ms,
        latency_ms=latency,
        margin_ms=margin,
        attack_verdicts=states.count(GnbState.ATTACK),
        highload_verdicts=states.count(GnbState.HIGH_LOAD),
    )


def latency_campaign(config: ExperimentConfig,
                     target: Optional[GnbState] = None,
                     out_path: Optional[Path] = None,
                     ) -> tuple[list[LatencyRow], LatencySummary]:
    """Per-seed detection latency against the scenario's ground-truth onset.

    Runs that never reach the target state become failure rows with empty
    latency rather than being dropped from the statistics.
    ValueError for a run with no Msg3, as it has no onset to time from.
    """
    if target is None:
        target = (GnbState.ATTACK if config.scenario.kind is ScenarioKind.ATTACK
                  else GnbState.HIGH_LOAD)
    rows = [_latency_row(config, seed, target) for seed in sorted(config.seeds)]
    detected = [r.latency_ms for r in rows if r.latency_ms is not None]
    margins = [r.margin_ms for r in rows if r.margin_ms is not None]
    summary = LatencySummary(
        target=target,
        runs=len(rows),
        detected=len(detected),
        mean_latency_ms=statistics.mean(detected) if detected else None,
        min_latency_ms=min(detected) if detected else None,
        max_latency_ms=max(detected) if detected else None,
        mean_margin_ms=statistics.mean(margins) if margins else None,
        total_attack_verdicts=sum(r.attack_verdicts for r in rows),
    )
    if out_path is not None:
        _write_csv(out_path, [f.name for f in dataclasses.fields(LatencyRow)],
                   map(dataclasses.astuple, rows))
    return rows, summary


@dataclass(frozen=True)
class RunArtifacts:
    trace_paths: list[Path]
    verdict_paths: list[Path]
    metrics_path: Path
    availability_pct: Optional[float]


def _run_repetition(config: ExperimentConfig, seed: int) -> tuple[Path, Path, list]:
    """One seed's trace and verdict files, written, and its metrics row; the trace and
    verdicts are freed on return, before the next run."""
    result, verdicts = _seeded_run(config.scenario, seed, config.gnb, config.detector)
    stem = config.out_dir / f"{config.name}-seed{seed}"
    trace_path = Path(str(stem) + telemetry.TRACE_SUFFIX)
    verdict_path = Path(str(stem) + telemetry.VERDICT_SUFFIX)
    telemetry.write_trace(result.trace, trace_path)
    telemetry.write_verdicts(verdicts, verdict_path)
    avail = result.availability_first_period_pct
    return trace_path, verdict_path, [
        seed, result.first_msg3_ms, result.drop_time_ms,
        result.accepted_first_period, result.rejected_first_period,
        None if avail is None else f"{avail:.2f}", result.accepted_msg3, result.rejected_msg3]


def cmd_run(config: ExperimentConfig) -> RunArtifacts:
    """Run every repetition; write trace, verdicts and a metrics CSV.

    The aggregate availability is availability_rate over the sums of the
    per-repetition first-period counts.
    """
    if config.out_dir is None:
        raise ValueError("cmd_run needs an output directory")
    trace_paths, verdict_paths, metrics_rows = map(list, zip(
        *(_run_repetition(config, seed) for seed in sorted(config.seeds))))
    acc = sum(row[3] for row in metrics_rows)   # accepted_first_period
    rej = sum(row[4] for row in metrics_rows)   # rejected_first_period
    availability = analytic.availability_rate(acc, rej)
    metrics_rows.append(["aggregate", None, None, acc, rej,
                         None if availability is None else f"{availability:.2f}", None, None])
    metrics_path = config.out_dir / f"{config.name}-metrics.csv"
    _write_csv(metrics_path, ["seed", "first_msg3_ms", "drop_time_ms",
                              "accepted_first_period", "rejected_first_period",
                              "availability_pct", "accepted_total", "rejected_total"],
               metrics_rows)
    return RunArtifacts(trace_paths, verdict_paths, metrics_path, availability)


def cmd_replay(trace_path: Path, detector: DetectorConfig, out_path: Path) -> int:
    """Stream a recorded trace through the detector to a verdict file; returns the count.
    Every line of the trace is checked; only the kinds the detector counts are built."""
    if out_path.exists() and out_path.samefile(trace_path):
        raise ValueError(f"verdict file {out_path} is the trace being replayed")
    return telemetry.write_verdicts(
        iter_verdicts(telemetry.iter_trace(trace_path, kinds=_COUNTED), detector), out_path)
