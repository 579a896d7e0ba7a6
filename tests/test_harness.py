import csv
import gc
import hashlib
import io
import json
import math
import subprocess
import sys
import tracemalloc
from dataclasses import astuple
from pathlib import Path

import pytest

from rrcstorm import (
    GnbConfig,
    GnbState,
    TraceParseError,
    harness,
    read_verdicts,
    run,
    telemetry,
    write_trace,
)
from rrcstorm.analytic import WAITING_TIME_EFFECTIVE_MS, AnalyticInputs, full_model
from rrcstorm.cli import FLAG_FIELDS, ConfigError, load_config_file, main
from rrcstorm.harness import (
    ExperimentConfig,
    RunArtifacts,
    TABLE1_OCCUPANCIES,
    _write_csv,
    cmd_replay,
    cmd_run,
    cmd_table1,
    latency_campaign,
    table1_scenario,
)
from rrcstorm.presets import (
    ATTACK_RATE_PER_S,
    PRESET_NAMES,
    attack_scenario,
    default_detector,
    default_gnb,
    highload_scenario,
    normal_scenario,
    occupied_contexts,
    scenario_from_preset,
)
from rrcstorm.telemetry import _CHUNK_LINES, read_trace

from helpers import child_env


def table1_rows(*args, **kwargs):
    """cmd_table1's rows keyed by (occupancy_pct, source)."""
    return {(r.occupancy_pct, r.source): r for r in cmd_table1(*args, **kwargs)}


def model_row(pct, waiting_time_ms=WAITING_TIME_EFFECTIVE_MS, rate_per_s=ATTACK_RATE_PER_S):
    """The closed form at the paper gNB's 16 contexts, as a table1 row's numeric fields."""
    out = full_model(AnalyticInputs(waiting_time_ms, 16, rate_per_s,
                                    connected_ues=occupied_contexts(16, pct)))
    return (out.accepted, out.rejected, out.drop_time_ms / 1000.0,
            out.accept_duration_ms / 1000.0, out.reject_duration_ms / 1000.0,
            out.availability_pct)


def experiment(scenario, seeds, out_dir, name="exp"):
    return ExperimentConfig(name=name, scenario=scenario, gnb=default_gnb(),
                            detector=default_detector(), seeds=seeds,
                            out_dir=Path(out_dir))


@pytest.mark.parametrize("capacity,pct,held", [(16, 25, 4), (6, 25, 2), (10, 25, 2),
                                               (10, 75, 8), (16, 0, 0), (16, 100, 16)])
def test_occupancy_rounds_half_to_even_everywhere(capacity, pct, held):
    # 6 * 25% = 1.5 and 10 * 75% = 7.5 round up, 10 * 25% = 2.5 rounds down.
    assert occupied_contexts(capacity, pct) == held
    if capacity == GnbConfig.capacity:
        assert attack_scenario(pct, 1).preconnected_bue == held
    gnb = GnbConfig(capacity=capacity)
    assert table1_scenario(pct, 1, gnb).preconnected_bue == held
    if pct in TABLE1_OCCUPANCIES:
        rows = table1_rows(gnb)
        for source in ("theoretical", "simulated"):
            assert rows[(pct, source)].accepted == capacity - held


# Pinned table1.csv bytes per flag set (flags split on spaces).
TABLE1_CSV_DIGESTS = {
    "": "aa12a062700b01e3144eed99d0ba005655eca24f7e39450e8ba53100a9a65714",
    "--capacity 1": "0c4f241ad1c5b5c5a105ea9ccb1a6bc320fd0f9cfac9a1cbcb3a894ab5ce7795",
    "--capacity 64 --waiting-time-ms 1000":
        "18da42034bad857715fea5c5cd786f1345935f072770ba501208edc685a63e06",
    "--waiting-time-ms 3000": "3b87da707883b5e0616f0efd6245ce0c2cf49f917415fcf3c06327df4dd494fc",
    "--attack-rate 50": "b42a472a429dbe5952ca6f063184a6d1b7bba529ad552ca9ef7fa7737cec0d83",
    "--attack-rate 250": "44c7fab9c33571e4b439e7643fedfdcbcfe88c39fb5c2d12bbdd1b7338205275",
}


class TestTableOne:
    def test_theoretical_empty_gnb_row(self):
        row = table1_rows()[(0, "theoretical")]
        assert row.accepted == 16
        assert abs(row.rejected - 346) <= 6
        assert row.drop_time_s == pytest.approx(0.121, abs=0.001)
        assert row.availability_pct == pytest.approx(4.42, abs=0.1)

    def test_theoretical_three_quarter_row(self):
        row = table1_rows()[(75, "theoretical")]
        assert row.accepted == 4
        assert row.drop_time_s == pytest.approx(0.030, abs=0.001)
        assert row.availability_pct == pytest.approx(1.1, abs=0.1)

    def test_simulated_half_occupancy_row(self, tmp_path):
        rows = cmd_table1(out_path=tmp_path / "table1.csv")
        sim50 = next(r for r in rows if r.occupancy_pct == 50 and r.source == "simulated")
        assert sim50.accepted == 8
        assert 0.055 <= sim50.drop_time_s <= 0.085
        header = (tmp_path / "table1.csv").read_text().splitlines()[0]
        assert header.startswith("occupancy_pct,source")

    def test_eight_rows(self, tmp_path):
        rows = cmd_table1()
        assert len(rows) == 8
        assert {r.source for r in rows} == {"theoretical", "simulated"}

    def test_simulated_reject_duration_when_nothing_frees(self):
        # One context, held from t=0 at 75%: the first Msg3 is refused and no release
        # follows it, so the pool rejects for the whole waiting time, as in theory.
        rows = cmd_table1(GnbConfig(capacity=1))
        sim75 = next(r for r in rows if r.occupancy_pct == 75 and r.source == "simulated")
        assert sim75.drop_time_s == 0
        assert sim75.reject_duration_s == pytest.approx(2.7)

    def test_simulated_rows_track_theory(self):
        # drop time within one attack period of the closed form; counts and
        # availability within the spread left by the ms grid
        period_s = 1 / 132.07
        by_key = table1_rows()
        for pct, accepted in ((0, 16), (25, 12), (50, 8), (75, 4)):
            theo = by_key[(pct, "theoretical")]
            sim = by_key[(pct, "simulated")]
            assert sim.accepted == accepted
            assert abs(sim.drop_time_s - theo.drop_time_s) <= period_s + 0.001
            assert abs(sim.rejected - theo.rejected) <= 10
            assert abs(sim.availability_pct - theo.availability_pct) <= 0.2


class TestLatencyCampaign:
    def test_attack_campaign(self, tmp_path):
        config = experiment(attack_scenario(0, seed=0), seeds=[1, 2, 3], out_dir=tmp_path)
        rows, summary = latency_campaign(config, out_path=tmp_path / "lat.csv")
        assert summary.detected == 3
        assert all(r.latency_ms < r.drop_time_ms for r in rows)
        assert (tmp_path / "lat.csv").exists()

    def test_highload_campaign_has_no_attack_verdicts(self, tmp_path):
        config = experiment(highload_scenario(seed=0), seeds=[1, 2, 3], out_dir=tmp_path)
        rows, summary = latency_campaign(config)
        assert summary.target is GnbState.HIGH_LOAD
        assert summary.total_attack_verdicts == 0
        assert summary.detected == 3

    def test_undetected_runs_become_failure_rows(self, tmp_path):
        config = experiment(normal_scenario(seed=0, duration_ms=5000),
                            seeds=[1, 2], out_dir=tmp_path)
        rows, summary = latency_campaign(config, target=GnbState.ATTACK,
                                         out_path=tmp_path / "lat.csv")
        assert summary.detected == 0
        assert len(rows) == 2
        assert all(r.latency_ms is None for r in rows)
        body = (tmp_path / "lat.csv").read_text().splitlines()
        assert len(body) == 3   # header + one row per run


class TestCmdRun:
    def test_artifacts_written(self, tmp_path):
        config = experiment(normal_scenario(seed=0, duration_ms=5000),
                            seeds=[4], out_dir=tmp_path, name="normal")
        artifacts = cmd_run(config)
        assert artifacts.trace_paths[0].name == "normal-seed4.rrctrace.jsonl"
        events = read_trace(artifacts.trace_paths[0])
        assert events
        verdicts = read_verdicts(artifacts.verdict_paths[0])
        assert {v.state for v in verdicts} == {GnbState.NORMAL}
        metrics = artifacts.metrics_path.read_text().splitlines()
        assert metrics[0].startswith("seed,")
        assert metrics[-1].startswith("aggregate,")

    def test_identical_seed_identical_bytes(self, tmp_path):
        scenario = attack_scenario(0, seed=0, duration_ms=2000)
        a = cmd_run(experiment(scenario, [9], tmp_path / "a"))
        b = cmd_run(experiment(scenario, [9], tmp_path / "b"))
        assert a.trace_paths[0].read_bytes() == b.trace_paths[0].read_bytes()
        assert a.verdict_paths[0].read_bytes() == b.verdict_paths[0].read_bytes()

    def test_repetition_availability_uses_sum_form(self, tmp_path):
        scenario = attack_scenario(0, seed=0)
        artifacts = cmd_run(experiment(scenario, [1, 2], tmp_path))
        # identical first-period counts per rep make the pooled value equal
        # to the single-rep value
        single = cmd_run(experiment(scenario, [1], tmp_path / "single"))
        assert artifacts.availability_pct == pytest.approx(single.availability_pct, abs=0.2)


class TestReplay:
    def test_live_equals_replay(self, tmp_path):
        config = experiment(attack_scenario(0, seed=0, duration_ms=2500),
                            seeds=[5], out_dir=tmp_path)
        artifacts = cmd_run(config)
        replayed_path = tmp_path / "replayed.verdicts.jsonl"
        cmd_replay(artifacts.trace_paths[0], default_detector(), replayed_path)
        assert replayed_path.read_bytes() == artifacts.verdict_paths[0].read_bytes()

    def test_replay_empty_trace(self, tmp_path):
        trace = tmp_path / "empty.rrctrace.jsonl"
        trace.write_text("")
        out = tmp_path / "empty.verdicts.jsonl"
        assert cmd_replay(trace, default_detector(), out) == 0
        assert out.read_text() == ""

    def test_corrupt_last_line_leaves_no_verdict_file(self, tmp_path):
        artifacts = cmd_run(experiment(attack_scenario(0, seed=0, duration_ms=2500),
                                       seeds=[5], out_dir=tmp_path))
        trace = artifacts.trace_paths[0]
        with open(trace, "ab") as fh:
            fh.write(b"{bad json\n")
        out = tmp_path / "replayed.verdicts.jsonl"
        lines = len(trace.read_bytes().splitlines())
        with pytest.raises(TraceParseError, match=f"^line {lines}: bad JSON"):
            cmd_replay(trace, default_detector(), out)
        assert artifacts.verdict_paths[0].read_text()   # verdicts came before the bad line
        assert not out.exists()
        assert not Path(f"{out}.part").exists()

    @pytest.mark.parametrize("alias", ["same-path", "symlink", "hard-link"])
    def test_replay_onto_its_own_trace_is_refused(self, tmp_path, capsys, alias):
        trace = tmp_path / "t.rrctrace.jsonl"
        write_trace(run(attack_scenario(0, seed=1, duration_ms=1500), default_gnb()).trace, trace)
        before = trace.read_bytes()
        out = trace if alias == "same-path" else tmp_path / "t.verdicts.jsonl"
        if alias == "symlink":
            out.symlink_to(trace)
        elif alias == "hard-link":
            out.hardlink_to(trace)
        assert main(["replay", str(trace), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: verdict file {out} is the trace being replayed\n")
        assert trace.read_bytes() == before
        assert not Path(f"{out}.part").exists()

    def test_replay_holds_only_the_detector_window(self, tmp_path):
        result = run(attack_scenario(0, seed=1, duration_ms=25_000), default_gnb())
        trace = tmp_path / "long.rrctrace.jsonl"
        write_trace(result.trace, trace)
        out = tmp_path / "long.verdicts.jsonl"
        tracemalloc.start()
        try:
            read_trace(trace)
            _, as_list = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            count = cmd_replay(trace, default_detector(), out)
            _, streaming = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == len(read_verdicts(out)) > 0
        assert as_list > 1_000_000
        assert streaming < 256_000


class TestCli:
    def test_run_normal(self, tmp_path, capsys):
        rc = main(["run", "--scenario", "paper-normal", "--seed", "3",
                   "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "trace:" in out
        assert (tmp_path / "paper-normal-seed3.rrctrace.jsonl").exists()

    def test_latency_subcommand(self, tmp_path, capsys):
        rc = main(["latency", "--scenario", "paper-attack-0", "--seed", "1",
                   "--reps", "2", "--out", str(tmp_path)])
        assert rc == 0
        assert "latency ms" in capsys.readouterr().out

    def test_replay_subcommand(self, tmp_path, capsys):
        main(["run", "--scenario", "paper-attack-0", "--seed", "2",
              "--out", str(tmp_path)])
        trace = tmp_path / "paper-attack-0-seed2.rrctrace.jsonl"
        rc = main(["replay", str(trace), "--out", str(tmp_path / "re.verdicts.jsonl")])
        assert rc == 0
        live = (tmp_path / "paper-attack-0-seed2.verdicts.jsonl").read_bytes()
        assert (tmp_path / "re.verdicts.jsonl").read_bytes() == live

    def test_replay_without_out_writes_verdicts_next_to_trace(self, tmp_path, capsys):
        run_dir, replay_dir = tmp_path / "run", tmp_path / "replay"
        main(["run", "--scenario", "paper-attack-0", "--seed", "2", "--out", str(run_dir)])
        replay_dir.mkdir()
        trace = replay_dir / "storm.rrctrace.jsonl"
        trace.write_bytes((run_dir / "paper-attack-0-seed2.rrctrace.jsonl").read_bytes())
        assert main(["replay", str(trace)]) == 0
        assert sorted(p.name for p in replay_dir.iterdir()) == [
            "storm.rrctrace.jsonl", "storm.verdicts.jsonl"]
        live = (run_dir / "paper-attack-0-seed2.verdicts.jsonl").read_bytes()
        assert (replay_dir / "storm.verdicts.jsonl").read_bytes() == live

    def test_replay_rejects_threshold_of_one(self, tmp_path, capsys):
        trace = tmp_path / "t.rrctrace.jsonl"
        trace.write_text("")
        rc = main(["replay", str(trace), "--r1-threshold", "1.0"])
        assert rc == 2
        assert "r1_threshold" in capsys.readouterr().err

    def test_unknown_scenario_fails(self, tmp_path, capsys):
        rc = main(["run", "--scenario", "no-such-preset", "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: unknown scenario 'no-such-preset'")

    def test_config_file_scenario(self, tmp_path, capsys):
        config = {
            "scenario": {"kind": "attack", "duration_ms": 2000, "seed": 1,
                         "attacker_rate_per_s": 132.07},
            "gnb": {"capacity": 8},
            "detector": {"window_ms": 625, "hop_ms": 25},
        }
        path = tmp_path / "storm.json"
        path.write_text(json.dumps(config))
        rc = main(["run", "--scenario", str(path), "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "storm-seed1.rrctrace.jsonl").exists()

    @staticmethod
    def seeded_config_run(tmp_path, name, seed, *flags):
        """The files of `run` on a config file holding "seed": seed (no key if None)."""
        scenario = {"kind": "attack", "duration_ms": 2000, "attacker_rate_per_s": 132.07,
                    "onset_ms": 500, "onset_jitter_ms": 200}
        if seed is not None:
            scenario["seed"] = seed
        path, out = tmp_path / name / "storm.json", tmp_path / name / "out"
        path.parent.mkdir()
        path.write_text(json.dumps({"scenario": scenario}))
        assert main(["run", "--scenario", str(path), "--out", str(out), *flags]) == 0
        return {f.name: f.read_bytes() for f in sorted(out.iterdir())}

    def test_config_file_seed_is_the_base_seed(self, tmp_path, capsys):
        files = self.seeded_config_run(tmp_path, "file", 7, "--reps", "2")
        assert sorted(files) == ["storm-metrics.csv", "storm-seed7.rrctrace.jsonl",
                                 "storm-seed7.verdicts.jsonl", "storm-seed8.rrctrace.jsonl",
                                 "storm-seed8.verdicts.jsonl"]
        assert files == self.seeded_config_run(tmp_path, "flag", 1, "--seed", "7", "--reps", "2")

    def test_seed_flag_wins_over_the_config_file_seed(self, tmp_path, capsys):
        files = self.seeded_config_run(tmp_path, "file", 7, "--seed", "3")
        assert sorted(files) == ["storm-metrics.csv", "storm-seed3.rrctrace.jsonl",
                                 "storm-seed3.verdicts.jsonl"]
        assert files == self.seeded_config_run(tmp_path, "three", 3)

    def test_config_file_without_a_seed_runs_at_seed_1(self, tmp_path, capsys):
        files = self.seeded_config_run(tmp_path, "none", None)
        assert sorted(files) == ["storm-metrics.csv", "storm-seed1.rrctrace.jsonl",
                                 "storm-seed1.verdicts.jsonl"]
        assert files == self.seeded_config_run(tmp_path, "one", 1)
        assert files == self.seeded_config_run(tmp_path, "flag", 5, "--seed", "1")
        assert load_config_file(tmp_path / "none" / "storm.json")[0].seed == 1

    def test_occupancy_flag_shrinks_free_capacity(self, tmp_path, capsys):
        rc = main(["table1", "--seed", "1", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "table1.csv").exists()

    def test_table1_attack_rate_reaches_both_rows(self, tmp_path, capsys):
        assert main(["table1", "--seed", "1", "--out", str(tmp_path / "default")]) == 0
        assert main(["table1", "--seed", "1", "--attack-rate", "50",
                     "--out", str(tmp_path / "slow")]) == 0
        rows = table1_rows(out_path=tmp_path / "harness.csv", rate_per_s=50.0)
        slow = (tmp_path / "slow" / "table1.csv").read_bytes()
        assert slow == (tmp_path / "harness.csv").read_bytes()
        assert slow != (tmp_path / "default" / "table1.csv").read_bytes()
        for pct in (0, 25, 50, 75):
            free = 16 - round(16 * pct / 100)
            assert rows[(pct, "theoretical")].drop_time_s == pytest.approx(free / 50)
            assert abs(rows[(pct, "simulated")].drop_time_s - free / 50) <= 1 / 50

    @pytest.mark.parametrize("flag", [["--scenario", "paper-attack-25"],
                                      ["--occupancy-pct", "50"], ["--window-ms", "700"],
                                      ["--hop-ms", "35"], ["--watermark", "9"]])
    def test_table1_refuses_flags_it_cannot_honour(self, tmp_path, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["table1", "--seed", "1", "--out", str(tmp_path), *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not (tmp_path / "table1.csv").exists()

    @pytest.mark.parametrize("flags", TABLE1_CSV_DIGESTS)
    def test_table1_csv_bytes_pinned(self, tmp_path, capsys, flags):
        assert main(["table1", *flags.split(), "--out", str(tmp_path)]) == 0
        digest = hashlib.sha256((tmp_path / "table1.csv").read_bytes()).hexdigest()
        assert digest == TABLE1_CSV_DIGESTS[flags]

    def test_table1_default_csv_bytes_unchanged(self, tmp_path, capsys):
        assert main(["table1", "--seed", "1", "--out", str(tmp_path)]) == 0
        csv = (tmp_path / "table1.csv").read_bytes()
        assert hashlib.sha256(csv).hexdigest() == TABLE1_CSV_DIGESTS[""]
        assert b"0,theoretical,16.0,348.0,0.121,0.121,2.636,4.40\r\n" in csv

    @pytest.mark.parametrize("flags", [["--seed", "777", "--reps", "25"],
                                       ["--seed", "-3", "--reps", "2"], ["--reps", "1"]])
    def test_table1_csv_bytes_ignore_seed_and_reps(self, tmp_path, capsys, flags):
        # One flood per occupancy: no seed changes a row, and --reps runs no extra flood.
        assert main(["table1", *flags, "--out", str(tmp_path)]) == 0
        assert hashlib.sha256((tmp_path / "table1.csv").read_bytes()).hexdigest() == (
            TABLE1_CSV_DIGESTS[""])

    def test_table1_theory_follows_waiting_time(self, tmp_path, capsys):
        assert main(["table1", "--seed", "1", "--waiting-time-ms", "3000",
                     "--out", str(tmp_path)]) == 0
        rows = table1_rows(GnbConfig(waiting_time_ms=3000))
        for pct in (0, 25, 50, 75):
            # The reference offset of the effective over the nominal waiting time, 57 ms.
            assert astuple(rows[(pct, "theoretical")])[2:] == model_row(pct, 3057.0)
            gap = (rows[(pct, "theoretical")].reject_duration_s
                   - rows[(pct, "simulated")].reject_duration_s)
            assert gap == pytest.approx(0.057, abs=0.001)
        assert "0,theoretical,16.0,388.0,0.121,0.121,2.936,3.96" in (
            tmp_path / "table1.csv").read_text()

    def test_table1_theory_follows_the_rate_clamp(self, tmp_path, capsys):
        assert main(["table1", "--seed", "1", "--attack-rate", "250",
                     "--out", str(tmp_path)]) == 0
        rows = table1_rows(rate_per_s=250.0)
        clamped = default_gnb().max_msg1_rate_per_s    # one Msg1 per 7 ms frame
        for pct in (0, 25, 50, 75):
            theory = rows[(pct, "theoretical")]
            assert astuple(theory)[2:] == model_row(pct, rate_per_s=clamped)
            assert round(theory.drop_time_s, 3) == round(rows[(pct, "simulated")].drop_time_s, 3)
        assert "0,theoretical,16.0,378.0,0.112,0.112,2.645,4.06" in (
            tmp_path / "table1.csv").read_text()

    def test_table1_flood_too_slow_to_saturate_is_an_error(self, tmp_path, capsys):
        assert main(["table1", "--attack-rate", "5", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "error: flood at 0% occupancy did not saturate\n")


# Pinned metrics CSV bytes: None cells are empty, the aggregate row has 8 cells.
RUN_METRICS_CSV = {
    "paper-normal": [
        "1,100,,45,0,100.00,962,0",
        "2,0,,41,0,100.00,998,0",
        "aggregate,,,86,0,100.00,,",
    ],
    "paper-attack-0": [
        "1,1034,121,16,341,4.48,32,360",
        "2,1014,121,16,341,4.48,32,363",
        "aggregate,,,32,682,4.48,,",
    ],
}


def csv_bytes(lines):
    return "".join(line + "\r\n" for line in lines).encode()


class TestCsvBytes:
    @pytest.mark.parametrize("preset", sorted(RUN_METRICS_CSV))
    def test_run_metrics_csv(self, tmp_path, capsys, preset):
        rc = main(["run", "--scenario", preset, "--seed", "1", "--reps", "2",
                   "--out", str(tmp_path)])
        assert rc == 0
        header = ("seed,first_msg3_ms,drop_time_ms,accepted_first_period,"
                  "rejected_first_period,availability_pct,accepted_total,rejected_total")
        assert (tmp_path / f"{preset}-metrics.csv").read_bytes() == csv_bytes(
            [header] + RUN_METRICS_CSV[preset])

    def test_undetected_latency_csv(self, tmp_path, capsys):
        rc = main(["latency", "--scenario", "paper-normal", "--seed", "1", "--reps", "1",
                   "--out", str(tmp_path)])
        assert rc == 1   # the normal run never reaches High-Load
        assert (tmp_path / "paper-normal-latency.csv").read_bytes() == csv_bytes([
            "seed,onset_ms,drop_time_ms,latency_ms,margin_ms,attack_verdicts,highload_verdicts",
            "1,100,,,,0,0",
        ])

    def test_bytes_are_csv_writers(self, tmp_path):
        header, rows = ["h1", "h2", "h3"], [[1, None, 'a,"b"'], ["line\nbreak", "cr\r\nlf", 2.5]]
        expected = io.StringIO(newline="")
        csv.writer(expected).writerows([header, *rows])
        _write_csv(tmp_path / "out.csv", header, iter(rows))
        assert (tmp_path / "out.csv").read_bytes() == expected.getvalue().encode()

    def test_rows_that_fail_part_way_leave_no_file(self, tmp_path):
        def rows():
            yield from ([i, "x"] for i in range(2 * _CHUNK_LINES + 3))
            raise RuntimeError("row source failed")

        with pytest.raises(RuntimeError, match="row source failed"):
            _write_csv(tmp_path / "out.csv", ["seed", "x"], rows())
        assert list(tmp_path.iterdir()) == []


# A valid value for every flag of the override table, each unlike its default.
FLAG_VALUES = {"capacity": 20, "waiting_time_ms": 3000, "attack_rate": 100.0,
               "window_ms": 700, "hop_ms": 35, "watermark": 9,
               "r1_threshold": 0.25, "r2_threshold": 0.75}
REPLAY_FLAGS = ("window_ms", "hop_ms", "watermark", "r1_threshold", "r2_threshold")
RUN_FLAGS = tuple(d for d in FLAG_FIELDS if not d.startswith(("r1_", "r2_")))


def test_flag_values_cover_override_table():
    assert set(FLAG_VALUES) == set(FLAG_FIELDS) == set(RUN_FLAGS) | set(REPLAY_FLAGS)


@pytest.mark.parametrize("cmd,dest", [("run", d) for d in RUN_FLAGS]
                         + [("replay", d) for d in REPLAY_FLAGS])
def test_override_table_entry_sets_its_field(tmp_path, capsys, monkeypatch, cmd, dest):
    seen = {}

    def fake_run(config):
        seen.update(scenario=config.scenario, gnb=config.gnb, detector=config.detector)
        return RunArtifacts([], [], tmp_path / "m.csv", None)

    def fake_replay(trace_path, detector, out_path):
        seen.update(detector=detector)
        return 0

    monkeypatch.setattr(harness, "cmd_run", fake_run)
    monkeypatch.setattr(harness, "cmd_replay", fake_replay)
    flag = ["--" + dest.replace("_", "-"), str(FLAG_VALUES[dest])]
    argv = ([cmd, "--out", str(tmp_path)] if cmd == "run"
            else [cmd, str(tmp_path / "t.rrctrace.jsonl")])
    assert main(argv + flag) == 0
    section, field = FLAG_FIELDS[dest]
    assert getattr(seen[section], field) == FLAG_VALUES[dest]


GOOD_SCENARIO = {"kind": "attack", "duration_ms": 2000, "attacker_rate_per_s": 132.07}


@pytest.mark.parametrize("config,message", [
    ({"scenario": {**GOOD_SCENARIO, "x": 1}}, "scenario: unknown keys ['x']"),
    ({"scenario": {**GOOD_SCENARIO, "background": {"lam": 2.0, "x": 1}}},
     "scenario.background: unknown keys ['x']"),
    ({"scenario": {**GOOD_SCENARIO, "background": [2.0]}},
     "scenario.background: expected an object, got list"),
    ({"gnb": {"capacity": 16}}, "missing key 'scenario'"),
    ([GOOD_SCENARIO], "expected an object, got list"),
    ({"scenario": GOOD_SCENARIO, "gnbs": {}}, "unknown keys ['gnbs']"),
    ({"scenario": GOOD_SCENARIO, "gnb": {"capacity": "16"}},
     "gnb: capacity must be an integer, got '16'"),
    ({"scenario": GOOD_SCENARIO, "gnb": []}, "gnb: expected an object, got list"),
    ({"scenario": GOOD_SCENARIO, "detector": {"min_msg3_for_ratios": 3}},
     "detector: unknown keys ['min_msg3_for_ratios']"),
    ({"scenario": GOOD_SCENARIO, "detector": {"hop_ms": 0}}, "detector: hop_ms must be"),
    ({"scenario": {**GOOD_SCENARIO, "kind": "storm"}},
     "scenario: 'storm' is not a valid ScenarioKind"),
    ({"scenario": {**GOOD_SCENARIO, "kind": []}}, "scenario: [] is not a valid ScenarioKind"),
    ({"scenario": {**GOOD_SCENARIO, "attacker_cause": {}}},
     "scenario: {} is not a valid EstablishmentCause"),
    ({"scenario": {**GOOD_SCENARIO, "duration_ms": 0}}, "scenario: duration_ms must be > 0"),
    ({"scenario": {**GOOD_SCENARIO, "onset_ms": 1000.5}},
     "scenario: onset_ms must be an integer, got 1000.5"),
    ({"scenario": GOOD_SCENARIO, "detector": {"hop_ms": 25.5}},
     "detector: hop_ms must be an integer, got 25.5"),
    ({"scenario": GOOD_SCENARIO, "gnb": {"waiting_time_ms": True}},
     "gnb: waiting_time_ms must be an integer, got True"),
    ({"scenario": {**GOOD_SCENARIO, "background": {"tick_ms": 100.0}}},
     "scenario.background: tick_ms must be an integer, got 100.0"),
    ({"scenario": {**GOOD_SCENARIO, "kind": None}},
     "scenario: kind must be a member of ScenarioKind, got None"),
    ({"scenario": {**GOOD_SCENARIO, "attacker_cause": None}},
     "scenario: attacker_cause must be a member of EstablishmentCause, got None"),
    # A rate the kind does not read is still bounded.
    ({"scenario": {"kind": "high_load", "duration_ms": 500, "benign_fleet_rate_per_s": 80.0,
                   "attacker_rate_per_s": -5}},
     "scenario: attacker_rate_per_s must be > 0, got -5"),
])
def test_bad_config_file_is_a_located_error(tmp_path, capsys, config, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {message}")
    assert err.count("\n") == 1 and "Traceback" not in err


GOOD_RECORDS = {
    "trace": {"t": 0, "kind": "msg1", "ue": "a"},
    "verdicts": {"t": 625, "state": "normal", "n_msg3": 0, "n_msg4": 0, "n_msg5": 0,
                 "r1": 1.0, "r2": 1.0},
    "config": {"scenario": GOOD_SCENARIO},
}
READERS = {"trace": read_trace, "verdicts": read_verdicts, "config": load_config_file}


@pytest.mark.parametrize("reader", list(GOOD_RECORDS))
@pytest.mark.parametrize("fault", ["list", "extra-key", "missing-key", "repeated-key", "nested",
                                   "not-utf8"])
def test_one_fault_has_one_wording(tmp_path, reader, fault):
    record, read = GOOD_RECORDS[reader], READERS[reader]
    first = next(iter(record))
    again = json.dumps({first: record[first]})[1:]
    content, reason = {
        "list": (json.dumps([record]).encode(), "expected an object, got list"),
        "extra-key": (json.dumps({**record, "x": 1}).encode(), "unknown keys ['x']"),
        "missing-key": (json.dumps({k: v for k, v in record.items() if k != first}).encode(),
                        f"missing key '{first}'"),
        "repeated-key": ((json.dumps(record)[:-1] + ", " + again).encode(),
                         f"duplicate key '{first}'"),
        "nested": (b"[" * 100_000, "bad JSON: nested too deep"),
        "not-utf8": (b"\xff", "not UTF-8: 'utf-8' codec can't decode byte 0xff in position 0: "
                              "invalid start byte"),
    }[fault]
    path = tmp_path / "in.jsonl"
    path.write_text(json.dumps(record) + "\n")
    read(path)   # the record itself is accepted
    path.write_bytes(content + b"\n")
    with pytest.raises(ConfigError if reader == "config" else TraceParseError) as excinfo:
        read(path)
    assert str(excinfo.value) == (f"{path}: " if reader == "config" else "line 1: ") + reason


@pytest.mark.parametrize("text,message", [
    # json.loads alone would run this config on the second gnb, at capacity 99.
    ('{"scenario": %s, "gnb": {"capacity": 4}, "gnb": {"capacity": 99}}',
     "duplicate key 'gnb'"),
    ('{"scenario": %s, "gnb": {"capacity": 4, "capacity": 99}}', "gnb: duplicate key 'capacity'"),
    ('{"scenario": {"kind": "normal", "duration_ms": 500,'
     ' "background": {"lam": 2.0, "lam": 0.5}}}', "scenario.background: duplicate key 'lam'"),
])
def test_repeated_config_key_is_a_located_error(tmp_path, capsys, text, message):
    path = tmp_path / "cfg.json"
    path.write_text(text.replace("%s", json.dumps(GOOD_SCENARIO)))
    with pytest.raises(ConfigError) as excinfo:
        load_config_file(path)
    assert str(excinfo.value) == f"{path}: {message}"
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not list(tmp_path.glob("*.jsonl"))


def run_cli(argv, stdin=None):
    """`python -m rrcstorm.cli argv` in a child process, fed the text stdin if given,
    stopped after 60 s."""
    return subprocess.run([sys.executable, "-m", "rrcstorm.cli", *argv], capture_output=True,
                          text=True, env=child_env(), timeout=60, input=stdin)


# Path("") is ".": an empty --scenario names a directory, and no directory is a config.
@pytest.mark.parametrize("kind", ["empty", "directory"])
def test_scenario_that_is_no_file_is_one_error_line(tmp_path, kind):
    scenario = "" if kind == "empty" else str(tmp_path)
    proc = run_cli(["run", "--scenario", scenario, "--out", str(tmp_path / "out")])
    assert (proc.returncode, proc.stderr) == (2, (
        f"error: unknown scenario {scenario!r}: not a preset "
        f"({', '.join(PRESET_NAMES)}) and no such file\n"))
    assert not (tmp_path / "out").exists()


def test_scenario_read_from_stdin(tmp_path):
    proc = run_cli(["run", "--scenario", "/dev/stdin", "--out", str(tmp_path)],
                   stdin=json.dumps({"scenario": GOOD_SCENARIO}))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "stdin-metrics.csv", "stdin-seed1.rrctrace.jsonl", "stdin-seed1.verdicts.jsonl"]


# Past the spec checks, each of these configs would hang or crash the engine, so the
# CLI runs in a child process that a timeout can stop.
BACKGROUND = {"kind": "normal", "duration_ms": 2000}


@pytest.mark.parametrize("scenario,message", [
    ({**BACKGROUND, "background": {"lam": math.nan}},
     "scenario.background: lam must be finite, got nan"),
    ({**BACKGROUND, "background": {"lam": math.inf}},
     "scenario.background: lam must be finite, got inf"),
    ({**BACKGROUND, "background": {"lam": 60}},
     "scenario.background: lam=60 with k_max=3 accepts a draw with probability 3.32e-22, "
     "below 0.001"),
    ({**BACKGROUND, "background": {"lam": 0, "k_max": math.nan}},
     "scenario.background: k_max must be an integer, got nan"),
    ({"kind": "high_load", "duration_ms": 2000, "benign_fleet_rate_per_s": math.inf},
     "scenario: benign_fleet_rate_per_s must be finite, got inf"),
    ({**GOOD_SCENARIO, "attacker_rate_per_s": math.nan},
     "scenario: attacker_rate_per_s must be finite, got nan"),
], ids=["lam-nan", "lam-inf", "lam-60", "k_max-nan", "fleet-inf", "attack-nan"])
def test_config_that_would_hang_the_engine_is_a_located_error(tmp_path, scenario, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": scenario}))   # NaN and Infinity, as json writes them
    proc = run_cli(["run", "--scenario", str(path), "--out", str(tmp_path)])
    assert (proc.returncode, proc.stderr) == (2, f"error: {path}: {message}\n")


def test_t300_shorter_than_the_msg4_delay_is_one_error_line(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": {**GOOD_SCENARIO, "t300_ms": 1},
                                "gnb": {"msg3_to_msg4_delay_ms": 5}}))
    proc = run_cli(["run", "--scenario", str(path), "--out", str(tmp_path)])
    assert (proc.returncode, proc.stderr) == (
        2, f"error: {path}: t300_ms (1) must be >= msg3_to_msg4_delay_ms (5)\n")


FULL_POOL = {"kind": "high_load", "duration_ms": 2000, "benign_fleet_rate_per_s": 80.0,
             "preconnected_bue": 16}


# Past the type rule, each of these would hang the engine (max_retries 1.5 on a full
# pool), crash it or count a bool as contexts, so the CLI runs in a child process that
# a timeout can stop.
@pytest.mark.parametrize("config,message", [
    ({"scenario": {**FULL_POOL, "max_retries": 1.5}},
     "scenario: max_retries must be an integer, got 1.5"),
    ({"scenario": {**GOOD_SCENARIO, "preconnected_bue": 2.5}},
     "scenario: preconnected_bue must be an integer, got 2.5"),
    ({"scenario": GOOD_SCENARIO, "gnb": {"capacity": 16.5}},
     "gnb: capacity must be an integer, got 16.5"),
    ({"scenario": GOOD_SCENARIO, "gnb": {"capacity": True}},
     "gnb: capacity must be an integer, got True"),
], ids=["max_retries-1.5", "preconnected-2.5", "capacity-16.5", "capacity-true"])
def test_mistyped_count_is_one_error_line(tmp_path, config, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    proc = run_cli(["run", "--scenario", str(path), "--out", str(tmp_path)])
    assert (proc.returncode, proc.stderr) == (2, f"error: {path}: {message}\n")


# A benign UE's Msg5 or release this far before now once reached the engine and crashed
# it: AssertionError: event queue regressed, a traceback and exit 1.
@pytest.mark.parametrize("cmd", ["run", "latency"])
@pytest.mark.parametrize("field,value", [("msg4_to_msg5_delay_ms", -5), ("benign_hold_ms", -50)])
def test_negative_benign_delay_is_one_error_line(tmp_path, capsys, cmd, field, value):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": {**FULL_POOL, "preconnected_bue": 0, field: value}}))
    assert main([cmd, "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: scenario: {field} must be >= 0, got {value}\n"
    assert not (tmp_path / "out").exists()


def test_refused_run_leaves_no_directory(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": {**GOOD_SCENARIO, "preconnected_bue": 20}}))
    out = tmp_path / "new"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: preconnected_bue (20) exceeds gNB capacity (16)\n")
    # The engine refuses it too, when harness is called with no config file: 12 > 8.
    config = ExperimentConfig(name="x", scenario=attack_scenario(75, 1),
                              gnb=GnbConfig(capacity=8), detector=default_detector(),
                              seeds=[1], out_dir=out)
    with pytest.raises(ValueError, match=r"^preconnected_bue \(12\) exceeds gNB capacity \(8\)$"):
        cmd_run(config)
    assert not out.exists()


# The capacity check runs after the flags: they can make a file's sections fit or not.
@pytest.mark.parametrize("preconnected,flags,err", [
    (20, ["--capacity", "32"], ""),
    (20, ["--occupancy-pct", "50"], ""),
    (12, ["--capacity", "8"], "preconnected_bue (12) exceeds gNB capacity (8)"),
], ids=["capacity-fits", "occupancy-fits", "capacity-overfull"])
def test_flags_decide_whether_a_config_file_fits(tmp_path, capsys, preconnected, flags, err):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": {**GOOD_SCENARIO, "preconnected_bue": preconnected}}))
    code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "out"), *flags])
    assert (code, capsys.readouterr().err) == ((2, f"error: {path}: {err}\n") if err else (0, ""))


# A preset holds its share of the resolved capacity; an explicit --occupancy-pct wins.
@pytest.mark.parametrize("argv,accepted", [
    (["run", "--scenario", "paper-attack-75", "--capacity", "8"], 2),
    (["run", "--scenario", "paper-attack-50", "--capacity", "64"], 32),
    (["run", "--scenario", "paper-attack-50", "--capacity", "64", "--occupancy-pct", "25"], 48),
    (["latency", "--scenario", "paper-highload", "--capacity", "8"], None),
], ids=["attack-75-at-8", "attack-50-at-64", "occupancy-flag-wins", "highload-at-8"])
def test_preset_occupancy_follows_capacity(tmp_path, capsys, argv, accepted):
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    if accepted is not None:
        row, _aggregate = csv.DictReader(io.StringIO((tmp_path / f"{argv[2]}-metrics.csv")
                                                     .read_text()))
        assert int(row["accepted_first_period"]) == accepted


@pytest.mark.parametrize("existing", [False, True], ids=["new-dir", "existing-dir"])
def test_failed_replay_removes_only_the_directories_it_made(tmp_path, capsys, existing):
    trace = tmp_path / "bad.rrctrace.jsonl"
    trace.write_text("junk\n")
    vdir = tmp_path / "vdir"
    if existing:
        vdir.mkdir()
    assert main(["replay", str(trace), "--out", str(vdir / "sub" / "v.jsonl")]) == 2
    assert capsys.readouterr().err.startswith("error: line 1: bad JSON: ")
    assert sorted(tmp_path.rglob("*")) == [trace] + [vdir] * existing


def test_latency_on_a_scenario_with_no_msg3_is_one_error_line(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": {"kind": "normal", "duration_ms": 1000,
                                             "background": {"lam": 0.0}}}))
    proc = run_cli(["latency", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert (proc.returncode, proc.stderr) == (2, "error: seed 1: scenario produced no Msg3\n")
    assert not (tmp_path / "out").exists()


def test_jittered_onset_past_the_duration_is_refused_with_the_config(tmp_path):
    # Seeds 1-4 draw an onset inside the run; a later seed could draw one past its end.
    path = tmp_path / "j.json"
    path.write_text(json.dumps({"scenario": {
        "kind": "attack", "duration_ms": 1000, "attacker_rate_per_s": 132.07,
        "onset_ms": 900, "onset_jitter_ms": 200}}))
    proc = run_cli(["run", "--scenario", str(path), "--seed", "1", "--reps", "6",
                    "--out", str(tmp_path / "out")])
    assert (proc.returncode, proc.stderr) == (
        2, f"error: {path}: scenario: latest onset (1099 ms) must be < duration_ms (1000)\n")
    assert not (tmp_path / "out").exists()


def test_latency_counts_no_verdict_from_before_the_onset(tmp_path, capsys):
    # Normal verdicts fill the quiet second before the storm; only those from its onset count.
    assert main(["latency", "--scenario", "paper-attack-0", "--target", "normal",
                 "--reps", "3", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "paper-attack-0-latency.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 3
    assert all(int(row["latency_ms"]) >= 0 for row in rows)


@pytest.mark.parametrize("scenario,code", [("paper-attack-0", 0), ("paper-normal", 1)])
def test_latency_returns_an_int(tmp_path, scenario, code):
    # What main returns to a caller that embeds it: 1, not True, when a run goes undetected.
    script = "import sys; from rrcstorm.cli import main; print(repr(main(sys.argv[1:])))"
    proc = subprocess.run(
        [sys.executable, "-c", script, "latency", "--scenario", scenario, "--out", str(tmp_path)],
        capture_output=True, text=True, env=child_env(), timeout=60)
    assert (proc.returncode, proc.stdout.splitlines()[-1]) == (0, repr(code))


def test_latency_help_states_its_exit_status(capsys):
    with pytest.raises(SystemExit):
        main(["latency", "-h"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert ("Exits 1, with no error: line, when any run never reaches its target state "
            "(every paper-normal run), and 2 on an error.") in help_text


@pytest.mark.parametrize("enabled", [True, False], ids=["caller-collects", "caller-paused"])
@pytest.mark.parametrize("outcome", ["return", "exit-2", "raise"])
def test_main_pauses_the_collector_and_restores_the_callers_setting(
        tmp_path, monkeypatch, capsys, enabled, outcome):
    trace = tmp_path / "t.rrctrace.jsonl"
    trace.write_text("junk\n" if outcome == "exit-2" else "")
    during = []

    def replay(*args):
        during.append(gc.isenabled())
        if outcome == "raise":
            raise RuntimeError("replay broke")
        return cmd_replay(*args)

    monkeypatch.setattr(harness, "cmd_replay", replay)
    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if outcome == "raise":
            with pytest.raises(RuntimeError, match="replay broke"):
                main(["replay", str(trace)])
        else:
            assert main(["replay", str(trace)]) == (0 if outcome == "return" else 2)
        assert (during, gc.isenabled()) == ([False], enabled)
    finally:
        (gc.enable if before else gc.disable)()


# The collector is paused during a command on the grounds that a command makes no
# cyclic garbage per repetition: what it leaves (argparse's parser) is the same at any --reps.
@pytest.mark.parametrize("cmd", ["run", "latency", "table1"])
def test_a_command_leaves_the_same_cycles_at_any_reps(tmp_path, capsys, cmd):
    before = gc.isenabled()
    counts = []
    gc.disable()   # so that only gc.collect() frees what the command left
    try:
        for reps in (1, 1, 4):   # the first call warms up what is made once per process
            gc.collect()
            main([cmd, "--reps", str(reps), "--out", str(tmp_path / f"out{len(counts)}")])
            counts.append(gc.collect())
    finally:
        (gc.enable if before else gc.disable)()
    assert counts[1] == counts[2] > 0


# Each repetition's trace and verdicts are freed before the next run starts, so the
# peak does not grow with --reps.
@pytest.mark.parametrize("cmd", ["latency", "run"])
def test_a_command_holds_one_repetition_at_a_time(tmp_path, capsys, cmd):
    argv = [cmd, "--scenario", "paper-normal", "--out", str(tmp_path)]
    main(argv)   # warms up what is made once per process
    peaks = []
    for reps in ("1", "3"):
        tracemalloc.start()
        try:
            main([*argv, "--reps", reps])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.15 * peaks[0]


@pytest.mark.parametrize("cmd", ["table1", "run", "latency"])
@pytest.mark.parametrize("reps", ["0", "-2"])
def test_no_repetition_is_one_error_line_and_no_out_dir(tmp_path, capsys, cmd, reps):
    out = tmp_path / "out"
    assert main([cmd, "--reps", reps, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: at least one seed required\n"
    assert not out.exists()


@pytest.mark.parametrize("pct", [150, -1])
def test_occupancy_flag_out_of_range_is_one_error_line(tmp_path, capsys, pct):
    argv = ["run", "--occupancy-pct", str(pct), "--out", str(tmp_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: occupancy_pct must be in [0, 100], got {pct}\n"


def test_fleet_rate_above_the_msg1_cap_runs_at_the_cap(tmp_path):
    # 1e9 arrivals/s used to schedule one spawn per microsecond and hang the engine.
    traces = []
    for name, rate in (("huge", 1e9), ("cap", default_gnb().max_msg1_rate_per_s)):
        out = tmp_path / name
        out.mkdir()
        path = out / "cfg.json"
        path.write_text(json.dumps({"scenario": {
            "kind": "high_load", "duration_ms": 2000, "benign_fleet_rate_per_s": rate}}))
        proc = run_cli(["run", "--scenario", str(path), "--out", str(out)])
        assert (proc.returncode, proc.stderr) == (0, "")
        [trace] = out.glob("*" + telemetry.TRACE_SUFFIX)
        traces.append(trace.read_bytes())
    assert traces[0] == traces[1]
    assert traces[0].count(b'"kind":"msg1"') > 0


@pytest.mark.parametrize("argv,message", [
    (["run", "--attack-rate", "nan"], "attacker_rate_per_s must be finite, got nan"),
    (["table1", "--attack-rate", "nan"], "attack_rate_per_s must be finite, got nan"),
    (["run", "--attack-rate", "inf"], "attacker_rate_per_s must be finite, got inf"),
])
def test_non_finite_attack_rate_flag_is_one_error_line(tmp_path, argv, message):
    proc = run_cli(argv + ["--out", str(tmp_path)])
    assert (proc.returncode, proc.stderr) == (2, f"error: {message}\n")


def test_config_file_that_is_not_json(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("{scenario")
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: bad JSON: ")


def test_config_file_nested_too_deep(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("[" * 100_000)
    with pytest.raises(ConfigError, match="nested too deep"):
        load_config_file(path)
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: bad JSON: nested too deep\n"


def test_config_file_int_of_more_digits_than_int_accepts(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"scenario": {"seed": %s}}' % ("1" * 5000))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: bad JSON: Exceeds the limit")


def test_config_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_bytes(b'{"scenario": "\xff"}')
    with pytest.raises(ConfigError, match="not UTF-8"):
        load_config_file(path)
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not UTF-8: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("content,message", [
    (b"[" * 100_000 + b"\n", "error: line 1: bad JSON: nested too deep\n"),
    (b'{"t":0,"kind":"msg1","ue":"a"}\n' * 3000 + b'{"t":0,"kind":"msg1","ue":"\xff"}\n',
     "error: line 3001: not UTF-8: 'utf-8' codec can't decode byte 0xff in position 27: "
     "invalid start byte\n"),
], ids=["nested-too-deep", "not-utf8"])
def test_replay_of_hostile_trace_is_one_error_line(tmp_path, capsys, content, message):
    trace = tmp_path / "t.rrctrace.jsonl"
    trace.write_bytes(content)
    assert main(["replay", str(trace)]) == 2
    assert capsys.readouterr().err == message
    assert not (tmp_path / "t.verdicts.jsonl").exists()


GOLDEN_TRACE = Path(__file__).resolve().parent / "data" / "golden-attack.rrctrace.jsonl"


def trace_lines(base):
    """The lines of the golden attack trace, or of paper-attack-0 at seed 1."""
    if base == "golden":
        return GOLDEN_TRACE.read_bytes().splitlines(keepends=True)
    buf = io.StringIO()
    write_trace(run(scenario_from_preset("paper-attack-0", 1), default_gnb()).trace, buf)
    return buf.getvalue().encode().splitlines(keepends=True)


# replay builds only Msg3/Msg4/Msg5 events, yet a fault on any other line stops it as
# it stops a full read_trace: the same error line, and no verdict file.
@pytest.mark.parametrize("base,line_no,old,new,message", [
    ("golden", 5, b'"t":25,', b'"t":0,', "timestamp regression 1 -> 0"),
    ("golden", 129, b'"}', b'","stray":1}', "unknown keys ['stray']"),
    ("golden", 2, b'"ue":"m', b'"ue":"\xff',
     "not UTF-8: 'utf-8' codec can't decode byte 0xff in position 27: invalid start byte"),
    ("paper-attack-0", 161, b'"t":1337,', b'"t":1328,',
     "timestamp regression 1329 -> 1328"),
], ids=["msg1-regression", "context-released-stray-key", "msg2-not-utf8",
        "block-2-first-line-msg1-regression"])
def test_replay_refuses_a_fault_on_a_line_it_does_not_count(tmp_path, capsys, base, line_no,
                                                            old, new, message):
    lines = trace_lines(base)
    assert json.loads(lines[line_no - 1])["kind"] not in ("msg3", "msg4", "msg5")
    assert old in lines[line_no - 1]
    lines[line_no - 1] = lines[line_no - 1].replace(old, new, 1)
    trace = tmp_path / "t.rrctrace.jsonl"
    trace.write_bytes(b"".join(lines))
    with pytest.raises(TraceParseError, match=f"^line {line_no}: "):
        read_trace(trace)
    out = tmp_path / "t.verdicts.jsonl"
    assert main(["replay", str(trace), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: line {line_no}: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.rrctrace.jsonl"]


def test_line_161_of_paper_attack_0_starts_the_second_block():
    """The last case above faults the first line of the reader's second block."""
    lines = trace_lines("paper-attack-0")
    assert len(b"".join(lines[:159])) < telemetry._BLOCK_SIZE <= len(b"".join(lines[:160]))
