"""One benchmark process: set a workload up, or run it once.

    python3 perfbench/worker.py prepare --workload NAME --seed N --out DIR
    python3 perfbench/worker.py run --workload NAME --seed N --out DIR
                                    [--trace] [--check]

``prepare`` writes the inputs the workload's commands read (the long trace of
``replay-long``; nothing for the others) into DIR, so the timed process holds
no copy of them. ``run`` then, in a fresh single-threaded process, runs the
workload's ``rrcstorm`` commands in-process through ``rrcstorm.cli.main(argv)``
(the timed region) and optionally checks every output. Each prints one JSON
object as its last line: the time the process was ready and the reference
kernel's time, and for ``run`` the timings, peak memory, file digests, check
counts, fidelity guards and, with ``--trace``, the per-layer metrics; a traced
run also writes its spans to DIR.spans.jsonl. ``run.py`` starts this script;
it is not meant to be run by hand except for debugging.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import heapq
import io
import json
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from rrcstorm import analytic, cli, presets, telemetry  # noqa: E402
from rrcstorm.detector import GnbState, detection_latency, run_stream  # noqa: E402
from rrcstorm.events import RrcEvent, validate_stream  # noqa: E402
from rrcstorm.harness import TABLE1_OCCUPANCIES, table1_scenario  # noqa: E402
from rrcstorm.simnet import ScenarioKind, run, summarize_trace  # noqa: E402

from spans import Tracer  # noqa: E402


def program_seed(seed: int) -> int:
    """The base seed handed to the program, drawn from the benchmark seed."""
    return random.Random(seed).randrange(1, 1_000_000)


@dataclass(frozen=True)
class _RefEvent:
    t: int
    kind: str
    ue: str


def reference_kernel(items: int = 20_000) -> float:
    """Host seconds for a fixed pure-Python task shaped like the program's work.

    Frozen dataclasses, f-strings, a dict, a heap and json.dumps in bounded
    memory (so it does not set the peak RSS), but no rrcstorm code: a change
    to the program leaves it alone, while a drift in the host's speed, which
    on a shared host reaches half over tens of seconds, moves it and the
    workload together.
    """
    rng = random.Random(0)
    heap, lines, seen = [], [""] * 1024, {}
    start = time.perf_counter()
    for i in range(items):
        heapq.heappush(heap, (rng.randrange(1000), i))
        event = _RefEvent(i, "msg3", f"mue-{rng.getrandbits(32):08x}")
        seen[i % 1024] = event
        lines[i % 1024] = json.dumps({"t": event.t, "kind": event.kind, "ue": event.ue},
                                     separators=(",", ":"))
        if len(heap) > 1024:
            heapq.heappop(heap)
    return time.perf_counter() - start


class Checks:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def closed_form_drop_ms(gnb, rate_per_s: float, connected: int = 0) -> float:
    return analytic.drop_time(analytic.AnalyticInputs(
        waiting_time_ms=gnb.waiting_time_ms, capacity=gnb.capacity,
        attack_rate_per_s=rate_per_s, connected_ues=connected))


def attack_period_ms(gnb, rate_per_s: float) -> float:
    return 1000.0 / min(rate_per_s, gnb.max_msg1_rate_per_s)


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def opt_int(cell: str):
    return None if cell == "" else int(cell)


def verdict_text(verdicts) -> str:
    return "".join(telemetry.verdict_line(v) + "\n" for v in verdicts)


def shifted(trace, offset: int) -> list[RrcEvent]:
    return [RrcEvent(e.t + offset, e.kind, e.ue_ref, e.cause) for e in trace]


class Workload:
    """A workload's commands, inputs and output checks."""

    expected_rcs = [0]

    def prepare(self) -> None:
        """Write the inputs the commands read, in the set-up process."""

    def load(self) -> None:
        """Read what prepare() left for the timed process."""


class StormRun(Workload):
    """`rrcstorm run` on the storm config: REPS seeded storms, all files written.

    Several storms instead of one so the per-storm detection latency, which
    depends on where the jittered onset falls on the 25 ms hop grid, is
    reported as a median that does not swing with the benchmark seed.
    """

    REPS = 32
    CONFIG = HERE / "storm.json"

    def __init__(self, seed: int, out: Path) -> None:
        self.out = out
        self.seed = program_seed(seed)
        self.scenario, self.gnb, self.detector = cli.load_config_file(self.CONFIG)
        self.sim_s = self.REPS * self.scenario.duration_ms / 1000.0

    def commands(self) -> list[list[str]]:
        return [["run", "--scenario", str(self.CONFIG), "--seed", str(self.seed),
                 "--reps", str(self.REPS), "--out", str(self.out)]]

    def check(self, c: Checks) -> dict:
        gnb, rate = self.gnb, self.scenario.attacker_rate_per_s
        theory = closed_form_drop_ms(gnb, rate)
        period = attack_period_ms(gnb, rate)
        name = self.CONFIG.stem
        rows = {r["seed"]: r for r in read_csv(self.out / f"{name}-metrics.csv")}
        latencies, margins, errors, early = [], [], [], 0
        for seed in range(self.seed, self.seed + self.REPS):
            stem = self.out / f"{name}-seed{seed}"
            tag = f"seed {seed}"
            events = telemetry.read_trace(str(stem) + telemetry.TRACE_SUFFIX)
            c.check(validate_stream(events) is None, f"{tag}: trace fails validate_stream")
            result = summarize_trace(events, gnb.waiting_time_ms)
            row = rows.get(str(seed), {})
            avail = result.availability_first_period_pct
            c.check(row and (
                opt_int(row["first_msg3_ms"]), opt_int(row["drop_time_ms"]),
                int(row["accepted_first_period"]), int(row["rejected_first_period"]),
                row["availability_pct"], int(row["accepted_total"]),
                int(row["rejected_total"])) == (
                result.first_msg3_ms, result.drop_time_ms,
                result.accepted_first_period, result.rejected_first_period,
                "" if avail is None else f"{avail:.2f}",
                result.accepted_msg3, result.rejected_msg3),
                f"{tag}: metrics CSV disagrees with the trace")
            verdicts = run_stream(events, self.detector)
            written = Path(str(stem) + telemetry.VERDICT_SUFFIX).read_text(encoding="utf-8")
            c.check(written == verdict_text(verdicts),
                    f"{tag}: verdict file differs from run_stream over the trace")
            drop = result.drop_time_ms
            c.check(drop is not None and abs(drop - theory) <= period,
                    f"{tag}: drop {drop} ms not within {period:.2f} ms of {theory:.2f}")
            onset = result.first_msg3_ms
            latency = detection_latency(verdicts, onset, GnbState.ATTACK)
            c.check(latency is not None and drop is not None and latency < drop,
                    f"{tag}: latency {latency} ms not before drop {drop} ms")
            early += sum(1 for v in verdicts if v.t_ms < onset and v.state is GnbState.ATTACK)
            if latency is not None and drop is not None:
                latencies.append(latency)
                margins.append(drop - latency)
                errors.append(abs(drop - theory))
        c.check(early == 0, f"{early} Attack verdicts before onset")
        return guards(latencies, margins, errors, early)


class Campaign(Workload):
    """The experiment sweep: table1 plus latency campaigns of all three kinds."""

    TABLE1_REPS = 25
    LATENCY_REPS = {"paper-attack-0": 50, "paper-highload": 50, "paper-normal": 10}

    def __init__(self, seed: int, out: Path) -> None:
        self.out = out
        self.seed = program_seed(seed)
        self.gnb = presets.default_gnb()
        sim_ms = sum(table1_scenario(pct, self.seed).duration_ms * self.TABLE1_REPS
                     for pct in TABLE1_OCCUPANCIES)
        sim_ms += sum(presets.scenario_from_preset(name, self.seed).duration_ms * reps
                      for name, reps in self.LATENCY_REPS.items())
        self.sim_s = sim_ms / 1000.0
        # latency exits 1 when a run never reaches its target state; a normal
        # run has nothing to detect, so 1 is the expected status there.
        self.expected_rcs = [0, 0, 0, 1]

    def commands(self) -> list[list[str]]:
        common = ["--seed", str(self.seed), "--out", str(self.out)]
        cmds = [["table1", "--reps", str(self.TABLE1_REPS), *common]]
        for name, reps in self.LATENCY_REPS.items():
            cmds.append(["latency", "--scenario", name, "--reps", str(reps), *common])
        return cmds

    # Criterion 1 of the acceptance suite: (accepted, rejected, drop_s, avail%).
    TABLE1_EXPECTED = {0: (16, 346, 0.121, 4.42), 25: (12, 352, 0.091, 3.29),
                       50: (8, 356, 0.061, 2.20), 75: (4, 359, 0.030, 1.10)}

    def check(self, c: Checks) -> dict:
        rate = presets.ATTACK_RATE_PER_S
        period = attack_period_ms(self.gnb, rate)
        table = {(int(r["occupancy_pct"]), r["source"]): r
                 for r in read_csv(self.out / "table1.csv")}
        errors = []
        for pct, (acc, rej, drop_s, avail) in self.TABLE1_EXPECTED.items():
            theo = table.get((pct, "theoretical"))
            sim = table.get((pct, "simulated"))
            c.check(theo is not None and sim is not None, f"table1 {pct}%: rows missing")
            if theo is None or sim is None:
                continue
            c.check(float(theo["accepted_msg3"]) == acc
                    and abs(float(theo["rejected_msg3"]) - rej) <= 6
                    and abs(float(theo["drop_time_s"]) - drop_s) <= 0.002
                    and abs(float(theo["availability_pct"]) - avail) <= 0.15,
                    f"table1 {pct}%: theoretical row outside tolerance")
            connected = round(self.gnb.capacity * pct / 100)
            closed = closed_form_drop_ms(self.gnb, rate, connected)
            sim_drop = float(sim["drop_time_s"]) * 1000.0
            errors.append(abs(sim_drop - closed))
            c.check(float(sim["accepted_msg3"]) == self.gnb.capacity - connected
                    and abs(sim_drop - closed) <= period,
                    f"table1 {pct}%: simulated drop {sim_drop:.1f} ms vs {closed:.2f}")
            if pct == 0:
                c.check(0.115 <= float(sim["drop_time_s"]) <= 0.160
                        and 3.5 <= float(sim["availability_pct"]) <= 5.0,
                        "table1 0%: simulated drop or availability outside tolerance")

        attack = read_csv(self.out / "paper-attack-0-latency.csv")
        c.check(len(attack) == self.LATENCY_REPS["paper-attack-0"], "attack rows missing")
        latencies, margins = [], []
        for row in attack:
            latency, margin = opt_int(row["latency_ms"]), opt_int(row["margin_ms"])
            c.check(latency is not None and margin is not None and margin > 0,
                    f"attack seed {row['seed']}: latency {latency}, margin {margin}")
            if latency is not None and margin is not None:
                latencies.append(latency)
                margins.append(margin)
        false_attacks = 0
        for name in ("paper-highload", "paper-normal"):
            rows = read_csv(self.out / f"{name}-latency.csv")
            c.check(len(rows) == self.LATENCY_REPS[name], f"{name}: rows missing")
            false_attacks += sum(int(r["attack_verdicts"]) for r in rows)
            if name == "paper-highload":
                c.check(all(r["latency_ms"] != "" for r in rows),
                        "paper-highload: a run never reached High-Load")
            else:
                c.check(all(r["latency_ms"] == "" and r["highload_verdicts"] == "0"
                            for r in rows), "paper-normal: a run was flagged")
        c.check(false_attacks == 0, f"{false_attacks} Attack verdicts on benign runs")
        return guards(latencies, margins, errors, false_attacks)


class ReplayLong(Workload):
    """`rrcstorm replay` of one long trace generated at set-up.

    The trace is EPISODES episodes laid end to end, each BACKGROUND_MS of
    truncated-Poisson background traffic and then a storm (paper-attack-0
    with its jittered onset). Several storms, for the same reason as in
    StormRun; the time the background runs sets how many hops the detector
    spends in the Normal state before each transition. The set-up process
    writes the trace and a sidecar with the episodes; the timed process reads
    only the sidecar before the command runs.
    """

    EPISODES = 20
    BACKGROUND_MS = 30_000
    STORM_MS = 10_000

    def __init__(self, seed: int, out: Path) -> None:
        self.out = out
        self.gnb = presets.default_gnb()
        self.base = program_seed(seed)
        self.trace_path = out / "long.rrctrace.jsonl"
        self.episodes_path = out / "long.episodes.json"
        self.verdict_path = out / "long.verdicts.jsonl"

    def generate(self) -> tuple[list[RrcEvent], list[list[int]]]:
        """The trace's events, and per episode [start, onset, end, drop] in ms."""
        events, episodes, offset = [], [], 0
        for k in range(self.EPISODES):
            start = offset
            background = run(presets.normal_scenario(self.base + k, self.BACKGROUND_MS),
                             self.gnb)
            events += shifted(background.trace, offset)
            offset += background.trace[-1].t + 1
            storm = run(presets.attack_scenario(0, self.base + k, duration_ms=self.STORM_MS),
                        self.gnb)
            events += shifted(storm.trace, offset)
            onset = offset + storm.first_msg3_ms
            offset += storm.trace[-1].t + 1
            episodes.append([start, onset, offset, storm.drop_time_ms])
        return events, episodes

    def prepare(self) -> None:
        events, episodes = self.generate()
        telemetry.write_trace(events, self.trace_path)
        self.episodes_path.write_text(json.dumps(
            {"sim_s": events[-1].t / 1000.0, "episodes": episodes}), encoding="utf-8")

    def load(self) -> None:
        sidecar = json.loads(self.episodes_path.read_text(encoding="utf-8"))
        self.sim_s = sidecar["sim_s"]
        self.episodes = sidecar["episodes"]

    def commands(self) -> list[list[str]]:
        return [["replay", str(self.trace_path), "--out", str(self.verdict_path)]]

    def check(self, c: Checks) -> dict:
        events, _ = self.generate()
        c.check(telemetry.read_trace(self.trace_path) == events,
                "set-up trace does not read back as generated")
        verdicts = run_stream(events, presets.default_detector())
        written = self.verdict_path.read_text(encoding="utf-8")
        c.check(written == verdict_text(verdicts),
                "verdict file differs from run_stream over the set-up trace")
        theory = closed_form_drop_ms(self.gnb, presets.ATTACK_RATE_PER_S)
        latencies, margins, errors, early = [], [], [], 0
        for k, (start, onset, end, drop) in enumerate(self.episodes):
            before = [v for v in verdicts if start <= v.t_ms < onset]
            after = [v for v in verdicts if onset <= v.t_ms < end]
            early += sum(1 for v in before if v.state is GnbState.ATTACK)
            latency = detection_latency(after, onset, GnbState.ATTACK)
            c.check(latency is not None, f"episode {k}: storm at {onset} ms not detected")
            if latency is not None:
                latencies.append(latency)
                margins.append(drop - latency)
                errors.append(abs(drop - theory))
        c.check(early == 0, f"{early} Attack verdicts before a storm onset")
        return guards(latencies, margins, errors, early)


def guards(latencies, margins, drop_errors, false_attacks) -> dict:
    """Fidelity numbers, deterministic for a given seed."""
    return {
        "detect_latency_ms": statistics.median(latencies) if latencies else None,
        "margin_ms": statistics.median(margins) if margins else None,
        "oracle_drop_err_ms": max(drop_errors) if drop_errors else None,
        "false_attack_verdicts": false_attacks,
    }


WORKLOADS = {"storm-run": StormRun, "campaign": Campaign, "replay-long": ReplayLong}


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    c = tracer.counts

    def rate(n, s):
        return n / s if s > 0 else 0.0

    m: dict[str, float] = {}
    sim_busy = tracer.busy("harness.run")
    m["simnet.calls"] = c["simnet.calls"]
    m["simnet.records"] = c["simnet.records"]
    m["simnet.busy_s"] = sim_busy
    for kind in ScenarioKind:
        k = kind.value
        m[f"simnet.{k}.records_per_s"] = rate(c[f"simnet.{k}.records"], c[f"simnet.{k}.busy_s"])
    m["simnet.reject_ratio"] = rate(c["simnet.msg3_rejected"], c["simnet.msg3"])
    m["simnet.validate_s"] = tracer.busy("simnet.validate_stream")
    m["simnet.summarize_s"] = tracer.busy("simnet.summarize_trace")
    det_busy = tracer.busy("harness.run_stream")
    m["detector.records_in"] = c["detector.records_in"]
    m["detector.verdicts_out"] = c["detector.verdicts_out"]
    m["detector.busy_s"] = det_busy
    m["detector.records_per_s"] = rate(c["detector.records_in"], det_busy)
    m["detector.verdicts_per_s"] = rate(c["detector.verdicts_out"], det_busy)
    for op in ("write_trace", "read_trace", "write_verdicts"):
        key = f"telemetry.{op}"
        busy = tracer.busy(key)
        m[f"{key}.records"] = c[f"{key}.records"]
        m[f"{key}.bytes"] = c[f"{key}.bytes"]
        m[f"{key}.busy_s"] = busy
        m[f"{key}.records_per_s"] = rate(c[f"{key}.records"], busy)
    calls = c["analytic.full_model.calls"]
    m["analytic.full_model.calls"] = calls
    m["analytic.full_model.calls_per_s"] = rate(calls, tracer.busy("analytic.full_model"))
    self_times = tracer.self_times()
    m["harness.self_s"] = self_times["harness"]
    m["harness.runs"] = c["harness.runs"]
    m["cli.self_s"] = self_times["cli"]
    m["runtime.gc_s"] = tracer.gc_s
    m["runtime.gc_collections"] = tracer.gc_collections
    m["trace.wall_s"] = wall_s
    m["trace.unattributed_s"] = wall_s - sum(self_times.values())
    return m


def digests(out: Path) -> dict[str, str]:
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=("prepare", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args()

    args.out.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.out)
    if args.phase == "prepare":
        workload.prepare()
        ready = time.monotonic()
        print(json.dumps({"ready": ready, "ref_before": reference_kernel()}))
        return 0
    workload.load()
    inputs = {p.relative_to(args.out) for p in args.out.rglob("*")}
    ready = time.monotonic()
    ref_before = reference_kernel()

    tracer = Tracer() if args.trace else None
    main_fn = cli.main
    if tracer is not None:
        tracer.install()

        def main_fn(argv):
            return tracer.call("cli.main", cli.main, argv)

    rcs = []
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for argv in workload.commands():
            try:
                rcs.append(int(main_fn(argv)))
            except SystemExit as exc:
                rcs.append(exc.code if isinstance(exc.code, int) else 2)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.uninstall()
    ref_after = reference_kernel()

    result = {"ready": ready, "ref_before": ref_before, "ref_after": ref_after,
              "wall_s": wall_s, "sim_s": workload.sim_s, "peak_rss_mb": peak_rss_mb,
              "rcs": rcs}
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, wall_s)
        tracer.write(args.out.with_name(args.out.name + ".spans.jsonl"))
    result["digests"] = {name: digest for name, digest in digests(args.out).items()
                         if Path(name) not in inputs}

    checks = Checks()
    checks.check(rcs == workload.expected_rcs,
                 f"exit statuses {rcs}, expected {workload.expected_rcs}: "
                 f"{sink.getvalue()[-500:]!r}")
    if args.check:
        result["guards"] = workload.check(checks)
    result["attempted"] = checks.attempted
    result["failures"] = checks.failures
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
