"""Benchmark of the rrcstorm batch commands, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads (see BENCHMARK.json for why each
was chosen): storm-run, campaign, replay-long. The run compiles ``src/`` to
bytecode, then repeats one iteration until S seconds have passed (at least
MIN_ITERATIONS): a set-up process (``worker.py prepare``) writes the
workload's inputs from the seed, and a fresh single-threaded timed process
(``worker.py run``) runs its commands once. Every iteration of a run gets the
same seed, so their output files must be byte-identical: the first one checks
every output in full, the rest are checked against its sha256 digests.
Timings are medians over the iterations.

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` untraced and traced iterations alternate, and it holds the
per-layer metrics of the traced ones plus ``trace.overhead_s``, the traced
minus the untraced median wall time. Earlier lines show the context, every
metric with its unit, the digests and any failed check. Exit status is 0
when a result was printed, 1 when a worker broke, 2 when there is no
program to measure.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("storm-run", "campaign", "replay-long")
MIN_ITERATIONS = 3
WORKER_TIMEOUT_S = 90

# setup_s is kept in reference units too, turned into seconds on a nominal
# host on which worker.reference_kernel() takes this long (a 2-core Xeon).
NOMINAL_REF_S = 0.2

# Printed for the reader but not compared as medians. Raw host time swings
# by a quarter between runs on a shared host, so BENCHMARK.json compares it
# in units of reference_kernel() (wall_ref, sim_s_per_ref, setup_s) instead;
# the last two are 0 when the program is right, and gate as checks (correct,
# failed).
PRINTED_UNITS = {"wall_s": "s", "sim_s_per_wall_s": "sim_s/s", "ref_s": "s",
                 "setup_raw_s": "s", "failed_frac": "ratio",
                 "false_attack_verdicts": "count"}


def units(section: str) -> dict[str, str]:
    """Metric name -> unit, from BENCHMARK.json beside this directory."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench[section]}


def context(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor() or None,
        "loadavg": os.getloadavg(),
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit():
    """HEAD of the checkout and whether its work tree has changes, else None."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=True, timeout=30,
                              env={**os.environ, "GIT_OPTIONAL_LOCKS": "0"}).stdout.strip()
    try:
        if Path(git("rev-parse", "--show-toplevel")).resolve() != ROOT:
            return None
        return {"sha": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}
    except (OSError, subprocess.SubprocessError):
        return None


def spawn(phase: str, workload: str, seed: int, out: Path, *flags: str) -> dict:
    """Run one worker.py process; its result plus ``to_ready``, spawn to ready."""
    cmd = [sys.executable, str(HERE / "worker.py"), phase, "--workload", workload,
           "--seed", str(seed), "--out", str(out), *flags]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {phase} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["to_ready"] = result["ready"] - spawned
    return result


def run_iteration(workload: str, seed: int, run_dir: Path, index: int,
                  traced: bool, check: bool) -> dict:
    """Set the workload up in one process, then run it in a fresh one."""
    out = run_dir / f"w{index}"
    flags = (["--trace"] if traced else []) + (["--check"] if check else [])
    started = time.monotonic()
    prepared = spawn("prepare", workload, seed, out)
    result = spawn("run", workload, seed, out, *flags)
    result["elapsed"] = time.monotonic() - started
    result["ref_s"] = (result["ref_before"] + result["ref_after"]) / 2
    result["setup_raw_s"] = prepared["to_ready"] + result["to_ready"]
    # Each process's set-up time over the reference kernel it ran right after.
    result["setup_ref"] = (prepared["to_ready"] / prepared["ref_before"]
                           + result["to_ready"] / result["ref_before"])
    result["traced"] = traced
    shutil.rmtree(out)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "rrcstorm" / "cli.py").is_file():
        print(f"error: no rrcstorm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(ROOT / "src", quiet=1):
        print("error: src/ does not compile", file=sys.stderr)
        return 2

    print("context: " + json.dumps(context(args.seed)), flush=True)
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    results = []
    try:
        start = time.monotonic()
        while True:
            elapsed = time.monotonic() - start
            # Stop when one more iteration, at the median length so far, would
            # run past the measuring time.
            typical = median(r["elapsed"] for r in results) if results else 0.0
            if (len(results) >= MIN_ITERATIONS + args.trace
                    and elapsed + typical > args.seconds):
                break
            index = len(results)
            traced = bool(args.trace) and index % 2 == 1
            results.append(run_iteration(args.workload, args.seed, run_dir, index,
                                         traced, check=index == 0))
            r = results[-1]
            print(f"iteration {index}{' traced' if traced else ''}: "
                  f"setup {r['setup_raw_s']:.4f} s, wall {r['wall_s']:.4f} s, "
                  f"reference {r['ref_s']:.4f} s, "
                  f"peak {r['peak_rss_mb']:.1f} MB", flush=True)
        if args.trace:
            spans = run_dir / "w1.spans.jsonl"
            keep = ROOT / ".perfbench_out"
            keep.mkdir(exist_ok=True)
            shutil.copy(spans, keep / f"{args.workload}-seed{args.seed}.spans.jsonl")
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    first = results[0]
    failures = list(first["failures"])
    attempted = sum(r["attempted"] for r in results)
    for i, r in enumerate(results[1:], 1):
        failures += [f"iteration {i}: {f}" for f in r["failures"]]
        attempted += 1
        if r["digests"] != first["digests"]:
            failures.append(f"iteration {i}: output bytes differ from iteration 0")
    for name, digest in first["digests"].items():
        print(f"sha256 {digest}  {name}")

    untraced = [r for r in results if not r["traced"]]
    guards = first["guards"]
    e2e = {
        "wall_ref": median([r["wall_s"] / r["ref_s"] for r in untraced]),
        "sim_s_per_ref": median([r["sim_s"] * r["ref_s"] / r["wall_s"] for r in untraced]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in untraced]),
        "setup_s": median([r["setup_ref"] for r in results]) * NOMINAL_REF_S,
        **guards,
        "wall_s": median([r["wall_s"] for r in untraced]),
        "sim_s_per_wall_s": median([r["sim_s"] / r["wall_s"] for r in untraced]),
        "ref_s": median([r["ref_s"] for r in untraced]),
        "setup_raw_s": median([r["setup_raw_s"] for r in results]),
        "failed_frac": len(failures) / attempted,
    }
    e2e_units = {**units("end_to_end"), **PRINTED_UNITS}
    for name, value in e2e.items():
        print(f"{name} = {value} {e2e_units[name]}")
    for failure in failures:
        print(f"FAILED: {failure}")

    if args.trace:
        traced_runs = [r for r in results if r["traced"]]
        layers = {k: median([r["layers"][k] for r in traced_runs])
                  for k in traced_runs[0]["layers"]}
        # In reference units, then back to seconds at the run's median
        # reference time, so the host's drift between processes cancels.
        traced_ref = median([r["wall_s"] / r["ref_s"] for r in traced_runs])
        layers["trace.overhead_s"] = (traced_ref - e2e["wall_ref"]) * median(
            [r["ref_s"] for r in results])
        layer_units = units("per_layer")
        for name, value in layers.items():
            print(f"{name} = {value} {layer_units[name]}")
        metrics = {k: {"value": layers[k], "unit": u} for k, u in layer_units.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in units("end_to_end").items()}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
