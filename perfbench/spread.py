"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py [--seeds 1-10] [--save FILE] [--against FILE]

Runs ``run.py`` once per (seed, workload) for every workload in
BENCHMARK.json, interleaving the workloads so a
slow spell of the machine touches all of them, each run a fresh process for
BENCHMARK.json's run_seconds. For every workload and end-to-end metric it
prints the median and the quartile spread, (q3 - q1) / median with
``statistics.quantiles(n=4)``, against the metric's bound. ``--save`` keeps
the raw results; ``--against`` prints how far each median moved, in the
metric's worse direction, from an earlier saved set.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--save", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    ok = True
    for seed in args.seeds:
        for workload in workloads:
            cmd = [sys.executable, *bench["command"][1:], "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(lines[-1])
            ok &= result["correct"] and result["failed"] == 0
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"wall_ref={result['metrics']['wall_ref']['value']:.4f} "
                  f"setup_s={result['metrics']['setup_s']['value']:.4f}", flush=True)
    if args.save:
        args.save.write_text(json.dumps(values, indent=1), encoding="utf-8")

    earlier = json.loads(args.against.read_text(encoding="utf-8")) if args.against else {}
    for workload in workloads:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            vals = values[workload][name]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            line = (f"{workload:12s} {name:20s} median {med:12.5f} spread {spread:6.3f} "
                    f"bound {bound:.2f} {'ok' if spread <= bound / 3 else 'WIDE'}")
            if workload in earlier:
                before = statistics.median(earlier[workload][name])
                worse = (med - before) / before
                if metric["better"] == "higher":
                    worse = -worse
                line += f" worse-than-earlier {worse:+.3f} {'ok' if worse <= bound else 'BAD'}"
            print(line)
    print("all runs correct" if ok else "SOME RUNS FAILED CHECKS")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
