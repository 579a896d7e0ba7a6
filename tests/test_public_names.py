"""rrcstorm's public names, the size metric the ROADMAP tracks next to src/ lines, and
the module names the benchmark under perfbench/ imports and wraps.

A change that adds or drops a name updates PUBLIC_NAMES in its own diff.
"""
import subprocess
import sys
from pathlib import Path

from helpers import child_env

PUBLIC_NAMES = [
    "AnalyticInputs", "AnalyticOutputs", "DetectionVerdict", "DetectorConfig",
    "EstablishmentCause", "GnbConfig", "GnbState", "MsgKind", "RrcEvent",
    "ScenarioError", "ScenarioKind", "ScenarioSpec", "SimResult", "StreamOrderError",
    "TRACE_SUFFIX", "TraceParseError", "TruncatedPoissonSpec",
    "VERDICT_SUFFIX", "WAITING_TIME_EFFECTIVE_MS", "WAITING_TIME_NOMINAL_MS",
    "analytic", "availability_rate", "classify", "detection_latency", "detector",
    "events", "full_model", "iter_trace", "iter_verdicts", "read_verdicts", "run",
    "simnet", "summarize_trace", "telemetry", "truncated_poisson_sample",
    "write_trace", "write_verdicts",
]


def test_public_names_of_a_fresh_import():
    # In a child interpreter: once a test imports rrcstorm.cli, .harness or .presets,
    # they too are attributes of the package in this one.
    code = "import rrcstorm; print(*sorted(n for n in dir(rrcstorm) if n[0] != '_'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(), timeout=60, check=True)
    assert proc.stdout.split() == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 37


def test_a_fresh_import_loads_only_the_standard_library():
    # pyproject's runtime dependencies are []: importing the package and its CLI loads no
    # top-level module but rrcstorm and the standard library's.
    code = ("import sys; before = set(sys.modules); import rrcstorm, rrcstorm.cli; "
            "print(*sorted({name.partition('.')[0] for name in set(sys.modules) - before}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(), timeout=60, check=True)
    loaded = proc.stdout.split()
    assert "rrcstorm" in loaded
    assert [name for name in loaded
            if name != "rrcstorm" and name not in sys.stdlib_module_names] == []


def test_the_benchmark_finds_every_entry_point_it_imports_and_wraps():
    # perfbench/worker.py imports module functions the package does not re-export, and
    # perfbench/spans.py wraps entry points by module attribute: renaming one of them
    # breaks the benchmark, and this test, before any benchmark run. Nothing is written
    # into perfbench/.
    code = ("import worker, spans; from rrcstorm import detector, harness; "
            "tracer = spans.Tracer(); tracer.install(); print(len(tracer._patched)); "
            "tracer.uninstall(); print(harness.run_stream is detector.run_stream)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=Path(__file__).resolve().parents[1] / "perfbench",
                          env={**child_env(), "PYTHONDONTWRITEBYTECODE": "1"}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["12", "True"]
