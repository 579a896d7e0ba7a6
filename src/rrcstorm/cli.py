"""Command-line entry point.

Subcommands: run (simulate + detect, write artifacts), table1 (theory vs
simulation comparison), latency (seeded detection-latency campaign), replay
(detector over a recorded trace). Scenarios come from named presets, a JSON
config file, or flag overrides; see the README for the config schema.
"""
from __future__ import annotations

import argparse
import dataclasses
import gc
import sys
from pathlib import Path
from typing import Any, Callable

from . import harness, presets, telemetry
from .detector import DetectorConfig, GnbState
from .events import EstablishmentCause
from .simnet import GnbConfig, ScenarioKind, ScenarioSpec, TruncatedPoissonSpec, _check_fits
from .telemetry import TRACE_SUFFIX, VERDICT_SUFFIX


class ConfigError(ValueError):
    """A JSON config that cannot be loaded; the message names the file and section."""


def _build(cls: type, data: object, where: str, **convert: Callable) -> Any:
    """cls(**data) for a JSON object of cls's fields, those with no default required,
    convert[field] applied to non-null values; key, type and value errors name where."""
    fields = dataclasses.fields(cls)
    try:
        data = dict(telemetry._checked_object(data, [f.name for f in fields], [
            f.name for f in fields if f.default is dataclasses.MISSING]))
        for key, fn in convert.items():
            if data.get(key) is not None:
                data[key] = fn(data[key])
        return cls(**data)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def load_config_file(path: Path) -> tuple[ScenarioSpec, GnbConfig, DetectorConfig]:
    """JSON config: {"scenario": {...}, "gnb": {...}, "detector": {...}}.

    "scenario" is required; an omitted "gnb" or "detector" takes the defaults.
    """
    try:
        data = telemetry._json_object("".join(telemetry._blocks(path)),
                                      ("scenario", "gnb", "detector"), ("scenario",))
        scenario = _build(
            ScenarioSpec, data["scenario"], "scenario", kind=ScenarioKind,
            attacker_cause=EstablishmentCause,
            background=lambda bg: _build(TruncatedPoissonSpec, bg, "scenario.background"))
        gnb = _build(GnbConfig, data.get("gnb", {}), "gnb")
        detector = _build(DetectorConfig, data.get("detector", {}), "detector")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return scenario, gnb, detector


#: argparse dest -> (section, field) it overrides; only flags that were given apply.
#: --occupancy-pct is the one computed override (a share of the resolved capacity); a
#: preset's own share is rescaled to the resolved capacity too.
FLAG_FIELDS = {
    "capacity": ("gnb", "capacity"),
    "waiting_time_ms": ("gnb", "waiting_time_ms"),
    "attack_rate": ("scenario", "attacker_rate_per_s"),
    "window_ms": ("detector", "window_ms"),
    "hop_ms": ("detector", "hop_ms"),
    "watermark": ("detector", "msg3_watermark"),
    "r1_threshold": ("detector", "r1_threshold"),
    "r2_threshold": ("detector", "r2_threshold"),
}


def _override(args: argparse.Namespace, **sections: Any) -> list[Any]:
    """The sections in order, each with its given FLAG_FIELDS flags applied in one replace."""
    changes: dict[str, dict] = {name: {} for name in sections}
    for dest, (section, field) in FLAG_FIELDS.items():
        if section in changes and getattr(args, dest, None) is not None:
            changes[section][field] = getattr(args, dest)
    return [dataclasses.replace(obj, **changes[name]) for name, obj in sections.items()]


def _resolve(args: argparse.Namespace) -> tuple[ScenarioSpec, GnbConfig, DetectorConfig]:
    if args.scenario in presets.PRESET_NAMES:
        scenario = presets.scenario_from_preset(args.scenario, args.seed)
        gnb, detector, where = presets.default_gnb(), presets.default_detector(), ""
    else:
        path = Path(args.scenario)
        if path.is_dir() or not path.exists():   # Path("") is "."
            raise ValueError(
                f"unknown scenario {args.scenario!r}: not a preset "
                f"({', '.join(presets.PRESET_NAMES)}) and no such file")
        scenario, gnb, detector = load_config_file(path)
        scenario, where = dataclasses.replace(scenario, seed=args.seed), f"{path}: "
    scenario, gnb, detector = _override(args, scenario=scenario, gnb=gnb, detector=detector)
    pct = (args.occupancy_pct if args.occupancy_pct is not None
           else presets._OCCUPANCY_PCT.get(args.scenario))   # None for a config file
    if pct is not None:
        held = presets.occupied_contexts(gnb.capacity, pct)
        scenario = dataclasses.replace(scenario, preconnected_bue=held)
    try:   # after the flags, which can make a config file's sections fit or not
        _check_fits(scenario, gnb)
    except ValueError as exc:
        raise type(exc)(f"{where}{exc}") from None
    return scenario, gnb, detector


def _seeds(args: argparse.Namespace) -> list[int]:
    return list(range(args.seed, args.seed + args.reps))


def _experiment(args: argparse.Namespace) -> harness.ExperimentConfig:
    scenario, gnb, detector = _resolve(args)
    name = args.scenario if args.scenario in presets.PRESET_NAMES else Path(args.scenario).stem
    return harness.ExperimentConfig(
        name=name, scenario=scenario, gnb=gnb, detector=detector,
        seeds=_seeds(args), out_dir=Path(args.out))


def _add_common(parser: argparse.ArgumentParser, seeds_note: str = "") -> None:
    """The flags of run, latency and table1; seeds_note ends the help of --seed and --reps."""
    parser.add_argument("--capacity", type=int, help="gNB UE-context capacity")
    parser.add_argument("--waiting-time-ms", type=int, help="pending-context hold time")
    parser.add_argument("--attack-rate", type=float, help="attacker Msg3 rate per second")
    parser.add_argument("--seed", type=int, default=1, help="base RNG seed" + seeds_note)
    parser.add_argument("--reps", type=int, default=1,
                        help="number of seeded repetitions" + seeds_note)
    parser.add_argument("--out", default="out", help="output directory")


def _add_scenario(parser: argparse.ArgumentParser) -> None:
    """The scenario and detector flags: run and latency only, since table1 runs its own
    cold-start floods at fixed occupancies and no detector, and replay no scenario."""
    parser.add_argument("--scenario", default="paper-attack-0",
                        help="preset name or JSON config file "
                             f"(presets: {', '.join(presets.PRESET_NAMES)})")
    parser.add_argument("--occupancy-pct", type=int,
                        help="percent of contexts already connected at t=0")
    _add_detector(parser)


def _add_detector(parser: argparse.ArgumentParser) -> None:
    """The detector flags of run, latency and replay."""
    parser.add_argument("--window-ms", type=int, help="detector window size")
    parser.add_argument("--hop-ms", type=int, help="detector evaluation stride")
    parser.add_argument("--watermark", type=int, help="abnormal Msg3-count watermark")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rrcstorm",
        description="RRC signaling-storm simulator, analytic model and detector")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_run = sub.add_parser("run", help="simulate, detect, write trace/verdict/metrics files")
    _add_common(p_run)
    _add_scenario(p_run)

    p_table = sub.add_parser("table1", help="theoretical vs simulated flood metrics "
                                            "at 0/25/50/75%% occupancy, one flood each")
    _add_common(p_table, "; ignored: each occupancy runs one flood, "
                           "which no seed changes")

    p_lat = sub.add_parser("latency", help="seeded detection-latency campaign")
    _add_common(p_lat)
    _add_scenario(p_lat)
    p_lat.add_argument("--target", choices=[s.value for s in GnbState],
                       help="state to time (default: scenario kind)")

    p_replay = sub.add_parser("replay", help="run the detector over a recorded trace")
    p_replay.add_argument("trace", type=Path, help="input .rrctrace.jsonl file")
    p_replay.add_argument("--out", type=Path, help="output verdict file "
                          "(default: trace path with verdict suffix)")
    _add_detector(p_replay)
    p_replay.add_argument("--r1-threshold", type=float, help="Msg5/Msg3 ratio threshold")
    p_replay.add_argument("--r2-threshold", type=float, help="Msg5/Msg4 ratio threshold")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    config = _experiment(args)
    artifacts = harness.cmd_run(config)
    for path in artifacts.trace_paths:
        print(f"trace:    {path}")
    for path in artifacts.verdict_paths:
        print(f"verdicts: {path}")
    print(f"metrics:  {artifacts.metrics_path}")
    if artifacts.availability_pct is not None:
        print(f"availability over first waiting period: {artifacts.availability_pct:.2f}%")
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    [gnb] = _override(args, gnb=presets.default_gnb())
    rate = presets.ATTACK_RATE_PER_S if args.attack_rate is None else args.attack_rate
    if args.reps < 1:   # refused as run and latency refuse it; otherwise ignored
        raise ValueError("at least one seed required")
    out_path = Path(args.out) / "table1.csv"
    rows = harness.cmd_table1(gnb, out_path, rate)
    fmt = "{:>9} {:>12} {:>9} {:>9} {:>8} {:>9} {:>9} {:>7}"
    print(fmt.format("occupancy", "source", "accepted", "rejected",
                     "drop_s", "accept_s", "reject_s", "avail%"))
    for r in rows:
        print(fmt.format(f"{r.occupancy_pct}%", r.source, f"{r.accepted:.0f}",
                         f"{r.rejected:.0f}", f"{r.drop_time_s:.3f}",
                         f"{r.accept_duration_s:.3f}", f"{r.reject_duration_s:.3f}",
                         f"{r.availability_pct:.2f}"))
    print(f"csv: {out_path}")
    return 0


def _cmd_latency(args: argparse.Namespace) -> int:
    config = _experiment(args)
    target = GnbState(args.target) if args.target else None
    out_path = config.out_dir / f"{config.name}-latency.csv"
    rows, summary = harness.latency_campaign(config, target, out_path)
    print(f"runs: {summary.runs}  detected: {summary.detected}  target: {summary.target.value}")
    if summary.mean_latency_ms is not None:
        print(f"latency ms  mean: {summary.mean_latency_ms:.1f}  "
              f"min: {summary.min_latency_ms}  max: {summary.max_latency_ms}")
    if summary.mean_margin_ms is not None:
        print(f"margin before overload ms  mean: {summary.mean_margin_ms:.1f}")
    print(f"attack verdicts across runs: {summary.total_attack_verdicts}")
    print(f"csv: {out_path}")
    return int(summary.detected != summary.runs)


def _cmd_replay(args: argparse.Namespace) -> int:
    [detector] = _override(args, detector=presets.default_detector())
    out = args.out or args.trace.with_name(
        args.trace.name.removesuffix(TRACE_SUFFIX) + VERDICT_SUFFIX)
    count = harness.cmd_replay(args.trace, detector, out)
    print(f"{count} verdicts -> {out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "table1": _cmd_table1,
                "latency": _cmd_latency, "replay": _cmd_replay}
    # The cyclic collector is paused while the command runs: every retained event holds
    # an enum member, so the collector tracks it and each older-generation pass walks the
    # whole trace again, while a command leaves no cycles per repetition to free. The
    # caller's setting comes back on every exit.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return handlers[args.cmd](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
