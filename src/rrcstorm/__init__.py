"""rrcstorm: deterministic 5G RRC signaling-storm simulation and detection.

A discrete-event model of a gNB's bounded UE-context pool under connection
floods and legitimate surges, a closed-form availability model that serves as
its oracle, a sliding-window threshold detector that classifies gNB state
from the Msg3/Msg4/Msg5 stream alone, and JSONL telemetry for offline replay.
"""
from .analytic import (
    AnalyticInputs,
    AnalyticOutputs,
    WAITING_TIME_EFFECTIVE_MS,
    WAITING_TIME_NOMINAL_MS,
    availability_rate,
    full_model,
)
from .detector import (
    DetectionVerdict,
    DetectorConfig,
    GnbState,
    StreamOrderError,
    classify,
    detection_latency,
    iter_verdicts,
)
from .events import (
    EstablishmentCause,
    MsgKind,
    RrcEvent,
)
from .simnet import (
    GnbConfig,
    ScenarioError,
    ScenarioKind,
    ScenarioSpec,
    SimResult,
    TruncatedPoissonSpec,
    run,
    summarize_trace,
    truncated_poisson_sample,
)
from .telemetry import (
    TRACE_SUFFIX,
    VERDICT_SUFFIX,
    TraceParseError,
    iter_trace,
    read_verdicts,
    write_trace,
    write_verdicts,
)

__version__ = "0.1.0"
