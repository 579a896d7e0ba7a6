"""Line-delimited JSON serialization for traces and verdict timelines.

One record per line, fixed key order, UTF-8 with LF endings, so golden files
are byte-stable and diffable. Parsing is strict: any record the writer could
not have produced is rejected with its line number.
"""
from __future__ import annotations

import json
import re
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import IO, Iterable, Iterator, Union

from .detector import DetectionVerdict, GnbState, WindowFeatures
from .events import EstablishmentCause, MsgKind, RrcEvent

TRACE_SUFFIX = ".rrctrace.jsonl"
VERDICT_SUFFIX = ".verdicts.jsonl"

_KINDS = {k.value: k for k in MsgKind}
_CAUSES = {c.value: c for c in EstablishmentCause}
_STATES = {s.value: s for s in GnbState}
# Member -> its text for the writers, and MSG3 bound once for the reader: a dict
# read or a module global costs a tenth of .value or MsgKind.MSG3 per record.
_TEXT = {m: m.value for enum in (MsgKind, EstablishmentCause, GnbState) for m in enum}
_MSG3 = MsgKind.MSG3

# A trace line exactly as trace_line writes it for an int timestamp and a
# printable-ASCII ue without '"' or '\', so the JSON text is its own value.
# Only these lines skip json.loads; the t >= prev_t and cause-iff-msg3 checks
# still run on them, and every other line takes the strict parser. A t of more
# than 18 digits takes it too, as int() refuses over 4300 by default.
_CANONICAL_TRACE_LINE = re.compile(
    '{"t":(0|[1-9][0-9]{0,17}),'
    f'"kind":"({"|".join(map(re.escape, _KINDS))})",'
    r'"ue":"([ !#-\[\]-~]+)"'
    f'(?:,"cause":"({"|".join(map(re.escape, _CAUSES))})")?'
    "}$"
)

Sink = Union[str, Path, IO[str]]


class TraceParseError(ValueError):
    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


@contextmanager
def _opened(sink: Sink, mode: str) -> Iterator[IO[str]]:
    """Open a path as UTF-8 with LF endings; pass an open stream through unclosed.

    Bytes in a path that are not UTF-8 raise TraceParseError naming their line.
    The decoder works in chunks, so the line is found only then, by re-reading.
    """
    if isinstance(sink, (str, Path)):
        with open(sink, mode, encoding="utf-8", newline="\n") as fh:
            try:
                yield fh
            except UnicodeDecodeError:
                with open(sink, "rb") as raw:
                    for line_no, line in enumerate(raw, 1):
                        try:
                            line.decode("utf-8")
                        except UnicodeDecodeError as exc:
                            raise TraceParseError(line_no, f"not UTF-8: {exc}") from None
                raise
    else:
        yield sink


def trace_line(event: RrcEvent) -> str:
    t, kind, ue, cause = event.t, _TEXT[event.kind], event.ue_ref, event.cause
    if type(t) is not int or type(ue) is not str:
        record = {"t": t, "kind": kind, "ue": ue}
        if cause is not None:
            record["cause"] = _TEXT[cause]
        return json.dumps(record, separators=(",", ":"))
    # Same bytes as the json.dumps form above: ensure_ascii encodes ue alone.
    if cause is None:
        return f'{{"t":{t},"kind":"{kind}","ue":{encode_basestring_ascii(ue)}}}'
    return (f'{{"t":{t},"kind":"{kind}","ue":{encode_basestring_ascii(ue)},'
            f'"cause":"{_TEXT[cause]}"}}')


def _write_lines(lines: Iterable[str], sink: Sink) -> int:
    """Stream one LF-terminated line per item to sink; returns the line count."""
    count = 0
    with _opened(sink, "w") as fh:
        for count, line in enumerate(lines, 1):
            fh.write(line + "\n")
    return count


def write_trace(events: Iterable[RrcEvent], sink: Sink) -> int:
    """Write one JSON line per event; returns the record count."""
    return _write_lines(map(trace_line, events), sink)


def _load_record(line_no: int, line: str) -> dict:
    """The checks both readers share: a non-blank line holding one JSON object."""
    line = line.rstrip("\n")
    if not line:
        raise TraceParseError(line_no, "blank line")
    try:
        record = json.loads(line)
    except ValueError as exc:   # JSONDecodeError, or an int of too many digits
        raise TraceParseError(line_no, f"bad JSON: {exc}") from None
    except RecursionError:
        raise TraceParseError(line_no, "bad JSON: nested too deep") from None
    if not isinstance(record, dict):
        raise TraceParseError(line_no, "record is not an object")
    return record


def _lookup(table: dict, value: object):
    """Enum member for a JSON string value; None for anything else, hashable or not."""
    return table.get(value) if isinstance(value, str) else None


def _parse_trace_record(line_no: int, line: str, prev_t: int) -> RrcEvent:
    record = _load_record(line_no, line)
    unknown = set(record) - {"t", "kind", "ue", "cause"}
    if unknown:
        raise TraceParseError(line_no, f"unknown keys {sorted(unknown)}")
    for key in ("t", "kind", "ue"):
        if key not in record:
            raise TraceParseError(line_no, f"missing key '{key}'")
    t = record["t"]
    if not isinstance(t, int) or isinstance(t, bool) or t < 0:
        raise TraceParseError(line_no, f"'t' must be a non-negative integer, got {t!r}")
    if t < prev_t:
        raise TraceParseError(line_no, f"timestamp regression {prev_t} -> {t}")
    kind = _lookup(_KINDS, record["kind"])
    if kind is None:
        raise TraceParseError(line_no, f"unknown kind {record['kind']!r}")
    ue = record["ue"]
    if not isinstance(ue, str) or not ue:
        raise TraceParseError(line_no, "'ue' must be a non-empty string")
    cause = None
    if kind is _MSG3:
        if "cause" not in record:
            raise TraceParseError(line_no, "msg3 record without cause")
        cause = _lookup(_CAUSES, record["cause"])
        if cause is None:
            raise TraceParseError(line_no, f"unknown cause {record['cause']!r}")
    elif "cause" in record:
        raise TraceParseError(line_no, f"cause not allowed on {kind.value}")
    return RrcEvent(t, kind, ue, cause)


def read_trace(source: Sink) -> list[RrcEvent]:
    """Parse a trace file back into events; round-trips write_trace exactly."""
    match = _CANONICAL_TRACE_LINE.match
    with _opened(source, "r") as fh:
        events = []
        prev_t = 0
        for line_no, line in enumerate(fh, 1):
            m = match(line)
            if m is not None:
                t, kind, ue, cause = m.groups()
                t = int(t)
                if t >= prev_t and (cause is not None) == (kind == "msg3"):
                    events.append(RrcEvent(t, _KINDS[kind], ue, _CAUSES.get(cause)))
                    prev_t = t
                    continue
            event = _parse_trace_record(line_no, line, prev_t)
            prev_t = event.t
            events.append(event)
        return events


def verdict_line(verdict: DetectionVerdict) -> str:
    f = verdict.features
    # r1/r2 fixed at 4 decimals so output bytes are platform independent.
    return (
        f'{{"t":{verdict.t_ms},"state":"{_TEXT[verdict.state]}",'
        f'"n_msg3":{f.n_msg3},"n_msg4":{f.n_msg4},"n_msg5":{f.n_msg5},'
        f'"r1":{f.r1:.4f},"r2":{f.r2:.4f}}}'
    )


def write_verdicts(verdicts: Iterable[DetectionVerdict], sink: Sink) -> int:
    return _write_lines(map(verdict_line, verdicts), sink)


_VERDICT_KEYS = {"t", "state", "n_msg3", "n_msg4", "n_msg5", "r1", "r2"}


def read_verdicts(source: Sink, window_ms: int = 625) -> list[DetectionVerdict]:
    """Parse a verdict file; ratios come back rounded to their 4 decimals."""
    with _opened(source, "r") as fh:
        verdicts = []
        for line_no, line in enumerate(fh, 1):
            record = _load_record(line_no, line)
            if set(record) != _VERDICT_KEYS:
                raise TraceParseError(line_no, f"keys must be {sorted(_VERDICT_KEYS)}")
            # type() rather than isinstance(): JSON true/false decode to bool, an int subclass.
            for key in ("t", "n_msg3", "n_msg4", "n_msg5"):
                if type(record[key]) is not int:
                    raise TraceParseError(
                        line_no, f"'{key}' must be an integer, got {record[key]!r}")
            for key in ("r1", "r2"):
                if type(record[key]) not in (int, float):
                    raise TraceParseError(
                        line_no, f"'{key}' must be a number, got {record[key]!r}")
            state = _lookup(_STATES, record["state"])
            if state is None:
                raise TraceParseError(line_no, f"unknown state {record['state']!r}")
            features = WindowFeatures(
                window_start_ms=record["t"] - window_ms,
                window_end_ms=record["t"],
                n_msg3=record["n_msg3"],
                n_msg4=record["n_msg4"],
                n_msg5=record["n_msg5"],
                r1=record["r1"],
                r2=record["r2"],
            )
            verdicts.append(DetectionVerdict(record["t"], state, features))
        return verdicts
