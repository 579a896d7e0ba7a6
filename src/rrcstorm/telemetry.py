"""Line-delimited JSON serialization for traces and verdict timelines.

One record per line, fixed key order, UTF-8 with LF endings, so golden files
are byte-stable and diffable. Parsing is strict: any record the writer could
not have produced is rejected with its line number.
"""
from __future__ import annotations

import json
import os
import re
from contextlib import contextmanager
from io import TextIOBase
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
Source = Union[str, Path, IO[str], IO[bytes]]


class TraceParseError(ValueError):
    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


@contextmanager
def _text_lines(source: Source) -> Iterator[Iterable[str]]:
    """The LF-terminated lines of a path or stream as text.

    Bytes are decoded line by line, so a bad byte raises after the lines before it;
    a text stream decodes in chunks, and may raise early.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            yield map(bytes.decode, fh)
    else:
        yield source if isinstance(source, TextIOBase) else map(bytes.decode, source)


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
    """Stream one LF-terminated line per item to sink; returns the line count.

    A file gets the lines through <path>.part, renamed only once all are written;
    a device or FIFO (/dev/stdout) is written in place, as a rename would replace it.
    """
    if not isinstance(sink, (str, Path)):
        return _write_to(sink, lines)
    if os.path.exists(sink) and not os.path.isfile(sink):
        with open(sink, "w", encoding="utf-8", newline="\n") as fh:
            return _write_to(fh, lines)
    part = Path(f"{sink}.part")
    try:
        with open(part, "w", encoding="utf-8", newline="\n") as fh:
            count = _write_to(fh, lines)
        part.replace(sink)
    except BaseException:
        part.unlink(missing_ok=True)
        raise
    return count


def _write_to(fh: IO[str], lines: Iterable[str]) -> int:
    count = 0
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


def iter_trace(source: Source) -> Iterator[RrcEvent]:
    """Parse a trace line by line, errors in file order; round-trips write_trace."""
    match = _CANONICAL_TRACE_LINE.match
    with _text_lines(source) as lines:
        prev_t, line_no = 0, 0
        try:
            for line_no, line in enumerate(lines, 1):
                m = match(line)
                if m is not None:
                    t, kind, ue, cause = m.groups()
                    t = int(t)
                    if t >= prev_t and (cause is not None) == (kind == "msg3"):
                        prev_t = t
                        yield RrcEvent(t, _KINDS[kind], ue, _CAUSES.get(cause))
                        continue
                event = _parse_trace_record(line_no, line, prev_t)
                prev_t = event.t
                yield event
        except UnicodeDecodeError as exc:   # raised on getting line line_no + 1
            raise TraceParseError(line_no + 1, f"not UTF-8: {exc}") from None


def read_trace(source: Source) -> list[RrcEvent]:
    """iter_trace as a list."""
    return list(iter_trace(source))


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


def read_verdicts(source: Source, window_ms: int = 625) -> list[DetectionVerdict]:
    """Parse a verdict file; ratios come back rounded to their 4 decimals."""
    verdicts, line_no = [], 0
    with _text_lines(source) as lines:
        try:
            for line_no, line in enumerate(lines, 1):
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
        except UnicodeDecodeError as exc:   # raised on getting line line_no + 1
            raise TraceParseError(line_no + 1, f"not UTF-8: {exc}") from None
    return verdicts
