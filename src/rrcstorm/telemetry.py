"""Line-delimited JSON serialization for traces and verdict timelines.

One record per line, fixed key order, UTF-8 with LF endings, so golden files
are byte-stable and diffable. Parsing is strict: a value the writer cannot
produce is refused with its line number, in whatever JSON spelling it comes
(reordered keys, inner spaces and -0 read back). Whether an event may stand in
a trace, and the words for why not, is events._event_refusal's rule.
"""
from __future__ import annotations

import json
import os
import re
from io import BytesIO, TextIOBase
from itertools import islice
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import IO, Generator, Iterable, Iterator, Union

from .detector import DetectionVerdict, GnbState
from .events import EstablishmentCause, MsgKind, RrcEvent, _event_refusal

TRACE_SUFFIX = ".rrctrace.jsonl"
VERDICT_SUFFIX = ".verdicts.jsonl"

_KINDS = {k.value: k for k in MsgKind}
_CAUSES = {c.value: c for c in EstablishmentCause}
_STATES = {s.value: s for s in GnbState}
# Member -> its text for the writers, and MSG3 bound once for the reader: a dict
# read or a module global costs a tenth of .value or MsgKind.MSG3 per record.
_TEXT = {m: m.value for enum in (MsgKind, EstablishmentCause, GnbState) for m in enum}
_MSG3 = MsgKind.MSG3

# A whole trace line exactly as trace_line writes it for an int timestamp and a
# printable-ASCII ue without '"' or '\', so the JSON text is its own value. The
# empty group after msg3 makes the cause required there and refused elsewhere.
# A t of more than 18 digits takes the strict parser, as int() refuses over 4300
# by default; so does every other line, and a canonical line whose t regressed.
_TRACE_LINE = re.compile(
    '^{"t":(0|[1-9][0-9]{0,17}),'
    f'"kind":"(msg3()|{"|".join(re.escape(k) for k in _KINDS if k != "msg3")})",'
    r'"ue":"([ !#-\[\]-~]+)"'
    f'(?(3),"cause":"({"|".join(map(re.escape, _CAUSES))})")'
    "}$", re.M)
# A high then a low surrogate: the writer escapes each, and the JSON reader joins
# the two escapes into one character, so a ue holding them cannot round-trip.
_PAIR = re.compile("[\ud800-\udbff][\udc00-\udfff]")
# Bytes (characters from a text stream) a reader takes at a time, plus the rest
# of the last line: what a reader holds of its source. This and the lines a
# writer joins into one write set most of what a replay holds: its tracemalloc
# peak was 260 KB at 32 KiB and 512 lines, 156 KB at these, at the same speed.
_BLOCK_SIZE = 1 << 14
_CHUNK_LINES = 256

Sink = Union[str, Path, IO[str]]
Source = Union[str, Path, IO[str], IO[bytes]]


class TraceParseError(ValueError):
    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


def _blocks(source: Source) -> Iterator[str]:
    """The text of a path or stream in blocks of whole lines, each ending in LF.

    A final line without LF gets one. Bytes are decoded a block at once, and a block
    that is not UTF-8 a line at a time, so its bad byte raises UnicodeDecodeError
    after the lines before it; a text stream decodes in chunks, and may raise early.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            yield from _blocks(fh)
        return
    text = isinstance(source, TextIOBase)
    lf = "\n" if text else b"\n"
    while block := source.read(_BLOCK_SIZE):
        while not block.endswith(lf) and (rest := source.readline()):
            block += rest
        if not text:
            try:
                block = block.decode()
            except UnicodeDecodeError:
                yield from map(bytes.decode, BytesIO(block))
                continue
        yield block if block.endswith("\n") else block + "\n"


def trace_line(event: RrcEvent) -> str:
    """The line write_trace writes for event as the first record of a trace."""
    return next(_trace_lines((event,)))


def _trace_lines(events: Iterable[RrcEvent]) -> Iterator[str]:
    """One JSON line per event, each the bytes json.dumps(separators=(",", ":")) gives;
    ValueError, naming the event's index, for an event read_trace would refuse."""
    text, encode = _TEXT, encode_basestring_ascii   # ensure_ascii encodes ue alone
    prev_t = 0   # a first t below 0 is refused as negative, like any regression
    for i, (t, kind, ue, cause) in enumerate(events):
        if (type(t) is not int or t < prev_t or type(kind) is not MsgKind
                or type(ue) is not str or not ue or (not ue.isascii() and _PAIR.search(ue))
                or (kind is _MSG3) is (cause is None)
                or (cause is not None and type(cause) is not EstablishmentCause)):
            reason = (_event_refusal(t, kind, ue, cause, prev_t)
                      or f"'ue' {ue!r} holds a surrogate pair, which reads back as one character")
            raise ValueError(f"event {i}: {reason}")
        prev_t = t
        try:
            line = (f'{{"t":{t},"kind":"{text[kind]}","ue":{encode(ue)}}}' if cause is None
                    else f'{{"t":{t},"kind":"msg3","ue":{encode(ue)},"cause":"{text[cause]}"}}')
        except ValueError as exc:   # a t of more digits than int() may print
            raise ValueError(f"event {i}: {exc}") from None
        yield line


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
    lines, count = iter(lines), 0
    while chunk := list(islice(lines, _CHUNK_LINES)):
        count += len(chunk)
        chunk.append("")
        fh.write("\n".join(chunk))
    return count


def write_trace(events: Iterable[RrcEvent], sink: Sink) -> int:
    """Write one JSON line per event; returns the record count.

    ValueError ("event 3: ...") for the first event read_trace would refuse, in its
    words, or read back as another (a ue holding a surrogate pair), and for a t of
    more digits than int() may print.
    """
    return _write_lines(_trace_lines(events), sink)


def _load_record(line_no: int, line: str) -> dict:
    """The checks both readers share: a non-blank line holding one JSON object."""
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


def _member(table: dict, value: object):
    """The enum member a JSON string names in table; any other value, hashable or not,
    as it is."""
    return table.get(value, value) if isinstance(value, str) else value


def _parse_trace_record(line_no: int, line: str, prev_t: int) -> RrcEvent:
    record = _load_record(line_no, line)
    unknown = set(record) - {"t", "kind", "ue", "cause"}
    if unknown:
        raise TraceParseError(line_no, f"unknown keys {sorted(unknown)}")
    for key in ("t", "kind", "ue"):
        if key not in record:
            raise TraceParseError(line_no, f"missing key '{key}'")
    t, kind, ue, cause = record["t"], _member(_KINDS, record["kind"]), record["ue"], None
    if "cause" in record:   # a JSON null goes to the rule as "null": refused, not no cause
        cause = _member(_CAUSES, "null" if record["cause"] is None else record["cause"])
    reason = _event_refusal(t, kind, ue, cause, prev_t)
    if reason is not None:
        raise TraceParseError(line_no, reason)
    return RrcEvent(t, kind, ue, cause)


def _strict_lines(text: str, line_no: int, prev_t: int) -> Generator[RrcEvent, None, int]:
    """The LF-terminated lines of text through the strict parser, the first being
    line line_no + 1; returns the last timestamp."""
    for line_no, line in enumerate(text.split("\n")[:-1], line_no + 1):
        event = _parse_trace_record(line_no, line, prev_t)
        prev_t = event.t
        yield event
    return prev_t


def iter_trace(source: Source) -> Iterator[RrcEvent]:
    """Parse a trace a block at a time, errors in file order; round-trips write_trace."""
    finditer, new, kinds, causes = _TRACE_LINE.finditer, tuple.__new__, _KINDS, _CAUSES
    prev_t = line_no = 0   # line_no: the lines before pos
    try:
        for block in _blocks(source):
            pos = 0   # where the first line not yet parsed starts
            for m in finditer(block):
                t, kind, _, ue, cause = m.groups()
                t, start = int(t), m.start()
                if start != pos:   # lines the pattern skipped
                    prev_t = yield from _strict_lines(block[pos:start], line_no, prev_t)
                    line_no += block.count("\n", pos, start)
                line_no += 1
                if t < prev_t:
                    _parse_trace_record(line_no, m[0], prev_t)   # raises the regression
                prev_t, pos = t, m.end() + 1
                yield new(RrcEvent, (t, kinds[kind], ue, causes.get(cause)))
            if pos != len(block):
                prev_t = yield from _strict_lines(block[pos:], line_no, prev_t)
                line_no += block.count("\n", pos)
    except UnicodeDecodeError as exc:   # raised on getting line line_no + 1
        raise TraceParseError(line_no + 1, f"not UTF-8: {exc}") from None


def read_trace(source: Source) -> list[RrcEvent]:
    """iter_trace as a list."""
    return list(iter_trace(source))


def verdict_line(verdict: DetectionVerdict) -> str:
    # r1/r2 fixed at 4 decimals so output bytes are platform independent.
    return (
        f'{{"t":{verdict.t_ms},"state":"{_TEXT[verdict.state]}",'
        f'"n_msg3":{verdict.n_msg3},"n_msg4":{verdict.n_msg4},"n_msg5":{verdict.n_msg5},'
        f'"r1":{verdict.r1:.4f},"r2":{verdict.r2:.4f}}}'
    )


def write_verdicts(verdicts: Iterable[DetectionVerdict], sink: Sink) -> int:
    return _write_lines(map(verdict_line, verdicts), sink)


_VERDICT_KEYS = {"t", "state", "n_msg3", "n_msg4", "n_msg5", "r1", "r2"}


def read_verdicts(source: Source) -> list[DetectionVerdict]:
    """Parse a verdict file; ratios come back rounded to their 4 decimals."""
    verdicts, line_no = [], 0
    try:
        for block in _blocks(source):
            for line_no, line in enumerate(block.split("\n")[:-1], line_no + 1):
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
                state = _member(_STATES, record["state"])
                if type(state) is not GnbState:
                    raise TraceParseError(line_no, f"unknown state {state!r}")
                verdicts.append(DetectionVerdict(
                    record["t"], state, record["n_msg3"], record["n_msg4"], record["n_msg5"],
                    record["r1"], record["r2"]))
    except UnicodeDecodeError as exc:   # raised on getting line line_no + 1
        raise TraceParseError(line_no + 1, f"not UTF-8: {exc}") from None
    return verdicts
