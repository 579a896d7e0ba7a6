"""Line-delimited JSON serialization for traces and verdict timelines.

One record per line, fixed key order, UTF-8 with LF endings, so golden files
are byte-stable and diffable. Parsing is strict: a value the writer cannot
produce is refused with its line number, in whatever JSON spelling it comes
(reordered keys, inner spaces and -0 read back). Whether an event may stand in
a trace, and the words for why not, is events._event_refusal's rule; for a
verdict, _verdict_refusal's, which write_verdicts and verdict_line apply too.
"""
from __future__ import annotations

import json
import os
import re
from collections import Counter
from contextlib import suppress
from io import BytesIO, TextIOBase
from itertools import compress, islice, repeat, takewhile
from json.encoder import encode_basestring_ascii
from operator import is_
from pathlib import Path
from typing import IO, Generator, Iterable, Iterator, Optional, Union

from .detector import DetectionVerdict, GnbState
from .events import EstablishmentCause, MsgKind, RrcEvent, _event_refusal

TRACE_SUFFIX = ".rrctrace.jsonl"
VERDICT_SUFFIX = ".verdicts.jsonl"

_KINDS = {k.value: k for k in MsgKind}
_CAUSES = {c.value: c for c in EstablishmentCause}
_STATES = {s.value: s for s in GnbState}
_TRACE_KEYS = ("t", "kind", "ue", "cause")   # the first three are required
_VERDICT_KEYS = ("t", "state", "n_msg3", "n_msg4", "n_msg5", "r1", "r2")
# Member -> its text for the writers, and MSG3 bound once for the writer: a dict
# read or a module global costs a tenth of .value or MsgKind.MSG3 per record.
_TEXT = {m: m.value for enum in (MsgKind, EstablishmentCause, GnbState) for m in enum}
_MSG3 = MsgKind.MSG3

# A whole trace line exactly as trace_line writes it for an int timestamp and a
# printable-ASCII ue without '"' or '\', so the JSON text is its own value. The
# empty group after msg3 makes the cause required there and refused elsewhere.
# A block holding any other line, or a t that regressed, goes whole to the strict
# parser; so does a t of more than 18 digits, as int() refuses over 4300 by default.
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
# writer joins into one write set most of what a replay holds: with a block's
# records built by column, its tracemalloc peak was 336 KB at 16 KiB and 256
# lines, 189 KB at these and 148 KB at 4 KiB.
_BLOCK_SIZE = 1 << 13
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
    # The last event's t and ue and the text each gave: a t or ue equal to it is
    # neither checked nor formatted again. Equal is enough for an exact int or str,
    # as each prints one way; True == 1 and a str subclass are refused, as ever. No
    # t or ue equals None, and a first t below 0 is refused as negative.
    prev_t, last_t, last_ue, t_text, ue_text = 0, None, None, "", ""
    for i, (t, kind, ue, cause) in enumerate(events):
        if (type(kind) is not MsgKind or (kind is _MSG3) is (cause is None)
                or (cause is not None and type(cause) is not EstablishmentCause)):
            raise _refused(i, t, kind, ue, cause, prev_t)
        if type(ue) is not str or ue != last_ue:
            if type(ue) is not str or not ue or (not ue.isascii() and _PAIR.search(ue)):
                raise _refused(i, t, kind, ue, cause, prev_t)
            ue_text, last_ue = encode(ue), ue
        if type(t) is not int or t != last_t:
            if type(t) is not int or t < prev_t:
                raise _refused(i, t, kind, ue, cause, prev_t)
            try:   # last, so that any refusal comes before this error
                t_text = f"{t}"
            except ValueError as exc:   # a t of more digits than int() may print
                raise ValueError(f"event {i}: {exc}") from None
            prev_t = last_t = t
        yield (f'{{"t":{t_text},"kind":"{text[kind]}","ue":{ue_text}}}' if cause is None else
               f'{{"t":{t_text},"kind":"msg3","ue":{ue_text},"cause":"{text[cause]}"}}')


def _refused(i: int, t, kind, ue, cause, prev_t: int) -> ValueError:
    """The error for event i, refused after one at prev_t, in the rule's words."""
    reason = (_event_refusal(t, kind, ue, cause, prev_t)
              or f"'ue' {ue!r} holds a surrogate pair, which reads back as one character")
    return ValueError(f"event {i}: {reason}")


def _write_lines(lines: Iterable[str], sink: Sink) -> int:
    """Stream one LF-terminated line per item to sink; returns the line count.

    A file goes through <path>.part, its missing directories made, renamed once all
    lines are written; a write that fails removes the .part file and the directories
    it made, while empty. A device or FIFO (/dev/stdout) is written in place, as a
    rename would replace it.
    """
    if not isinstance(sink, (str, Path)):
        return _write_to(sink, lines)
    if os.path.exists(sink) and not os.path.isfile(sink):
        with open(sink, "w", encoding="utf-8", newline="\n") as fh:
            return _write_to(fh, lines)
    part = Path(f"{sink}.part")
    made = list(takewhile(lambda d: not d.exists(), part.parents))   # deepest first
    part.parent.mkdir(parents=True, exist_ok=True)
    try:
        with open(part, "w", encoding="utf-8", newline="\n") as fh:
            count = _write_to(fh, lines)
        part.replace(sink)
    except BaseException:
        part.unlink(missing_ok=True)
        for directory in made:   # rmdir refuses one that is not empty
            with suppress(OSError):
                directory.rmdir()
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


class _Repeats(dict):
    """A JSON object that repeats its key `repeated`: _checked_object refuses it."""


def _object(pairs: list[tuple[str, object]]) -> dict:
    """The JSON decoder's object_pairs_hook: the pairs as a dict, a _Repeats if a key repeats."""
    value = dict(pairs)
    if len(value) < len(pairs):
        value = _Repeats(value)
        value.repeated = Counter(key for key, _ in pairs).most_common(1)[0][0]
    return value


_decode = json.JSONDecoder(object_pairs_hook=_object).decode   # made once, not per json.loads


def _checked_object(value: object, allowed: Iterable[str], required: Iterable[str]) -> dict:
    """value if a JSON object of allowed keys, none twice, with all required; else ValueError."""
    if not isinstance(value, dict):
        raise ValueError(f"expected an object, got {type(value).__name__}")
    if isinstance(value, _Repeats):
        raise ValueError(f"duplicate key {value.repeated!r}")
    if unknown := value.keys() - allowed:
        raise ValueError(f"unknown keys {sorted(unknown)}")
    if missing := [key for key in required if key not in value]:
        raise ValueError(f"missing key '{missing[0]}'")
    return value


def _json_object(text: str, allowed: Iterable[str], required: Iterable[str]) -> dict:
    """The JSON object text holds, checked by _checked_object; ValueError otherwise."""
    try:
        value = _decode(text)
    except ValueError as exc:   # JSONDecodeError, or an int of too many digits
        raise ValueError(f"bad JSON: {exc}") from None
    except RecursionError:
        raise ValueError("bad JSON: nested too deep") from None
    return _checked_object(value, allowed, required)


def _load_record(line_no: int, line: str, allowed: tuple, required: tuple) -> dict:
    """The JSON object one line of a trace or verdict file holds, or TraceParseError."""
    if not line:
        raise TraceParseError(line_no, "blank line")
    try:
        return _json_object(line, allowed, required)
    except ValueError as exc:
        raise TraceParseError(line_no, str(exc)) from None


def _member(table: dict, value: object):
    """The enum member a JSON string names in table; any other value, hashable or not,
    as it is."""
    return table.get(value, value) if isinstance(value, str) else value


def _parse_trace_record(line_no: int, line: str, prev_t: int) -> RrcEvent:
    record = _load_record(line_no, line, _TRACE_KEYS, _TRACE_KEYS[:3])
    t, kind, ue, cause = record["t"], _member(_KINDS, record["kind"]), record["ue"], None
    if "cause" in record:   # a JSON null goes to the rule as "null": refused, not no cause
        cause = _member(_CAUSES, "null" if record["cause"] is None else record["cause"])
    if (reason := _event_refusal(t, kind, ue, cause, prev_t)) is not None:
        raise TraceParseError(line_no, reason)
    return RrcEvent(t, kind, ue, cause)


def _strict_lines(text: str, line_no: int, prev_t: int,
                  wanted: Optional[set]) -> Generator[RrcEvent, None, int]:
    """The LF-terminated lines of text through the strict parser, the first being
    line line_no + 1, yielding those of a kind whose text is in wanted (all if None);
    returns the last timestamp."""
    for line_no, line in enumerate(text.split("\n")[:-1], line_no + 1):
        event = _parse_trace_record(line_no, line, prev_t)
        prev_t = event.t
        if wanted is None or _TEXT[event.kind] in wanted:
            yield event
    return prev_t


def iter_trace(source: Source, *, kinds: Iterable[MsgKind] = tuple(MsgKind)
               ) -> Iterator[RrcEvent]:
    """Parse a trace a block at a time, errors in file order; round-trips write_trace.
    Every line is checked, but only events of the given kinds are built and yielded;
    TypeError for a kind that is not a MsgKind. A block of canonical lines in order is
    built by column, any other by _strict_lines."""
    if isinstance(kinds, str):   # a lone MsgKind is one, and would give its characters
        raise TypeError(f"kinds must hold MsgKind members, got {kinds!r}")
    wanted = set()
    for kind in kinds:
        if type(kind) is not MsgKind:
            raise TypeError(f"kinds must hold MsgKind members, got {kind!r}")
        wanted.add(_TEXT[kind])
    wanted = None if len(wanted) == len(_KINDS) else wanted
    findall, members, causes = _TRACE_LINE.findall, _KINDS.__getitem__, _CAUSES.get
    prev_t = line_no = 0   # line_no: the lines before the block
    try:
        for block in _blocks(source):
            rows, lines = findall(block), block.count("\n")
            if len(rows) == lines:
                t, kind, _, ue, cause = zip(*rows)
                t = list(map(int, t))
                if prev_t <= t[0] and t == sorted(t):
                    prev_t, line_no = t[-1], line_no + lines
                    if wanted is not None:   # the wanted rows of each column
                        keep = list(map(wanted.__contains__, kind))
                        t, kind, ue, cause = map(compress, (t, kind, ue, cause), repeat(keep))
                    yield from map(tuple.__new__, repeat(RrcEvent),
                                   zip(t, map(members, kind), ue, map(causes, cause)))
                    continue
            prev_t = yield from _strict_lines(block, line_no, prev_t, wanted)
            line_no += lines
    except UnicodeDecodeError as exc:   # raised on getting line line_no + 1
        raise TraceParseError(line_no + 1, f"not UTF-8: {exc}") from None


def read_trace(source: Source) -> list[RrcEvent]:
    """iter_trace as a list."""
    return list(iter_trace(source))


def verdict_line(verdict: DetectionVerdict) -> str:
    """The line write_verdicts writes for verdict as the first record of a file."""
    return next(_verdict_lines((verdict,)))


def _verdict_tail(state, n_msg3, n_msg4, n_msg5, r1, r2) -> str:
    # A verdict line after its "t"; r1/r2 at 4 decimals so bytes are platform independent.
    return (f'"state":"{_TEXT[state]}","n_msg3":{n_msg3},"n_msg4":{n_msg4},'
            f'"n_msg5":{n_msg5},"r1":{r1:.4f},"r2":{r2:.4f}}}')


_FLOAT_OVERFLOW = 2**1024 - 2**970   # the least int float() overflows on: it rounds to 2**1024


def _verdict_refusal(t, state, n_msg3, n_msg4, n_msg5, r1, r2) -> Optional[str]:
    """Why a verdict file may not hold the record, or None: the one rule, in
    read_verdicts' order and words."""
    for key, value in (("t", t), ("n_msg3", n_msg3), ("n_msg4", n_msg4), ("n_msg5", n_msg5)):
        if type(value) is not int:   # not isinstance: JSON true/false decode to bool
            return f"'{key}' must be an integer, got {value!r}"
    for key, value in (("r1", r1), ("r2", r2)):   # nan, ±inf and an int float() overflows on
        if type(value) not in (int, float) or not abs(value) < _FLOAT_OVERFLOW:
            return f"'{key}' must be a finite number, got {value!r}"
    return None if type(state) is GnbState else f"unknown state {state!r}"


def _verdict_lines(verdicts: Iterable[DetectionVerdict]) -> Iterator[str]:
    """One line per verdict, its tail formatted and checked once per distinct record;
    ValueError, naming the verdict's index, for one read_verdicts would refuse."""
    # v[1:] -> (v[1:], its tail), one per distinct record. A hit counts only for the
    # same objects: -0.0 == 0.0 and True == 1, yet each prints otherwise.
    tails = {}
    for i, v in enumerate(verdicts):
        t, rest = v[0], v[1:]
        seen, tail = tails.get(rest, (None, None))
        try:
            if type(t) is not int or seen is None or not all(map(is_, seen, rest)):
                if (reason := _verdict_refusal(t, *rest)) is not None:
                    raise ValueError(reason)
                seen, tail = tails[rest] = rest, _verdict_tail(*rest)
            line = f'{{"t":{t},{tail}'
        except ValueError as exc:   # refused, or an int of more digits than int() may print
            raise ValueError(f"verdict {i}: {exc}") from None
        yield line


def write_verdicts(verdicts: Iterable[DetectionVerdict], sink: Sink) -> int:
    """Write one JSON line per verdict; returns the record count.

    ValueError ("verdict 3: ...") for the first verdict read_verdicts would refuse,
    in its words, and for an int of more digits than int() may print.
    """
    return _write_lines(_verdict_lines(verdicts), sink)


def read_verdicts(source: Source) -> list[DetectionVerdict]:
    """Parse a verdict file; ratios come back rounded to their 4 decimals."""
    verdicts, line_no = [], 0
    try:
        for block in _blocks(source):
            for line_no, line in enumerate(block.split("\n")[:-1], line_no + 1):
                record = _load_record(line_no, line, _VERDICT_KEYS, _VERDICT_KEYS)
                verdict = DetectionVerdict(
                    record["t"], _member(_STATES, record["state"]), record["n_msg3"],
                    record["n_msg4"], record["n_msg5"], record["r1"], record["r2"])
                if (reason := _verdict_refusal(*verdict)) is not None:
                    raise TraceParseError(line_no, reason)
                verdicts.append(verdict)
    except UnicodeDecodeError as exc:   # raised on getting line line_no + 1
        raise TraceParseError(line_no + 1, f"not UTF-8: {exc}") from None
    return verdicts
