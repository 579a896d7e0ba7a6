import io
import json
import os
import random
import stat
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrcstorm import (
    DetectionVerdict,
    DetectorConfig,
    EstablishmentCause,
    GnbState,
    MsgKind,
    RrcEvent,
    TraceParseError,
    read_trace,
    read_verdicts,
    run_stream,
    write_trace,
    write_verdicts,
)
from rrcstorm.telemetry import _TEXT, _parse_trace_record, trace_line, verdict_line

from helpers import random_trace


def roundtrip(events):
    buf = io.StringIO()
    count = write_trace(events, buf)
    return count, read_trace(io.StringIO(buf.getvalue()))


class TestWriteTrace:
    def test_schema_instance(self):
        event = RrcEvent(0, MsgKind.MSG3, "a1", EstablishmentCause.MO_DATA)
        assert trace_line(event) == '{"t":0,"kind":"msg3","ue":"a1","cause":"mo_data"}'

    def test_empty_stream_writes_nothing(self):
        buf = io.StringIO()
        assert write_trace([], buf) == 0
        assert buf.getvalue() == ""

    def test_count_equals_events_length(self):
        events = [RrcEvent(t, MsgKind.MSG4, "u") for t in range(7)]
        count, parsed = roundtrip(events)
        assert count == 7
        assert len(parsed) == 7

    def test_one_line_per_rejection(self):
        # a flood trace with 382 rejections serializes to 382 rejection lines
        events = []
        for i in range(382):
            events.append(RrcEvent(i, MsgKind.MSG3, f"m{i}", EstablishmentCause.EMERGENCY))
            events.append(RrcEvent(i, MsgKind.MSG3_REJECTED, f"m{i}"))
        buf = io.StringIO()
        write_trace(events, buf)
        lines = buf.getvalue().splitlines()
        assert sum(1 for line in lines if '"kind":"msg3_rejected"' in line) == 382


class TestMemberText:
    """The writers take each member's text from telemetry._TEXT; a member missing
    there would make trace_line or verdict_line raise KeyError."""

    @pytest.mark.parametrize("member", [*MsgKind, *EstablishmentCause, *GnbState])
    def test_table_holds_every_member_value(self, member):
        assert type(_TEXT[member]) is str and _TEXT[member] == member.value

    @pytest.mark.parametrize("kind", list(MsgKind))
    def test_trace_line_writes_kind_value(self, kind):
        cause = EstablishmentCause.MO_DATA if kind is MsgKind.MSG3 else None
        assert f'"kind":"{kind.value}"' in trace_line(RrcEvent(0, kind, "u", cause))

    @pytest.mark.parametrize("cause", list(EstablishmentCause))
    def test_trace_line_writes_cause_value(self, cause):
        line = trace_line(RrcEvent(0, MsgKind.MSG3, "u", cause))
        assert line.endswith(f'"cause":"{cause.value}"}}')

    @pytest.mark.parametrize("state", list(GnbState))
    def test_verdict_line_writes_state_value(self, state):
        line = verdict_line(DetectionVerdict(625, state, 1, 1, 1, 1.0, 1.0))
        assert f'"state":"{state.value}"' in line


class TestReadTrace:
    def test_round_trip_identity(self):
        events = [
            RrcEvent(0, MsgKind.MSG1, "u1"),
            RrcEvent(0, MsgKind.MSG3, "u1", EstablishmentCause.EMERGENCY),
            RrcEvent(3, MsgKind.MSG4, "u1"),
            RrcEvent(13, MsgKind.MSG5, "u1"),
            RrcEvent(99, MsgKind.CONTEXT_RELEASED, "u1"),
        ]
        _, parsed = roundtrip(events)
        assert parsed == events

    def test_empty_file(self):
        assert read_trace(io.StringIO("")) == []

    @pytest.mark.parametrize("line,fragment", [
        ('{"t":0,"kind":"msg6","ue":"a"}', "kind"),
        ('{"t":0,"kind":"msg4","ue":"a","extra":1}', "unknown keys"),
        ('{"t":0,"kind":"msg3","ue":"a"}', "cause"),
        ('{"t":0,"kind":"msg4","ue":"a","cause":"mo_data"}', "cause"),
        ('{"t":0.5,"kind":"msg4","ue":"a"}', "integer"),
        ('{"t":-1,"kind":"msg4","ue":"a"}', "integer"),
        ('{"kind":"msg4","ue":"a"}', "missing"),
        ('not json', "bad JSON"),
        ('{"t":0,"kind":"msg3","ue":"a","cause":"nonsense"}', "cause"),
        ('[1,2]', "object"),
        ('{"t":0,"kind":[],"ue":"a"}', "unknown kind []"),
        ('{"t":0,"kind":"msg3","ue":"a","cause":{}}', "unknown cause {}"),
    ])
    def test_strict_rejections(self, line, fragment):
        with pytest.raises(TraceParseError) as excinfo:
            read_trace(io.StringIO(line + "\n"))
        assert excinfo.value.line_no == 1
        assert fragment in str(excinfo.value)

    def test_error_carries_line_number(self):
        good = '{"t":0,"kind":"msg4","ue":"a"}'
        with pytest.raises(TraceParseError) as excinfo:
            read_trace(io.StringIO(good + "\n" + good + "\njunk\n"))
        assert excinfo.value.line_no == 3

    def test_timestamp_regression_rejected(self):
        text = ('{"t":5,"kind":"msg4","ue":"a"}\n'
                '{"t":3,"kind":"msg4","ue":"a"}\n')
        with pytest.raises(TraceParseError) as excinfo:
            read_trace(io.StringIO(text))
        assert excinfo.value.line_no == 2

    def test_blank_line_rejected(self):
        with pytest.raises(TraceParseError):
            read_trace(io.StringIO("\n"))


class TestRoundTripProperty:
    @pytest.mark.parametrize("seed", range(50))
    def test_random_traces(self, seed):
        events = random_trace(random.Random(seed))
        _, parsed = roundtrip(events)
        assert parsed == events


class TestVerdicts:
    def _verdict(self, t=650, state=GnbState.ATTACK, r1=0.0, r2=0.0):
        return DetectionVerdict(t, state, 80, 16, 0, r1, r2)

    def test_line_format_fixes_four_decimals(self):
        line = verdict_line(self._verdict(r1=1 / 3, r2=0.5))
        assert line == ('{"t":650,"state":"attack","n_msg3":80,"n_msg4":16,'
                        '"n_msg5":0,"r1":0.3333,"r2":0.5000}')

    def test_round_trip(self):
        verdicts = [self._verdict(t) for t in (625, 650, 675)]
        buf = io.StringIO()
        assert write_verdicts(verdicts, buf) == 3
        parsed = read_verdicts(io.StringIO(buf.getvalue()))
        assert [v.t_ms for v in parsed] == [625, 650, 675]
        assert all(v.state is GnbState.ATTACK for v in parsed)

    @pytest.mark.parametrize("line,fragment", [
        ('5', "not an object"),
        ('["t","state"]', "not an object"),
        ('{"t":"x","state":"attack","n_msg3":1,"n_msg4":1,"n_msg5":1,"r1":1.0,"r2":1.0}', "'t'"),
        ('{"t":true,"state":"attack","n_msg3":1,"n_msg4":1,"n_msg5":1,"r1":1.0,"r2":1.0}', "'t'"),
        ('{"t":650,"state":"attack","n_msg3":1.5,"n_msg4":1,"n_msg5":1,"r1":1.0,"r2":1.0}',
         "'n_msg3'"),
        ('{"t":650,"state":"attack","n_msg3":1,"n_msg4":"1","n_msg5":1,"r1":1.0,"r2":1.0}',
         "'n_msg4'"),
        ('{"t":650,"state":"attack","n_msg3":1,"n_msg4":1,"n_msg5":false,"r1":1.0,"r2":1.0}',
         "'n_msg5'"),
        ('{"t":650,"state":"attack","n_msg3":1,"n_msg4":1,"n_msg5":1,"r1":"1.0","r2":1.0}', "'r1'"),
        ('{"t":650,"state":"attack","n_msg3":1,"n_msg4":1,"n_msg5":1,"r1":1.0,"r2":null}', "'r2'"),
        ('{"t":650,"state":["attack"],"n_msg3":1,"n_msg4":1,"n_msg5":1,"r1":1,"r2":1}', "state"),
    ])
    def test_typed_rejections_carry_line_number(self, line, fragment):
        good = verdict_line(self._verdict())
        with pytest.raises(TraceParseError) as excinfo:
            read_verdicts(io.StringIO(f"{good}\n{line}\n"))
        assert excinfo.value.line_no == 2
        assert fragment in excinfo.value.reason

    def test_unknown_state_rejected(self):
        line = ('{"t":650,"state":"panic","n_msg3":1,"n_msg4":1,'
                '"n_msg5":1,"r1":1.0000,"r2":1.0000}\n')
        with pytest.raises(TraceParseError):
            read_verdicts(io.StringIO(line))

    def test_fifo_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "v.verdicts.jsonl"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert write_verdicts([self._verdict()], fifo) == 1
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert got == [(verdict_line(self._verdict()) + "\n").encode()]
        assert stat.S_ISFIFO(fifo.stat().st_mode)   # a rename would have replaced it
        assert not (tmp_path / "v.verdicts.jsonl.part").exists()

    def test_file_round_trip_lf_endings(self, tmp_path):
        path = tmp_path / "x.verdicts.jsonl"
        write_verdicts([self._verdict()], path)
        raw = path.read_bytes()
        assert raw.endswith(b"}\n")
        assert b"\r" not in raw
        assert len(read_verdicts(path)) == 1


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 2**32),
       st.integers(1, 1000).flatmap(lambda w: st.tuples(st.just(w), st.integers(1, w))))
def test_verdicts_read_back_as_written_for_any_window(seed, window_and_hop):
    window_ms, hop_ms = window_and_hop
    config = DetectorConfig(window_ms=window_ms, hop_ms=hop_ms)
    verdicts = run_stream(random_trace(random.Random(seed), max_events=120), config)
    buf = io.StringIO()
    assert write_verdicts(verdicts, buf) == len(verdicts)
    as_written = [v._replace(r1=float(f"{v.r1:.4f}"), r2=float(f"{v.r2:.4f}"))
                  for v in verdicts]
    assert read_verdicts(io.StringIO(buf.getvalue())) == as_written


def json_trace_line(event):
    """The json.dumps form trace_line must reproduce byte for byte."""
    record = {"t": event.t, "kind": event.kind.value, "ue": event.ue_ref}
    if event.cause is not None:
        record["cause"] = event.cause.value
    return json.dumps(record, separators=(",", ":"))


def reference_read_trace(text):
    """read_trace without the fast path: every line through _parse_trace_record."""
    events, prev_t = [], 0
    for line_no, line in enumerate(io.StringIO(text), 1):
        line = line.rstrip("\n")
        if not line:
            raise TraceParseError(line_no, "blank line")
        event = _parse_trace_record(line_no, line, prev_t)
        prev_t = event.t
        events.append(event)
    return events


def outcome(read, text):
    try:
        return read(text)
    except TraceParseError as exc:
        return exc.line_no, exc.reason


kind_and_cause = st.one_of(
    st.tuples(st.just(MsgKind.MSG3), st.sampled_from(EstablishmentCause)),
    st.tuples(st.sampled_from([k for k in MsgKind if k is not MsgKind.MSG3]), st.none()),
)
ue_chars = st.one_of(
    st.characters(min_codepoint=0x20, max_codepoint=0x7E),
    st.sampled_from('"\\/\x00\n\r\x1f\x7fé '),
    st.characters(exclude_categories=()),
    st.characters(categories=["Cs"]),
)


any_ue = st.text(ue_chars, min_size=1)
# Refs the read fast path takes: printable ASCII without '"' or '\\'.
plain_ue = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E,
                                 exclude_characters='"\\'), min_size=1)


@settings(deadline=None)
@given(st.integers(min_value=0) | st.booleans(), kind_and_cause, any_ue)
def test_trace_line_equals_json_dumps(t, kind_and_cause, ue):
    event = RrcEvent(t, kind_and_cause[0], ue, kind_and_cause[1])
    assert trace_line(event) == json_trace_line(event)


def _mutate(line, how, rng):
    """One way a trace line can differ from what write_trace writes."""
    record = json.loads(line)
    if how == "crlf":
        return line + "\r"
    if how == "space":
        i = rng.randrange(len(line) + 1)
        return line[:i] + " " + line[i:]
    if how == "reorder":
        return json.dumps(dict(reversed(record.items())), separators=(",", ":"))
    if how == "leading_zero":
        return line.replace('"t":', '"t":0', 1)
    if how == "minus_zero":
        return line.replace(f'"t":{record["t"]}', '"t":-0', 1)
    if how == "float_t":
        return line.replace(f'"t":{record["t"]}', f'"t":{record["t"]}.0', 1)
    if how == "bool_t":
        return line.replace(f'"t":{record["t"]}', '"t":true', 1)
    if how == "escaped_ue":
        ue = record["ue"]
        first = f"\\u{ord(ue[0]):04x}" if ord(ue[0]) < 0x10000 else json.dumps(ue[0])[1:-1]
        return line.replace(json.dumps(ue), f'"{first}' + json.dumps(ue[1:])[1:], 1)
    if how == "drop_cause":
        record.pop("cause", None)
    elif how == "extra_cause":
        record["cause"] = "mo_data"
    elif how == "regression":
        record["t"] = max(record["t"] - rng.randrange(1, 5), 0)
    elif how == "blank":
        return ""
    return json.dumps(record, separators=(",", ":"))


MUTATIONS = ["crlf", "space", "reorder", "leading_zero", "minus_zero", "float_t",
             "bool_t", "escaped_ue", "drop_cause", "extra_cause", "regression", "blank"]


@st.composite
def mutated_traces(draw):
    lines = []
    t = 0
    for _ in range(draw(st.integers(0, 12))):
        t += draw(st.integers(0, 3))
        kind, cause = draw(kind_and_cause)
        lines.append(trace_line(RrcEvent(t, kind, draw(plain_ue | any_ue), cause)))
    rng = draw(st.randoms(use_true_random=False))
    if lines:
        mutations = draw(st.dictionaries(st.integers(0, len(lines) - 1),
                                         st.sampled_from(MUTATIONS), max_size=3))
        for i, how in mutations.items():
            lines[i] = _mutate(lines[i], how, rng)
    return "".join(line + "\n" for line in lines)


@settings(deadline=None)
@given(mutated_traces())
def test_read_trace_agrees_with_strict_parser(text):
    assert outcome(lambda s: read_trace(io.StringIO(s)), text) == outcome(
        reference_read_trace, text)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6)
# Unhashable values, which a table lookup must not choke on, or any JSON value.
any_value = (st.lists(st.integers(), max_size=2)
             | st.dictionaries(st.text(max_size=2), st.none()) | json_values)
# A value each parser accepts per key, so that records also get past the first checks.
count = st.integers(0, 2000)
TRACE_FIELDS = {"t": count, "kind": st.sampled_from([k.value for k in MsgKind]),
                "ue": st.text(min_size=1),
                "cause": st.sampled_from([c.value for c in EstablishmentCause])}
VERDICT_FIELDS = {"t": count, "state": st.sampled_from([s.value for s in GnbState]),
                  "n_msg3": count, "n_msg4": count, "n_msg5": count,
                  "r1": st.floats(0, 1), "r2": st.floats(0, 1)}


@st.composite
def json_records(draw, fields):
    """JSONL text: each record holds all of the keys, all but one, or all plus a stray
    key; each value is a valid one for its key or any JSON value."""
    lines = []
    for _ in range(draw(st.integers(1, 4))):
        keys = list(fields)
        variant = draw(st.sampled_from(["all", "missing", "stray"]))
        if variant == "missing":
            keys.remove(draw(st.sampled_from(list(fields))))
        elif variant == "stray":
            keys.append("stray")
        record = {key: draw(fields.get(key, any_value) | any_value) for key in keys}
        lines.append(json.dumps(record, separators=draw(st.sampled_from([(",", ":"), None]))))
    return "".join(line + "\n" for line in lines)


@settings(deadline=None)
@given(json_records(TRACE_FIELDS))
def test_read_trace_raises_only_trace_parse_error(text):
    try:
        read_trace(io.StringIO(text))
    except TraceParseError:
        pass


@settings(deadline=None)
@given(json_records(VERDICT_FIELDS))
def test_read_verdicts_raises_only_trace_parse_error(text):
    try:
        read_verdicts(io.StringIO(text))
    except TraceParseError:
        pass


# One line each reader accepts.
GOOD_LINE = {read_trace: '{"t":0,"kind":"msg1","ue":"a"}',
             read_verdicts: '{"t":650,"state":"normal","n_msg3":0,"n_msg4":0,'
                            '"n_msg5":0,"r1":1.0,"r2":1.0}'}


@settings(deadline=None)
@given(st.lists(st.binary(max_size=40)
                | st.sampled_from([line.encode() for line in GOOD_LINE.values()]),
                max_size=6).map(b"\n".join))
def test_readers_of_any_bytes_raise_only_trace_parse_error(content):
    for read in (read_trace, read_verdicts):
        try:
            read(io.BytesIO(content))
        except TraceParseError:
            pass


DEEP = "[" * 100_000


class TestHostileInput:
    """Input no writer produces still fails with a located TraceParseError."""

    @pytest.mark.parametrize("read", [read_trace, read_verdicts])
    def test_nesting_too_deep_for_the_json_parser(self, read):
        with pytest.raises(TraceParseError) as exc:
            read(io.StringIO(DEEP + "\n"))
        assert exc.value.line_no == 1
        assert exc.value.reason == "bad JSON: nested too deep"

    @pytest.mark.parametrize("line", [
        '{"t":%s,"kind":"msg1","ue":"a"}' % ("1" * 5000),
        '{"t":0,"kind":"msg1","ue":"a","x":%s}' % ("1" * 5000),
    ], ids=["canonical-t", "stray-key"])
    @pytest.mark.parametrize("read", [read_trace, read_verdicts])
    def test_int_of_more_digits_than_int_accepts(self, read, line):
        with pytest.raises(TraceParseError, match="^line 1: bad JSON: Exceeds the limit"):
            read(io.StringIO(line + "\n"))

    def test_long_timestamp_takes_the_strict_parser(self):
        t = 10 ** 30
        [event] = read_trace(io.StringIO('{"t":%d,"kind":"msg1","ue":"a"}\n' % t))
        assert event == RrcEvent(t, MsgKind.MSG1, "a")

    def test_nesting_too_deep_after_good_lines(self, tmp_path):
        path = tmp_path / "t.rrctrace.jsonl"
        path.write_text('{"t":0,"kind":"msg1","ue":"a"}\n' + DEEP + "\n")
        with pytest.raises(TraceParseError, match="^line 2: bad JSON: nested too deep$"):
            read_trace(path)

    @staticmethod
    def _good_then_bad(path, bad: bytes, good: int = 3000):
        lines = "".join(f'{{"t":{t},"kind":"msg1","ue":"a"}}\n' for t in range(good))
        path.write_bytes(lines.encode() + bad + b"\n")

    def test_bytes_not_utf8_on_line_3001_after_3000_good_lines(self, tmp_path):
        path = tmp_path / "t.rrctrace.jsonl"
        self._good_then_bad(path, b'{"t":3000,"kind":"msg1","ue":"\xff"}')
        with pytest.raises(TraceParseError) as exc:
            read_trace(path)
        assert exc.value.line_no == 3001
        assert exc.value.reason.startswith("not UTF-8: ")
        assert "byte 0xff in position 30" in exc.value.reason   # within the line

    @pytest.mark.parametrize("bad", [b"\xff", b"\xc3", b'{"t":0,"kind":"msg1","ue":"\xe2\x82"}'])
    def test_bytes_not_utf8_on_the_first_or_last_line(self, tmp_path, bad):
        path = tmp_path / "t.rrctrace.jsonl"
        path.write_bytes(bad)
        with pytest.raises(TraceParseError, match="^line 1: not UTF-8: "):
            read_trace(path)
        self._good_then_bad(path, bad, good=2)
        with pytest.raises(TraceParseError, match="^line 3: not UTF-8: "):
            read_trace(path)

    def test_verdict_bytes_not_utf8(self, tmp_path):
        path = tmp_path / "v.verdicts.jsonl"
        line = '{"t":650,"state":"normal","n_msg3":0,"n_msg4":0,"n_msg5":0,"r1":1.0,"r2":1.0}\n'
        path.write_bytes(line.encode() * 5 + b"\x80\n")
        with pytest.raises(TraceParseError, match="^line 6: not UTF-8: "):
            read_verdicts(path)

    @pytest.mark.parametrize("read", [read_trace, read_verdicts])
    def test_earlier_malformed_line_is_reported_before_a_later_bad_byte(self, tmp_path, read):
        content = GOOD_LINE[read].encode() + b"\n{bad json\n\xff\n"
        path = tmp_path / "t.jsonl"
        path.write_bytes(content)
        for source in (path, io.BytesIO(content)):
            with pytest.raises(TraceParseError, match="^line 2: bad JSON"):
                read(source)

    @pytest.mark.parametrize("read", [read_trace, read_verdicts])
    def test_bad_byte_in_a_stream_is_a_trace_parse_error(self, tmp_path, read):
        path = tmp_path / "t.jsonl"
        path.write_bytes((GOOD_LINE[read] + "\n").encode() * 4 + b'"\xff"\n')
        with open(path, "rb") as fh:   # decoded line by line: the exact line
            with pytest.raises(TraceParseError, match="^line 5: not UTF-8: .* position 1: "):
                read(fh)
        with open(path, encoding="utf-8") as fh:   # decoded in chunks: at or before it
            with pytest.raises(TraceParseError, match="^line 1: not UTF-8: "):
                read(fh)

    def test_multibyte_utf8_still_reads(self, tmp_path):
        path = tmp_path / "t.rrctrace.jsonl"
        path.write_bytes('{"t":0,"kind":"msg1","ue":"é€"}\n'.encode())
        assert read_trace(path) == [RrcEvent(0, MsgKind.MSG1, "é€")]
