import io
import json
import os
import random
import stat
import sys
import threading
from unittest.mock import patch

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
    iter_trace,
    iter_verdicts,
    read_verdicts,
    telemetry,
    write_trace,
    write_verdicts,
)
from rrcstorm.detector import run_stream
from rrcstorm.telemetry import (
    _CHUNK_LINES,
    _TEXT,
    _parse_trace_record,
    read_trace,
    trace_line,
    verdict_line,
)

from helpers import first_refusal, json_trace_line, random_trace


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
        ('{"t":0,"kind":"msg1","ue":"a","cause":null}', "cause not allowed on msg1"),
        ('{"t":0,"kind":"msg3","ue":"a","cause":null}', "unknown cause"),
        ('{"t":0,"kind":null,"ue":"a"}', "unknown kind None"),
        ('{"t":0,"kind":"msg1","ue":null}', "'ue' must be a non-empty string"),
        ('{"t":true,"kind":"msg1","ue":"a"}', "integer, got True"),
        ('{"t":5,"kind":"msg1","ue":"a","t":1}', "duplicate key 't'"),
        ('{"t":5,"kind":"msg3","ue":"a","cause":"emergency","cause":"mo_data"}',
         "duplicate key 'cause'"),
    ])
    def test_strict_rejections(self, line, fragment):
        with pytest.raises(TraceParseError) as excinfo:
            read_trace(io.StringIO(line + "\n"))
        assert excinfo.value.line_no == 1
        assert fragment in str(excinfo.value)

    def test_repeated_key_after_canonical_lines_is_located(self):
        # Once its two keys read as one, the line would pass for t=1.
        good = '{"t":0,"kind":"msg4","ue":"a"}'
        with pytest.raises(TraceParseError, match="^line 3: duplicate key 't'$"):
            read_trace(io.StringIO(f'{good}\n{good}\n{{"t":5,"kind":"msg1","ue":"a","t":1}}\n'))

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
        ('5', "expected an object, got int"),
        ('["t","state"]', "expected an object, got list"),
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
        ('{"t":650,"state":"attack","n_msg3":1,"n_msg4":1,"n_msg5":1,"r1":NaN,"r2":1.0}',
         "'r1' must be a finite number, got nan"),
        ('{"t":650,"state":"attack","n_msg3":1,"n_msg4":1,"n_msg5":1,"r1":1.0,"r2":-Infinity}',
         "'r2' must be a finite number, got -inf"),
        pytest.param('{"t":650,"state":"attack","n_msg3":1,"n_msg4":1,"n_msg5":1,"r1":1'
                     + "0" * 399 + ',"r2":1.0}', f"'r1' must be a finite number, got {10 ** 399}",
                     id="r1-of-400-digits"),
        ('{"t":650,"state":"attack","n_msg3":1,"n_msg4":1,"n_msg5":1,"r1":1.0,"r2":1.0,'
         '"state":"normal"}', "duplicate key 'state'"),
    ])
    def test_typed_rejections_carry_line_number(self, line, fragment):
        good = verdict_line(self._verdict())
        with pytest.raises(TraceParseError) as excinfo:
            read_verdicts(io.StringIO(f"{good}\n{line}\n"))
        assert excinfo.value.line_no == 2
        assert fragment in excinfo.value.reason

    @pytest.mark.parametrize("field,value", [
        ("t_ms", 25.0), ("t_ms", True), ("n_msg3", True), ("n_msg5", 2.0), ("r1", float("nan")),
        ("r2", float("inf")), ("r1", "0.5"), ("state", "panic"), ("state", None),
        pytest.param("r1", 10 ** 399, id="r1-of-400-digits"),
        pytest.param("r2", 2 ** 1024 - 2 ** 970, id="r2-that-float-rounds-to-2**1024"),
    ])
    def test_writer_refuses_what_the_reader_refuses(self, tmp_path, field, value):
        verdicts = [self._verdict(t) for t in (625, 650, 675)]
        verdicts.append(self._verdict()._replace(**{field: value}))
        with pytest.raises(TraceParseError) as read:
            read_verdicts(io.StringIO(json_verdict_line(verdicts[3]) + "\n"))
        with pytest.raises(ValueError) as write:
            write_verdicts(verdicts, io.StringIO())
        assert str(write.value) == f"verdict 3: {read.value.reason}"
        with pytest.raises(ValueError) as line:
            verdict_line(verdicts[3])
        assert str(line.value) == f"verdict 0: {read.value.reason}"
        with pytest.raises(ValueError, match="^verdict 3: "):
            write_verdicts(iter(verdicts), tmp_path / "v.verdicts.jsonl")
        assert list(tmp_path.iterdir()) == []

    def test_largest_int_ratio_with_a_float_value_round_trips(self):
        buf = io.StringIO()
        write_verdicts([self._verdict(r1=2 ** 1024 - 2 ** 970 - 1)], buf)
        assert read_verdicts(io.StringIO(buf.getvalue()))[0].r1 == sys.float_info.max

    @pytest.mark.skipif(not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5001,
                        reason="int() prints 5001 digits")
    def test_writer_names_a_t_it_cannot_print(self, tmp_path):
        verdicts = [DetectionVerdict(10 ** 5000, GnbState.NORMAL, 1, 1, 1, 1.0, 1.0)]
        with pytest.raises(ValueError, match=r"^verdict 0: Exceeds the limit \(\d+ digits\)"):
            write_verdicts(verdicts, io.StringIO())
        with pytest.raises(ValueError, match="^verdict 0: "):
            write_verdicts(verdicts, tmp_path / "v.verdicts.jsonl")
        assert list(tmp_path.iterdir()) == []

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


def json_verdict_line(verdict):
    """The json.dumps form of a verdict's fields, a state member as its text."""
    t, state, *rest = verdict
    return json.dumps(dict(zip(["t", *DetectionVerdict._fields[1:]],
                               [t, _TEXT.get(state, state), *rest])))


def twin(value):
    """A value equal to value, another object, that may print otherwise: -0.0 for 0.0
    and back, True for 1, an int 1 for 1.0, a fresh int above the small ints Python
    shares."""
    if type(value) is float:
        return -value if value == 0 else 1 if value == 1 else value
    if type(value) is int:
        return bool(value) if value in (0, 1) else int(str(value))
    return value


verdict_ratios = st.sampled_from([0.0, -0.0, 1.0, 1, 0.5, 1 / 3, float("nan")])
verdict_counts = st.sampled_from([0, 1, True, 7]) | st.integers(257, 2000)


@st.composite
def verdict_lists(draw):
    """Verdicts that repeat a few records, as the same objects or as twins."""
    records = draw(st.lists(st.tuples(st.sampled_from(list(GnbState)), *[verdict_counts] * 3,
                                      *[verdict_ratios] * 2), min_size=1, max_size=4))
    verdicts = []
    for t in draw(st.lists(st.integers(0, 5000) | st.sampled_from([25.0, True]), max_size=20)):
        record = draw(st.sampled_from(records))
        if draw(st.booleans()):
            record = [*record[:1], *map(twin, record[1:])]
        verdicts.append(DetectionVerdict(t, *record))
    return verdicts


@settings(deadline=None)
@given(verdict_lists())
def test_write_verdicts_writes_each_verdicts_own_line(verdicts):
    # Unless read_verdicts refuses one in its json.dumps form: then write_verdicts
    # refuses the first such verdict, in the reader's words.
    buf = io.StringIO()
    try:
        read_verdicts(io.StringIO("".join(json_verdict_line(v) + "\n" for v in verdicts)))
    except TraceParseError as exc:
        with pytest.raises(ValueError) as excinfo:
            write_verdicts(verdicts, buf)
        assert str(excinfo.value) == f"verdict {exc.line_no - 1}: {exc.reason}"
    else:
        assert write_verdicts(verdicts, buf) == len(verdicts)
        assert buf.getvalue() == "".join(verdict_line(v) + "\n" for v in verdicts)


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
    # Where read_trace would not give the event back (a bool t, a ue holding a
    # surrogate pair), trace_line refuses it instead.
    event = RrcEvent(t, kind_and_cause[0], ue, kind_and_cause[1])
    line = json_trace_line(event)
    if outcome(read_trace, io.StringIO(line + "\n")) == [event]:
        assert trace_line(event) == line
    else:
        with pytest.raises(ValueError, match="^event 0: "):
            trace_line(event)


MO_DATA = EstablishmentCause.MO_DATA


@pytest.mark.parametrize("events", [
    [RrcEvent(True, MsgKind.MSG1, "u")],
    [RrcEvent(-5, MsgKind.MSG1, "u")],
    [RrcEvent(0, MsgKind.MSG1, "u"), RrcEvent(0, MsgKind.MSG2, "")],
    [RrcEvent(0, MsgKind.MSG1, "u"), RrcEvent(0, MsgKind.MSG3, "u")],
    [RrcEvent(0, MsgKind.MSG3, "u", MO_DATA), RrcEvent(0, MsgKind.MSG1, "u", MO_DATA)],
    [RrcEvent(5, MsgKind.MSG1, "u"), RrcEvent(5, MsgKind.MSG2, "u"), RrcEvent(3, MsgKind.MSG4, "u")],
    [RrcEvent(1, MsgKind.MSG1, "u"), RrcEvent(True, MsgKind.MSG2, "u")],
    [RrcEvent(0, MsgKind.MSG1, "u"), RrcEvent(False, MsgKind.MSG2, "u")],
], ids=["bool-t", "negative-t", "empty-ue", "msg3-without-cause", "cause-on-msg1", "regression",
        "true-after-1", "false-after-0"])
def test_writer_refuses_what_the_reader_refuses(tmp_path, events):
    index, reason = first_refusal(events)
    with pytest.raises(ValueError) as excinfo:
        write_trace(events, io.StringIO())
    assert str(excinfo.value) == f"event {index}: {reason}"
    path = tmp_path / "t.rrctrace.jsonl"
    with pytest.raises(ValueError):
        write_trace(iter(events), path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="int() prints any number of digits")
def test_writer_names_a_t_it_cannot_print(tmp_path):
    events = [RrcEvent(1, MsgKind.MSG1, "u"),
              RrcEvent(10 ** sys.get_int_max_str_digits(), MsgKind.MSG1, "u")]
    with pytest.raises(ValueError, match=r"^event 1: Exceeds the limit \(\d+ digits\)"):
        write_trace(events, io.StringIO())
    with pytest.raises(ValueError, match="^event 1: "):
        write_trace(events, tmp_path / "t.rrctrace.jsonl")
    assert list(tmp_path.iterdir()) == []


@st.composite
def loose_events(draw):
    """Event lists in which about one event in ten breaks one of read_trace's rules:
    a t that is a bool or negative, an empty ue, a kind that is not a MsgKind, or a
    cause missing on msg3, set elsewhere or not an EstablishmentCause. Half of the
    lists keep their timestamps in draw order, which may regress."""
    events = []
    for _ in range(draw(st.integers(0, 8))):
        kind, cause = draw(kind_and_cause)
        t, ue = draw(st.integers(0, 30)), draw(any_ue)
        rule = draw(st.integers(0, 40))
        if rule == 0:
            t = draw(st.sampled_from([-1, True, False]))
        elif rule == 1:
            ue = ""
        elif rule == 2:
            kind = draw(st.sampled_from([GnbState.ATTACK, "msg3", None]))
        elif rule == 3:
            cause = draw(st.sampled_from([None, MO_DATA, "mo_data", GnbState.ATTACK]))
        events.append(RrcEvent(t, kind, ue, cause))
    if draw(st.booleans()):
        events.sort(key=lambda e: e.t)
    return events


@settings(deadline=None, max_examples=300)
@given(loose_events())
def test_write_trace_raises_or_round_trips(events):
    buf = io.StringIO()
    try:
        write_trace(events, buf)
    except ValueError as exc:
        index = int(str(exc).split(":")[0].removeprefix("event "))
        assert write_trace(events[:index], io.StringIO()) == index
        with pytest.raises(ValueError):
            write_trace(events[:index + 1], io.StringIO())
    else:
        assert read_trace(io.StringIO(buf.getvalue())) == events


class StrLike(str):
    """A ue equal to a str, which the rule refuses for its type."""


# No surrogates, so that no ue holds a pair, which first_refusal's reader would take.
pair_free_ue = st.text(st.one_of(st.characters(min_codepoint=0x20, max_codepoint=0x7E),
                                 st.sampled_from('"\\/\x00\n\r\x1f\x7fé '),
                                 st.characters(exclude_categories=["Cs"])), min_size=1)


@st.composite
def repeating_events(draw):
    """Event lists in which most events take the previous event's t, ue or both, as
    the same object, as an equal but distinct one, or now and then as a look-alike
    the rule refuses though it compares equal: True for 1, False for 0, a float, a
    StrLike. The first t is often 0 or -1, which no cached value may match."""
    t, ue, events = draw(st.sampled_from([0, -1, 1, 255, 2**40])), draw(pair_free_ue), []
    for _ in range(draw(st.integers(1, 8))):
        if events and draw(st.booleans()):
            t += draw(st.integers(-1, 300))
        if events and draw(st.booleans()):
            ue = draw(pair_free_ue)
        kind, cause = draw(kind_and_cause)
        how_t, how_ue = draw(st.integers(0, 11)), draw(st.integers(0, 11))
        events.append(RrcEvent(
            # int(str(t)) is a distinct object for t outside -5..256
            t if how_t < 6 else int(str(t)) if how_t < 11
            else t == 1 if t in (0, 1) else float(t),
            kind,
            ue if how_ue < 6 else "".join(list(ue)) if how_ue < 11 else StrLike(ue),
            cause))
    return events


@settings(deadline=None, max_examples=300)
@given(repeating_events())
def test_write_trace_of_repeated_values_raises_or_round_trips(events):
    # json.dumps writes a StrLike as a plain string, which read_trace takes, so the
    # rule's refusal is added after any refusal first_refusal finds up to it.
    expected = first_refusal(events)
    sub = next((i for i, e in enumerate(events) if type(e.ue_ref) is not str), None)
    if sub is not None:
        expected = first_refusal(events[:sub + 1]) or (sub, "'ue' must be a non-empty string")
    buf = io.StringIO()
    if expected is None:
        assert write_trace(events, buf) == len(events)
        assert buf.getvalue() == "".join(json_trace_line(e) + "\n" for e in events)
        assert read_trace(io.StringIO(buf.getvalue())) == events
    else:
        with pytest.raises(ValueError) as excinfo:
            write_trace(events, buf)
        assert str(excinfo.value) == "event {}: {}".format(*expected)


def test_writer_refuses_a_str_subclass_equal_to_the_previous_ue():
    events = [RrcEvent(1, MsgKind.MSG1, "u"), RrcEvent(1, MsgKind.MSG2, StrLike("u"))]
    with pytest.raises(ValueError) as excinfo:
        write_trace(events, io.StringIO())
    assert str(excinfo.value) == "event 1: 'ue' must be a non-empty string"


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
        lines.append(json_trace_line(RrcEvent(t, kind, draw(plain_ue | any_ue), cause)))
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


def small_blocks(block_size):
    """Readers that take block_size bytes or characters at a time, plus the rest of
    the last line, so that lines fall on either side of block boundaries."""
    return patch.object(telemetry, "_BLOCK_SIZE", block_size)


SOURCES = {"text": io.StringIO, "bytes": lambda s: io.BytesIO(s.encode())}
COUNTED = frozenset({MsgKind.MSG3, MsgKind.MSG4, MsgKind.MSG5})


@settings(deadline=None)
@given(mutated_traces(), st.integers(1, 80), st.frozensets(st.sampled_from(MsgKind)),
       st.integers(1, 12).flatmap(lambda w: st.tuples(st.just(w), st.integers(1, w))))
def test_read_trace_agrees_with_strict_parser_in_small_blocks(text, block_size, kinds,
                                                              window_and_hop):
    """Whatever kinds are wanted, every line is checked: the strict parser's error, line
    number and reason, or its events of those kinds; so the detector gives the full
    read's verdicts over any kinds that hold the three it counts."""
    window_ms, hop_ms = window_and_hop
    config = DetectorConfig(window_ms=window_ms, hop_ms=hop_ms, msg3_watermark=1)
    expected = events = verdicts = outcome(reference_read_trace, text)
    if isinstance(expected, list):
        events = [e for e in expected if e.kind in kinds]
        verdicts = run_stream(expected, config)
    with small_blocks(block_size):
        for source in SOURCES.values():
            assert outcome(lambda s: read_trace(source(s)), text) == expected
            assert outcome(lambda s: list(iter_trace(source(s), kinds=kinds)),
                           text) == events
            assert outcome(lambda s: list(iter_verdicts(
                iter_trace(source(s), kinds=kinds | COUNTED), config)), text) == verdicts


class TestKinds:
    GOOD = "".join(json_trace_line(e) + "\n" for e in [
        RrcEvent(0, MsgKind.MSG1, "a"),
        RrcEvent(0, MsgKind.MSG3, "a", EstablishmentCause.EMERGENCY),
        RrcEvent(1, MsgKind.MSG4, "a"), RrcEvent(2, MsgKind.MSG5, "a")])

    @pytest.mark.parametrize("source", SOURCES.values(), ids=SOURCES)
    def test_no_kinds_still_checks_every_line(self, source):
        assert list(iter_trace(source(self.GOOD), kinds=())) == []
        bad = self.GOOD + '{"t":1,"kind":"msg1","ue":"a"}\n'
        with pytest.raises(TraceParseError) as exc:
            list(iter_trace(source(bad), kinds=()))
        assert str(exc.value) == "line 5: timestamp regression 2 -> 1"

    @pytest.mark.parametrize("kinds", [COUNTED, ()], ids=["counted", "none"])
    def test_regression_below_a_dropped_line_of_the_block_before(self, kinds):
        # Two lines a block: block 1 ends on a dropped msg1 at t=5, line 3 regressed.
        text = "".join(f'{{"t":{t},"kind":"{kind}","ue":"a"}}\n'
                       for t, kind in [(1, "msg4"), (5, "msg1"), (3, "msg1")])
        with small_blocks(2 * (text.index("\n") + 1)), pytest.raises(TraceParseError) as exc:
            list(iter_trace(io.StringIO(text), kinds=kinds))
        assert str(exc.value) == "line 3: timestamp regression 5 -> 3"

    @pytest.mark.parametrize("kinds,named", [
        (["msg3"], "'msg3'"), ((MsgKind.MSG3, None), "None"),
        ((GnbState.ATTACK,), "<GnbState.ATTACK: 'attack'>"),
        (MsgKind.MSG3, "<MsgKind.MSG3: 'msg3'>"), ("msg3", "'msg3'")])
    def test_a_kind_that_is_not_a_msg_kind_is_a_type_error(self, kinds, named):
        with pytest.raises(TypeError) as exc:
            list(iter_trace(io.StringIO(self.GOOD), kinds=kinds))
        assert str(exc.value) == f"kinds must hold MsgKind members, got {named}"


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


any_bytes = st.lists(st.binary(max_size=40)
                     | st.sampled_from([line.encode() for line in GOOD_LINE.values()]),
                     max_size=6).map(b"\n".join)


@settings(deadline=None)
@given(any_bytes)
def test_readers_of_any_bytes_raise_only_trace_parse_error(content):
    for read in (read_trace, read_verdicts):
        try:
            read(io.BytesIO(content))
        except TraceParseError:
            pass


@settings(deadline=None)
@given(any_bytes, st.integers(1, 80))
def test_readers_of_any_bytes_read_the_same_in_small_blocks(content, block_size):
    """Same records or same error, line number and reason, whatever the block size."""
    for read in (read_trace, read_verdicts):
        expected = outcome(lambda c: read(io.BytesIO(c)), content)
        with small_blocks(block_size):
            assert outcome(lambda c: read(io.BytesIO(c)), content) == expected


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


def trace_text(events):
    return "".join(trace_line(event) + "\n" for event in events)


def msg1(t):
    return RrcEvent(t, MsgKind.MSG1, f"u{t}")


class TestBlocks:
    """Lines the reader's pattern skips, and lines on either side of a block boundary."""

    @pytest.mark.parametrize("block_size", [telemetry._BLOCK_SIZE, 40])
    def test_non_canonical_lines_in_the_middle_of_a_block(self, tmp_path, block_size):
        reordered = '{"cause":"emergency","ue":"m","kind":"msg3","t":10}'
        escaped = '{"t":10,"kind":"msg4","ue":"\\u006d\\u00e9"}'
        text = (trace_text(map(msg1, range(10))) + f"{reordered}\n{escaped}\n"
                + trace_text(map(msg1, range(10, 20))))
        path = tmp_path / "t.rrctrace.jsonl"
        path.write_text(text)
        expected = [*map(msg1, range(10)),
                    RrcEvent(10, MsgKind.MSG3, "m", EstablishmentCause.EMERGENCY),
                    RrcEvent(10, MsgKind.MSG4, "m\u00e9"), *map(msg1, range(10, 20))]
        with small_blocks(block_size):
            assert read_trace(path) == expected
            # A canonical line below the last skipped line's t is a regression.
            path.write_text(text.replace(trace_line(msg1(10)), trace_line(msg1(9))))
            with pytest.raises(TraceParseError, match="^line 13: timestamp regression 10 -> 9$"):
                read_trace(path)

    @pytest.mark.parametrize("block_size", [telemetry._BLOCK_SIZE, 1, 40])
    def test_final_line_without_lf(self, tmp_path, block_size):
        events = list(map(msg1, range(5)))
        verdicts = [DetectionVerdict(t, GnbState.NORMAL, 0, 0, 0, 1.0, 1.0) for t in (25, 50)]
        trace, verdict = tmp_path / "t.rrctrace.jsonl", tmp_path / "v.verdicts.jsonl"
        trace.write_text(trace_text(events).rstrip("\n"))
        verdict.write_text("\n".join(map(verdict_line, verdicts)))
        with small_blocks(block_size):
            assert read_trace(trace) == read_trace(io.StringIO(trace.read_text())) == events
            assert read_verdicts(verdict) == verdicts

    @pytest.mark.parametrize("block_size", [telemetry._BLOCK_SIZE, 40])
    def test_crlf_lines(self, tmp_path, block_size):
        events = [msg1(0), RrcEvent(1, MsgKind.MSG3, "u1", EstablishmentCause.MO_DATA)]
        verdicts = [DetectionVerdict(25, GnbState.ATTACK, 9, 9, 0, 0.0, 0.0)]
        trace, verdict = tmp_path / "t.rrctrace.jsonl", tmp_path / "v.verdicts.jsonl"
        trace.write_bytes(trace_text(events).replace("\n", "\r\n").encode())
        verdict.write_bytes(f"{verdict_line(verdicts[0])}\r\n".encode())
        with small_blocks(block_size):
            assert read_trace(trace) == events
            assert read_verdicts(verdict) == verdicts

    @pytest.mark.parametrize("read", [read_trace, read_verdicts])
    def test_malformed_line_in_block_1_before_a_bad_byte_in_block_2(self, tmp_path, read):
        good = (GOOD_LINE[read] + "\n").encode()
        path = tmp_path / "t.jsonl"
        with small_blocks(2 * len(good)):   # block 1 holds lines 1-3, block 2 lines 4-6
            path.write_bytes(good * 5 + b'"\xff"\n')
            with pytest.raises(TraceParseError, match="^line 6: not UTF-8: .* position 1: "):
                read(path)
            content = b"{bad json\n" + good * 4 + b'"\xff"\n'
            path.write_bytes(content)
            for source in (path, io.BytesIO(content)):
                with pytest.raises(TraceParseError, match="^line 1: bad JSON"):
                    read(source)

    @pytest.mark.parametrize("block_size", [telemetry._BLOCK_SIZE, 1, 40])
    def test_regression_on_a_canonical_line(self, block_size):
        text = trace_text([msg1(5), msg1(7), msg1(3), msg1(9)])
        with small_blocks(block_size), pytest.raises(TraceParseError) as exc:
            read_trace(io.StringIO(text))
        assert (exc.value.line_no, str(exc.value)) == (3, "line 3: timestamp regression 7 -> 3")

    @pytest.mark.parametrize("block_size", [telemetry._BLOCK_SIZE, 1, 40, 97])
    def test_non_ascii_ue_every_40th_line(self, tmp_path, block_size):
        rng = random.Random(7)
        events = sorted((e for _ in range(20) for e in random_trace(rng, 100)), key=lambda e: e.t)
        lines = trace_text(events).splitlines(True)
        lines[::40] = [line.replace('"ue":"ue-', '"ue":"ü-') for line in lines[::40]]
        text = "".join(lines)
        path = tmp_path / "t.rrctrace.jsonl"
        path.write_text(text, encoding="utf-8")
        expected = reference_read_trace(text)
        assert sum("ü" in e.ue_ref for e in expected) == len(lines[::40]) > 20
        with small_blocks(block_size):
            assert read_trace(path) == read_trace(io.StringIO(text)) == expected

    @pytest.mark.parametrize("as_bytes", [False, True])
    def test_regression_on_the_first_line_after_a_strict_block(self, as_bytes):
        # Lines of one length in characters, three to a block: block 1 needs the strict
        # parser for its "ü", and line 4, the first of block 2, regressed.
        text = "".join(f'{{"t":{t},"kind":"msg1","ue":"{ue}"}}\n'
                       for t, ue in [(10, "a"), (11, "ü"), (12, "b"), (11, "c"), (13, "d")])
        source = io.BytesIO(text.encode()) if as_bytes else io.StringIO(text)
        with small_blocks(3 * (text.index("\n") + 1)), pytest.raises(TraceParseError) as exc:
            read_trace(source)
        assert str(exc.value) == "line 4: timestamp regression 12 -> 11"


def verdict(i):
    return DetectionVerdict(25 * i, GnbState.NORMAL, i, i, i, 1.0, 1.0)


WRITERS = [(write_trace, trace_line, msg1), (write_verdicts, verdict_line, verdict)]


class TestChunkedWrites:
    """The writers join _CHUNK_LINES lines per write."""

    @pytest.mark.parametrize("n", [0, 1, _CHUNK_LINES, _CHUNK_LINES + 1])
    @pytest.mark.parametrize("write,line,record", WRITERS, ids=["trace", "verdicts"])
    def test_count_and_bytes(self, tmp_path, write, line, record, n):
        records = [record(i) for i in range(n)]
        expected = "".join(line(r) + "\n" for r in records)
        path = tmp_path / "out.jsonl"
        assert write(iter(records), path) == n
        assert path.read_bytes() == expected.encode()
        buf = io.StringIO()
        assert write(records, buf) == n
        assert buf.getvalue() == expected

    @pytest.mark.parametrize("write,line,record", WRITERS, ids=["trace", "verdicts"])
    def test_failure_after_some_chunks_leaves_no_file(self, tmp_path, write, line, record):
        def records():
            yield from map(record, range(2 * _CHUNK_LINES + 3))
            raise RuntimeError("source failed")

        with pytest.raises(RuntimeError, match="source failed"):
            write(records(), tmp_path / "out.jsonl")
        assert list(tmp_path.iterdir()) == []

    def test_failure_keeps_a_directory_it_made_once_another_file_is_in_it(self, tmp_path):
        other = tmp_path / "a" / "other"

        def records():
            yield msg1(0)
            other.write_text("")
            raise RuntimeError("source failed")

        with pytest.raises(RuntimeError, match="source failed"):
            write_trace(records(), tmp_path / "a" / "b" / "out.jsonl")
        assert sorted(tmp_path.rglob("*")) == [tmp_path / "a", other]
