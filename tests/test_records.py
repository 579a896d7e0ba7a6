"""The contract of the three per-message records: RrcEvent, WindowFeatures and
DetectionVerdict are immutable, hashable value types with fixed field names."""
import io

import pytest

from rrcstorm import (
    DetectionVerdict,
    EstablishmentCause,
    GnbState,
    MsgKind,
    RrcEvent,
    WindowFeatures,
    read_trace,
    run,
    run_stream,
    write_trace,
)
from rrcstorm.presets import PRESET_NAMES, default_detector, default_gnb, scenario_from_preset

EVENT = RrcEvent(5, MsgKind.MSG3, "mue-1", EstablishmentCause.EMERGENCY)
FEATURES = WindowFeatures(375, 1000, 80, 16, 0, 0.0, 0.0)
VERDICT = DetectionVerdict(1000, GnbState.ATTACK, FEATURES)

FIELDS = [
    (RrcEvent, ("t", "kind", "ue_ref", "cause"), {"cause": None}),
    (WindowFeatures, ("window_start_ms", "window_end_ms", "n_msg3", "n_msg4", "n_msg5",
                      "r1", "r2"), {}),
    (DetectionVerdict, ("t_ms", "state", "features"), {}),
]


@pytest.mark.parametrize("cls,fields,defaults", FIELDS)
def test_field_names_order_and_defaults(cls, fields, defaults):
    assert cls._fields == fields
    assert cls._field_defaults == defaults


@pytest.mark.parametrize("record", [EVENT, FEATURES, VERDICT])
def test_fields_cannot_be_assigned(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], 0)
    with pytest.raises(AttributeError):
        record.extra = 0


@pytest.mark.parametrize("record", [EVENT, FEATURES, VERDICT])
def test_equal_records_hash_equal(record):
    copy = type(record)(*record)
    assert copy == record and copy is not record
    assert hash(copy) == hash(record)
    assert len({copy, record}) == 1


@pytest.mark.parametrize("record", [EVENT, FEATURES, VERDICT])
def test_keyword_construction(record):
    assert type(record)(**record._asdict()) == record


def test_repr_names_every_field():
    assert repr(RrcEvent(5, MsgKind.MSG4, "u")) == (
        "RrcEvent(t=5, kind=<MsgKind.MSG4: 'msg4'>, ue_ref='u', cause=None)")


def test_records_with_different_fields_differ():
    assert EVENT != EVENT._replace(ue_ref="mue-2")
    assert VERDICT != VERDICT._replace(state=GnbState.OVERLOAD)


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_trace_round_trips_on_every_preset(preset):
    trace = run(scenario_from_preset(preset, 1), default_gnb()).trace
    buf = io.StringIO()
    assert write_trace(trace, buf) == len(trace)
    assert read_trace(io.StringIO(buf.getvalue())) == trace


@pytest.mark.parametrize("preset", ["paper-attack-0", "paper-highload", "paper-normal"])
def test_engine_and_detector_build_exact_record_types(preset):
    # Built with tuple.__new__ on the hot paths: still the classes, not plain tuples.
    trace = run(scenario_from_preset(preset, 1), default_gnb()).trace
    verdicts = run_stream(trace, default_detector())
    assert {type(e) for e in trace} == {RrcEvent}
    assert {type(v) for v in verdicts} == {DetectionVerdict}
    assert {type(v.features) for v in verdicts} == {WindowFeatures}
    first_of_each_kind = {e.kind: e for e in reversed(trace)}.values()
    samples = [*first_of_each_kind, verdicts[0], verdicts[-1], verdicts[-1].features]
    for record in samples:
        assert type(record)(**record._asdict()) == record
        assert list(record._asdict()) == list(record._fields)
        changed = record._replace(**{record._fields[0]: -1})
        assert type(changed) is type(record)
        assert changed[0] == -1 and changed[1:] == record[1:]
