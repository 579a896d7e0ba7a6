import random

import pytest
from hypothesis import given, settings

from rrcstorm import EstablishmentCause, MsgKind, RrcEvent
from rrcstorm.events import validate_stream

from helpers import any_order_traces, first_refusal, random_trace, reference_validate_stream


def msg3(t, ue="u0", cause=EstablishmentCause.MO_DATA):
    return RrcEvent(t, MsgKind.MSG3, ue, cause)


def test_empty_stream_ok():
    assert validate_stream([]) is None


def test_ordered_pair_ok():
    stream = [msg3(0), RrcEvent(5, MsgKind.MSG4, "u0")]
    assert validate_stream(stream) is None


def test_timestamp_regression_reported_at_index():
    stream = [RrcEvent(5, MsgKind.MSG4, "u0"), msg3(0)]
    assert validate_stream(stream) == "event 1: timestamp regression 5 -> 0"


def test_msg3_without_cause_is_violation():
    violation = validate_stream([RrcEvent(0, MsgKind.MSG3, "u0")])
    assert violation == "event 0: msg3 record without cause"


def test_cause_on_non_msg3_is_violation():
    violation = validate_stream(
        [RrcEvent(0, MsgKind.MSG4, "u0", EstablishmentCause.MO_DATA)])
    assert violation == "event 0: cause not allowed on msg4"


def test_negative_timestamp_is_violation():
    violation = validate_stream([msg3(-1)])
    assert violation == "event 0: 't' must be a non-negative integer, got -1"


def test_seven_message_kinds():
    assert {k.value for k in MsgKind} == {
        "msg1", "msg2", "msg3", "msg4", "msg5", "msg3_rejected", "context_released"}


def test_four_establishment_causes():
    assert {c.value for c in EstablishmentCause} == {
        "mo_data", "mo_signalling", "emergency", "high_priority_access"}


@pytest.mark.parametrize("seed", range(30))
def test_ordering_check_is_total(seed):
    # A cause-valid stream passes iff every adjacent timestamp pair is
    # non-decreasing; compare against a direct pairwise scan.
    rng = random.Random(seed)
    events = random_trace(rng)
    if rng.random() < 0.5 and len(events) >= 2:
        i = rng.randrange(len(events) - 1)
        shuffled = events[:]
        shuffled[i], shuffled[i + 1] = shuffled[i + 1], shuffled[i]
        events = shuffled
    ordered = all(a.t <= b.t for a, b in zip(events, events[1:]))
    assert (validate_stream(events) is None) == ordered


@settings(deadline=None, max_examples=300)
@given(any_order_traces())
def test_validate_stream_equals_reference(events):
    violation = validate_stream(events)
    assert violation == reference_validate_stream(events)
    # One rule: the reader refuses the same event of the stream's lines, in the same words.
    refusal = first_refusal(events)
    assert violation == (refusal and "event {}: {}".format(*refusal))
