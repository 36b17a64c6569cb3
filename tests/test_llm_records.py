"""The per-call records are immutable tuples with their declared shape.

Every LLM call builds some of these on its hot path (a hit at least one, a
miss up to four), so each is a ``typing.NamedTuple``: a tuple subclass,
constructed positionally or by keyword exactly as declared, and frozen.
"""

import pytest

from repro.llm.client import CompletionResult, ExtractionResult, FilterJudgment
from repro.llm.oracle import JudgeResult
from repro.llm.usage import UsageEvent
from repro.serve.timeline import CallRequest

EVENT = UsageEvent("gpt-4o", 100, 10, 0.01, 1.0, tag="query:filter")

RECORDS = [
    EVENT,
    CompletionResult("text", EVENT),
    FilterJudgment(True, True, "t.flag", EVENT),
    ExtractionResult(42, False, "", EVENT),
    JudgeResult(True, "t.flag", 0.5, True),
    CallRequest(1.5, "gpt-4o", False, 100, 10),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
def test_every_record_is_an_immutable_tuple(record):
    assert isinstance(record, tuple)
    first = type(record)._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first, None)
    assert getattr(record, first) == record[0]


def test_field_order_and_defaults_are_the_declared_ones():
    assert UsageEvent._fields == (
        "model", "input_tokens", "output_tokens", "cost_usd", "latency_s",
        "tag", "cached", "failed", "retries", "error",
    )
    assert UsageEvent._field_defaults == {
        "tag": "", "cached": False, "failed": False, "retries": 0, "error": "",
    }
    assert CompletionResult._fields == ("text", "event")
    assert FilterJudgment._fields == ("answer", "resolved", "intent_key", "event")
    assert ExtractionResult._fields == ("value", "resolved", "intent_key", "event")
    assert JudgeResult._fields == ("truth", "intent_key", "difficulty", "resolved")
    assert CallRequest._fields == (
        "seconds", "model", "is_embedding", "input_tokens", "output_tokens",
    )
    assert CallRequest(2.0) == CallRequest(
        seconds=2.0, model=None, is_embedding=False, input_tokens=0, output_tokens=0
    )


def test_positional_construction_and_repr_are_unchanged():
    assert EVENT == UsageEvent(
        model="gpt-4o", input_tokens=100, output_tokens=10, cost_usd=0.01,
        latency_s=1.0, tag="query:filter",
    )
    assert (EVENT.cached, EVENT.failed, EVENT.retries, EVENT.error) == (False, False, 0, "")
    assert repr(EVENT) == (
        "UsageEvent(model='gpt-4o', input_tokens=100, output_tokens=10, "
        "cost_usd=0.01, latency_s=1.0, tag='query:filter', cached=False, "
        "failed=False, retries=0, error='')"
    )
    assert repr(JudgeResult(None, "", 0.5, False)) == (
        "JudgeResult(truth=None, intent_key='', difficulty=0.5, resolved=False)"
    )
