"""A record is priced once: its prompt token count is computed per record,
not per LLM call (``DataRecord.text_tokens``)."""

import pytest

from repro.data import records as records_module
from repro.data.records import DataRecord
from repro.data.schemas import Field, Schema
from repro.llm.oracle import DIFFICULTY_PREFIX, IntentRegistry, SemanticOracle
from repro.llm.simulated import SimulatedLLM
from repro.sem.config import QueryProcessorConfig
from repro.sem.dataset import Dataset

SCHEMA = Schema([Field("name", str), Field("body", str)])


@pytest.fixture
def pricing(monkeypatch):
    """Counts the one computing site and every read of a record's count.

    Returns ``(computed, priced)``: the texts ``approx_token_count`` was run
    on inside ``repro.data.records``, and the records whose count was read.
    """
    computed: list[str] = []
    priced: list[DataRecord] = []
    count = records_module.approx_token_count
    read = DataRecord.text_tokens

    def counting(text):
        computed.append(text)
        return count(text)

    def reading(record):
        priced.append(record)
        return read(record)

    monkeypatch.setattr(records_module, "approx_token_count", counting)
    monkeypatch.setattr(DataRecord, "text_tokens", reading)
    return computed, priced


def _toy_records(n):
    return [
        DataRecord(
            {"name": f"t{index}", "body": "a record about widgets " + "word " * index},
            uid=f"t{index}",
            annotations={
                "t.flag": index % 3 != 0,
                DIFFICULTY_PREFIX + "t.flag": 0.1,
                "t.count": index,
                DIFFICULTY_PREFIX + "t.count": 0.1,
            },
        )
        for index in range(n)
    ]


def test_filter_then_map_counts_each_priced_record_once(pricing, make_toy_llm):
    computed, priced = pricing
    llm = make_toy_llm()
    result = (
        Dataset.from_records(_toy_records(30), SCHEMA, "toy")
        .sem_filter("does the record carry the special flag")
        .sem_map(Field("widgets", int), "the number of widgets")
        .run(QueryProcessorConfig(llm=llm, optimize=False, seed=0))
    )
    calls = [event for event in llm.tracker.events if not event.cached]
    kept = len(result.records)
    assert 0 < kept < 30
    # Every priced call read the record's count: 30 filter calls + one map
    # call per kept record.
    assert len(priced) == len(calls) == 30 + kept
    # ... and the count was computed once per distinct record, not per call.
    assert len(computed) == len({id(record) for record in priced}) < len(priced)


def _join_registry():
    registry = IntentRegistry()
    registry.register("j.topic", ["records", "same", "topic"])
    return registry


def _side(prefix, topics):
    return [
        DataRecord(
            {"name": f"{prefix}{index}", "body": f"a document about {topic} " * 3},
            uid=f"{prefix}{index}",
            annotations={"j.topic": topic, DIFFICULTY_PREFIX + "j.topic": 0.05},
        )
        for index, topic in enumerate(topics)
    ]


def test_nested_join_counts_each_side_once_not_per_pair(pricing):
    computed, priced = pricing
    n, m = 6, 9
    left = Dataset.from_records(_side("l", ["gadgets", "plants"] * (n // 2)), SCHEMA, "l")
    right = Dataset.from_records(_side("r", ["gadgets", "sports", "cooking"] * (m // 3)), SCHEMA, "r")
    llm = SimulatedLLM(oracle=SemanticOracle(_join_registry()), seed=0)
    left.sem_join(right, "the records discuss the same topic").run(
        QueryProcessorConfig(llm=llm, join_method="nested", optimize=False, seed=0)
    )
    judged = [event for event in llm.tracker.events if event.tag.endswith(":join")]
    assert len(judged) == n * m
    assert len(priced) == 2 * n * m  # both sides of every pair read a count
    assert len(computed) == n + m  # ... computed once per record
