"""The QA corpus generator against its per-record definition.

``build_corpus`` absorbs each value name's ``(seed, name)`` hash head once
per corpus; ``_written_out`` below is the same corpus drawn the plain way,
one ``stable_hash``/``stable_uniform`` call per value and a ``DataRecord``
constructor per record.  Every record must be equal, down to annotation key
order, so fuzz bundles and perf digests keep their meaning.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.data.records import DataRecord
from repro.llm.oracle import DIFFICULTY_PREFIX
from repro.llm.simulated import DISTRACTOR_PREFIX
from repro.qa import corpus as qa_corpus
from repro.qa.corpus import (
    CUSTOMERS,
    DEPARTMENTS,
    INTENTS,
    REGIONS,
    CorpusSpec,
    build_corpus,
)
from repro.utils.hashing import stable_hash, stable_uniform

ROOT = Path(__file__).resolve().parents[1]
TOPICS = qa_corpus._TOPIC_WORDS


def _difficulty(seed: int, index: int, intent: str) -> float:
    draw = stable_uniform(seed, "qa-difficulty", index, intent)
    if draw > 0.9:
        return round(0.7 + 0.25 * stable_uniform(seed, "qa-hard", index, intent), 3)
    return round(0.05 + 0.55 * draw, 3)


def _written_out(seed: int, n: int) -> list[DataRecord]:
    records = []
    for index in range(n):
        customer = CUSTOMERS[stable_hash(seed, "qa-cust", index) % len(CUSTOMERS)]
        department = DEPARTMENTS[stable_hash(seed, "qa-dept", index) % len(DEPARTMENTS)]
        region = REGIONS[stable_hash(seed, "qa-region", index) % len(REGIONS)]
        priority = 1 + stable_hash(seed, "qa-priority", index) % 4
        amount = round(10.0 + 990.0 * stable_uniform(seed, "qa-amount", index), 2)
        topic_a = TOPICS[stable_hash(seed, "qa-topic-a", index) % len(TOPICS)]
        topic_b = TOPICS[stable_hash(seed, "qa-topic-b", index) % len(TOPICS)]
        body = (
            f"Ticket {index} from {customer} about {topic_a} and {topic_b}. "
            f"Priority {priority}, routed via the {region} office to "
            f"{department}. Invoice total ${amount:.2f}."
        )
        annotations = {
            "qa.flag_urgent": stable_uniform(seed, "qa-urgent", index) < 0.4,
            "qa.flag_security": stable_uniform(seed, "qa-security", index) < 0.3,
            "qa.flag_refund": stable_uniform(seed, "qa-refund", index) < 0.35,
            "qa.amount": amount,
            "qa.customer": customer,
            "qa.department": department,
            "qa.region": region,
            "qa.same_customer": customer,
        }
        for intent in list(annotations):
            annotations[DIFFICULTY_PREFIX + intent] = _difficulty(seed, index, intent)
        if stable_uniform(seed, "qa-distract", index) < 0.5:
            annotations[DISTRACTOR_PREFIX + "qa.amount"] = round(amount * 0.1, 2)
        records.append(DataRecord(
            {"title": f"{topic_a}-{index}", "body": body, "priority": priority},
            uid=f"qa-{index:04d}",
            annotations=annotations,
            source_id=f"qa-corpus-{seed}",
        ))
    return records


def _shape(record: DataRecord) -> tuple:
    """Everything a record carries, with each value's type (``True == 1``)."""
    return (
        record.uid,
        [(name, type(value), value) for name, value in record.fields.items()],
        [(key, type(value), value) for key, value in record.annotations.items()],
        record.source_id,
        record.parent_uids,
    )


def _mismatches(seed: int, n: int) -> list[str]:
    built = build_corpus(CorpusSpec(seed=seed, n_records=n)).records()
    expected = _written_out(seed, n)
    assert len(built) == len(expected)
    return [
        want.uid for got, want in zip(built, expected) if _shape(got) != _shape(want)
    ]


@pytest.mark.parametrize("seed", [0, 7, 42])
@pytest.mark.parametrize("n", [0, 1, 24, 1000])
def test_build_corpus_equals_the_written_out_draws(seed, n):
    assert _mismatches(seed, n) == []


def test_difficulty_keys_are_shared_and_dicts_are_not():
    records = build_corpus(CorpusSpec(seed=3, n_records=50)).records()
    difficulty_keys = [
        [key for key in record.annotations if key.startswith(DIFFICULTY_PREFIX)]
        for record in records
    ]
    assert len(difficulty_keys[0]) == len(INTENTS)
    for keys in difficulty_keys[1:]:
        assert all(a is b for a, b in zip(keys, difficulty_keys[0], strict=True))
    assert len({id(record.fields) for record in records}) == len(records)
    assert len({id(record.annotations) for record in records}) == len(records)


@pytest.mark.parametrize("name", qa_corpus._VALUES)
def test_a_head_drawn_under_the_wrong_name_is_caught(monkeypatch, name):
    planted = tuple(value + "-x" if value == name else value for value in qa_corpus._VALUES)
    monkeypatch.setattr(qa_corpus, "_VALUES", planted)
    assert _mismatches(0, 24)


def test_importing_the_corpus_loads_no_harness():
    code = "\n".join([
        "import sys",
        "import repro.bench.metrics",
        "print(' '.join(sorted(m for m in sys.modules"
        " if m.startswith(('repro.core', 'repro.sem', 'repro.sql')))))",
        "import repro.qa.corpus",
        "print(' '.join(sorted(m for m in sys.modules"
        " if m.startswith(('repro.qa.', 'repro.bench.')))))",
    ])
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    # The package resolves its re-exports on first access: the metrics
    # module alone loads no runtime layer.
    runtime, loaded = out.stdout.split("\n")[:2]
    assert runtime == ""
    assert loaded.split() == ["repro.bench.metrics", "repro.qa.corpus"]
