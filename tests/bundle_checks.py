"""Self-checks of a generated dataset bundle (tests only).

:func:`record_problems` checks one record against a schema;
:func:`bundle_problems` checks every record of a bundle, its difficulty
annotations and that every annotation intent is registered, so the oracle
can resolve instructions onto it.
"""

from __future__ import annotations

from repro.data.datasets.base import DatasetBundle
from repro.data.records import DataRecord
from repro.data.schemas import Schema
from repro.llm.oracle import DIFFICULTY_PREFIX


def record_problems(schema: Schema, record: DataRecord) -> list[str]:
    """Every problem with ``record`` under ``schema`` (empty = conforms)."""
    problems = []
    for field in schema.fields:
        if field.name not in record:
            problems.append(f"missing field {field.name!r}")
            continue
        value = record[field.name]
        if value is not None and not isinstance(value, field.type):
            problems.append(
                f"field {field.name!r} expected {field.type.__name__}, "
                f"got {type(value).__name__}"
            )
    return problems


def bundle_problems(bundle: DatasetBundle) -> list[str]:
    """Every problem with ``bundle`` (empty = ok)."""
    problems: list[str] = []
    registered = set(bundle.registry.keys())
    for record in bundle.records():
        for issue in record_problems(bundle.schema, record):
            problems.append(f"{record.uid}: {issue}")
        for key, value in record.annotations.items():
            if key.startswith(DIFFICULTY_PREFIX):
                if not 0.0 <= float(value) <= 1.0:
                    problems.append(
                        f"{record.uid}: difficulty {value!r} for "
                        f"{key[len(DIFFICULTY_PREFIX):]} out of range"
                    )
                continue
            if key.startswith("_"):
                continue  # auxiliary annotations (distractors, etc.)
            if key not in registered:
                problems.append(f"{record.uid}: annotation {key!r} has no registered intent")
    return problems
