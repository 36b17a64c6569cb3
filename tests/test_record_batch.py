"""Columnar RecordBatch and vectorized predicate evaluation.

The contract under test: for every predicate and every record population,
``struct_filter_mask`` keeps exactly the rows row-at-a-time evaluation
keeps — the vectorized fast path and the per-row fallback may differ in
speed, never in answers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.records import DataRecord
from repro.llm.oracle import SemanticOracle
from repro.llm.simulated import SimulatedLLM
from repro.qa.corpus import CorpusSpec, build_corpus
from repro.qa.reference import ReferenceInterpreter
from repro.sem import logical as L
from repro.sem import physical as P
from repro.sem.batch import (
    RecordBatch,
    _exact_float_column,
    struct_filter_mask,
)
from repro.sem.structql import compile_predicate, predicate_holds


def _records(rows: list[dict]) -> list[DataRecord]:
    return [DataRecord(fields=row, uid=f"rb-{index:03d}") for index, row in enumerate(rows)]


MIXED = _records(
    [
        {"priority": 1, "amount": 10.0, "name": "acme", "flag": True},
        {"priority": 4, "amount": 0.5, "name": "globex", "flag": False},
        {"priority": None, "amount": 99.9, "name": None, "flag": None},
        {"amount": 7.0, "name": "stark"},  # priority/flag missing
        {"priority": 3, "amount": None, "name": "acme", "flag": True},
        {"priority": 2, "amount": 2**60, "name": "wayne", "flag": False},
    ]
)


# ---------------------------------------------------------------------------
# Batch structure
# ---------------------------------------------------------------------------


class TestRecordBatch:
    def test_len_and_iter_preserve_order(self):
        batch = RecordBatch(MIXED)
        assert len(batch) == len(MIXED)
        assert list(batch) == MIXED

    def test_column_reads_missing_as_none_and_caches(self):
        batch = RecordBatch(MIXED)
        column = batch.column("priority")
        assert list(column) == [1, 4, None, None, 3, 2]
        assert batch.column("priority") is column

    def test_validity_tracks_presence(self):
        batch = RecordBatch(MIXED)
        assert list(batch.validity("priority")) == [True, True, False, False, True, True]
        assert list(batch.validity("amount")) == [True, True, True, True, False, True]

    def test_take_shares_record_objects(self):
        batch = RecordBatch(MIXED)
        mask = np.array([True, False, True, False, False, False])
        kept = batch.take(mask)
        assert kept.records == [MIXED[0], MIXED[2]]
        assert kept.records[0] is MIXED[0]


# ---------------------------------------------------------------------------
# Vectorized predicates agree with row-at-a-time evaluation
# ---------------------------------------------------------------------------

PREDICATES = [
    "priority >= 2",
    "priority = 4",
    "4 = priority",
    "2 < priority",
    "priority <> 1",
    "priority != 1",
    "priority <= 3 AND amount > 1.0",
    "priority = 4 OR amount < 1.0",
    "NOT (priority >= 2)",
    "priority IS NULL",
    "priority IS NOT NULL",
    "priority BETWEEN 2 AND 3",
    "priority NOT BETWEEN 2 AND 3",
    "priority BETWEEN 2 AND NULL",
    "priority IN (1, 3)",
    "priority NOT IN (1, 3)",
    "priority IN (1, NULL)",
    "name = 'acme'",            # string compare: exact scalar loop
    "name < 'globex'",          # string ordering: exact scalar loop
    "name LIKE 'a%'",           # no vector path: per-row fallback
    "flag",                     # bare boolean column
    "amount = 1152921504606846976",  # beyond float64-exact: scalar loop
    "priority = NULL",
    "length(name) > 4",         # scalar function: per-row fallback
    "priority < 3",
    "name <= 'globex'",
    "name >= 'globex'",
    "priority = amount",        # column-to-column: per-row fallback
    "priority + 1 = 2",         # arithmetic leaf: per-row fallback
    "priority + 1 IS NULL",
    "priority + 1 BETWEEN 1 AND 2",
    "priority + 1 IN (1, 2)",
    "name BETWEEN 'a' AND 'z'",  # non-numeric bounds: per-row fallback
]


@pytest.mark.parametrize("condition", PREDICATES)
def test_mask_matches_row_semantics(condition):
    batch = RecordBatch(MIXED)
    mask = struct_filter_mask(compile_predicate(condition), batch)
    expected = [predicate_holds(condition, record.fields) for record in MIXED]
    assert list(mask) == expected, condition


def test_numeric_truthiness_falls_back_to_executor():
    # A bare numeric column is not a boolean TRUE: the executor returns the
    # value itself and WHERE keeps only exact TRUE, so every numeric row
    # drops.  The vector path must defer to the executor, not coerce.
    batch = RecordBatch(MIXED)
    mask = struct_filter_mask(compile_predicate("priority"), batch)
    expected = [predicate_holds("priority", record.fields) for record in MIXED]
    assert list(mask) == expected == [False] * len(MIXED)


class TestExactFloatColumn:
    def test_rejects_bool_literal(self):
        batch = RecordBatch(MIXED)
        column, valid = batch.column("priority"), batch.validity("priority")
        assert _exact_float_column(column, valid, True) is None
        assert _exact_float_column(column, valid, "x") is None

    def test_rejects_huge_int_literal_and_values(self):
        batch = RecordBatch(MIXED)
        column, valid = batch.column("priority"), batch.validity("priority")
        assert _exact_float_column(column, valid, 2**60) is None
        # The "amount" column contains a 2**60 value.
        assert (
            _exact_float_column(batch.column("amount"), batch.validity("amount"), 1)
            is None
        )

    def test_rejects_non_numeric_values(self):
        batch = RecordBatch(MIXED)
        assert (
            _exact_float_column(batch.column("name"), batch.validity("name"), 1)
            is None
        )

    def test_accepts_mixed_int_float_with_nan_nulls(self):
        batch = RecordBatch(MIXED)
        floats = _exact_float_column(
            batch.column("priority"), batch.validity("priority"), 2
        )
        assert floats is not None
        assert floats[0] == 1.0 and np.isnan(floats[2])


# ---------------------------------------------------------------------------
# Token-free operators: ``process_batch`` against its scalar definition
# ---------------------------------------------------------------------------
#
# Each token-free operator has exactly one body — a whole-batch kernel.
# Its *definition* is the scalar rule of the reference interpreter
# (``repro.qa.reference``: evaluate / derive / call / slice one record at
# a time); the kernels must reproduce it bit for bit on the QA corpus at
# every batch split, carrying the positions sidecar row for row.


def _reference_rows(operator, records, llm):
    """``(input position, expected record)`` per output of the reference."""
    output = ReferenceInterpreter(llm).apply(operator.logical_op, records)
    position = {record.uid: index for index, record in enumerate(records)}
    # Selected rows are the input objects; derived rows name their parent.
    return [
        (
            position[r.uid] if r.uid in position else position[r.parent_uids[0]],
            r,
        )
        for r in output
    ]


TOKEN_FREE = {
    "py_filter": lambda: P.PhysPyFilter(
        L.PyFilterOp(child=None, fn=lambda r: r.get("priority", 0) <= 3)
    ),
    "py_map": lambda: P.PhysPyMap(
        L.PyMapOp(
            child=None,
            fn=lambda r: {"double": r.get("priority", 0) * 2, "title": "x"},
        )
    ),
    "project": lambda: P.PhysProject(
        L.ProjectOp(child=None, fields=("title", "priority"))
    ),
    "limit": lambda: P.PhysLimit(L.LimitOp(child=None, n=7)),
    "struct_filter": lambda: P.PhysStructFilter(
        L.StructFilterOp(child=None, condition="priority >= 2 AND title <> ''")
    ),
}


@pytest.mark.parametrize("name", sorted(TOKEN_FREE))
@pytest.mark.parametrize("batch_size", [1, 3, 20])
def test_process_batch_matches_scalar_definition(name, batch_size):
    build = TOKEN_FREE[name]
    bundle = build_corpus(CorpusSpec(seed=9, n_records=20))
    records = list(bundle.source().iterate())
    llm = SimulatedLLM(oracle=SemanticOracle(bundle.registry), seed=9)
    ctx = P.ExecutionContext(llm=llm)
    operator = build()
    expected = _reference_rows(operator, records, llm)
    assert 0 < len(expected) <= len(records)  # non-degenerate

    state = operator.new_state(ctx)
    got = []
    for start in range(0, len(records), batch_size):
        chunk = records[start : start + batch_size]
        out = operator.process_batch(
            RecordBatch(chunk, list(range(start, start + len(chunk)))), ctx, state
        )
        got.extend(zip(out.positions, out.records))
    assert [position for position, _ in got] == [i for i, _ in expected]
    for (_, record), (_, wanted) in zip(got, expected):
        assert _identical(record, wanted)
    # Token-free means token-free: no calls, no virtual time.
    assert llm.tracker.events == [] and llm.clock.elapsed == 0.0
    # The derived whole-input entry point is the same kernel, one batch.
    whole = build().execute(records, ctx)
    assert len(whole) == len(expected)
    assert all(_identical(a, b) for a, (_, b) in zip(whole, expected))


# ---------------------------------------------------------------------------
# Vectorized project / py_map: bit-identical to row-mode derive
# ---------------------------------------------------------------------------


def _mixed_shape_records():
    """Records with two distinct field shapes (exercises the shape cache)."""
    records = []
    for i in range(6):
        fields = {"a": i, "b": f"s{i}", "c": float(i)}
        if i % 2:
            fields["extra"] = i * 10
        record = DataRecord(fields, uid=f"r{i}")
        record.annotations["tag"] = i
        record.source_id = "mixed"
        records.append(record)
    return records


def _identical(left: DataRecord, right: DataRecord) -> bool:
    return (
        left.uid == right.uid
        and left.fields == right.fields
        and left.annotations == right.annotations
        and left.source_id == right.source_id
        and left.parent_uids == right.parent_uids
    )


def test_project_batch_matches_row_mode_derive():
    from repro.sem.batch import project_batch

    records = _mixed_shape_records()
    fields = ["a", "c"]
    out = project_batch(RecordBatch(records), fields)
    wanted = set(fields)
    for record, got in zip(records, out.records):
        drop = [name for name in record.fields if name not in wanted]
        expected = record.derive({}, drop=drop)
        assert _identical(expected, got)


def test_project_batch_shares_projected_columns():
    from repro.sem.batch import project_batch

    batch = RecordBatch(_mixed_shape_records())
    batch.column("a")  # warm the input cache
    out = project_batch(batch, ["a", "b"])
    # Projection never rewrites values: columns are shared, not copied.
    assert out._columns["a"] is batch._columns["a"]
    assert out._validity["b"] is batch._validity["b"]
    assert list(out.column("a")) == [r.fields["a"] for r in out.records]


def test_py_map_batch_matches_row_mode_derive():
    from repro.sem.batch import py_map_batch

    def fn(record):
        new = {"doubled": record.fields["a"] * 2}
        if "extra" in record.fields:
            new["b"] = "overwritten"  # touch an existing field too
        return new

    records = _mixed_shape_records()
    out = py_map_batch(RecordBatch(records), fn)
    for record, got in zip(records, out.records):
        expected = record.derive(fn(record))
        assert _identical(expected, got)


def test_py_map_batch_pre_seeded_columns_match_lazy():
    from repro.sem.batch import py_map_batch

    def fn(record):
        return {"doubled": record.fields["a"] * 2}

    batch = RecordBatch(_mixed_shape_records())
    batch.column("b")  # warm an untouched input column
    out = py_map_batch(batch, fn)
    # Touched columns were materialized array-at-a-time...
    assert "doubled" in out._columns
    fresh = RecordBatch(list(out.records))
    assert list(out.column("doubled")) == list(fresh.column("doubled"))
    # ...while untouched ones are shared with the input batch's cache.
    assert out._columns["b"] is batch._columns["b"]


def test_py_map_batch_rejects_non_dict_with_row_mode_message():
    from repro.errors import ExecutionError
    from repro.sem.batch import py_map_batch

    with pytest.raises(
        ExecutionError, match="PyMap function must return a dict"
    ):
        py_map_batch(RecordBatch(_mixed_shape_records()), lambda r: 42)
