"""Tests for data sources."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.records import DataRecord
from repro.data.schemas import Field, Schema
from repro.data.sources import MemorySource
from repro.errors import DataSourceError


def _records(n=3):
    return [DataRecord({"i": index}) for index in range(n)]


def test_memory_source_iterates_all():
    source = MemorySource(_records(3), Schema([Field("i", int)]))
    assert len(list(source.iterate())) == 3
    assert source.cardinality() == 3


def test_memory_source_stamps_source_id():
    source = MemorySource(_records(1), Schema([Field("i", int)]), source_id="mysrc")
    assert next(iter(source)).source_id == "mysrc"


def test_memory_source_reiterable():
    source = MemorySource(_records(2), Schema([Field("i", int)]))
    assert len(list(source)) == len(list(source)) == 2


# ---------------------------------------------------------------------------
# uids(): the source's own uid tuple, kept in step with its mutations
# ---------------------------------------------------------------------------


def _iterated_uids(source):
    return tuple(record.uid for record in source.iterate())


@settings(max_examples=40, deadline=None)
@given(
    base=st.integers(min_value=0, max_value=4),
    steps=st.lists(
        st.one_of(
            st.tuples(st.just("append"), st.integers(min_value=0, max_value=3)),
            st.tuples(st.just("update"), st.integers(min_value=0, max_value=50)),
        ),
        max_size=8,
    ),
)
def test_memory_source_uids_track_any_append_update_interleaving(base, steps):
    source = MemorySource(_records(base), Schema([Field("i", int)]))
    assert source.uids() == _iterated_uids(source)
    for kind, amount in steps:
        if kind == "append":
            source.append(_records(amount))
        elif source.cardinality():
            victim = source.uids()[amount % source.cardinality()]
            source.update(victim, {"i": -amount})
        assert source.uids() == _iterated_uids(source)


def test_memory_source_update_is_copy_on_write():
    records = _records(2)
    source = MemorySource(records, Schema([Field("i", int)]), source_id="s")
    handed_out = source.records()
    source.update(records[1].uid, {"i": 99, "note": "amended"})
    # The record already handed out keeps its content...
    assert handed_out[1] is records[1]
    assert records[1].fields == {"i": 1}
    # ...and the slot holds a new record with the same identity fields.
    replaced = source.records()[1]
    assert replaced is not records[1]
    assert replaced.uid == records[1].uid and replaced.source_id == "s"
    assert replaced.fields == {"i": 99, "note": "amended"}
    assert source.records()[0] is records[0]


def test_memory_source_update_unknown_uid():
    source = MemorySource(_records(1), Schema([Field("i", int)]))
    with pytest.raises(DataSourceError, match="no record with uid"):
        source.update("ghost", {"i": 1})
