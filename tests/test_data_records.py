"""Tests for DataRecord."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.data.records import DataRecord
from repro.errors import FieldNotFoundError
from repro.utils.hashing import stable_digest
from repro.utils.text import approx_token_count


def test_field_access():
    record = DataRecord({"a": 1, "b": "x"})
    assert record["a"] == 1
    assert record.get("missing", "default") == "default"
    assert "a" in record and "missing" not in record


def test_missing_field_error_lists_fields():
    record = DataRecord({"alpha": 1})
    with pytest.raises(FieldNotFoundError) as excinfo:
        record["beta"]
    assert isinstance(excinfo.value, KeyError)  # agent code catches KeyError
    assert "alpha" in str(excinfo.value)


def test_uids_are_unique_by_default():
    assert DataRecord({}).uid != DataRecord({}).uid


def test_explicit_uid_respected():
    assert DataRecord({}, uid="my-id").uid == "my-id"


def test_derive_adds_fields_and_lineage():
    parent = DataRecord({"a": 1}, annotations={"gold": True})
    child = parent.derive({"b": 2})
    assert child["a"] == 1 and child["b"] == 2
    assert child.parent_uids == (parent.uid,)
    assert child.annotations == {"gold": True}


def test_derive_drop_removes_fields():
    parent = DataRecord({"a": 1, "b": 2})
    child = parent.derive(drop=["b"])
    assert "b" not in child and "a" in child


def test_derive_does_not_mutate_parent():
    parent = DataRecord({"a": 1})
    child = parent.derive({"a": 99})
    assert parent["a"] == 1 and child["a"] == 99


def test_merge_combines_fields_right_wins():
    left = DataRecord({"a": 1, "shared": "left"}, annotations={"la": 1})
    right = DataRecord({"b": 2, "shared": "right"}, annotations={"ra": 2})
    merged = DataRecord.merge(left, right)
    assert merged["shared"] == "right"
    assert merged["a"] == 1 and merged["b"] == 2
    assert merged.annotations == {"la": 1, "ra": 2}
    assert merged.parent_uids == (left.uid, right.uid)


def test_as_text_is_sorted_and_complete():
    record = DataRecord({"b": 2, "a": 1})
    text = record.as_text()
    assert text.index("a: 1") < text.index("b: 2")


def test_root_uids_without_resolver():
    source = DataRecord({}, uid="src")
    assert source.root_uids() == ("src",)
    child = source.derive({})
    assert child.root_uids() == ("src",)


def test_root_uids_transitive_with_resolver():
    source = DataRecord({}, uid="src")
    mid = source.derive({})
    leaf = mid.derive({})
    resolver = {record.uid: record for record in (source, mid, leaf)}
    assert leaf.root_uids(resolver) == ("src",)


def test_root_uids_merge_dedup():
    a = DataRecord({}, uid="a")
    merged = DataRecord.merge(a.derive({}), a.derive({}))
    resolver = {a.uid: a}
    for parent_uid in merged.parent_uids:
        resolver[parent_uid] = a.derive({})
    # Both sides resolve to "a"-derived parents; no duplicates emitted.
    roots = merged.root_uids()
    assert len(roots) == len(set(roots))


@given(st.dictionaries(st.from_regex(r"[a-z]{1,8}", fullmatch=True), st.integers(), max_size=6))
def test_field_names_sorted_property(fields):
    record = DataRecord(fields)
    assert record.field_names() == sorted(fields)


# -- derive: the uid is a pure function of parent uid and shape ---------------


def _derive_by_the_written_out_formula(parent, new_fields, drop):
    """``DataRecord.derive`` as it was before shapes were memoised."""
    dropped = set(drop)
    fields = {name: value for name, value in parent.fields.items() if name not in dropped}
    if new_fields:
        fields.update(new_fields)
    suffix = stable_digest(
        parent.uid, tuple(sorted(new_fields or ())), tuple(sorted(dropped))
    )[:6]
    return DataRecord(
        fields=fields,
        uid=f"{parent.uid}.{suffix}",
        annotations=parent.annotations,
        source_id=parent.source_id,
        parent_uids=(parent.uid,),
    )


_NAMES = st.sampled_from(["a", "b", "c", "body", "x y", "q'uote", "sep\x1f"])
_DROP_AS = {
    "list": list,
    "tuple": tuple,
    "generator": lambda names: (name for name in names),
    "doubled": lambda names: list(names) + list(names),
}


@given(
    uid=st.text(min_size=1, max_size=12),
    fields=st.dictionaries(_NAMES, st.integers(), max_size=5),
    new_fields=st.one_of(
        st.none(),
        # Lists of pairs, so the dict's insertion order is arbitrary.
        st.lists(st.tuples(_NAMES, st.integers()), max_size=4).map(dict),
    ),
    drop=st.lists(_NAMES, max_size=4),  # may name fields that are re-added
    drop_as=st.sampled_from(sorted(_DROP_AS)),
)
def test_derive_equals_the_written_out_formula(uid, fields, new_fields, drop, drop_as):
    parent = DataRecord(
        fields, uid=uid, annotations={"gold": [1]}, source_id="src", parent_uids=("p",)
    )
    expected = _derive_by_the_written_out_formula(parent, new_fields, drop)
    for _ in range(2):  # first use of a shape, then the memoised shape
        child = parent.derive(new_fields, drop=_DROP_AS[drop_as](drop))
        assert child.uid == expected.uid
        assert child.fields == expected.fields
        assert list(child.fields) == list(expected.fields)  # same field order
        assert child.annotations == parent.annotations
        assert child.source_id == "src"
        assert child.parent_uids == (uid,)
        # Owned, never aliased: writing to the child leaves the parent alone.
        assert child.fields is not parent.fields
        assert child.annotations is not parent.annotations
        if new_fields is not None:
            assert child.fields is not new_fields
    assert parent.fields == fields and parent.annotations == {"gold": [1]}


def test_derive_shape_memo_is_capped_and_survives_the_drop(monkeypatch):
    from repro.data import records

    monkeypatch.setattr(records, "_SHAPES_CAP", 3)
    parent = DataRecord({"a": 1}, uid="p")
    uids = [parent.derive({f"f{i}": i}).uid for i in range(8)]
    assert len(records._SHAPES) <= 3
    assert uids == [
        _derive_by_the_written_out_formula(parent, {f"f{i}": i}, ()).uid
        for i in range(8)
    ]


def test_merge_owns_its_dicts():
    left = DataRecord({"a": 1}, uid="l", annotations={"la": 1})
    right = DataRecord({"b": 2}, uid="r", annotations={"ra": 2})
    merged = DataRecord.merge(left, right)
    # Records are immutable once built; this write only proves ownership
    # and the record is never priced.
    merged.fields["a"] = 99
    merged.annotations["la"] = 99
    assert left["a"] == 1 and left.annotations == {"la": 1}
    assert merged.uid == f"l*{stable_digest('l', 'r')[:6]}"


# -- text_tokens: the record's prompt token count, counted once ---------------

_VALUES = st.one_of(
    st.none(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=40),  # ASCII and non-ASCII, empty, multi-line
    st.text(alphabet=" \n\tab", max_size=20),
)
_FIELD_DICTS = st.dictionaries(_NAMES, _VALUES, max_size=5)


def _counted_right(record):
    return record.text_tokens() == approx_token_count(record.as_text())


@given(
    fields=_FIELD_DICTS,
    new_fields=st.one_of(st.none(), _FIELD_DICTS),
    drop=st.lists(_NAMES, max_size=4),
    other=_FIELD_DICTS,
    count_parents_first=st.booleans(),
)
def test_text_tokens_is_the_count_of_the_records_own_text(
    fields, new_fields, drop, other, count_parents_first
):
    parent = DataRecord(fields, uid="p")
    right = DataRecord(other, uid="r")
    if count_parents_first:
        # A parent counted before deriving passes nothing on to its children.
        assert _counted_right(parent) and _counted_right(right)
    child = parent.derive(new_fields, drop=drop)
    if count_parents_first:
        assert _counted_right(child)
    merged = DataRecord.merge(child, right)
    for record in (child, merged, parent, right):
        assert _counted_right(record)
        assert _counted_right(record)  # the kept count, read again


def test_derived_and_merged_records_count_their_own_text():
    parent = DataRecord({"body": "one two three"}, uid="p")
    right = DataRecord({"note": "four five six seven eight nine"}, uid="r")
    assert (parent.text_tokens(), right.text_tokens()) == (5, 9)
    grown = parent.derive({"summary": "alpha beta gamma delta epsilon"})
    shrunk = parent.derive(drop=["body"])
    merged = DataRecord.merge(parent, right)
    assert grown.text_tokens() == approx_token_count(grown.as_text()) == 15
    assert shrunk.text_tokens() == 0
    assert merged.text_tokens() == approx_token_count(merged.as_text()) == 14
