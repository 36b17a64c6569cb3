"""Tests for schemas and fields."""

import pytest

from repro.data.records import DataRecord
from repro.data.schemas import EMAIL_SCHEMA, TEXT_FILE_SCHEMA, Field, Schema
from repro.errors import SchemaError
from tests.bundle_checks import record_problems


def test_field_requires_identifier_name():
    with pytest.raises(SchemaError):
        Field("not a name")


def test_field_rejects_exotic_types():
    with pytest.raises(SchemaError):
        Field("x", type=complex)


def test_coerce_string_to_int():
    assert Field("n", int).coerce("42") == 42


def test_coerce_failure_returns_none():
    assert Field("n", int).coerce("not-a-number") is None


def test_coerce_bool_from_string():
    field = Field("b", bool)
    assert field.coerce("yes") is True
    assert field.coerce("no") is False


def test_coerce_none_passthrough():
    assert Field("n", int).coerce(None) is None


def test_coerce_object_is_identity():
    value = {"anything": [1, 2]}
    assert Field("v", object).coerce(value) is value


def test_schema_rejects_duplicate_names():
    with pytest.raises(SchemaError):
        Schema([Field("a"), Field("a")])


def test_schema_lookup_and_contains():
    schema = Schema([Field("a"), Field("b")])
    assert "a" in schema
    assert schema["a"].name == "a"
    with pytest.raises(SchemaError):
        schema["missing"]


def test_schema_validate_reports_problems():
    schema = Schema([Field("a", int), Field("b", str)])
    record = DataRecord({"a": "not-int"})
    problems = record_problems(schema, record)
    assert any("missing field 'b'" in problem for problem in problems)
    assert any("expected int" in problem for problem in problems)


def test_schema_validate_clean_record():
    schema = Schema([Field("a", int)])
    assert record_problems(schema, DataRecord({"a": 5})) == []


def test_builtin_schemas_shape():
    assert "contents" in TEXT_FILE_SCHEMA
    assert EMAIL_SCHEMA.field_names() == ["filename", "sender", "subject", "body"]
