"""Tests for the Database facade: tables enter through its API, not SQL text."""

import pytest

from repro.errors import SQLExecutionError
from repro.sql import Column, Database


def test_create_insert_count():
    db = Database()
    table = db.create_table("t", [Column("a", "integer")])
    for value in (1, 2, 3):
        table.insert_row([value])
    assert db.execute("SELECT COUNT(*) FROM t").scalar() == 3


def test_create_table_rejects_a_duplicate_unless_replace():
    db = Database()
    db.create_table("t", [Column("a", "integer")]).insert_row([1])
    with pytest.raises(SQLExecutionError, match="already exists"):
        db.create_table("t", [Column("a", "integer")])
    db.create_table("t", [Column("b", "text")], replace=True)
    assert db.table("t").column_names == ["b"] and len(db.table("t")) == 0


def test_insert_type_coercion_and_enforcement():
    db = Database()
    table = db.create_table("t", [Column("a", "integer"), Column("b", "real")])
    table.insert_row([1, 2])  # int into REAL promotes
    assert db.query("SELECT * FROM t")[0] == {"a": 1, "b": 2.0}
    with pytest.raises(SQLExecutionError):
        table.insert_row(["not-int", 1.0])


def test_insert_wrong_arity_rejected():
    db = Database()
    table = db.create_table("t", [Column("a", "integer"), Column("b", "text")])
    with pytest.raises(SQLExecutionError):
        table.insert_row([1])


def test_create_table_from_rows_infers_types():
    db = Database()
    table = db.create_table_from_rows(
        "inferred",
        [
            {"name": "x", "count": 3, "score": 1.5, "flag": True},
            {"name": "y", "count": 4, "score": 2.5, "flag": False, "extra": "late"},
        ],
    )
    type_map = {column.name: column.type_name for column in table.columns}
    assert type_map == {
        "name": "text", "count": "integer", "score": "real",
        "flag": "boolean", "extra": "text",
    }
    assert db.query("SELECT extra FROM inferred WHERE name = 'x'")[0]["extra"] is None


def test_create_table_from_rows_replace():
    db = Database()
    db.create_table_from_rows("t", [{"a": 1}])
    with pytest.raises(SQLExecutionError):
        db.create_table_from_rows("t", [{"a": 2}])
    db.create_table_from_rows("t", [{"a": 2}], replace=True)
    assert db.execute("SELECT a FROM t").scalar() == 2


def test_create_table_from_zero_rows_rejected():
    with pytest.raises(SQLExecutionError):
        Database().create_table_from_rows("t", [])


def test_table_names_sorted():
    db = Database()
    db.create_table("zeta", [Column("a", "int")])
    db.create_table("alpha", [Column("a", "int")])
    assert db.table_names() == ["alpha", "zeta"]


def test_result_scalar_requires_1x1():
    db = Database()
    db.create_table_from_rows("t", [{"a": 1}, {"a": 2}])
    with pytest.raises(SQLExecutionError):
        db.execute("SELECT a FROM t").scalar()
