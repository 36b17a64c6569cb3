"""Tests for SQL execution semantics."""

import pytest

from repro.errors import SQLExecutionError, SQLPlanError
from repro.sql import Database


@pytest.fixture
def db():
    database = Database()
    database.create_table_from_rows(
        "people",
        [
            {"name": "alice", "age": 34, "city": "boston"},
            {"name": "bob", "age": 28, "city": "nyc"},
            {"name": "carol", "age": 41, "city": "boston"},
            {"name": "dan", "age": None, "city": "nyc"},
        ],
    )
    return database


def test_where_filters(db):
    rows = db.query("SELECT name FROM people WHERE age > 30")
    assert {row["name"] for row in rows} == {"alice", "carol"}


def test_null_comparison_excluded_from_where(db):
    rows = db.query("SELECT name FROM people WHERE age > 0")
    assert "dan" not in {row["name"] for row in rows}


def test_is_null(db):
    rows = db.query("SELECT name FROM people WHERE age IS NULL")
    assert [row["name"] for row in rows] == ["dan"]


def test_arithmetic_and_alias(db):
    row = db.query("SELECT age * 2 AS doubled FROM people WHERE name = 'bob'")[0]
    assert row["doubled"] == 56


def test_string_concat_with_plus(db):
    row = db.query("SELECT name + '!' AS x FROM people WHERE name = 'bob'")[0]
    assert row["x"] == "bob!"


def test_division_by_zero_raises(db):
    with pytest.raises(SQLExecutionError):
        db.query("SELECT 1 / 0")


def test_group_by_with_aggregates(db):
    rows = db.query(
        "SELECT city, COUNT(*) AS n, AVG(age) AS avg_age FROM people "
        "GROUP BY city ORDER BY city"
    )
    assert rows[0] == {"city": "boston", "n": 2, "avg_age": 37.5}
    # NULL age is excluded from AVG but dan still counts in COUNT(*).
    assert rows[1]["n"] == 2 and rows[1]["avg_age"] == 28


def test_aggregate_without_group_by(db):
    assert db.execute("SELECT COUNT(*) FROM people").scalar() == 4
    assert db.execute("SELECT MAX(age) FROM people").scalar() == 41


def test_count_distinct(db):
    assert db.execute("SELECT COUNT(DISTINCT city) FROM people").scalar() == 2


def test_sum_of_empty_group_is_null(db):
    value = db.execute("SELECT SUM(age) FROM people WHERE age > 100").scalar()
    assert value is None


def test_having_filters_groups(db):
    rows = db.query(
        "SELECT city FROM people GROUP BY city HAVING COUNT(*) > 1 ORDER BY city"
    )
    assert len(rows) == 2  # both cities have 2


def test_order_by_desc_with_nulls_last(db):
    rows = db.query("SELECT name, age FROM people ORDER BY age DESC")
    assert rows[0]["name"] == "carol"
    assert rows[-1]["name"] == "dan"  # NULL sorts last


def test_order_by_asc_nulls_last(db):
    rows = db.query("SELECT name FROM people ORDER BY age")
    assert rows[-1]["name"] == "dan"


def test_limit(db):
    assert len(db.query("SELECT * FROM people LIMIT 2")) == 2


def test_distinct(db):
    rows = db.query("SELECT DISTINCT city FROM people ORDER BY city")
    assert [row["city"] for row in rows] == ["boston", "nyc"]


def test_in_list(db):
    rows = db.query("SELECT name FROM people WHERE city IN ('boston')")
    assert {row["name"] for row in rows} == {"alice", "carol"}


def test_between(db):
    rows = db.query("SELECT name FROM people WHERE age BETWEEN 28 AND 34")
    assert {row["name"] for row in rows} == {"alice", "bob"}


def test_like_patterns(db):
    rows = db.query("SELECT name FROM people WHERE name LIKE '%a%'")
    assert {row["name"] for row in rows} == {"alice", "carol", "dan"}
    rows = db.query("SELECT name FROM people WHERE name LIKE '_ob'")
    assert [row["name"] for row in rows] == ["bob"]


def test_case_when(db):
    rows = db.query(
        "SELECT name, CASE WHEN age >= 40 THEN 'senior' WHEN age >= 30 "
        "THEN 'mid' ELSE 'junior' END AS band FROM people WHERE age IS NOT NULL "
        "ORDER BY name"
    )
    assert [row["band"] for row in rows] == ["mid", "junior", "senior"]


def test_scalar_functions(db):
    row = db.query(
        "SELECT upper(name) u, length(city) l, coalesce(age, -1) c "
        "FROM people WHERE name = 'dan'"
    )[0]
    assert row == {"u": "DAN", "l": 3, "c": -1}


def test_inner_join():
    db = Database()
    db.create_table_from_rows("a", [{"id": 1, "v": "x"}, {"id": 2, "v": "y"}])
    db.create_table_from_rows(
        "b", [{"id": 1, "w": "p"}, {"id": 1, "w": "q"}, {"id": 3, "w": "r"}]
    )
    rows = db.query(
        "SELECT a.v, b.w FROM a JOIN b ON a.id = b.id ORDER BY b.w"
    )
    assert rows == [{"v": "x", "w": "p"}, {"v": "x", "w": "q"}]


def test_left_join_null_fills():
    db = Database()
    db.create_table_from_rows("a", [{"id": 1}, {"id": 2}])
    db.create_table_from_rows("b", [{"id": 1, "w": "p"}])
    rows = db.query("SELECT a.id, b.w FROM a LEFT JOIN b ON a.id = b.id ORDER BY a.id")
    assert rows == [{"id": 1, "w": "p"}, {"id": 2, "w": None}]


def test_ambiguous_column_rejected():
    db = Database()
    db.create_table_from_rows("a", [{"id": 1}])
    db.create_table_from_rows("b", [{"id": 1}])
    with pytest.raises(SQLExecutionError):
        db.query("SELECT id FROM a JOIN b ON a.id = b.id")


def test_unknown_column_error_names_scope(db):
    with pytest.raises(SQLExecutionError) as excinfo:
        db.query("SELECT nonexistent FROM people")
    assert "nonexistent" in str(excinfo.value)


def test_unknown_table_lists_known(db):
    with pytest.raises(SQLExecutionError) as excinfo:
        db.query("SELECT * FROM missing")
    assert "people" in str(excinfo.value)


def test_aggregate_in_where_rejected(db):
    with pytest.raises(SQLPlanError):
        db.query("SELECT * FROM people WHERE COUNT(*) > 1")


def test_select_without_from():
    assert Database().execute("SELECT 2 + 3 AS v").scalar() == 5


def test_mismatched_comparison_types_raise(db):
    with pytest.raises(SQLExecutionError):
        db.query("SELECT * FROM people WHERE name > 5")


def test_equality_across_types_is_false(db):
    rows = db.query("SELECT * FROM people WHERE name = 5")
    assert rows == []
