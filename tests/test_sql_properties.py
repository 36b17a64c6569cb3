"""Property-based tests for the SQL engine (hypothesis).

These check engine invariants against a reference implementation in plain
Python over randomly generated tables.
"""

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql import Column, Database

pytestmark = pytest.mark.slow

rows_strategy = st.lists(
    st.tuples(
        st.integers(min_value=-100, max_value=100),
        st.sampled_from(["red", "green", "blue"]),
    ),
    min_size=0,
    max_size=25,
)


def _load(rows):
    db = Database()
    table = db.create_table("t", [Column("v", "integer"), Column("color", "text")])
    for row in rows:
        table.insert_row(row)
    return db


@given(rows_strategy)
@settings(max_examples=40, deadline=None)
def test_count_matches_python(rows):
    db = _load(rows)
    assert db.execute("SELECT COUNT(*) FROM t").scalar() == len(rows)


@given(rows_strategy, st.integers(min_value=-100, max_value=100))
@settings(max_examples=40, deadline=None)
def test_where_matches_python_filter(rows, threshold):
    db = _load(rows)
    got = db.execute(f"SELECT COUNT(*) FROM t WHERE v > {threshold}").scalar()
    assert got == sum(1 for value, _ in rows if value > threshold)


@given(rows_strategy)
@settings(max_examples=40, deadline=None)
def test_sum_matches_python(rows):
    db = _load(rows)
    expected = sum(value for value, _ in rows) if rows else None
    assert db.execute("SELECT SUM(v) FROM t").scalar() == expected


@given(rows_strategy)
@settings(max_examples=40, deadline=None)
def test_group_counts_partition_total(rows):
    db = _load(rows)
    groups = db.query("SELECT color, COUNT(*) AS n FROM t GROUP BY color")
    assert sum(row["n"] for row in groups) == len(rows)
    assert len(groups) == len({color for _, color in rows})


@given(rows_strategy)
@settings(max_examples=40, deadline=None)
def test_order_by_sorts(rows):
    db = _load(rows)
    values = [row["v"] for row in db.query("SELECT v FROM t ORDER BY v")]
    assert values == sorted(value for value, _ in rows)


@given(rows_strategy, st.integers(min_value=0, max_value=30))
@settings(max_examples=40, deadline=None)
def test_limit_bounds_output(rows, limit):
    db = _load(rows)
    got = db.query(f"SELECT v FROM t LIMIT {limit}")
    assert len(got) == min(limit, len(rows))


@given(rows_strategy)
@settings(max_examples=40, deadline=None)
def test_distinct_removes_duplicates(rows):
    db = _load(rows)
    colors = [row["color"] for row in db.query("SELECT DISTINCT color FROM t")]
    assert sorted(colors) == sorted({color for _, color in rows})


@given(rows_strategy)
@settings(max_examples=30, deadline=None)
def test_min_max_consistent(rows):
    db = _load(rows)
    low = db.execute("SELECT MIN(v) FROM t").scalar()
    high = db.execute("SELECT MAX(v) FROM t").scalar()
    if rows:
        assert low == min(value for value, _ in rows)
        assert high == max(value for value, _ in rows)
    else:
        assert low is None and high is None
