"""Tests for (uncorrelated) subqueries."""

import pytest

from repro.errors import SQLExecutionError, SQLPlanError
from repro.sql import Database


@pytest.fixture
def db():
    database = Database()
    database.create_table_from_rows(
        "sales",
        [
            {"region": "east", "amount": 100},
            {"region": "east", "amount": 300},
            {"region": "west", "amount": 200},
            {"region": "north", "amount": 50},
        ],
    )
    database.create_table_from_rows(
        "big_regions", [{"region": "east"}, {"region": "west"}]
    )
    return database


def test_scalar_subquery_in_select(db):
    value = db.execute("SELECT (SELECT MAX(amount) FROM sales) AS top").scalar()
    assert value == 300


def test_scalar_subquery_in_where(db):
    rows = db.query(
        "SELECT region, amount FROM sales "
        "WHERE amount > (SELECT AVG(amount) FROM sales)"
    )
    assert {row["region"] for row in rows} == {"east", "west"}


def test_scalar_subquery_in_arithmetic(db):
    rows = db.query(
        "SELECT region, amount * 100 / (SELECT SUM(amount) FROM sales) AS share "
        "FROM sales WHERE region = 'west'"
    )
    assert rows[0]["share"] == pytest.approx(200 * 100 / 650)


def test_in_subquery(db):
    rows = db.query(
        "SELECT DISTINCT region FROM sales "
        "WHERE region IN (SELECT region FROM big_regions) ORDER BY region"
    )
    assert [row["region"] for row in rows] == ["east", "west"]


def test_not_in_subquery(db):
    rows = db.query(
        "SELECT DISTINCT region FROM sales "
        "WHERE region NOT IN (SELECT region FROM big_regions)"
    )
    assert [row["region"] for row in rows] == ["north"]


def test_empty_scalar_subquery_is_null(db):
    value = db.execute(
        "SELECT (SELECT amount FROM sales WHERE region = 'missing') AS v"
    ).scalar()
    assert value is None


def test_multirow_scalar_subquery_rejected(db):
    with pytest.raises(SQLExecutionError):
        db.query("SELECT (SELECT amount FROM sales) AS v")


def test_multicolumn_subquery_rejected(db):
    with pytest.raises(SQLPlanError):
        db.query("SELECT * FROM sales WHERE amount > (SELECT region, amount FROM sales)")


def test_nested_subqueries(db):
    value = db.execute(
        "SELECT (SELECT MAX(amount) FROM sales WHERE amount < "
        "(SELECT MAX(amount) FROM sales)) AS second_highest"
    ).scalar()
    assert value == 200


def test_paper_parity_pz_module(legal_bundle):
    import repro.pz as pz
    from repro.data.datasets.kramabench import QUERY_RATIO

    runtime = pz.AnalyticsRuntime.for_bundle(legal_bundle, seed=4)
    ctx = pz.Context(
        legal_bundle.records(), legal_bundle.schema, desc=legal_bundle.description
    )
    found = pz.search(ctx, "information on identity thefts", runtime=runtime)
    out = pz.compute(found.output_context, QUERY_RATIO, runtime=runtime)
    assert out.answer["ratio"] == pytest.approx(
        legal_bundle.ground_truth["ratio"], rel=0.02
    )
