"""Tests for the SQL parser."""

import pytest

from repro.errors import SQLSyntaxError
from repro.sql.ast_nodes import (
    Between,
    BinaryOp,
    CaseWhen,
    ColumnRef,
    FuncCall,
    InList,
    IsNull,
    Like,
    Literal,
    Select,
    Star,
)
from repro.sql.parser import parse_sql


def test_simple_select_star():
    stmt = parse_sql("SELECT * FROM t")
    assert isinstance(stmt, Select)
    assert isinstance(stmt.items[0].expr, Star)
    assert stmt.table.name == "t"


def test_select_with_aliases():
    stmt = parse_sql("SELECT a AS x, b y FROM t z")
    assert stmt.items[0].alias == "x"
    assert stmt.items[1].alias == "y"
    assert stmt.table.alias == "z"


def test_operator_precedence_arithmetic():
    stmt = parse_sql("SELECT 1 + 2 * 3")
    expr = stmt.items[0].expr
    assert isinstance(expr, BinaryOp) and expr.op == "+"
    assert isinstance(expr.right, BinaryOp) and expr.right.op == "*"


def test_and_binds_tighter_than_or():
    stmt = parse_sql("SELECT * FROM t WHERE a OR b AND c")
    where = stmt.where
    assert where.op == "or"
    assert isinstance(where.right, BinaryOp) and where.right.op == "and"


def test_between_parses_bounds():
    stmt = parse_sql("SELECT * FROM t WHERE x BETWEEN 1 AND 5 AND y = 2")
    # outer AND with BETWEEN on the left
    assert stmt.where.op == "and"
    assert isinstance(stmt.where.left, Between)


def test_not_in_list():
    stmt = parse_sql("SELECT * FROM t WHERE x NOT IN (1, 2)")
    assert isinstance(stmt.where, InList) and stmt.where.negated


def test_is_not_null():
    stmt = parse_sql("SELECT * FROM t WHERE x IS NOT NULL")
    assert isinstance(stmt.where, IsNull) and stmt.where.negated


def test_like():
    stmt = parse_sql("SELECT * FROM t WHERE name LIKE 'fw:%'")
    assert isinstance(stmt.where, Like)


def test_group_by_having_order_limit():
    stmt = parse_sql(
        "SELECT a, COUNT(*) AS n FROM t GROUP BY a HAVING COUNT(*) > 1 "
        "ORDER BY n DESC, a LIMIT 10"
    )
    assert len(stmt.group_by) == 1
    assert stmt.having is not None
    assert stmt.order_by[0][1] is True  # DESC
    assert stmt.order_by[1][1] is False
    assert stmt.limit == 10


def test_count_star_and_distinct():
    stmt = parse_sql("SELECT COUNT(*), COUNT(DISTINCT a) FROM t")
    first, second = (item.expr for item in stmt.items)
    assert isinstance(first, FuncCall) and first.star
    assert isinstance(second, FuncCall) and second.distinct


def test_joins_inner_and_left():
    stmt = parse_sql(
        "SELECT * FROM a JOIN b ON a.id = b.id LEFT JOIN c ON a.id = c.id"
    )
    assert [join.kind for join in stmt.joins] == ["inner", "left"]


def test_qualified_column_and_star():
    stmt = parse_sql("SELECT t.a, t.* FROM t")
    assert isinstance(stmt.items[0].expr, ColumnRef)
    assert stmt.items[0].expr.table == "t"
    assert isinstance(stmt.items[1].expr, Star) and stmt.items[1].expr.table == "t"


def test_case_when():
    stmt = parse_sql("SELECT CASE WHEN a > 1 THEN 'big' ELSE 'small' END FROM t")
    expr = stmt.items[0].expr
    assert isinstance(expr, CaseWhen) and expr.otherwise is not None


def test_case_requires_when():
    with pytest.raises(SQLSyntaxError):
        parse_sql("SELECT CASE END FROM t")


def test_literals():
    stmt = parse_sql("SELECT NULL, TRUE, FALSE, 'str', 1.5")
    values = [item.expr.value for item in stmt.items]
    assert values == [None, True, False, "str", 1.5]
    assert all(isinstance(item.expr, Literal) for item in stmt.items)


@pytest.mark.parametrize(
    "statement",
    [
        pytest.param("CREATE TABLE t (a INTEGER, b TEXT, c REAL)", id="create_table"),
        pytest.param("CREATE TABLE IF NOT EXISTS t (a INT)", id="create_table_if_not_exists"),
        pytest.param("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')", id="insert"),
        pytest.param("UPDATE t SET a = 1 WHERE b = 'x'", id="update"),
        pytest.param("DELETE FROM t WHERE a > 1", id="delete"),
        pytest.param("DROP TABLE IF EXISTS t", id="drop_table_if_exists"),
    ],
)
def test_write_statements_are_read_only_syntax_errors(statement):
    with pytest.raises(SQLSyntaxError, match="read-only: expected SELECT"):
        parse_sql(statement)


def test_trailing_garbage_rejected():
    with pytest.raises(SQLSyntaxError):
        parse_sql("SELECT 1 FROM t garbage extra ,")


def test_missing_statement_rejected():
    with pytest.raises(SQLSyntaxError):
        parse_sql("ALTER TABLE t ADD COLUMN x INTEGER")


def test_limit_requires_integer():
    with pytest.raises(SQLSyntaxError):
        parse_sql("SELECT * FROM t LIMIT 1.5")


def test_semicolon_tolerated():
    assert isinstance(parse_sql("SELECT 1;"), Select)
