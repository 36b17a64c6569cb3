"""The SQL dialect as sqlite runs it: one named case per contract item.

``Database.execute`` renders each SELECT for stdlib ``sqlite3`` after a
static pass over the declared column types (``repro.sql.render``).  The
dialect stays the engine's own, so each rule sqlite would answer
differently is pinned here, and so is every error class: only a typed
``SQLError`` escapes, never a ``sqlite3.Error`` or an ``OverflowError``.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.records import DataRecord
from repro.errors import SQLError, SQLExecutionError, SQLPlanError
from repro.sem.batch import RecordBatch, struct_filter_mask
from repro.sem.structql import compile_predicate
from repro.sql import Column, Database
from tests.test_record_batch import predicate_holds


@pytest.fixture
def db():
    database = Database()
    database.create_table_from_rows(
        "t",
        [
            {"k": "c", "n": 3, "x": 2.5, "s": "Abc", "b": True},
            {"k": "a", "n": 1, "x": None, "s": "abc", "b": False},
            {"k": "b", "n": 2, "x": 0.5, "s": None, "b": None},
            {"k": "a", "n": 2, "x": 1.5, "s": "b", "b": True},
        ],
    )
    database.create_table_from_rows("u", [{"k": "a", "m": 10}, {"k": "c", "m": 30}])
    return database


def one(db, sql):
    return db.execute(sql).rows[0]


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------


def test_round_is_pythons_half_to_even_and_an_int_stays_an_int(db):
    row = one(db, "SELECT round(2.5), round(3.5), round(-0.5), round(7), round(2.675, 2)")
    assert row == (2.0, 4.0, -0.0, 7, 2.67)
    assert type(row[3]) is int


def test_true_division_and_python_modulo(db):
    assert one(db, "SELECT 7 / 2, -7 % 3, 7 % -3, 7.5 % 2") == (3.5, 2, -2, 1.5)


def test_zero_divisor_on_no_rows_raises_nothing(db):
    assert db.execute("SELECT n / 0 FROM t WHERE n > 10").rows == []


def test_like_is_case_sensitive(db):
    assert [row[0] for row in db.execute("SELECT s FROM t WHERE s LIKE 'a%'").rows] == ["abc"]


def test_upper_and_lower_are_pythons():
    db = Database()
    db.create_table_from_rows("w", [{"name": "straße"}])
    assert one(db, "SELECT upper(name), lower('ÉCOLE') FROM w") == ("STRASSE", "école")


def test_bools_round_trip_as_bools(db):
    rows = db.execute("SELECT b, NOT b, min(b) FROM t GROUP BY b").rows
    assert rows == [(True, False, True), (False, True, False), (None, None, None)]
    assert all(type(v) is bool for row in rows for v in row if v is not None)


@pytest.mark.parametrize(
    "sql, expected",
    [
        ("SELECT TRUE = 1", False),
        ("SELECT TRUE <> 1", True),
        ("SELECT 1 = '1'", False),
        ("SELECT NULL = '1'", None),
        ("SELECT TRUE IN (1, 2)", False),
        ("SELECT TRUE IN (1, NULL)", None),
        ("SELECT 1 IN ('1')", False),
    ],
)
def test_equality_across_types_is_false_or_null(db, sql, expected):
    assert one(db, sql) == (expected,)


@pytest.mark.parametrize(
    "sql",
    ["SELECT b < 1 FROM t", "SELECT * FROM t WHERE s > 5", "SELECT n BETWEEN 'a' AND 'z' FROM t"],
)
def test_ordering_across_types_raises(db, sql):
    with pytest.raises(SQLExecutionError, match="mismatched types"):
        db.execute(sql)


@pytest.mark.parametrize("sql", ["SELECT s * 2 FROM t", "SELECT -s FROM t", "SELECT NOT s FROM t"])
def test_arithmetic_or_not_on_text_raises(db, sql):
    with pytest.raises(SQLExecutionError):
        db.execute(sql)


def test_a_numeric_condition_is_never_true(db):
    # WHERE keeps a row only on exactly TRUE; a number is not TRUE.
    assert db.execute("SELECT k FROM t WHERE n").rows == []
    assert one(db, "SELECT CASE WHEN 1 THEN 'yes' ELSE 'no' END") == ("no",)


@pytest.mark.parametrize("condition", ["amount <> 1", "amount IS NULL", "amount < 3"])
def test_a_nan_field_reads_as_null_in_the_kernel_and_in_sqlite(condition):
    # sqlite stores a NaN as NULL; the vector path must agree row for row.
    records = [DataRecord({"amount": value}) for value in (float("nan"), 2.0, None)]
    mask = struct_filter_mask(compile_predicate(condition), RecordBatch(records))
    assert list(mask) == [predicate_holds(condition, r.fields) for r in records]


def test_a_column_with_no_value_compares_as_null():
    # run_aggregation's zero-row table declares TEXT columns; a typed
    # column holding only NULLs raises no type error, as with no rows.
    db = Database()
    table = db.create_table("e", [Column("amount", "text")])
    assert one(db, "SELECT sum(amount), count(*) FROM e") == (None, 0)
    table.insert_row([None])
    assert one(db, "SELECT sum(amount) + 1, max(amount) > 3 FROM e") == (None, None)
    table.insert_row(["x"])
    with pytest.raises(SQLExecutionError, match="SUM expects numeric"):
        db.execute("SELECT sum(amount) FROM e")


# ---------------------------------------------------------------------------
# Order
# ---------------------------------------------------------------------------


def test_rows_keep_input_order_and_ties_stay_in_it(db):
    assert [r[0] for r in db.execute("SELECT k FROM t").rows] == ["c", "a", "b", "a"]
    rows = db.execute("SELECT k, n FROM t ORDER BY n DESC").rows
    assert rows == [("c", 3), ("b", 2), ("a", 2), ("a", 1)]


def test_groups_and_distinct_rows_keep_first_appearance(db):
    assert db.execute("SELECT k, count(*) FROM t GROUP BY k").rows == [
        ("c", 1), ("a", 2), ("b", 1),
    ]
    assert db.execute("SELECT DISTINCT k FROM t").rows == [("c",), ("a",), ("b",)]


def test_joins_are_left_major(db):
    rows = db.execute("SELECT t.n, u.m FROM t JOIN u ON u.m > t.n").rows
    assert rows == [(3, 10), (3, 30), (1, 10), (1, 30), (2, 10), (2, 30), (2, 10), (2, 30)]
    rows = db.execute("SELECT t.k, u.m FROM t LEFT JOIN u ON u.k = t.k").rows
    assert rows == [("c", 30), ("a", 10), ("b", None), ("a", 10)]


# ---------------------------------------------------------------------------
# The catalog as the connection sees it
# ---------------------------------------------------------------------------


def test_a_query_sees_rows_inserted_and_tables_replaced_after_the_last_one():
    db = Database()
    table = db.create_table("t", [Column("a", "integer")])
    assert db.execute("SELECT count(*) FROM t").scalar() == 0
    table.insert_row([1])
    table.insert_row([2])
    assert db.execute("SELECT sum(a) FROM t").scalar() == 3
    db.create_table_from_rows("t", [{"a": "x"}], replace=True)
    assert db.query("SELECT a FROM t") == [{"a": "x"}]


# ---------------------------------------------------------------------------
# Typed errors only
# ---------------------------------------------------------------------------

ERRORS = [
    ("unknown-column", "SELECT nope FROM t", SQLExecutionError),
    ("ambiguous-column", "SELECT k FROM t JOIN u ON t.k = u.k", SQLExecutionError),
    ("qualified-unknown-column", "SELECT t.nope FROM t", SQLExecutionError),
    ("qualified-unknown-table", "SELECT v.k FROM t", SQLExecutionError),
    ("unknown-table", "SELECT * FROM nope", SQLExecutionError),
    ("unknown-function", "SELECT nope(n) FROM t", SQLPlanError),
    ("aggregate-arity", "SELECT sum(n, n) FROM t", SQLPlanError),
    ("scalar-arity", "SELECT upper(s, s) FROM t", SQLExecutionError),
    ("aggregate-in-where", "SELECT k FROM t WHERE count(*) > 1", SQLPlanError),
    ("nested-aggregate", "SELECT sum(count(*)) FROM t", SQLPlanError),
    ("mismatched-ordering", "SELECT k FROM t WHERE s < 1", SQLExecutionError),
    ("arithmetic-on-text", "SELECT s * 2 FROM t", SQLExecutionError),
    ("division-by-zero", "SELECT n / 0 FROM t", SQLExecutionError),
    ("modulo-by-zero", "SELECT n % 0 FROM t", SQLExecutionError),
    ("multi-row-scalar-subquery", "SELECT (SELECT n FROM t) AS v", SQLExecutionError),
    ("multi-column-subquery", "SELECT k FROM t WHERE n IN (SELECT n, k FROM t)", SQLPlanError),
    ("int-outside-int64", "SELECT 9223372036854775808", SQLExecutionError),
    ("int-outside-int64-sum", "SELECT sum(n + 9223372036854775000) FROM t", SQLExecutionError),
    ("mixed-case-results", "SELECT CASE WHEN b THEN n ELSE s END FROM t", SQLPlanError),
]


@pytest.mark.parametrize(
    "sql, error", [case[1:] for case in ERRORS], ids=[case[0] for case in ERRORS]
)
def test_each_error_is_typed(db, sql, error):
    with pytest.raises(error):
        db.execute(sql)


def test_an_int_outside_int64_in_a_table_or_record_is_typed():
    db = Database()
    db.create_table_from_rows("big", [{"v": 2**63}])
    with pytest.raises(SQLExecutionError):
        db.execute("SELECT v FROM big")
    with pytest.raises(SQLExecutionError):
        predicate_holds("v > 1", {"v": 2**63})


#: Leaves of every type, so operators meet operands they reject.
LEAVES = st.sampled_from(
    ["n", "x", "s", "b", "k", "nope", "t.n", "u.m", "NULL", "TRUE", "0", "2", "2.5", "'a'",
     "9223372036854775808", "(SELECT n FROM t)", "(SELECT m FROM u WHERE m > 99)"]
)
BINARY = ["+", "-", "*", "/", "%", "=", "<>", "<", ">=", "AND", "OR"]
FUNCTIONS = [
    "upper", "length", "abs", "round", "substr", "coalesce", "sum", "min", "count", "nope",
]


def _expressions(depth: int):
    if depth == 0:
        return LEAVES
    sub = _expressions(depth - 1)
    return st.one_of(
        sub,
        st.tuples(sub, st.sampled_from(BINARY), sub).map(lambda p: f"({p[0]} {p[1]} {p[2]})"),
        sub.map(lambda e: f"(NOT {e})"),
        sub.map(lambda e: f"(-{e})"),
        st.tuples(st.sampled_from(FUNCTIONS), st.lists(sub, max_size=3)).map(
            lambda p: f"{p[0]}({', '.join(p[1])})"
        ),
        st.tuples(sub, sub, sub).map(lambda p: f"({p[0]} BETWEEN {p[1]} AND {p[2]})"),
        st.tuples(sub, sub).map(lambda p: f"({p[0]} LIKE {p[1]})"),
        st.tuples(sub, st.lists(sub, min_size=1, max_size=3)).map(
            lambda p: f"({p[0]} IN ({', '.join(p[1])}))"
        ),
        st.tuples(sub, sub).map(lambda p: f"({p[0]} IN (SELECT n FROM t WHERE {p[1]}))"),
        st.tuples(sub, sub, sub).map(lambda p: f"(CASE WHEN {p[0]} THEN {p[1]} ELSE {p[2]} END)"),
    )


EXPRESSIONS = _expressions(2)
ILL_TYPED = settings(
    max_examples=300, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)


@ILL_TYPED
@given(
    item=EXPRESSIONS,
    where=EXPRESSIONS,
    tail=st.sampled_from(
        ["", " GROUP BY k", " ORDER BY 1 DESC", " GROUP BY k HAVING count(*) > 1"]
    ),
    join=st.sampled_from(["", " JOIN u ON u.k = t.k", " LEFT JOIN u ON u.m > t.n"]),
)
def test_only_typed_errors_escape_execute(item, where, tail, join):
    db = Database()
    db.create_table_from_rows(
        "t",
        [
            {"k": "a", "n": 1, "x": 0.5, "s": "x", "b": True},
            {"k": "b", "n": 0, "x": None, "s": None, "b": False},
        ],
    )
    db.create_table_from_rows("u", [{"k": "a", "m": 10}])
    try:
        db.execute(f"SELECT {item} FROM t{join} WHERE {where}{tail}")
    except SQLError:
        pass


FIELD_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.sampled_from([2**63, -(2**63) - 1]),
    st.floats(-2, 2, allow_nan=False), st.text(alphabet="ab", max_size=2),
)


@ILL_TYPED
@given(
    condition=EXPRESSIONS.filter(lambda e: "SELECT" not in e and "." not in e.replace("2.5", "")),
    fields=st.dictionaries(st.sampled_from(["n", "x", "s", "b", "k"]), FIELD_VALUES),
)
def test_only_typed_errors_escape_predicate_holds(condition, fields):
    from repro.errors import PlanError

    try:
        predicate_holds(condition, fields)
    except (SQLError, PlanError):
        pass
