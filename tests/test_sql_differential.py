"""Differential oracle: the SELECT engine against stdlib ``sqlite3``.

A hypothesis generator builds typed tables with NULLs and SELECTs over
them: WHERE over AND/OR/NOT, IN (lists and subqueries), BETWEEN, LIKE,
IS NULL and CASE, plus GROUP BY with aggregates, DISTINCT, ORDER BY and
LIMIT.  Each query runs on ``repro.sql`` and on sqlite, and the answers
must be equal.  The same predicates and aggregates drive ``Dataset.where``
and ``struct_agg`` with the optimizer on and off, so the pushed-down scan,
the record-batch kernel and the per-row executor all answer to sqlite.

Every expression is rendered twice, once per dialect.  The engine's
dialect choices are translated, not skipped:

- NULLs sort last in both directions: sqlite gets ``NULLS LAST``.
- LIKE is case-sensitive: sqlite runs ``PRAGMA case_sensitive_like = ON``.
- Booleans are Python bools and sqlite's are 0/1, so results compare
  with bools as ints.
- ``/`` is true division: sqlite divides ``CAST(x AS REAL)``.
- ``+`` concatenates text and ``||`` does not parse: sqlite gets ``||``.
- ``%`` takes the divisor's sign, as in Python: sqlite gets
  ``((x % k) + k) % k``.

The default hypothesis profile runs each property at 2,000 examples (the
slow lane).  A loaded profile sets its own count, as the fast lane's
``--hypothesis-profile=fast`` does (registered in ``conftest.py``).
"""

from __future__ import annotations

import sqlite3
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.records import DataRecord
from repro.data.schemas import Field, Schema
from repro.errors import SQLSyntaxError
from repro.llm.simulated import SimulatedLLM
from repro.sem.config import QueryProcessorConfig
from repro.sem.dataset import Dataset
from repro.sql import Column, Database

#: Examples per property: 2,000 under hypothesis's default profile (the slow
#: lane); a loaded profile, such as the fast lane's ``fast``, sets its own.
EXAMPLES = (
    2000 if settings.get_current_profile_name() == "default" else settings.default.max_examples
)

DIFFERENTIAL = settings(
    max_examples=EXAMPLES,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: Column name -> engine type; ``id`` is the row's position.
COLUMNS = {"id": "integer", "i": "integer", "r": "real", "s": "text", "b": "boolean"}
SCHEMA = Schema(
    [Field("id", int), Field("i", int), Field("r", float), Field("s", str), Field("b", bool)]
)

# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


def _nullable(values):
    return st.one_of(st.none(), values)


ROW = st.tuples(
    _nullable(st.integers(-4, 4)),
    _nullable(st.integers(-8, 8).map(lambda v: v / 2)),
    _nullable(st.text(alphabet="abAB", max_size=3)),
    _nullable(st.booleans()),
)
TABLES = st.lists(ROW, max_size=8).map(
    lambda rows: [(index, *row) for index, row in enumerate(rows)]
)


def engine_db(rows) -> Database:
    db = Database()
    table = db.create_table("t", [Column(name, kind) for name, kind in COLUMNS.items()])
    for row in rows:
        table.insert_row(row)
    return db


def sqlite_db(rows) -> sqlite3.Connection:
    connection = sqlite3.connect(":memory:")
    connection.execute("PRAGMA case_sensitive_like = ON")
    columns = ", ".join(f"{name} {kind.upper()}" for name, kind in COLUMNS.items())
    connection.execute(f"CREATE TABLE t ({columns})")
    connection.executemany(f"INSERT INTO t VALUES ({', '.join('?' * len(COLUMNS))})", rows)
    return connection


# ---------------------------------------------------------------------------
# Expressions: (engine text, sqlite text) pairs, one strategy per type
# ---------------------------------------------------------------------------


def both(text: str) -> tuple[str, str]:
    return text, text


def render(template: str, *parts, lite: str | None = None) -> tuple[str, str]:
    """Fill ``template`` per dialect; ``lite`` overrides sqlite's template."""
    return (
        template.format(*(part[0] for part in parts)),
        (lite or template).format(*(part[1] for part in parts)),
    )


NULL = st.just(both("NULL"))
INT_LITERALS = st.integers(-4, 4).map(lambda v: both(str(v)))
REAL_LITERALS = st.integers(-8, 8).map(lambda v: both(repr(v / 2)))
DIVISORS = st.sampled_from([-3, -2, -1, 1, 2, 3, 0.5, 1.5]).map(lambda v: both(repr(v)))
MODULI = st.sampled_from([-3, -2, 2, 3]).map(lambda v: both(str(v)))
TEXT_LITERALS = st.text(alphabet="abAB", max_size=3).map(lambda v: both(f"'{v}'"))
PATTERNS = st.text(alphabet="abAB%_", max_size=4).map(lambda v: both(f"'{v}'"))
COMPARISONS = ["=", "<>", "!=", "<", "<=", ">", ">="]


def _binary(left, operators, right):
    """``(x op y)`` for ``op`` drawn from ``operators``."""
    return st.tuples(left, st.sampled_from(operators), right).map(
        lambda p: render("({} %s {})" % p[1], p[0], p[2])
    )


def _case(condition, then):
    """``CASE WHEN c THEN x [ELSE y] END`` with ``x``/``y`` from ``then``."""
    return st.one_of(
        st.tuples(condition, then, then).map(
            lambda p: render("(CASE WHEN {} THEN {} ELSE {} END)", *p)
        ),
        st.tuples(condition, then).map(lambda p: render("(CASE WHEN {} THEN {} END)", *p)),
    )


@lru_cache(maxsize=None)
def ints(depth: int):
    leaves = st.one_of(st.just(both("i")), INT_LITERALS, NULL)
    if depth == 0:
        return leaves
    sub = ints(depth - 1)
    return st.one_of(
        leaves,
        _binary(sub, "+-*", sub),
        st.tuples(sub, MODULI).map(
            lambda p: render("({} % {})", *p, lite="((({0} % {1}) + {1}) % {1})")
        ),
        sub.map(lambda p: render("(-({}))", p)),
        texts(depth - 1).map(lambda p: render("length({})", p)),
        st.tuples(sub, sub).map(lambda p: render("coalesce({}, {})", *p)),
        _case(bools(depth - 1, False), sub),
    )


@lru_cache(maxsize=None)
def nums(depth: int, exact: bool = False):
    """Numbers; ``exact`` ones (no division) sum without rounding."""
    leaves = st.one_of(ints(depth), st.just(both("r")), REAL_LITERALS)
    if depth == 0:
        return leaves
    sub = nums(depth - 1, exact)
    options = [
        leaves,
        _binary(sub, "+-*", sub),
        st.tuples(sub, sub).map(lambda p: render("coalesce({}, {})", *p)),
        _case(bools(depth - 1, False), sub),
    ]
    if not exact:
        options.append(
            st.tuples(sub, DIVISORS).map(
                lambda p: render("({} / {})", *p, lite="(CAST({} AS REAL) / {})")
            )
        )
    return st.one_of(*options)


@lru_cache(maxsize=None)
def texts(depth: int):
    leaves = st.one_of(st.just(both("s")), TEXT_LITERALS, NULL)
    if depth == 0:
        return leaves
    sub = texts(depth - 1)
    return st.one_of(
        leaves,
        st.tuples(sub, sub).map(lambda p: render("({} + {})", *p, lite="({} || {})")),
        st.tuples(st.sampled_from(["upper", "lower"]), sub).map(
            lambda p: render(p[0] + "({})", p[1])
        ),
        st.tuples(sub, sub).map(lambda p: render("coalesce({}, {})", *p)),
        _case(bools(depth - 1, False), sub),
    )


def _in_list(operand, option):
    return st.tuples(
        st.sampled_from(["IN", "NOT IN"]), operand, st.lists(option, min_size=1, max_size=4)
    ).map(
        lambda p: render(
            "({} %s (%s))" % (p[0], ", ".join("{}" for _ in p[2])), p[1], *p[2]
        )
    )


def _in_subquery(operand, column: str):
    return st.tuples(
        st.sampled_from(["IN", "NOT IN"]), operand, _predicates(0, subqueries=False)
    ).map(
        lambda p: render("({} %s (SELECT %s FROM t WHERE {}))" % (p[0], column), p[1], p[2])
    )


def _between(operand):
    return st.tuples(st.sampled_from(["BETWEEN", "NOT BETWEEN"]), operand, operand, operand).map(
        lambda p: render("({} %s {} AND {})" % p[0], *p[1:])
    )


@lru_cache(maxsize=None)
def bools(depth: int, subqueries: bool = True):
    leaves = st.one_of(
        st.just(both("b")), st.sampled_from(["TRUE", "FALSE"]).map(both), NULL
    )
    if depth == 0:
        return leaves
    return st.one_of(leaves, _predicates(depth - 1, subqueries))


@lru_cache(maxsize=None)
def _predicates(depth: int, subqueries: bool):
    """Boolean expressions with at least one operator."""
    num, text, flag = nums(depth), texts(depth), bools(depth, subqueries)
    options = [
        _binary(num, COMPARISONS, num),
        _binary(text, COMPARISONS, text),
        _binary(flag, ["=", "<>"], flag),
        _binary(flag, ["AND", "OR"], flag),
        flag.map(lambda p: render("(NOT {})", p)),
        st.tuples(st.one_of(num, text, flag), st.sampled_from(["IS NULL", "IS NOT NULL"])).map(
            lambda p: render("({} %s)" % p[1], p[0])
        ),
        _in_list(num, st.one_of(INT_LITERALS, REAL_LITERALS, NULL, num)),
        _in_list(text, st.one_of(TEXT_LITERALS, NULL, text)),
        _between(num),
        _between(text),
        st.tuples(st.sampled_from(["LIKE", "NOT LIKE"]), text, st.one_of(PATTERNS, text)).map(
            lambda p: render("({} %s {})" % p[0], p[1], p[2])
        ),
        _case(flag, flag),
    ]
    if subqueries:
        options += [
            _in_subquery(num, "i"),
            _in_subquery(num, "r"),
            _in_subquery(text, "s"),
        ]
    return st.one_of(*options)


PREDICATES = bools(2)
ROW_PREDICATES = bools(2, subqueries=False)  # Dataset.where refuses subqueries
WHERE = st.one_of(st.just(both("")), PREDICATES.map(lambda p: render(" WHERE {}", p)))
DISTINCT = st.sampled_from(["", "DISTINCT "])
GROUP_KEYS = st.lists(st.sampled_from(["i", "r", "s", "b"]), unique=True, max_size=2)


@lru_cache(maxsize=None)
def values(depth: int, subqueries: bool = True):
    """Any typed expression (a projection or an aggregate's argument)."""
    return st.one_of(nums(depth), texts(depth), bools(depth, subqueries))


@lru_cache(maxsize=None)
def aggregates(subqueries: bool):
    """Aggregate calls over row expressions (``struct_agg`` runs its SELECT
    over a table of its own, so its arguments name no other table)."""
    return st.one_of(
        st.just(both("count(*)")),
        st.tuples(st.sampled_from(["count", "min", "max"]), DISTINCT, values(1, subqueries)).map(
            lambda p: render(f"{p[0]}({p[1]}{{}})", p[2])
        ),
        st.tuples(st.sampled_from(["sum", "avg"]), DISTINCT, nums(1, exact=True)).map(
            lambda p: render(f"{p[0]}({p[1]}{{}})", p[2])
        ),
    )


HAVING = st.one_of(
    st.just(both("")),
    _binary(
        st.sampled_from(["count(i)", "sum(i)", "min(i)", "max(i)"]).map(both),
        COMPARISONS,
        INT_LITERALS,
    ).map(lambda p: render(" HAVING {}", p)),
)

# ---------------------------------------------------------------------------
# SELECT statements
# ---------------------------------------------------------------------------


def _order_and_limit(draw, aliases: list[str]) -> tuple[tuple[str, str], bool]:
    """Optional ORDER BY over output aliases (completed to a total order,
    so LIMIT is deterministic) and LIMIT; returns the clause and whether
    the output order is defined."""
    if not draw(st.booleans()):
        return both(""), False
    keys = draw(st.permutations(aliases))
    directions = draw(st.lists(st.booleans(), min_size=len(keys), max_size=len(keys)))
    engine = ", ".join(f"{key}{' DESC' if desc else ''}" for key, desc in zip(keys, directions))
    lite = ", ".join(
        f"{key}{' DESC' if desc else ''} NULLS LAST" for key, desc in zip(keys, directions)
    )
    limit = draw(st.one_of(st.just(""), st.integers(0, 5).map(lambda n: f" LIMIT {n}")))
    return (f" ORDER BY {engine}{limit}", f" ORDER BY {lite}{limit}"), True


@st.composite
def plain_selects(draw):
    items = draw(st.lists(values(2), min_size=1, max_size=3))
    aliases = [f"c{index}" for index in range(len(items))]
    select_list = render(", ".join(f"{{}} AS {alias}" for alias in aliases), *items)
    distinct = draw(DISTINCT)
    where = draw(WHERE)
    tail, ordered = _order_and_limit(draw, aliases)
    return render(f"SELECT {distinct}{{}} FROM t{{}}{{}}", select_list, where, tail), ordered


@st.composite
def grouped_selects(draw):
    keys = draw(GROUP_KEYS)
    calls = draw(st.lists(aggregates(True), min_size=1, max_size=3))
    key_aliases = [f"k{index}" for index in range(len(keys))]
    call_aliases = [f"c{index}" for index in range(len(calls))]
    select_list = render(
        ", ".join(
            [f"{key} AS {alias}" for key, alias in zip(keys, key_aliases)]
            + [f"{{}} AS {alias}" for alias in call_aliases]
        ),
        *calls,
    )
    distinct = draw(DISTINCT)
    where = draw(WHERE)
    group = f" GROUP BY {', '.join(keys)}" if keys else ""
    having = draw(HAVING)
    tail, ordered = _order_and_limit(draw, key_aliases + call_aliases)
    sql = render(
        f"SELECT {distinct}{{}} FROM t{{}}{group}{{}}{{}}", select_list, where, having, tail
    )
    return sql, ordered


def _normalized(rows):
    return [tuple(int(v) if isinstance(v, bool) else v for v in row) for row in rows]


def assert_same_answer(rows, query, ordered):
    engine_sql, sqlite_sql = query
    got = engine_db(rows).execute(engine_sql)
    cursor = sqlite_db(rows).execute(sqlite_sql)
    expected = cursor.fetchall()
    assert got.columns == [column[0] for column in cursor.description]
    got_rows, expected_rows = _normalized(got.rows), _normalized(expected)
    if not ordered:
        got_rows, expected_rows = Counter(got_rows), Counter(expected_rows)
    assert got_rows == expected_rows, (engine_sql, sqlite_sql)


@pytest.mark.slow
@DIFFERENTIAL
@given(rows=TABLES, statement=st.one_of(plain_selects(), grouped_selects()))
def test_select_matches_sqlite(rows, statement):
    assert_same_answer(rows, *statement)


# ---------------------------------------------------------------------------
# Dataset.where and struct_agg (pushed down with optimize on, row-mode off)
# ---------------------------------------------------------------------------


def _dataset(rows) -> Dataset:
    """Records over ``rows``: on odd rows a NULL is a missing field, on even
    rows an explicit ``None`` (both read as NULL)."""
    records = [
        DataRecord(
            {
                name: value
                for name, value in zip(COLUMNS, row)
                if value is not None or index % 2 == 0
            }
        )
        for index, row in enumerate(rows)
    ]
    return Dataset.from_records(records, SCHEMA)


def _run(dataset: Dataset, optimize: bool) -> list[dict]:
    config = QueryProcessorConfig(llm=SimulatedLLM(seed=0), optimize=optimize)
    return [record.fields for record in dataset.run(config).records]


@pytest.mark.slow
@DIFFERENTIAL
@given(
    rows=TABLES,
    predicate=ROW_PREDICATES,
    keys=GROUP_KEYS,
    calls=st.lists(aggregates(False), min_size=1, max_size=3),
)
def test_dataset_where_and_struct_agg_match_sqlite(rows, predicate, keys, calls):
    connection = sqlite_db(rows)
    kept = [
        row[0] for row in connection.execute(f"SELECT id FROM t WHERE {predicate[1]} ORDER BY id")
    ]
    aliases = [f"c{index}" for index in range(len(calls))]
    items = keys + [f"{call[1]} AS {alias}" for call, alias in zip(calls, aliases)]
    sql = f"SELECT {', '.join(items)} FROM t WHERE {predicate[1]}"
    if keys:
        sql += f" GROUP BY {', '.join(keys)}"
    groups = Counter(_normalized(connection.execute(sql).fetchall()))

    where = _dataset(rows).where(predicate[0])
    aggregated = where.struct_agg(
        [(alias, call[0]) for call, alias in zip(calls, aliases)], group_by=keys
    )
    for optimize in (False, True):
        assert [fields["id"] for fields in _run(where, optimize)] == kept, (predicate, optimize)
        got = [
            tuple(fields[name] for name in keys + aliases)
            for fields in _run(aggregated, optimize)
        ]
        assert Counter(_normalized(got)) == groups, (sql, optimize)


# ---------------------------------------------------------------------------
# Pinned cases: the three NULL rules and the translated dialect choices
# ---------------------------------------------------------------------------

#: ``t(i) = {1, 2, NULL, 5}``: one row per outcome of each NULL rule.
ONE_TWO_NULL_FIVE = [
    (index, value, None, None, None) for index, value in enumerate([1, 2, None, 5])
]


@pytest.mark.parametrize(
    "predicate, kept",
    [
        ("i NOT IN (1, NULL)", []),
        ("NOT (i IN (1, NULL))", []),
        ("i IN (1, NULL)", [1]),
        ("i NOT BETWEEN NULL AND 3", [5]),
        ("i NOT IN (SELECT i FROM t WHERE i > 10)", [1, 2, None, 5]),
    ],
)
def test_null_logic_matches_sqlite(predicate, kept):
    query = both(f"SELECT i FROM t WHERE {predicate}")
    assert [row[0] for row in engine_db(ONE_TWO_NULL_FIVE).execute(query[0]).rows] == kept
    assert_same_answer(ONE_TWO_NULL_FIVE, query, ordered=False)


def test_division_is_true_division():
    assert Database().execute("SELECT 7 / 2").scalar() == 3.5
    connection = sqlite_db([])
    assert connection.execute("SELECT 7 / 2").fetchone() == (3,)
    assert connection.execute("SELECT CAST(7 AS REAL) / 2").fetchone() == (3.5,)


def test_concatenation_is_plus_and_pipes_do_not_parse():
    with pytest.raises(SQLSyntaxError):
        Database().execute("SELECT 'a' || 'b'")
    assert Database().execute("SELECT 'a' + 'b'").scalar() == "ab"
    assert sqlite_db([]).execute("SELECT 'a' || 'b'").fetchone() == ("ab",)


def test_modulo_takes_the_divisors_sign():
    assert Database().execute("SELECT -7 % 3 AS a, 7 % -3 AS b").rows == [(2, -2)]
    connection = sqlite_db([])
    assert connection.execute("SELECT -7 % 3, 7 % -3").fetchone() == (-1, 1)
    translated = "SELECT ((-7 % 3) + 3) % 3, ((7 % -3) + -3) % -3"
    assert connection.execute(translated).fetchone() == (2, -2)
