"""Structured-predicate evaluation shared by every place a predicate runs.

The pushdown pass (``sem/optimizer/pushdown.py``) compiles structured
predicates, projections, and pre-aggregations into ``repro.sql`` execution
that runs before any LLM operator.  Structured operators left above the
scan (``PhysStructFilter`` / ``PhysStructAgg``) and the reference
interpreter (:mod:`repro.qa.reference`) must agree with the pushed-down
path bit-for-bit — including SQL three-valued NULL logic — so all of them
funnel through this module: one parse (``repro.sql.parser``), one engine
(stdlib ``sqlite3``, behind ``repro.sql.Database``), one semantics.  A
predicate over records runs as one sqlite SELECT per Python type
signature of the fields it reads (:func:`predicate_mask`), once per
operator input wherever it runs.

Conventions:

- A predicate is the expression grammar accepted inside ``WHERE``.  A
  record satisfies it only when it evaluates to exactly ``TRUE``;
  ``FALSE`` and ``NULL`` both drop the record.
- A referenced field missing from a record (or explicitly ``None``) reads
  as SQL ``NULL`` — that is what "projection of missing typed fields"
  means for semi-structured records.
- ``x IN (...)`` is ``TRUE`` on a match, else ``NULL`` if ``x`` or any
  element is ``NULL``, else ``FALSE``, so ``x NOT IN (1, NULL)`` keeps no
  record.  ``x BETWEEN lo AND hi`` is ``lo <= x AND x <= hi`` under
  three-valued AND, so ``5 NOT BETWEEN NULL AND 3`` is ``TRUE``.  These
  are sqlite's answers too; ``tests/test_sql_differential.py`` checks the
  engine against ``sqlite3``.
- Aggregations run through a real ``repro.sql`` table + SELECT, so GROUP
  BY grouping order, NULL handling, and empty-input behaviour are the SQL
  engine's, not a re-implementation.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Mapping, Sequence

from repro.errors import PlanError, SQLSyntaxError
from repro.sql.ast_nodes import (
    ColumnRef,
    Expr,
    FuncCall,
    InSubquery,
    Select,
    SelectItem,
    Star,
    Subquery,
    TableRef,
    walk_expression,
)
from repro.sql.database import Database
from repro.sql.parser import AGGREGATE_FUNCTIONS, parse_expression
from repro.sql.table import Column

@lru_cache(maxsize=512)
def compile_predicate(condition: str) -> Expr:
    """Parse and validate one structured predicate.

    Raises :class:`~repro.errors.PlanError` on syntax errors, aggregates,
    subqueries, or ``*`` — a predicate must be evaluable per record.
    """
    try:
        expr = parse_expression(condition)
    except SQLSyntaxError as exc:
        raise PlanError(f"invalid structured predicate {condition!r}: {exc}") from exc
    for node in walk_expression(expr):
        if isinstance(node, (Subquery, InSubquery)):
            raise PlanError(
                f"structured predicate {condition!r} may not contain a subquery"
            )
        if isinstance(node, Star):
            raise PlanError(f"structured predicate {condition!r} may not contain '*'")
        if isinstance(node, FuncCall) and (node.name in AGGREGATE_FUNCTIONS or node.star):
            raise PlanError(
                f"structured predicate {condition!r} may not aggregate "
                f"({node.name.upper()})"
            )
        if isinstance(node, ColumnRef) and node.table is not None:
            raise PlanError(
                f"structured predicate {condition!r} may not qualify columns "
                f"({node.display()!r}); records have a single scope"
            )
    return expr


def normalized_condition(condition: str) -> str:
    """Whitespace/case-insensitive canonical form for fingerprinting.

    Two spellings of the same predicate (``priority>=2`` vs
    ``priority >= 2``) parse to the same AST; its repr is the canonical
    token.  Materialization fingerprints use this so a filter inside a
    SqlScan and the same filter left above the scan share a token.
    """
    return repr(compile_predicate(condition))


def predicate_mask(expr: Expr, rows: Sequence[Mapping[str, Any]]) -> list[bool]:
    """Per row, whether a compiled predicate is exactly TRUE over its fields.

    Rows are grouped by the Python types of the referenced fields (``None``
    is a type of its own), and each group runs as one sqlite SELECT of the
    predicate over a table of its rows, so the static types inside a group
    are exact: a type error raises if, and only if, a row holds the values
    that commit it.
    """
    names = list(
        dict.fromkeys(node.name for node in walk_expression(expr) if isinstance(node, ColumnRef))
    )
    groups: dict[tuple[type, ...], list[int]] = {}
    for position, fields in enumerate(rows):
        signature = tuple(type(fields.get(name)) for name in names)
        groups.setdefault(signature, []).append(position)
    keep = [False] * len(rows)
    database = Database()
    for index, members in enumerate(groups.values()):
        table = f"group{index}"
        database.create_table_from_rows(
            table, [{name: rows[at].get(name) for name in names} for at in members]
        )
        statement = Select([SelectItem(expr)], table=TableRef(table))
        for at, (value,) in zip(members, database.select(statement).rows):
            keep[at] = value is True
    return keep


# ---------------------------------------------------------------------------
# Structured aggregation
# ---------------------------------------------------------------------------


def validate_aggregation(
    group_by: tuple[str, ...], aggregates: tuple[tuple[str, str], ...]
) -> None:
    """Fail fast on malformed struct_agg specs (at plan-build time)."""
    if not aggregates:
        raise PlanError("struct_agg needs at least one aggregate expression")
    seen: set[str] = set()
    for name in tuple(group_by) + tuple(alias for alias, _ in aggregates):
        if not name.isidentifier():
            raise PlanError(f"struct_agg output name {name!r} is not an identifier")
        if name in seen:
            raise PlanError(f"struct_agg output name {name!r} is duplicated")
        seen.add(name)
    for alias, expression in aggregates:
        try:
            expr = parse_expression(expression)
        except SQLSyntaxError as exc:
            raise PlanError(
                f"invalid aggregate expression {expression!r} for {alias!r}: {exc}"
            ) from exc
        nodes = list(walk_expression(expr))
        if any(isinstance(node, (Subquery, InSubquery)) for node in nodes):
            # A subquery would read run_aggregation's private table, not
            # the records.
            raise PlanError(
                f"aggregate expression {expression!r} for {alias!r} may not "
                f"contain a subquery"
            )
        if not any(
            isinstance(node, FuncCall) and (node.name in AGGREGATE_FUNCTIONS or node.star)
            for node in nodes
        ):
            raise PlanError(
                f"aggregate expression {expression!r} for {alias!r} contains "
                f"no aggregate function"
            )


def aggregation_sql(
    table: str, group_by: tuple[str, ...], aggregates: tuple[tuple[str, str], ...]
) -> str:
    """The SELECT a struct_agg runs (also shown by EXPLAIN).

    Group-by names and aliases are quoted identifiers, so a field named
    like a keyword (``order``) stays a column.
    """
    keys = [f'"{name}"' for name in group_by]
    items = keys + [f'{expression} AS "{alias}"' for alias, expression in aggregates]
    sql = f"SELECT {', '.join(items)} FROM {table}"
    if keys:
        sql += f" GROUP BY {', '.join(keys)}"
    return sql


def _aggregation_input_columns(
    group_by: tuple[str, ...], aggregates: tuple[tuple[str, str], ...]
) -> list[str]:
    columns = list(group_by)
    for _, expression in aggregates:
        for node in walk_expression(parse_expression(expression)):
            if isinstance(node, ColumnRef) and node.name not in columns:
                columns.append(node.name)
    return columns


def run_aggregation(
    rows: list[Mapping[str, Any]],
    group_by: tuple[str, ...],
    aggregates: tuple[tuple[str, str], ...],
) -> list[dict[str, Any]]:
    """Aggregate record fields through a real ``repro.sql`` SELECT.

    Builds an in-memory table from the rows (missing fields become NULL)
    and executes ``aggregation_sql``.  With zero input rows the table is
    created from the referenced columns (all TEXT) so SQL's empty-input
    semantics apply: GROUP BY yields no groups; a global aggregate yields
    one row (COUNT 0, SUM/AVG/MIN/MAX NULL).
    """
    database = Database()
    needed = _aggregation_input_columns(group_by, aggregates)
    table_rows = [
        {column: row.get(column) for column in needed} for row in rows
    ]
    if table_rows:
        database.create_table_from_rows("t", table_rows)
    else:
        database.create_table("t", [Column(name) for name in needed])
    return database.query(aggregation_sql("t", group_by, aggregates))
