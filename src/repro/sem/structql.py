"""Structured-predicate evaluation shared by every place a predicate runs.

The pushdown pass (``sem/optimizer/pushdown.py``) compiles structured
predicates, projections, and pre-aggregations into ``repro.sql`` execution
that runs before any LLM operator.  Structured operators left above the
scan (``PhysStructFilter`` / ``PhysStructAgg``) and the reference
interpreter (:mod:`repro.qa.reference`) must agree with the pushed-down
path bit-for-bit — including SQL three-valued NULL logic — so all of them
funnel through this module: one parse (``repro.sql.parser``), one
evaluator (``repro.sql.executor``), one semantics.

Conventions:

- A predicate is the expression grammar accepted inside ``WHERE``.  A
  record satisfies it only when it evaluates to exactly ``TRUE``;
  ``FALSE`` and ``NULL`` both drop the record.
- A referenced field missing from a record (or explicitly ``None``) reads
  as SQL ``NULL`` — that is what "projection of missing typed fields"
  means for semi-structured records.
- Aggregations run through a real ``repro.sql`` table + SELECT, so GROUP
  BY grouping order, NULL handling, and empty-input behaviour are the SQL
  engine's, not a re-implementation.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Mapping

from repro.errors import PlanError
from repro.sql.ast_nodes import (
    Between,
    BinaryOp,
    CaseWhen,
    ColumnRef,
    Expr,
    FuncCall,
    InList,
    InSubquery,
    IsNull,
    Like,
    Literal,
    Star,
    Subquery,
    UnaryOp,
)
from repro.sql.database import Database
from repro.sql.executor import Executor
from repro.sql.functions import is_aggregate
from repro.sql.parser import parse_expression

#: Binding name records are exposed under when evaluating predicates.
_ROW_BINDING = "r"

#: One stateless evaluator is enough: predicates reject subqueries, the
#: only construct that reads the catalog.
_EVALUATOR = Executor({})


@lru_cache(maxsize=512)
def compile_predicate(condition: str) -> Expr:
    """Parse and validate one structured predicate.

    Raises :class:`~repro.errors.PlanError` on syntax errors, aggregates,
    subqueries, or ``*`` — a predicate must be evaluable per record.
    """
    from repro.errors import SQLSyntaxError

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
        if isinstance(node, FuncCall) and (is_aggregate(node.name) or node.star):
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


def walk_expression(expr: Expr):
    """Yield every node of an expression tree, root first."""
    yield expr
    if isinstance(expr, BinaryOp):
        yield from walk_expression(expr.left)
        yield from walk_expression(expr.right)
    elif isinstance(expr, UnaryOp):
        yield from walk_expression(expr.operand)
    elif isinstance(expr, FuncCall):
        for arg in expr.args:
            yield from walk_expression(arg)
    elif isinstance(expr, InList):
        yield from walk_expression(expr.operand)
        for option in expr.options:
            yield from walk_expression(option)
    elif isinstance(expr, InSubquery):
        yield from walk_expression(expr.operand)
    elif isinstance(expr, Between):
        yield from walk_expression(expr.operand)
        yield from walk_expression(expr.low)
        yield from walk_expression(expr.high)
    elif isinstance(expr, Like):
        yield from walk_expression(expr.operand)
        yield from walk_expression(expr.pattern)
    elif isinstance(expr, IsNull):
        yield from walk_expression(expr.operand)
    elif isinstance(expr, CaseWhen):
        for condition, outcome in expr.whens:
            yield from walk_expression(condition)
            yield from walk_expression(outcome)
        if expr.otherwise is not None:
            yield from walk_expression(expr.otherwise)


def normalized_condition(condition: str) -> str:
    """Whitespace/case-insensitive canonical form for fingerprinting.

    Two spellings of the same predicate (``priority>=2`` vs
    ``priority >= 2``) parse to the same AST; its repr is the canonical
    token.  Materialization fingerprints use this so a filter inside a
    SqlScan and the same filter left above the scan share a token.
    """
    return repr(compile_predicate(condition))


def evaluate_predicate(expr: Expr, fields: Mapping[str, Any]):
    """Three-valued evaluation of a compiled predicate over record fields.

    Returns ``True`` / ``False`` / ``None`` with exact SQL semantics —
    this is the ``repro.sql`` executor's own ``_eval``, handed an
    environment where every referenced-but-missing field is NULL.
    """
    scope = {
        node.name: fields.get(node.name)
        for node in walk_expression(expr)
        if isinstance(node, ColumnRef)
    }
    return _EVALUATOR._eval(expr, {_ROW_BINDING: scope})


def predicate_holds(condition: str, fields: Mapping[str, Any]) -> bool:
    """SQL WHERE semantics: keep only rows where the predicate is TRUE."""
    return evaluate_predicate(compile_predicate(condition), fields) is True


# ---------------------------------------------------------------------------
# Structured aggregation
# ---------------------------------------------------------------------------


def validate_aggregation(
    group_by: tuple[str, ...], aggregates: tuple[tuple[str, str], ...]
) -> None:
    """Fail fast on malformed struct_agg specs (at plan-build time)."""
    from repro.errors import SQLSyntaxError

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
        if not any(
            isinstance(node, FuncCall) and (is_aggregate(node.name) or node.star)
            for node in walk_expression(expr)
        ):
            raise PlanError(
                f"aggregate expression {expression!r} for {alias!r} contains "
                f"no aggregate function"
            )


def aggregation_sql(
    table: str, group_by: tuple[str, ...], aggregates: tuple[tuple[str, str], ...]
) -> str:
    """The SELECT a struct_agg runs (also shown by EXPLAIN)."""
    items = list(group_by) + [
        f"{expression} AS {alias}" for alias, expression in aggregates
    ]
    sql = f"SELECT {', '.join(items)} FROM {table}"
    if group_by:
        sql += f" GROUP BY {', '.join(group_by)}"
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
        from repro.sql.table import Column, Table

        database._catalog["t"] = Table("t", [Column(name) for name in needed])
    return database.query(aggregation_sql("t", group_by, aggregates))
