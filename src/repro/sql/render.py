"""The static pass: one parsed SELECT becomes one sqlite statement.

``repro.sql`` keeps its dialect; stdlib ``sqlite3`` executes it.  One walk
over the AST resolves every name against the catalog, types every
expression — ``NULL`` (always NULL), ``BOOLEAN``, ``NUMBER`` or ``TEXT`` —
from the declared column types (a column with no non-NULL value is
``NULL``), raises the dialect's typed errors, and renders sqlite text
whose answer is the dialect's wherever sqlite's own would differ (the
table is in ``docs/architecture.md``, Layer 2).  A type error is decided
here, over types rather than rows, so it raises whether or not sqlite
would reach the expression.  Uncorrelated subqueries run first, through
``run``, and bind as parameters: a scalar subquery of several rows
raises, and ``IN`` over no rows is FALSE.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, NamedTuple

from repro.errors import SQLExecutionError, SQLPlanError
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
    Select,
    Star,
    Subquery,
    UnaryOp,
    walk_expression,
)
from repro.sql.parser import AGGREGATE_FUNCTIONS

NULL, BOOL, NUMBER, TEXT = "NULL", "BOOLEAN", "NUMBER", "TEXT"

#: Static type of a declared column's values, by its Python type.
KIND_OF = {bool: BOOL, int: NUMBER, float: NUMBER, str: TEXT}


def _by_nonzero(apply: Callable[[Any, Any], Any], word: str) -> Callable[[Any, Any], Any]:
    def checked(left: Any, right: Any) -> Any:
        if right == 0:
            raise SQLExecutionError(f"{word} by zero")
        return apply(left, right)

    return checked


#: Python's operators where sqlite's built-in differs (integer ``/``,
#: ``%`` with the dividend's sign, half-away ``round``, ASCII-only case
#: mapping); the connection registers each NULL-in, NULL-out.
UDFS: dict[str, Callable[..., Any]] = {
    "py_div": _by_nonzero(operator.truediv, "division"),
    "py_mod": _by_nonzero(operator.mod, "modulo"),
    "py_round": lambda value, digits: round(value, int(digits)),
    "py_upper": str.upper,
    "py_lower": str.lower,
}

#: Scalar function -> (argument types, fewest arguments, result type or
#: None for the first argument's, sqlite function).
_SCALARS: dict[str, tuple[tuple[str, ...], int, str | None, str]] = {
    "upper": ((TEXT,), 1, TEXT, "py_upper"),
    "lower": ((TEXT,), 1, TEXT, "py_lower"),
    "length": ((TEXT,), 1, NUMBER, "length"),
    "abs": ((NUMBER,), 1, NUMBER, "abs"),
    "round": ((NUMBER, NUMBER), 1, None, "py_round"),
    "substr": ((TEXT, NUMBER, NUMBER), 2, TEXT, "substr"),
}


class Binding(NamedTuple):
    """One FROM entry: its SQL name, sqlite alias and typed columns."""

    name: str
    alias: str
    columns: list[str]
    kinds: list[str]


def render_select(statement: Select, resolve: Callable, run: Callable) -> tuple:
    """``(sqlite text, parameters, column names, column types)``.

    ``resolve(table)`` gives a catalog table's sqlite name, column names
    and column types; ``run(select)`` answers a subquery with its column
    names, rows and column types.
    """
    renderer = _Renderer(resolve, run)
    sql, columns, kinds = renderer.select(statement)
    return sql, renderer.params, columns, kinds


def _unify(kinds: list[str], what: str) -> str:
    present = sorted(set(kinds) - {NULL})
    if len(present) > 1:
        raise SQLPlanError(f"{what} mixes {' and '.join(present)} values")
    return present[0] if present else NULL


class _Renderer:
    def __init__(self, resolve, run) -> None:
        self._resolve = resolve
        self._run = run
        self.scope: list[Binding] = []
        self.params: dict[str, Any] = {}

    def param(self, value: Any) -> str:
        key = f"p{len(self.params)}"
        self.params[key] = value
        return f":{key}"

    def select(self, statement: Select) -> tuple[str, list[str], list[str]]:
        sql = ""
        if statement.table is not None:
            sql += " FROM " + self._bind(statement.table.name, statement.table.binding)
            for join in statement.joins:
                if any(entry.name == join.table.binding for entry in self.scope):
                    raise SQLPlanError(f"duplicate table binding {join.table.binding!r} in FROM")
                table = self._bind(join.table.name, join.table.binding)
                kind = "LEFT JOIN" if join.kind == "left" else "JOIN"
                sql += f" {kind} {table} ON {self.condition(join.condition, False)}"
        if statement.where is not None:
            sql += " WHERE " + self.condition(statement.where, False)
        aggregated = bool(statement.group_by) or statement.having is not None or any(
            isinstance(node, FuncCall) and node.name in AGGREGATE_FUNCTIONS
            for item in statement.items
            for node in walk_expression(item.expr)
        )
        pairs = self._expand(statement)
        columns = [name for name, _ in pairs]
        items = [self.expr(expr, aggregated) for _, expr in pairs]
        if statement.group_by:
            sql += " GROUP BY " + ", ".join(self.expr(key, False)[0] for key in statement.group_by)
        if statement.having is not None:
            sql += " HAVING " + self.condition(statement.having, True)

        positions = {name: position for position, name in enumerate(columns, 1)}
        order = []
        for expr, desc in statement.order_by:
            if isinstance(expr, ColumnRef) and expr.table is None and expr.name in positions:
                key = str(positions[expr.name])  # sqlite reads an integer K as output column K
            else:
                key = self.expr(expr, False)[0]
            order.append(f"{key}{' DESC' if desc else ''} NULLS LAST")
        # Ties and an unordered SELECT keep input order: left-major for
        # joins, a group at its first row.
        rowids = [f"{entry.alias}.rowid" for entry in self.scope]
        if rowids and not aggregated:
            order += rowids
        elif rowids:
            key = rowids[0] if len(rowids) == 1 else (
                f"printf('{'%020d' * len(rowids)}', {', '.join(rowids)})"
            )
            order.append(f"min({key})")
        if order:
            sql += " ORDER BY " + ", ".join(order)
        if statement.limit is not None:
            sql += " LIMIT " + self.param(statement.limit)
        distinct = "DISTINCT " if statement.distinct else ""
        select_list = ", ".join(text for text, _ in items) or "NULL"
        return f"SELECT {distinct}{select_list}{sql}", columns, [kind for _, kind in items]

    def _bind(self, table: str, binding: str) -> str:
        name, columns, kinds = self._resolve(table)
        alias = f"b{len(self.scope)}"
        self.scope.append(Binding(binding, alias, columns, kinds))
        return f"{name} AS {alias}"

    def _expand(self, statement: Select) -> list[tuple[str, Expr]]:
        """``(output name, expr)`` per output column, stars expanded."""
        pairs: list[tuple[str, Expr]] = []
        for index, item in enumerate(statement.items):
            star = item.expr.table if isinstance(item.expr, Star) else False
            if star is False:
                named = isinstance(item.expr, (ColumnRef, FuncCall))
                name = item.alias or (item.expr.name if named else f"expr_{index}")
                pairs.append((name, item.expr))
            elif star is not None and all(entry.name != star for entry in self.scope):
                raise SQLPlanError(f"unknown table {star!r} in star select")
            else:
                pairs += [
                    (column, ColumnRef(column, table=entry.name))
                    for entry in self.scope if star in (None, entry.name)
                    for column in entry.columns
                ]
        return pairs

    def condition(self, expr: Expr, aggregated: bool) -> str:
        """WHERE, ON, HAVING and CASE WHEN keep a row only on exactly TRUE,
        which a NUMBER or a TEXT never is."""
        text, kind = self.expr(expr, aggregated)
        return text if kind in (BOOL, NULL) else "0"

    def expr(self, node: Expr, aggregated: bool) -> tuple[str, str]:
        """``(sqlite text, static type)``; ``aggregated``: aggregates allowed."""
        if isinstance(node, Literal):
            if node.value is None:
                return "NULL", NULL
            if isinstance(node.value, bool):
                return str(int(node.value)), BOOL
            return self.param(node.value), TEXT if isinstance(node.value, str) else NUMBER
        if isinstance(node, ColumnRef):
            return self._column(node)
        if isinstance(node, BinaryOp):
            left, right = self.expr(node.left, aggregated), self.expr(node.right, aggregated)
            return self._binary(node.op, left, right)
        if isinstance(node, UnaryOp):
            operand, kind = self.expr(node.operand, aggregated)
            if node.op == "-" and kind in (NULL, NUMBER):
                return f"(-{operand})", kind
            if node.op == "not" and kind != TEXT:
                return f"(NOT {operand})", kind if kind == NULL else BOOL
            raise SQLExecutionError(f"cannot apply {node.op.upper()} to a {kind} value")
        if isinstance(node, FuncCall):
            if node.name in AGGREGATE_FUNCTIONS:
                return self._aggregate(node, aggregated)
            return self._scalar(node, [self.expr(arg, aggregated) for arg in node.args])
        if isinstance(node, Subquery):
            columns, rows, kinds = self._run(node.select)
            if len(columns) != 1:
                raise SQLPlanError("scalar subquery must return exactly one column")
            if len(rows) > 1:
                raise SQLExecutionError(f"scalar subquery returned {len(rows)} rows")
            if not rows or rows[0][0] is None:
                return "NULL", NULL
            return self.param(rows[0][0]), kinds[0]
        if isinstance(node, InSubquery):
            operand, kind = self.expr(node.operand, aggregated)
            columns, rows, kinds = self._run(node.select)
            if len(columns) != 1:
                raise SQLPlanError("IN subquery must return exactly one column")
            if not rows:  # FALSE (TRUE negated), even for a NULL operand
                return f"({operand} {'NOT ' if node.negated else ''}IN ())", BOOL
            options = [
                ("NULL", NULL) if value is None else (self.param(value), kinds[0])
                for (value,) in rows
            ]
            return self._membership(operand, kind, options, node.negated)
        if isinstance(node, InList):
            operand, kind = self.expr(node.operand, aggregated)
            options = [self.expr(option, aggregated) for option in node.options]
            if kind == NULL:
                return "NULL", NULL
            return self._membership(operand, kind, options, node.negated)
        if isinstance(node, Between):
            (operand, kind), (low, low_kind), (high, high_kind) = (
                self.expr(part, aggregated) for part in (node.operand, node.low, node.high)
            )
            self._comparable(low_kind, "<=", kind)
            self._comparable(kind, "<=", high_kind)
            word = "NOT BETWEEN" if node.negated else "BETWEEN"
            return f"({operand} {word} {low} AND {high})", NULL if kind == NULL else BOOL
        if isinstance(node, Like):
            (operand, kind), (pattern, pattern_kind) = (
                self.expr(node.operand, aggregated), self.expr(node.pattern, aggregated)
            )
            if {kind, pattern_kind} - {NULL, TEXT}:
                raise SQLExecutionError(f"LIKE expects TEXT, got {kind} LIKE {pattern_kind}")
            word = "NOT LIKE" if node.negated else "LIKE"
            return f"({operand} {word} {pattern})", NULL if NULL in (kind, pattern_kind) else BOOL
        if isinstance(node, IsNull):
            operand, _ = self.expr(node.operand, aggregated)
            return f"({operand} IS {'NOT ' if node.negated else ''}NULL)", BOOL
        if isinstance(node, CaseWhen):
            parts, kinds = [], []
            for condition, result in node.whens:
                text, kind = self.expr(result, aggregated)
                parts.append(f"WHEN {self.condition(condition, aggregated)} THEN {text}")
                kinds.append(kind)
            if node.otherwise is not None:
                text, kind = self.expr(node.otherwise, aggregated)
                parts.append(f"ELSE {text}")
                kinds.append(kind)
            return f"(CASE {' '.join(parts)} END)", _unify(kinds, "CASE")
        if isinstance(node, Star):
            raise SQLPlanError("* is only allowed at the top level of a select list")
        raise SQLPlanError(f"cannot evaluate expression node {type(node).__name__}")

    def _column(self, ref: ColumnRef) -> tuple[str, str]:
        if ref.table is not None:
            matches = [entry for entry in self.scope if entry.name == ref.table]
            if not matches:
                raise SQLExecutionError(
                    f"unknown table {ref.table!r} for column {ref.display()!r}"
                )
            if ref.name not in matches[0].columns:
                raise SQLExecutionError(f"no column {ref.display()!r}")
        else:
            matches = [entry for entry in self.scope if ref.name in entry.columns]
            if not matches:
                raise SQLExecutionError(f"no column named {ref.name!r} in scope")
            if len(matches) > 1:
                names = sorted(entry.name for entry in matches)
                raise SQLExecutionError(f"ambiguous column {ref.name!r}: present in {names}")
        index = matches[0].columns.index(ref.name)
        return f"{matches[0].alias}.c{index}", matches[0].kinds[index]

    @staticmethod
    def _comparable(left: str, op: str, right: str) -> None:
        if NULL not in (left, right) and left != right:
            raise SQLExecutionError(f"cannot compare {left} {op} {right} (mismatched types)")

    def _binary(self, op: str, left: tuple[str, str], right: tuple[str, str]) -> tuple[str, str]:
        (lhs, left_kind), (rhs, right_kind) = left, right
        kinds = {left_kind, right_kind}
        if op in ("and", "or"):
            if TEXT in kinds:
                raise SQLExecutionError(f"{op.upper()} expects booleans, got a TEXT value")
            return f"({lhs} {op.upper()} {rhs})", BOOL
        if op in ("=", "<>", "!="):
            if NULL in kinds or len(kinds) == 1:
                return f"({lhs} {op} {rhs})", NULL if NULL in kinds else BOOL
            # Across types: FALSE (inequality TRUE), NULL on a NULL side.
            differ = int(op != "=")
            return f"(CASE WHEN {lhs} IS NULL OR {rhs} IS NULL THEN NULL ELSE {differ} END)", BOOL
        if op in ("<", "<=", ">", ">="):
            self._comparable(left_kind, op, right_kind)
            return f"({lhs} {op} {rhs})", NULL if NULL in kinds else BOOL
        if op == "+" and kinds == {TEXT}:
            return f"({lhs} || {rhs})", TEXT
        if op not in ("+", "-", "*", "/", "%"):
            raise SQLPlanError(f"unknown binary operator {op!r}")
        if NULL not in kinds and kinds != {NUMBER}:
            wrong = sorted(kinds - {NUMBER})[0]
            raise SQLExecutionError(f"arithmetic {op!r} requires numbers, got a {wrong} value")
        kind = NULL if NULL in kinds else NUMBER
        function = {"/": "py_div", "%": "py_mod"}.get(op)
        return (f"{function}({lhs}, {rhs})" if function else f"({lhs} {op} {rhs})"), kind

    def _membership(
        self, operand: str, kind: str, options: list[tuple[str, str]], negated: bool
    ) -> tuple[str, str]:
        """``operand [NOT] IN options``: an option of another type never
        matches, so only NULLs and options of the operand's type render."""
        kept = [text for text, option_kind in options if option_kind in (NULL, kind)]
        if not kept:  # FALSE (TRUE negated), NULL on a NULL operand
            return f"(CASE WHEN {operand} IS NULL THEN NULL ELSE {int(negated)} END)", BOOL
        return f"({operand} {'NOT ' if negated else ''}IN ({', '.join(kept)}))", BOOL

    def _aggregate(self, node: FuncCall, aggregated: bool) -> tuple[str, str]:
        name = node.name.upper()
        if not aggregated:
            raise SQLPlanError(f"aggregate {name} is not allowed in this context")
        if node.star:  # every row reads as the value 1
            argument, kind = "1", NUMBER
        elif len(node.args) != 1:
            raise SQLPlanError(f"aggregate {name} takes exactly one argument")
        else:
            argument, kind = self.expr(node.args[0], False)
        if node.name in ("sum", "avg") and kind in (BOOL, TEXT):
            raise SQLExecutionError(f"{name} expects numeric input, got a {kind} value")
        distinct = "DISTINCT " if node.distinct else ""
        return f"{node.name}({distinct}{argument})", NUMBER if node.name == "count" else kind

    def _scalar(self, node: FuncCall, args: list[tuple[str, str]]) -> tuple[str, str]:
        texts, kinds = [text for text, _ in args], [kind for _, kind in args]
        if node.name == "coalesce":
            kind = _unify(kinds, "COALESCE")
            if len(args) < 2:  # sqlite's coalesce takes two or more
                return (texts[0] if args else "NULL"), kind
            return f"coalesce({', '.join(texts)})", kind
        if node.name not in _SCALARS:
            known = ", ".join(sorted([*_SCALARS, "coalesce"]) + sorted(AGGREGATE_FUNCTIONS))
            raise SQLPlanError(f"unknown function {node.name!r}; known: {known}")
        expected, fewest, result, function = _SCALARS[node.name]
        name = node.name.upper()
        if not fewest <= len(args) <= len(expected):
            raise SQLExecutionError(f"bad arguments to {name}: got {len(args)} arguments")
        for kind, wanted in zip(kinds, expected):
            if kind not in (NULL, wanted):
                raise SQLExecutionError(f"{name} expects {wanted}, got a {kind} value")
        if node.name == "round" and len(texts) == 1:
            texts.append("0")
        return f"{function}({', '.join(texts)})", NULL if NULL in kinds else result or kinds[0]
