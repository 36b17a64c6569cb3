"""SELECT execution.

The executor interprets parsed SELECTs against a catalog of tables and
never writes to it.  It implements textbook semantics: nested-loop joins,
hash grouping, three-valued NULL handling in predicates (comparisons with
NULL yield NULL, IN and BETWEEN follow the standard's rules, and WHERE
keeps only rows where the predicate is exactly TRUE).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any

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
)
from repro.sql.functions import AGGREGATES, SCALARS, is_aggregate
from repro.sql.table import Table

#: An execution row: binding name -> {column -> value}.
Env = dict[str, dict[str, Any]]


@dataclass
class ResultSet:
    """Query output: ordered column names and row tuples."""

    columns: list[str]
    rows: list[tuple[Any, ...]]

    def to_dicts(self) -> list[dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def scalar(self) -> Any:
        """The single value of a 1x1 result (raises otherwise)."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise SQLExecutionError(
                f"scalar() requires a 1x1 result, got "
                f"{len(self.rows)}x{len(self.columns)}"
            )
        return self.rows[0][0]

    def __len__(self) -> int:
        return len(self.rows)


class Executor:
    """Executes SELECTs against a table catalog."""

    def __init__(self, catalog: dict[str, Table]) -> None:
        self._catalog = catalog

    def _table(self, name: str) -> Table:
        try:
            return self._catalog[name]
        except KeyError:
            known = ", ".join(sorted(self._catalog)) or "(none)"
            raise SQLExecutionError(
                f"no table named {name!r}; known tables: {known}"
            ) from None

    # -- SELECT ------------------------------------------------------------

    def execute(self, statement: Select) -> ResultSet:
        envs = self._row_stream(statement)
        if statement.where is not None:
            envs = [env for env in envs if self._eval(statement.where, env) is True]

        has_aggregates = any(
            self._contains_aggregate(item.expr) for item in statement.items
        ) or (statement.having is not None) or bool(statement.group_by)

        if has_aggregates:
            columns, out_rows, order_envs = self._aggregate_rows(statement, envs)
        else:
            columns = self._output_columns(statement)
            out_rows = [self._project(statement, env) for env in envs]
            order_envs = envs

        if statement.distinct:
            seen: set = set()
            deduped = []
            kept_envs = []
            for row, env in zip(out_rows, order_envs):
                key = tuple(_hashable(value) for value in row)
                if key not in seen:
                    seen.add(key)
                    deduped.append(row)
                    kept_envs.append(env)
            out_rows, order_envs = deduped, kept_envs

        if statement.order_by:
            out_rows = self._order_rows(statement, columns, out_rows, order_envs)

        if statement.limit is not None:
            out_rows = out_rows[: statement.limit]

        return ResultSet(columns, out_rows)

    def _row_stream(self, statement: Select) -> list[Env]:
        if statement.table is None:
            return [{}]
        base = self._table(statement.table.name)
        envs: list[Env] = [
            {statement.table.binding: dict(zip(base.column_names, row))}
            for row in base.rows
        ]
        for join in statement.joins:
            right = self._table(join.table.name)
            binding = join.table.binding
            null_right = {name: None for name in right.column_names}
            joined: list[Env] = []
            for env in envs:
                if binding in env:
                    raise SQLPlanError(f"duplicate table binding {binding!r} in FROM")
                matched = False
                for row in right.rows:
                    candidate = dict(env)
                    candidate[binding] = dict(zip(right.column_names, row))
                    if self._eval(join.condition, candidate) is True:
                        joined.append(candidate)
                        matched = True
                if join.kind == "left" and not matched:
                    candidate = dict(env)
                    candidate[binding] = dict(null_right)
                    joined.append(candidate)
            envs = joined
        return envs

    # -- projection ---------------------------------------------------------

    def _expand_items(self, statement: Select) -> list[tuple[str, Expr]]:
        """Expand stars into concrete (name, expr) output pairs."""
        pairs: list[tuple[str, Expr]] = []
        bindings = self._from_bindings(statement)
        for index, item in enumerate(statement.items):
            if isinstance(item.expr, Star):
                targets = (
                    [item.expr.table] if item.expr.table is not None else list(bindings)
                )
                for binding in targets:
                    if binding not in bindings:
                        raise SQLPlanError(f"unknown table {binding!r} in star select")
                    for column_name in bindings[binding]:
                        pairs.append((column_name, ColumnRef(column_name, table=binding)))
                continue
            pairs.append((self._item_name(item, index), item.expr))
        return pairs

    def _from_bindings(self, statement: Select) -> dict[str, list[str]]:
        bindings: dict[str, list[str]] = {}
        if statement.table is not None:
            bindings[statement.table.binding] = self._table(
                statement.table.name
            ).column_names
            for join in statement.joins:
                bindings[join.table.binding] = self._table(join.table.name).column_names
        return bindings

    @staticmethod
    def _item_name(item, index: int) -> str:
        if item.alias:
            return item.alias
        expr = item.expr
        if isinstance(expr, ColumnRef):
            return expr.name
        if isinstance(expr, FuncCall):
            return expr.name
        return f"expr_{index}"

    def _output_columns(self, statement: Select) -> list[str]:
        return [name for name, _ in self._expand_items(statement)]

    def _project(self, statement: Select, env: Env) -> tuple[Any, ...]:
        return tuple(self._eval(expr, env) for _, expr in self._expand_items(statement))

    # -- aggregation -------------------------------------------------------

    def _aggregate_rows(
        self, statement: Select, envs: list[Env]
    ) -> tuple[list[str], list[tuple[Any, ...]], list[Env]]:
        pairs = self._expand_items(statement)
        columns = [name for name, _ in pairs]

        groups: dict[tuple, list[Env]] = {}
        if statement.group_by:
            for env in envs:
                key = tuple(
                    _hashable(self._eval(expr, env)) for expr in statement.group_by
                )
                groups.setdefault(key, []).append(env)
        else:
            groups[()] = list(envs)

        out_rows: list[tuple[Any, ...]] = []
        out_envs: list[Env] = []
        for group_envs in groups.values():
            representative = group_envs[0] if group_envs else {}
            if statement.having is not None:
                if self._eval_aggregated(statement.having, group_envs, representative) is not True:
                    continue
            row = tuple(
                self._eval_aggregated(expr, group_envs, representative)
                for _, expr in pairs
            )
            out_rows.append(row)
            out_envs.append(representative)
        return columns, out_rows, out_envs

    def _eval_aggregated(self, expr: Expr, group_envs: list[Env], representative: Env) -> Any:
        """Evaluate ``expr`` in aggregate context.

        Aggregate calls consume the whole group; everything else is
        evaluated against the group's representative row (valid for
        grouping expressions, which are constant within a group).
        """
        if isinstance(expr, FuncCall) and is_aggregate(expr.name):
            if expr.star:
                values: list[Any] = [1] * len(group_envs)
            else:
                if len(expr.args) != 1:
                    raise SQLPlanError(
                        f"aggregate {expr.name.upper()} takes exactly one argument"
                    )
                values = [self._eval(expr.args[0], env) for env in group_envs]
            if expr.distinct:
                seen: set = set()
                unique = []
                for value in values:
                    key = _hashable(value)
                    if key not in seen:
                        seen.add(key)
                        unique.append(value)
                values = unique
            return AGGREGATES[expr.name](values)
        if isinstance(expr, BinaryOp):
            return self._apply_binary(
                expr.op,
                self._eval_aggregated(expr.left, group_envs, representative),
                self._eval_aggregated(expr.right, group_envs, representative),
            )
        if isinstance(expr, UnaryOp):
            return self._apply_unary(
                expr.op, self._eval_aggregated(expr.operand, group_envs, representative)
            )
        if isinstance(expr, FuncCall):
            args = [
                self._eval_aggregated(arg, group_envs, representative)
                for arg in expr.args
            ]
            return self._apply_scalar(expr, args)
        return self._eval(expr, representative)

    def _contains_aggregate(self, expr: Expr) -> bool:
        if isinstance(expr, FuncCall):
            if is_aggregate(expr.name):
                return True
            return any(self._contains_aggregate(arg) for arg in expr.args)
        if isinstance(expr, BinaryOp):
            return self._contains_aggregate(expr.left) or self._contains_aggregate(expr.right)
        if isinstance(expr, UnaryOp):
            return self._contains_aggregate(expr.operand)
        if isinstance(expr, CaseWhen):
            parts = [cond for cond, _ in expr.whens] + [value for _, value in expr.whens]
            if expr.otherwise is not None:
                parts.append(expr.otherwise)
            return any(self._contains_aggregate(part) for part in parts)
        return False

    # -- ordering ------------------------------------------------------------

    def _order_rows(
        self,
        statement: Select,
        columns: list[str],
        out_rows: list[tuple[Any, ...]],
        order_envs: list[Env],
    ) -> list[tuple[Any, ...]]:
        column_index = {name: position for position, name in enumerate(columns)}

        def sort_key(pair: tuple[tuple[Any, ...], Env]) -> tuple:
            row, env = pair
            keys = []
            for expr, desc in statement.order_by:
                if isinstance(expr, ColumnRef) and expr.table is None and expr.name in column_index:
                    value = row[column_index[expr.name]]
                else:
                    value = self._eval(expr, env)
                keys.append(_SortValue(value, desc))
            return tuple(keys)

        paired = sorted(zip(out_rows, order_envs), key=sort_key)
        return [row for row, _ in paired]

    # -- expression evaluation ------------------------------------------------

    def _eval(self, expr: Expr, env: Env) -> Any:
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, ColumnRef):
            return self._resolve_column(expr, env)
        if isinstance(expr, BinaryOp):
            return self._apply_binary(
                expr.op, self._eval(expr.left, env), self._eval(expr.right, env)
            )
        if isinstance(expr, UnaryOp):
            return self._apply_unary(expr.op, self._eval(expr.operand, env))
        if isinstance(expr, FuncCall):
            if is_aggregate(expr.name):
                raise SQLPlanError(
                    f"aggregate {expr.name.upper()} is not allowed in this context"
                )
            args = [self._eval(arg, env) for arg in expr.args]
            return self._apply_scalar(expr, args)
        if isinstance(expr, Subquery):
            # Uncorrelated scalar subquery: no references to the outer row.
            result = self.execute(expr.select)
            if len(result.columns) != 1:
                raise SQLPlanError("scalar subquery must return exactly one column")
            if len(result.rows) == 0:
                return None
            if len(result.rows) > 1:
                raise SQLExecutionError(
                    f"scalar subquery returned {len(result.rows)} rows"
                )
            return result.rows[0][0]
        if isinstance(expr, InSubquery):
            # The subquery runs first: IN over no rows is FALSE, even for
            # a NULL operand.
            value = self._eval(expr.operand, env)
            result = self.execute(expr.select)
            if len(result.columns) != 1:
                raise SQLPlanError("IN subquery must return exactly one column")
            found = _sql_in(value, (row[0] for row in result.rows))
            return self._apply_unary("not", found) if expr.negated else found
        if isinstance(expr, InList):
            value = self._eval(expr.operand, env)
            if value is None:
                return None
            found = _sql_in(value, (self._eval(option, env) for option in expr.options))
            return self._apply_unary("not", found) if expr.negated else found
        if isinstance(expr, Between):
            # ``low <= value AND value <= high`` under three-valued AND; a
            # FALSE first check skips the second, as AND would.
            value = self._eval(expr.operand, env)
            low = self._eval(expr.low, env)
            high = self._eval(expr.high, env)
            above = None if value is None or low is None else _sql_lte(low, value)
            if above is False:
                inside = False
            else:
                below = None if value is None or high is None else _sql_lte(value, high)
                inside = self._apply_binary("and", above, below)
            return self._apply_unary("not", inside) if expr.negated else inside
        if isinstance(expr, Like):
            value = self._eval(expr.operand, env)
            pattern = self._eval(expr.pattern, env)
            if value is None or pattern is None:
                return None
            matched = _like_match(str(value), str(pattern))
            return (not matched) if expr.negated else matched
        if isinstance(expr, IsNull):
            value = self._eval(expr.operand, env)
            return (value is not None) if expr.negated else (value is None)
        if isinstance(expr, CaseWhen):
            for condition, result in expr.whens:
                if self._eval(condition, env) is True:
                    return self._eval(result, env)
            return self._eval(expr.otherwise, env) if expr.otherwise is not None else None
        if isinstance(expr, Star):
            raise SQLPlanError("* is only allowed at the top level of a select list")
        raise SQLPlanError(f"cannot evaluate expression node {type(expr).__name__}")

    def _resolve_column(self, ref: ColumnRef, env: Env) -> Any:
        if ref.table is not None:
            if ref.table not in env:
                raise SQLExecutionError(
                    f"unknown table {ref.table!r} for column {ref.display()!r}"
                )
            scope = env[ref.table]
            if ref.name not in scope:
                raise SQLExecutionError(f"no column {ref.display()!r}")
            return scope[ref.name]
        matches = [binding for binding, scope in env.items() if ref.name in scope]
        if not matches:
            raise SQLExecutionError(f"no column named {ref.name!r} in scope")
        if len(matches) > 1:
            raise SQLExecutionError(
                f"ambiguous column {ref.name!r}: present in {sorted(matches)}"
            )
        return env[matches[0]][ref.name]

    def _apply_scalar(self, expr: FuncCall, args: list[Any]) -> Any:
        if expr.name not in SCALARS:
            known = ", ".join(sorted(SCALARS) + sorted(AGGREGATES))
            raise SQLPlanError(f"unknown function {expr.name!r}; known: {known}")
        try:
            return SCALARS[expr.name](*args)
        except TypeError as exc:
            raise SQLExecutionError(f"bad arguments to {expr.name.upper()}: {exc}") from exc

    @staticmethod
    def _apply_unary(op: str, value: Any) -> Any:
        if op == "-":
            if value is None:
                return None
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SQLExecutionError(f"cannot negate {value!r}")
            return -value
        if op == "not":
            if value is None:
                return None
            return not _truthy(value)
        raise SQLPlanError(f"unknown unary operator {op!r}")

    @staticmethod
    def _apply_binary(op: str, left: Any, right: Any) -> Any:
        if op == "and":
            if left is False or right is False:
                return False
            if left is None or right is None:
                return None
            return _truthy(left) and _truthy(right)
        if op == "or":
            if left is True or right is True:
                return True
            if left is None or right is None:
                return None
            return _truthy(left) or _truthy(right)
        if op in ("=", "<>", "!="):
            equal = _sql_equal(left, right)
            if equal is None:
                return None
            return equal if op == "=" else not equal
        if op in ("<", "<=", ">", ">="):
            if left is None or right is None:
                return None
            if op == "<":
                return _sql_less(left, right)
            if op == "<=":
                return _sql_lte(left, right)
            if op == ">":
                return _sql_less(right, left)
            return _sql_lte(right, left)
        if op in ("+", "-", "*", "/", "%"):
            if left is None or right is None:
                return None
            if op == "+" and isinstance(left, str) and isinstance(right, str):
                return left + right
            for operand in (left, right):
                if isinstance(operand, bool) or not isinstance(operand, (int, float)):
                    raise SQLExecutionError(
                        f"arithmetic {op!r} requires numbers, got {operand!r}"
                    )
            if op == "+":
                return left + right
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            if op == "/":
                if right == 0:
                    raise SQLExecutionError("division by zero")
                return left / right
            if right == 0:
                raise SQLExecutionError("modulo by zero")
            return left % right
        raise SQLPlanError(f"unknown binary operator {op!r}")


# ---------------------------------------------------------------------------
# Value semantics helpers
# ---------------------------------------------------------------------------


def _truthy(value: Any) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0
    raise SQLExecutionError(f"expected a boolean, got {value!r}")


def _sql_equal(left: Any, right: Any) -> bool | None:
    if left is None or right is None:
        return None
    if _comparable(left, right):
        return left == right
    return False


def _sql_in(value: Any, candidates) -> bool | None:
    """SQL IN: TRUE at the first match, else NULL if any comparison was
    NULL (a NULL operand or candidate), else FALSE."""
    unknown = False
    for candidate in candidates:
        equal = _sql_equal(value, candidate)
        if equal:
            return True
        unknown = unknown or equal is None
    return None if unknown else False


def _sql_less(left: Any, right: Any) -> bool:
    _require_comparable(left, right, "<")
    return left < right


def _sql_lte(left: Any, right: Any) -> bool:
    _require_comparable(left, right, "<=")
    return left <= right


def _comparable(left: Any, right: Any) -> bool:
    if isinstance(left, bool) or isinstance(right, bool):
        return isinstance(left, bool) and isinstance(right, bool)
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return True
    return type(left) is type(right)


def _require_comparable(left: Any, right: Any, op: str) -> None:
    if not _comparable(left, right):
        raise SQLExecutionError(
            f"cannot compare {left!r} {op} {right!r} (mismatched types)"
        )


def _like_match(value: str, pattern: str) -> bool:
    regex = re.escape(pattern).replace(r"%", ".*").replace(r"_", ".")
    return re.fullmatch(regex, value, flags=re.DOTALL) is not None


def _hashable(value: Any) -> Any:
    if isinstance(value, (list, dict)):
        return repr(value)
    return value


class _SortValue:
    """Total-orders mixed values.

    NULLs sort last regardless of direction; non-NULL values group by type
    (numbers, then strings) and respect the requested direction.
    """

    __slots__ = ("value", "desc")

    def __init__(self, value: Any, desc: bool) -> None:
        self.value = value
        self.desc = desc

    def _rank(self) -> tuple:
        value = self.value
        if isinstance(value, bool):
            return (0, int(value))
        if isinstance(value, (int, float)):
            return (0, value)
        return (1, str(value))

    def __lt__(self, other: "_SortValue") -> bool:
        if (self.value is None) != (other.value is None):
            return other.value is None  # non-NULL sorts before NULL
        if self.value is None:
            return False
        if self.desc:
            return other._rank() < self._rank()
        return self._rank() < other._rank()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _SortValue):
            return NotImplemented
        if self.value is None or other.value is None:
            return (self.value is None) and (other.value is None)
        return self._rank() == other._rank()
