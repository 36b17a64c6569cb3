"""Database facade: the table catalog, and the sqlite connection that runs it."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.errors import SQLError, SQLExecutionError
from repro.sql.ast_nodes import Select
from repro.sql.parser import parse_sql
from repro.sql.render import BOOL, KIND_OF, NULL, UDFS, render_select
from repro.sql.table import Column, Table


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


class Database:
    """An in-memory SQL database.

    This is the structured-storage half of the paper's vision: semantic
    operators and agents materialize structured tables here, and later
    queries hit SQL instead of re-invoking LLMs over raw documents.

    A SELECT is parsed, type-checked and rendered to sqlite's dialect
    (:mod:`repro.sql.render`), then runs on one in-memory ``sqlite3``
    connection, opened on first use.  A table is copied into it when a
    statement names it and it changed (rows inserted, or replaced) since
    the last copy.
    """

    def __init__(self) -> None:
        self._catalog: dict[str, Table] = {}
        self._connection = None
        #: name -> (table, rows copied, column types) as the connection holds it.
        self._loaded: dict[str, tuple[Table, int, list[str]]] = {}
        #: Typed errors the registered functions raised in the statement.
        self._failures: list[SQLError] = []

    def execute(self, sql: str) -> ResultSet:
        """Parse and execute one SQL statement."""
        return self.select(parse_sql(sql))

    def select(self, statement: Select) -> ResultSet:
        """Execute one parsed SELECT."""
        columns, rows, _ = self._run(statement)
        return ResultSet(columns, rows)

    def _run(self, statement: Select) -> tuple[list[str], list[tuple], list[str]]:
        """``(column names, rows, column types)``, raising typed errors only."""
        import sqlite3

        try:
            sql, params, columns, kinds = render_select(statement, self._load, self._run)
            rows = self._connect().execute(sql, params).fetchall()
        except (OverflowError, UnicodeEncodeError) as exc:  # an int beyond int64, a lone surrogate
            raise SQLExecutionError(f"value out of SQL's range: {exc}") from exc
        except sqlite3.Error as exc:
            failure = self._failures[0] if self._failures else SQLExecutionError(str(exc))
            self._failures.clear()
            raise failure from exc
        if not columns:  # sqlite selected a NULL for the empty select list
            return columns, [() for _ in rows], kinds
        flags = [kind == BOOL for kind in kinds]
        if any(flags):  # sqlite's 0/1 back to bools
            rows = [
                tuple(bool(v) if flag and v is not None else v for v, flag in zip(row, flags))
                for row in rows
            ]
        return columns, rows, kinds

    def _connect(self):
        if self._connection is None:
            import sqlite3

            self._connection = sqlite3.connect(":memory:")
            self._connection.execute("PRAGMA case_sensitive_like = ON")
            for name, function in UDFS.items():
                self._connection.create_function(name, -1, _guarded(function, self._failures))
        return self._connection

    def _load(self, name: str) -> tuple[str, list[str], list[str]]:
        """Copy table ``name`` into the connection if it changed; returns
        its sqlite name, column names and column types (``NULL`` for a
        column with no non-NULL value)."""
        table = self.table(name)
        sqlite_name = '"t_' + name.replace('"', '""') + '"'
        if self._loaded.get(name, ())[:2] != (table, len(table.rows)):
            width = max(len(table.columns), 1)  # sqlite has no zero-column table
            connection = self._connect()
            connection.execute(f"DROP TABLE IF EXISTS {sqlite_name}")
            columns = ", ".join(f"c{index}" for index in range(width))
            connection.execute(f"CREATE TABLE {sqlite_name} ({columns})")
            connection.executemany(
                f"INSERT INTO {sqlite_name} VALUES ({', '.join('?' * width)})",
                [row or (None,) for row in table.rows],
            )
            kinds = [
                KIND_OF[column.python_type] if any(row[i] is not None for row in table.rows)
                else NULL
                for i, column in enumerate(table.columns)
            ]
            self._loaded[name] = (table, len(table.rows), kinds)
        return sqlite_name, table.column_names, self._loaded[name][2]

    def query(self, sql: str) -> list[dict[str, Any]]:
        """Execute a SELECT and return rows as dictionaries."""
        return self.execute(sql).to_dicts()

    def table_names(self) -> list[str]:
        return sorted(self._catalog)

    def table(self, name: str) -> Table:
        try:
            return self._catalog[name]
        except KeyError:
            known = ", ".join(sorted(self._catalog)) or "(none)"
            raise SQLExecutionError(
                f"no table named {name!r}; known tables: {known}"
            ) from None

    def create_table(
        self, name: str, columns: Iterable[Column], replace: bool = False
    ) -> Table:
        """Create (or replace) an empty table with explicitly typed columns.

        Fill it with ``Table.insert_row``; SQL text cannot write (every
        statement but SELECT is a syntax error).
        """
        if name in self._catalog and not replace:
            raise SQLExecutionError(f"table {name!r} already exists")
        table = Table(name, list(columns))
        self._catalog[name] = table
        return table

    def create_table_from_rows(
        self,
        name: str,
        rows: Iterable[dict[str, Any]],
        replace: bool = False,
    ) -> Table:
        """Create (or replace) a table inferred from dictionaries.

        Each column takes the widest type consistent with its non-NULL
        values; columns that never see a value default to TEXT.  This is the
        path used to materialize structured tables out of semantic-operator
        results.
        """
        rows = list(rows)
        if not rows:
            raise SQLExecutionError(f"cannot infer a schema for {name!r} from zero rows")
        column_order = list(dict.fromkeys(key for row in rows for key in row))
        table = self.create_table(
            name,
            [Column(column, _infer_type(rows, column)) for column in column_order],
            replace=replace,
        )
        for row in rows:
            table.insert_row([row.get(column) for column in column_order])
        return table


def _guarded(function: Callable[..., Any], failures: list[SQLError]) -> Callable[..., Any]:
    """``function``, NULL in and NULL out; a typed error it raises is kept
    in ``failures``, since sqlite reports only that one was raised."""

    def call(*args: Any) -> Any:
        if any(arg is None for arg in args):
            return None
        try:
            return function(*args)
        except SQLError as exc:
            failures.append(exc)
            raise

    return call


def _infer_type(rows: list[dict[str, Any]], column: str) -> str:
    """Widest type consistent with *every* non-NULL value in the column.

    Mixed columns (e.g. a period column holding years and "2020-01"
    strings, or bools beside numbers) degrade to TEXT rather than failing
    on insert; a column that never sees a value is TEXT.
    """
    seen = {
        "boolean" if isinstance(value, bool) else
        "integer" if isinstance(value, int) else
        "real" if isinstance(value, float) else "text"
        for row in rows if (value := row.get(column)) is not None
    }
    if not seen or "text" in seen or ("boolean" in seen and len(seen) > 1):
        return "text"
    return "real" if "real" in seen else seen.pop()
