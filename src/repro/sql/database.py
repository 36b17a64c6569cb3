"""Database facade: catalog management plus convenience loaders."""

from __future__ import annotations

from typing import Any, Iterable

from repro.errors import SQLExecutionError
from repro.sql.executor import Executor, ResultSet
from repro.sql.parser import parse_sql
from repro.sql.table import Column, Table


class Database:
    """An in-memory SQL database.

    This is the structured-storage half of the paper's vision: semantic
    operators and agents materialize structured tables here, and later
    queries hit SQL instead of re-invoking LLMs over raw documents.
    """

    def __init__(self) -> None:
        self._catalog: dict[str, Table] = {}
        self._executor = Executor(self._catalog)

    def execute(self, sql: str) -> ResultSet:
        """Parse and execute one SQL statement."""
        return self._executor.execute(parse_sql(sql))

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


def _infer_type(rows: list[dict[str, Any]], column: str) -> str:
    """Widest type consistent with *every* non-NULL value in the column.

    Mixed columns (e.g. a period column holding years and "2020-01"
    strings) degrade to TEXT rather than failing on insert.
    """
    saw_bool = saw_int = saw_float = False
    for row in rows:
        value = row.get(column)
        if value is None:
            continue
        if isinstance(value, bool):
            saw_bool = True
        elif isinstance(value, int):
            saw_int = True
        elif isinstance(value, float):
            saw_float = True
        else:
            return "text"
    if saw_bool and not (saw_int or saw_float):
        return "boolean"
    if saw_bool:
        return "text"
    if saw_float:
        return "real"
    if saw_int:
        return "integer"
    return "text"
