"""Tables: the storage layer of the SQL engine."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.errors import SQLExecutionError

_TYPE_MAP: dict[str, type] = {
    "integer": int,
    "int": int,
    "real": float,
    "float": float,
    "text": str,
    "varchar": str,
    "boolean": bool,
    "bool": bool,
}


@dataclass(frozen=True)
class Column:
    """A named, typed column."""

    name: str
    type_name: str = "text"

    @property
    def python_type(self) -> type:
        return _TYPE_MAP[self.type_name]

    def coerce(self, value: Any) -> Any:
        """Coerce ``value`` to the column type; NULL passes through.

        Integers are accepted into REAL columns and promoted; everything
        else must match or be losslessly convertible, otherwise the insert
        fails loudly (silent data corruption is worse than an error).
        """
        if value is None:
            return None
        target = self.python_type
        if isinstance(value, target) and not (target is int and isinstance(value, bool)):
            return value
        if target is float and isinstance(value, int) and not isinstance(value, bool):
            return float(value)
        if target is int and isinstance(value, float) and value.is_integer():
            return int(value)
        if target is str:
            return str(value)
        raise SQLExecutionError(
            f"cannot store {value!r} ({type(value).__name__}) in "
            f"{self.type_name.upper()} column {self.name!r}"
        )


class Table:
    """An in-memory table: a list of columns and a list of row tuples."""

    def __init__(self, name: str, columns: list[Column]) -> None:
        names = [column.name for column in columns]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise SQLExecutionError(
                f"duplicate column names in table {name!r}: {sorted(duplicates)}"
            )
        self.name = name
        self.columns = list(columns)
        self.rows: list[tuple[Any, ...]] = []

    @property
    def column_names(self) -> list[str]:
        return [column.name for column in self.columns]

    def insert_row(self, values: Iterable[Any]) -> None:
        """Insert one row, coercing each value to its column's type."""
        values = list(values)
        if len(values) != len(self.columns):
            raise SQLExecutionError(
                f"table {self.name!r} expects {len(self.columns)} values, "
                f"got {len(values)}"
            )
        self.rows.append(
            tuple(column.coerce(value) for column, value in zip(self.columns, values))
        )

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"Table({self.name!r}, columns={self.column_names}, rows={len(self.rows)})"
