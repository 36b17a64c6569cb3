"""SQL tools for agents: parse structured files once, query them forever.

The paper's vision (§1, §2.4) wants the runtime to "leverage structured
information, possibly generated from unstructured data, which it can then
query using SQL."  These tools give compute/search agents that capability:

- ``materialize_table(filename, table)`` parses a CSV file (or the tables
  of an HTML report) from the Context into the runtime's SQL database;
- ``sql(query)`` runs a ``SELECT`` over materialized tables, costing zero
  LLM tokens (read-only: the database also holds the user's tables).

Registered on a Context via :func:`add_sql_tools`, they appear in the
agents' sandboxes alongside the standard Context tools.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING

from repro.agents.tools import Tool
from repro.core.context import Context
from repro.data.tabular import parse_html_tables
from repro.errors import ToolError
from repro.sql.ast_nodes import Select
from repro.sql.parser import parse_sql

if TYPE_CHECKING:
    from repro.core.runtime import AnalyticsRuntime


def _sanitize_identifier(name: str) -> str:
    cleaned = re.sub(r"[^A-Za-z0-9_]", "_", name.strip())
    if not cleaned or cleaned[0].isdigit():
        cleaned = "c_" + cleaned
    return cleaned.lower()


def _coerce_cell(value: str):
    """Best-effort typing of a textual cell (ints, floats, else text)."""
    text = value.strip().replace(",", "")
    if text.startswith("$"):
        text = text[1:]
    if re.fullmatch(r"-?\d+", text):
        return int(text)
    if re.fullmatch(r"-?\d*\.\d+", text):
        return float(text)
    return value.strip()


def rows_from_file(contents: str, fmt: str) -> list[dict]:
    """Parse a file's contents into typed row dictionaries.

    CSV files parse directly; HTML files contribute their first table
    (header row + data rows).  Column names are sanitized to SQL
    identifiers; duplicate names get positional suffixes.
    """
    if fmt == "csv":
        # csv.reader (not DictReader) so duplicate headers survive intact.
        import csv as _csv
        import io as _io

        parsed = list(_csv.reader(_io.StringIO(contents)))
        if len(parsed) < 2:
            raise ToolError("the CSV file has no data rows")
        headers = parsed[0]
        cells = parsed[1:]
    else:
        tables = parse_html_tables(contents)
        if not tables or len(tables[0]) < 2:
            raise ToolError("the file contains no parseable table")
        headers = tables[0][0]
        cells = tables[0][1:]

    names: list[str] = []
    for position, header in enumerate(headers):
        name = _sanitize_identifier(str(header))
        if name in names:
            name = f"{name}_{position}"
        names.append(name)

    rows = []
    for row in cells:
        rows.append(
            {
                name: _coerce_cell(str(value)) if value is not None else None
                for name, value in zip(names, row)
            }
        )
    return rows


def add_sql_tools(context: Context, runtime: "AnalyticsRuntime") -> Context:
    """Register ``materialize_table`` and ``sql`` tools on ``context``."""
    by_filename = {
        record.get("filename"): record
        for record in context.records()
        if "filename" in record
    }

    def materialize_table(filename: str, table: str) -> str:
        """Parse a CSV/HTML file from the context into a SQL table."""
        record = by_filename.get(filename)
        if record is None:
            raise ToolError(f"no file named {filename!r} in the context")
        rows = rows_from_file(
            record.get("contents", ""), record.get("format", "csv")
        )
        runtime.db.create_table_from_rows(
            _sanitize_identifier(table), rows, replace=True
        )
        return (
            f"created table {_sanitize_identifier(table)} with {len(rows)} rows; "
            f"columns: {sorted(rows[0])}"
        )

    def sql(query: str) -> list[dict]:
        """Run a SELECT over previously materialized tables (read-only)."""
        if not isinstance(parse_sql(query), Select):
            raise ToolError("sql is read-only (SELECT only); materialize_table writes")
        return runtime.db.query(query)

    context.add_tool(
        Tool(
            "materialize_table",
            "Parse a CSV/HTML file from the context into a SQL table.",
            materialize_table,
        )
    )
    context.add_tool(
        Tool("sql", "Run a SQL query over previously materialized tables.", sql)
    )
    return context
