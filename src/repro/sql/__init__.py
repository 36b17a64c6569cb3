"""In-memory SQL engine.

The paper's vision calls for a runtime that can materialize structured
tables from unstructured data and query them with SQL so future queries
reuse earlier work (Section 2.4).  This package is that substrate: a
lexer and recursive-descent parser for read-only SELECTs (joins,
grouping, ordering, limits, uncorrelated subqueries), one static pass
that types the AST and renders it to sqlite's dialect
(:mod:`repro.sql.render`), and stdlib ``sqlite3``, which executes it on
one in-memory connection per ``Database``.  Tables enter through the
``Database`` API, not through SQL text: any statement other than SELECT
is a syntax error.

Quick use::

    from repro.sql import Database

    db = Database()
    db.create_table_from_rows("emails", [{"sender": "a@x.com", "subject": "hello"}])
    result = db.execute("SELECT sender, COUNT(*) AS n FROM emails GROUP BY sender")
    print(result.rows)
"""

from repro.sql.database import Database
from repro.sql.parser import parse_expression, parse_sql
from repro.sql.table import Column, Table

__all__ = ["Column", "Database", "Table", "parse_expression", "parse_sql"]
