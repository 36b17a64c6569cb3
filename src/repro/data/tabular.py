"""Parsing helpers for the two file formats in the synthetic data lakes.

The dataset generators write small CSV files and simple HTML reports; the
SQL tools and agent policies read tables and numbers back out of them.  The
CSV side wraps the stdlib writer; the HTML side is a minimal
``html.parser`` walk that collects ``<table>`` rows.
"""

from __future__ import annotations

import csv
import io
import re
from html.parser import HTMLParser


def render_csv(headers: list[str], rows: list[list[object]]) -> str:
    """Render ``rows`` under ``headers`` as CSV text."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return buffer.getvalue()


class _TableCollector(HTMLParser):
    """Collects cell text from every <table> in a document."""

    def __init__(self) -> None:
        super().__init__()
        self.tables: list[list[list[str]]] = []
        self._row: list[str] | None = None
        self._cell: list[str] | None = None

    def handle_starttag(self, tag: str, attrs) -> None:
        if tag == "table":
            self.tables.append([])
        elif tag == "tr" and self.tables:
            self._row = []
        elif tag in ("td", "th") and self._row is not None:
            self._cell = []

    def handle_endtag(self, tag: str) -> None:
        if tag in ("td", "th") and self._cell is not None and self._row is not None:
            self._row.append(" ".join("".join(self._cell).split()))
            self._cell = None
        elif tag == "tr" and self._row is not None and self.tables:
            self.tables[-1].append(self._row)
            self._row = None

    def handle_data(self, data: str) -> None:
        if self._cell is not None:
            self._cell.append(data)


def parse_html_tables(text: str) -> list[list[list[str]]]:
    """Extract all tables from ``text`` as lists of rows of cell strings."""
    collector = _TableCollector()
    collector.feed(text)
    return collector.tables


def render_html_report(title: str, paragraphs: list[str], tables: list[tuple[list[str], list[list[object]]]]) -> str:
    """Render a small HTML report with a title, prose, and tables."""
    parts = [f"<html><head><title>{title}</title></head><body>", f"<h1>{title}</h1>"]
    for paragraph in paragraphs:
        parts.append(f"<p>{paragraph}</p>")
    for headers, rows in tables:
        parts.append("<table>")
        parts.append("<tr>" + "".join(f"<th>{cell}</th>" for cell in headers) + "</tr>")
        for row in rows:
            parts.append("<tr>" + "".join(f"<td>{cell}</td>" for cell in row) + "</tr>")
        parts.append("</table>")
    parts.append("</body></html>")
    return "\n".join(parts)


_NUMBER_RE = re.compile(r"-?\d[\d,]*\.?\d*")


def extract_numbers(text: str) -> list[float]:
    """Pull numeric values (comma-grouped allowed) out of free text."""
    values = []
    for match in _NUMBER_RE.finditer(text):
        token = match.group(0).replace(",", "")
        try:
            values.append(float(token))
        except ValueError:
            continue
    return values
