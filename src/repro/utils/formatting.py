"""Plain-text table rendering for benchmark reports.

Benchmarks print tables shaped like the paper's Tables 1 and 2; this module
renders them with aligned columns so paper-vs-measured comparisons are easy
to eyeball and to diff.
"""

from __future__ import annotations

from typing import Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render ``rows`` under ``headers`` as an aligned ASCII table."""
    str_rows = [[_cell(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
        for idx, cell in enumerate(row):
            widths[idx] = max(widths[idx], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        return "| " + " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)) + " |"

    separator = "|" + "|".join("-" * (width + 2) for width in widths) + "|"
    lines = []
    if title:
        lines.append(title)
    lines.append(render_row(list(headers)))
    lines.append(separator)
    lines.extend(render_row(row) for row in str_rows)
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
