"""Tests for CSV/HTML parsing helpers."""

import csv
import io

from repro.data.tabular import (
    extract_numbers,
    parse_html_tables,
    render_csv,
    render_html_report,
)


def test_csv_roundtrip():
    text = render_csv(["a", "b"], [[1, "x"], [2, "y"]])
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows == [{"a": "1", "b": "x"}, {"a": "2", "b": "y"}]


def test_render_csv_quotes_commas():
    text = render_csv(["a"], [["has, comma"]])
    assert next(csv.DictReader(io.StringIO(text)))["a"] == "has, comma"


def test_parse_html_tables_extracts_cells():
    html = render_html_report(
        "Title", ["para one"], [(["H1", "H2"], [["a", "b"], ["c", "d"]])]
    )
    tables = parse_html_tables(html)
    assert tables == [[["H1", "H2"], ["a", "b"], ["c", "d"]]]


def test_parse_html_multiple_tables():
    html = render_html_report(
        "T", [], [(["A"], [["1"]]), (["B"], [["2"]])]
    )
    assert len(parse_html_tables(html)) == 2


def test_parse_html_no_tables():
    assert parse_html_tables("<html><p>just prose</p></html>") == []


def test_html_report_contains_title_and_paragraphs():
    html = render_html_report("The Title", ["alpha", "beta"], [])
    assert "<h1>The Title</h1>" in html
    assert "<p>alpha</p>" in html and "<p>beta</p>" in html


def test_extract_numbers_handles_commas_and_decimals():
    assert extract_numbers("filed 1,135,291 reports (13.16x)") == [1135291.0, 13.16]


def test_extract_numbers_negative():
    assert extract_numbers("delta -42") == [-42.0]


def test_extract_numbers_none():
    assert extract_numbers("no digits here") == []
