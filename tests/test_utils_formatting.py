"""Tests for table formatting."""

import pytest

from repro.utils.formatting import format_table


def test_format_table_aligns_columns():
    table = format_table(["Name", "N"], [["a", 1], ["longer", 22]])
    lines = table.splitlines()
    assert len({len(line) for line in lines}) == 1  # all same width


def test_format_table_includes_title():
    table = format_table(["A"], [["x"]], title="My Title")
    assert table.splitlines()[0] == "My Title"


def test_format_table_formats_floats():
    table = format_table(["V"], [[1.23456]])
    assert "1.23" in table


def test_format_table_rejects_ragged_rows():
    with pytest.raises(ValueError):
        format_table(["A", "B"], [["only-one"]])
