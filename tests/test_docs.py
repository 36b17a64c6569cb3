"""The written record is checked against what it describes."""

import re
from dataclasses import fields
from pathlib import Path

import pytest

from repro.sem.config import QueryProcessorConfig

ROOT = Path(__file__).resolve().parent.parent
#: A number standing on its own: not the 1 of "F1", not the 3 of "legal-easy-3".
NUMBER = re.compile(r"(?<![\w.-])\d+(?:\.\d+)?[%x]?")


def _section(text: str, heading: str) -> str:
    """The markdown section that starts at ``heading``, up to the next ``## ``."""
    body = text[text.index(heading) + len(heading) :]
    return body.split("\n## ", 1)[0]


def test_readme_config_table_lists_exactly_the_config_fields():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    names = {option.name for option in fields(QueryProcessorConfig)}
    assert f"`QueryProcessorConfig` ({len(names)} fields)" in readme
    table = readme[readme.index("| You configure |") :].split("\n\n", 1)[0]
    listed = set()
    for row in table.splitlines()[2:]:
        # Second column; a parenthesised aside may name values, not fields.
        cell = re.sub(r"\([^)]*\)", "", row.split("|")[2])
        listed |= set(re.findall(r"`(\w+)`", cell))
    assert listed == names


@pytest.mark.parametrize("table", [1, 2])
def test_experiments_table_numbers_come_from_the_artifact(table):
    write_up = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    artifact = ROOT / f"benchmarks/results/table{table}.txt"
    rows = [
        line
        for line in _section(write_up, f"## Table {table} ").splitlines()
        if line.startswith("|")
    ]
    quoted = set(NUMBER.findall("\n".join(rows)))
    assert quoted, "no table rows found"
    assert quoted <= set(NUMBER.findall(artifact.read_text(encoding="utf-8")))
