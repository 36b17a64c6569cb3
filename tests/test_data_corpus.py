"""Tests for the in-memory file corpus."""

import pytest

from repro.data.corpus import FileCorpus
from repro.errors import DataSourceError


def _corpus():
    corpus = FileCorpus("demo")
    corpus.add("b.txt", "bravo contents", annotations={"gold": True})
    corpus.add("a.csv", "x,y\n1,2\n")
    return corpus


def test_list_files_sorted():
    assert _corpus().list_files() == ["a.csv", "b.txt"]


def test_read_file():
    assert _corpus().read_file("b.txt") == "bravo contents"


def test_read_missing_file_raises():
    with pytest.raises(DataSourceError):
        _corpus().read_file("missing.txt")


def test_duplicate_add_raises():
    corpus = _corpus()
    with pytest.raises(DataSourceError):
        corpus.add("a.csv", "again")


def test_len_and_contains():
    corpus = _corpus()
    assert len(corpus) == 2
    assert "a.csv" in corpus and "zzz" not in corpus


def test_to_records_carries_annotations_and_format():
    records = {record["filename"]: record for record in _corpus().to_records()}
    assert records["b.txt"].annotations == {"gold": True}
    assert records["a.csv"]["format"] == "csv"
    assert records["a.csv"].uid == "demo:a.csv"


def test_annotations_for_copy_is_isolated():
    corpus = _corpus()
    annotations = corpus.annotations_for("b.txt")
    annotations["mutated"] = True
    assert "mutated" not in corpus.annotations_for("b.txt")
