"""Tests for the ContextManager (materialized-Context reuse)."""

import pytest

from repro.core.context import Context
from repro.core.context_manager import ContextManager
from repro.data.records import DataRecord
from repro.data.schemas import Field, Schema
from repro.llm.simulated import SimulatedLLM

SCHEMA = Schema([Field("name", str)])


def _context(desc):
    return Context([DataRecord({"name": "r"})], SCHEMA, desc=desc)


def _manager():
    return ContextManager(SimulatedLLM(seed=0))


def test_register_and_find_similar():
    manager = _manager()
    manager.register(
        _context("identity theft statistics for 2001"),
        "find national identity theft statistics for the year 2001",
    )
    entry, score = manager.find_similar(
        "find national identity theft statistics for the year 2024"
    )
    assert entry is not None
    assert score >= 0.6
    assert entry.hits == 1


def test_dissimilar_instruction_misses():
    manager = _manager()
    manager.register(_context("identity theft statistics"), "identity theft reports")
    entry, score = manager.find_similar("recipes for sourdough bread baking")
    assert entry is None
    assert score < 0.6


def test_empty_manager_returns_none():
    entry, score = _manager().find_similar("anything")
    assert entry is None and score == 0.0


def test_best_of_multiple_entries_wins():
    manager = _manager()
    manager.register(_context("fraud losses by payment method"), "fraud losses by payment method")
    target = manager.register(
        _context("identity theft reports by year"), "identity theft reports by year"
    )
    entry, _score = manager.find_similar("identity theft reports by year, yearly")
    assert entry is target


def test_clear_and_len():
    manager = _manager()
    manager.register(_context("a"), "a")
    assert len(manager) == 1
    manager.clear()
    assert len(manager) == 0


def test_register_is_free_lookup_charges_one_batch():
    llm = SimulatedLLM(seed=0)
    manager = ContextManager(llm)
    for i in range(5):
        manager.register(_context(f"description {i}"), f"instruction {i}")
    # Registration defers embedding entirely.
    assert llm.tracker.total().calls == 0
    manager.find_similar("some other instruction")
    # One batched request covers all five pending entries + one query embed,
    # instead of the six separate calls the eager path used to make.
    first_lookup_calls = llm.tracker.total().calls
    assert first_lookup_calls == 2
    # Embeddings are cached on the entries: a second lookup only pays the
    # query embedding.
    manager.find_similar("yet another instruction")
    assert llm.tracker.total().calls == first_lookup_calls + 1


def test_lazy_entries_embedded_before_scoring():
    manager = _manager()
    manager.register(
        _context("identity theft statistics"), "identity theft statistics 2001"
    )
    entry, score = manager.find_similar("identity theft statistics 2024")
    assert entry is not None and score >= 0.6
    assert entry.embedding is not None


def test_catalog_is_fifo_bounded_with_an_eviction_counter():
    manager = _manager()
    total = ContextManager.MAX_ENTRIES + 3
    entries = [
        manager.register(_context(f"alpha{i} beta{i}"), f"gamma{i} delta{i}")
        for i in range(total)
    ]
    assert len(manager) == ContextManager.MAX_ENTRIES
    assert manager.stats()["evictions"] == 3
    assert manager.stats()["stores"] == total
    # The three oldest went; everything younger is still found.
    assert manager.entries()[0] is entries[3]
    gone, _ = manager.find_similar("gamma0 delta0 alpha0 beta0")
    assert gone is None
    kept, score = manager.find_similar(f"gamma{total - 1} delta{total - 1}")
    assert kept is entries[-1] and score >= ContextManager.THRESHOLD


def test_narrow_substitutes_only_a_strictly_narrower_view_of_the_same_root():
    manager = _manager()
    records = [DataRecord({"name": f"r{i}"}) for i in range(4)]
    lake = Context(records, SCHEMA, desc="the lake", name="lake")
    view = lake.derived(description="identity theft statistics", records=records[:2])
    manager.register(view, "identity theft statistics 2001")

    narrowed, note = manager.narrow(lake, "identity theft statistics 2024")
    assert narrowed is view
    assert note.startswith(f"context {view.name} at similarity 0.")

    # Same root but no narrower than the input: the caller keeps its own.
    same_size = lake.derived(description="half the lake", records=records[:2])
    assert manager.narrow(same_size, "identity theft statistics 2024") == (same_size, "")
    # A different root is not a view of this input at all.
    other = Context(records, SCHEMA, desc="another lake", name="other-lake")
    assert manager.narrow(other, "identity theft statistics 2024") == (other, "")
    # Nothing similar: no substitution either.
    assert manager.narrow(lake, "sourdough bread recipes") == (lake, "")

