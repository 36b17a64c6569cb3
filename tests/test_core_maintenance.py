"""Tests for Context maintenance (cache invalidation, §2.4)."""

from repro.core.context import Context
from repro.core.context_manager import ContextManager
from repro.data.records import DataRecord
from repro.data.schemas import Field, Schema
from repro.llm.simulated import SimulatedLLM

SCHEMA = Schema([Field("name", str)])


def _context(name):
    return Context([DataRecord({"name": "r"})], SCHEMA, desc=f"data in {name}", name=name)


def test_invalidate_evicts_descendants():
    manager = ContextManager(SimulatedLLM(seed=0))
    base = _context("base")
    derived = base.derived("materialized view", name="view-1")
    grandchild = derived.derived("narrower view", name="view-2")
    unrelated = _context("other")

    manager.register(derived, "first query")
    manager.register(grandchild, "second query")
    manager.register(unrelated, "third query")

    evicted = manager.invalidate(base)
    assert evicted == 2
    assert len(manager) == 1
    assert manager.entries()[0].context is unrelated


def test_invalidate_by_name():
    manager = ContextManager(SimulatedLLM(seed=0))
    base = _context("lake")
    manager.register(base.derived("view"), "query")
    assert manager.invalidate("lake") == 1
    assert len(manager) == 0


def test_invalidate_cascades_to_materialization_store():
    from repro.data.records import DataRecord as Record
    from repro.sem.materialize import MaterializationStore

    store = MaterializationStore()
    manager = ContextManager(SimulatedLLM(seed=0), store)
    base = _context("lake")
    derived = base.derived("materialized view", name="view-1")
    manager.register(derived, "first query")

    # Sub-plan prefixes materialized from the base, the derived view, and
    # an unrelated source.
    for source in ("lake", "view-1", "other"):
        store.put(
            f"fp-{source}",
            [Record({"name": "r"}, uid="u0")],
            ("u0",),
            source,
            cost_usd=0.0,
            time_s=0.0,
        )

    assert manager.invalidate(base, kind="update") == 1
    # The base's own prefix stays: the source records an in-place rewrite,
    # and the store's next probe patches the entry instead.
    assert store.get("fp-lake") is not None
    assert store.get("fp-view-1") is None
    assert store.get("fp-other") is not None
    # The cause rides the one walk into the store's provenance counters.
    assert store.update_invalidations == 1
    # Any other change to the base's records leaves nothing to patch from.
    manager.invalidate(base)
    assert store.get("fp-lake") is None
    assert store.update_invalidations == 1


def test_invalidate_by_name_cascades_without_cached_entries():
    from repro.data.records import DataRecord as Record
    from repro.sem.materialize import MaterializationStore

    store = MaterializationStore()
    manager = ContextManager(SimulatedLLM(seed=0), store)
    store.put(
        "fp", [Record({"name": "r"}, uid="u0")], ("u0",), "lake",
        cost_usd=0.0, time_s=0.0,
    )
    # No ContextManager entry derives from "lake", but materializations
    # keyed on it are still stale once its records change.
    assert manager.invalidate("lake") == 0
    assert len(store) == 0


def test_invalidate_unknown_base_is_noop():
    manager = ContextManager(SimulatedLLM(seed=0))
    manager.register(_context("a"), "query")
    assert manager.invalidate("nonexistent") == 0
    assert len(manager) == 1


def test_invalidated_entry_not_reused(legal_bundle):
    from repro.core.program_tool import build_program_tool
    from repro.core.runtime import AnalyticsRuntime

    first = (
        "Find the files which report national identity theft statistics "
        "for the year 2001 and extract the number of identity theft "
        "reports in the year 2001."
    )
    second = first.replace("2001", "2024")

    runtime = AnalyticsRuntime.for_bundle(legal_bundle, seed=9, reuse_contexts=True)
    context = runtime.make_context(legal_bundle)
    tool = build_program_tool(context, runtime)
    tool(first)
    runtime.context_manager.invalidate(context)

    cost_mark = runtime.usage().cost_usd
    tool(second)
    marginal = runtime.usage().cost_usd - cost_mark
    # Without a live cache entry the second query pays the full-scan price.
    assert marginal > 0.05
