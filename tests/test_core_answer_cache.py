"""Tests for the runtime's whole-query answer cache."""

import pytest

from repro.core.runtime import AnalyticsRuntime
from repro.data.datasets import kramabench as kb
from repro.obs.metrics import MetricsRegistry
from repro.sem.dataset import Dataset


@pytest.fixture
def runtime_ctx(legal_bundle):
    runtime = AnalyticsRuntime.for_bundle(legal_bundle, seed=55)
    return runtime, runtime.make_context(legal_bundle)


def test_identical_query_served_from_cache(runtime_ctx, legal_bundle):
    runtime, context = runtime_ctx
    first = runtime.answer(context, kb.QUERY_RATIO)
    assert not first.reused
    cost_after_first = runtime.usage().cost_usd

    second = runtime.answer(context, kb.QUERY_RATIO)
    assert second.reused
    assert second.answer == first.answer
    assert second.cost_usd == 0.0
    # Only the cache-probe embedding was charged.
    assert runtime.usage().cost_usd - cost_after_first < 1e-4


def test_paraphrase_served_from_cache(runtime_ctx):
    runtime, context = runtime_ctx
    runtime.answer(context, kb.QUERY_RATIO)
    paraphrase = kb.QUERY_RATIO.replace("Compute", "Calculate")
    result = runtime.answer(context, paraphrase)
    assert result.reused


def test_unrelated_query_misses_cache(runtime_ctx):
    runtime, context = runtime_ctx
    runtime.answer(context, kb.QUERY_RATIO)
    result = runtime.answer(context, kb.QUERY_TOP_STATE)
    assert not result.reused
    assert result.answer["state"]


def test_different_base_context_misses_cache(legal_bundle, enron_bundle):
    runtime = AnalyticsRuntime.for_bundle(legal_bundle, seed=55)
    legal_context = runtime.make_context(legal_bundle)
    runtime.answer(legal_context, kb.QUERY_RATIO)

    other_context = runtime.make_context(
        legal_bundle.records()[:10],
        schema=legal_bundle.schema,
        desc="a different lake",
        name="other-lake",
    )
    result = runtime.answer(other_context, kb.QUERY_RATIO)
    assert not result.reused


def test_clear_answers_evicts(runtime_ctx):
    runtime, context = runtime_ctx
    runtime.answer(context, kb.QUERY_RATIO)
    runtime.context_manager.clear_answers()
    result = runtime.answer(context, kb.QUERY_RATIO)
    assert not result.reused


def test_invalidating_the_base_context_evicts_its_answers(legal_bundle):
    runtime = AnalyticsRuntime.for_bundle(
        legal_bundle, seed=55, metrics=MetricsRegistry()
    )
    context = runtime.make_context(legal_bundle)
    runtime.answer(context, kb.QUERY_RATIO)
    runtime.answer(context, kb.QUERY_TOP_STATE)
    other = runtime.make_context(
        legal_bundle.records()[:10],
        schema=legal_bundle.schema,
        desc="a different lake",
        name="other-lake",
    )
    runtime.answer(other, kb.QUERY_RATIO)

    runtime.context_manager.invalidate(context)

    assert not runtime.answer(context, kb.QUERY_RATIO).reused
    assert runtime.answer(other, kb.QUERY_RATIO).reused  # another root's survive
    assert runtime.context_manager.stats()["answers"]["evictions"] == 2
    assert runtime.llm.metrics.snapshot()["counters"]["answers.evictions"] == 2


def test_source_update_seen_by_a_standing_query_evicts_answers(runtime_ctx):
    runtime, context = runtime_ctx
    runtime.answer(context, kb.QUERY_RATIO)
    source = context.source()
    runtime.standing().register(
        "watch",
        Dataset.from_source(source),
        runtime.program_config("watch"),
    )
    source.update(source.uids()[0], {"note": "amended"})
    assert runtime.context_manager.stats()["answers"]["evictions"] == 1
    assert not runtime.answer(context, kb.QUERY_RATIO).reused


def test_source_update_reaches_the_store_as_an_update_through_the_one_walk(legal_bundle):
    runtime = AnalyticsRuntime.for_bundle(
        legal_bundle, seed=55, metrics=MetricsRegistry()
    )
    context = runtime.make_context(legal_bundle)
    result = runtime.answer(context, kb.QUERY_RATIO)
    # A sub-plan materialized over the *derived* Context: only the catalog's
    # lineage walk knows it is built on the updated source.
    store = runtime.materialization_store
    store.put("fp", [], (), result.output_context.name, cost_usd=0.0, time_s=0.0)
    source = context.source()
    # One over the base itself: the source records the rewrite, so the
    # store's next probe patches it and the walk leaves it alone.
    store.put("fp-base", [], source.uids(), source.source_id, cost_usd=0.0, time_s=0.0)
    runtime.standing().register(
        "watch",
        Dataset.from_source(source),
        runtime.program_config("watch"),
    )
    source.update(source.uids()[0], {"note": "amended"})
    assert store.get("fp") is None
    assert store.get("fp-base") is not None
    assert store.stats()["update_invalidations"] == 1
    assert runtime.llm.metrics.snapshot()["counters"]["answers.evictions"] == 1
    assert not runtime.answer(context, kb.QUERY_RATIO).reused


def test_runtime_standing_query_patches_on_update_while_derived_entries_go(legal_bundle):
    runtime = AnalyticsRuntime.for_bundle(legal_bundle, seed=55)
    context = runtime.make_context(legal_bundle)
    result = runtime.answer(context, kb.QUERY_RATIO)
    derived = result.output_context.name
    store = runtime.materialization_store
    store.put("fp-derived", [], (), derived, cost_usd=0.0, time_s=0.0)
    source = context.source()
    manager = runtime.standing()
    plan = Dataset.from_source(source).sem_filter(kb.FILTER_MENTIONS)
    # Unoptimized, so every tick binds the same model and fingerprints.
    query = manager.register(
        "watch", plan, runtime.program_config("watch", optimize=False)
    )
    victim = source.records()[0]
    source.update(victim.uid, {"contents": victim["contents"] + " Amended."})
    # The derived Context's entry went with its answer; the query's didn't.
    assert store.get("fp-derived") is None
    assert store.stats()["update_invalidations"] == 1
    assert runtime.context_manager.stats()["answers"]["evictions"] == 1
    (tick,) = manager.pump()
    assert (tick.fired, tick.reuse_kind, tick.delta_records) == ("update", "delta", 1)
    assert store.stats()["update_invalidations"] == 1
    fresh = AnalyticsRuntime.for_bundle(legal_bundle, seed=55)
    scratch = plan.run(fresh.program_config("scratch", optimize=False)).records
    assert [(r.uid, r.fields) for r in query.records] == [
        (r.uid, r.fields) for r in scratch
    ]
    assert [r.uid for r in query.folded()] == [r.uid for r in query.records]
