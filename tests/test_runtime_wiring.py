"""Regression tests: explicit-LLM constructor wiring and cache bounds.

``AnalyticsRuntime(llm=...)`` historically dropped ``fault_config`` /
``retry_policy`` / ``tracer`` / ``metrics`` on the floor; the runtime now
wires them onto the provided client when the client has nothing configured
there, and raises on genuine conflicts.  Alongside: the similarity
catalog's counters mirror into the metrics registry, and
``MaterializationStore.load`` enforces ``MAX_ENTRIES`` before materializing
anything.
"""

from __future__ import annotations

import pytest

from repro.core.runtime import AnalyticsRuntime
from repro.data.datasets import kramabench as kb
from repro.data.records import DataRecord
from repro.llm.faults import FaultConfig, FaultInjector, RetryPolicy
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.sem.materialize import MaterializationStore


# ---------------------------------------------------------------------------
# _wire_explicit_llm: kwargs reach an explicitly provided substrate
# ---------------------------------------------------------------------------


def test_tracer_wired_onto_explicit_llm(make_toy_llm):
    llm = make_toy_llm()
    tracer = Tracer()
    runtime = AnalyticsRuntime(llm=llm, tracer=tracer)
    assert runtime.llm.tracer is tracer
    assert tracer.clock is llm.clock


def test_metrics_wired_onto_explicit_llm(make_toy_llm):
    llm = make_toy_llm()
    metrics = MetricsRegistry()
    runtime = AnalyticsRuntime(llm=llm, metrics=metrics)
    assert llm.metrics is metrics
    assert llm.cache.metrics is metrics
    assert runtime.context_manager.llm.metrics is metrics


def test_retry_policy_wired_when_default(make_toy_llm):
    llm = make_toy_llm()
    policy = RetryPolicy(max_attempts=5)
    AnalyticsRuntime(llm=llm, retry_policy=policy)
    assert llm.retry is policy


def test_fault_config_wired_when_unset(make_toy_llm):
    llm = make_toy_llm()
    config = FaultConfig(rate=0.2)
    AnalyticsRuntime(llm=llm, fault_config=config)
    assert llm.faults is not None
    assert llm.faults.config == config
    assert llm.faults.seed == llm.seed


def test_conflicting_tracer_raises(make_toy_llm):
    llm = make_toy_llm(tracer=Tracer())
    with pytest.raises(ValueError, match="tracer"):
        AnalyticsRuntime(llm=llm, tracer=Tracer())


def test_same_tracer_is_not_a_conflict(make_toy_llm):
    tracer = Tracer()
    llm = make_toy_llm(tracer=tracer)
    runtime = AnalyticsRuntime(llm=llm, tracer=tracer)
    assert runtime.llm.tracer is tracer


def test_conflicting_retry_policy_raises(make_toy_llm):
    llm = make_toy_llm(retry=RetryPolicy(max_attempts=7))
    with pytest.raises(ValueError, match="retry"):
        AnalyticsRuntime(llm=llm, retry_policy=RetryPolicy(max_attempts=2))


def test_conflicting_fault_config_raises(make_toy_llm):
    llm = make_toy_llm(
        faults=FaultInjector(FaultConfig(rate=0.5), seed=0)
    )
    with pytest.raises(ValueError, match="fault"):
        AnalyticsRuntime(llm=llm, fault_config=FaultConfig(rate=0.1))


def test_matching_fault_config_is_not_a_conflict(make_toy_llm):
    config = FaultConfig(rate=0.5)
    llm = make_toy_llm(faults=FaultInjector(config, seed=0))
    runtime = AnalyticsRuntime(llm=llm, fault_config=FaultConfig(rate=0.5))
    assert runtime.llm.faults is llm.faults


def test_conflicting_metrics_raises(make_toy_llm):
    llm = make_toy_llm(metrics=MetricsRegistry())
    with pytest.raises(ValueError, match="metrics"):
        AnalyticsRuntime(llm=llm, metrics=MetricsRegistry())


# ---------------------------------------------------------------------------
# The similarity catalog: one counter set, mirrored as contexts.* / answers.*
# ---------------------------------------------------------------------------


def test_answer_cache_stats_and_metrics_mirror(legal_bundle):
    metrics = MetricsRegistry()
    runtime = AnalyticsRuntime.for_bundle(legal_bundle, seed=55, metrics=metrics)
    catalog = runtime.context_manager
    context = runtime.make_context(legal_bundle)
    catalog.find_similar(kb.QUERY_RATIO)  # a miss on the empty catalog
    runtime.answer(context, kb.QUERY_RATIO)  # answer miss, then a store
    assert runtime.answer(context, kb.QUERY_RATIO).reused  # answer hit
    entry, _ = catalog.find_similar(kb.QUERY_RATIO)  # a context hit
    assert entry is not None
    assert sum(cached.answer is not None for cached in catalog.entries()) == 1
    registered = len(catalog)
    assert catalog.invalidate(context) == registered

    stats = catalog.stats()
    answers = stats.pop("answers")
    assert stats == {
        "entries": 0,
        "stores": registered,
        "hits": 1,
        "misses": 1,
        "evictions": registered,
    }
    assert answers == {"stores": 1, "hits": 1, "misses": 1, "evictions": 1}
    counters = metrics.snapshot()["counters"]
    for kind, counts in (("contexts", stats), ("answers", answers)):
        for event in ("stores", "hits", "misses", "evictions"):
            assert counters[f"{kind}.{event}"] == counts[event]


# ---------------------------------------------------------------------------
# MaterializationStore.load: capacity enforced before materialization
# ---------------------------------------------------------------------------


def _entry_records(tag: str) -> list[DataRecord]:
    return [DataRecord({"body": tag}, uid=f"{tag}-rec")]


def test_load_enforces_max_entries(tmp_path, monkeypatch):
    big = MaterializationStore()
    for index in range(4):
        big.put(
            f"fp-{index}",
            _entry_records(f"t{index}"),
            (f"src-{index}",),
            "src",
            cost_usd=0.1,
            time_s=1.0,
        )
    path = tmp_path / "store.json"
    assert big.save(path) == 4

    monkeypatch.setattr(MaterializationStore, "MAX_ENTRIES", 2)
    small = MaterializationStore()
    assert small.load(path) == 2
    assert len(small) == 2
    # Save order is LRU order (last = most recent): the newest two survive.
    assert {entry.fingerprint for entry in small.entries()} == {"fp-2", "fp-3"}
    assert small.evictions == 2
    assert small.stats()["evictions"] == 2


def test_load_within_capacity_evicts_nothing(tmp_path):
    big = MaterializationStore()
    big.put("fp-a", _entry_records("a"), ("u",), "src", cost_usd=0.1, time_s=1.0)
    path = tmp_path / "store.json"
    big.save(path)

    fresh = MaterializationStore()
    assert fresh.load(path) == 1
    assert fresh.evictions == 0
