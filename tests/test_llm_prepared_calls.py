"""A cache hit does only per-record work — and nothing else changes.

``SimulatedLLM`` hashes the per-plan-constant head of every generation-cache
key once (a *prepared call* per endpoint kind, instruction, model and cache
scope) and hands every hit of a ``(model, tag)`` the same frozen event.
These tests pin what that must not move: the keys, the accounting, and the
batched embedding path's events.  Toy-world fixtures come from ``conftest.py``.
"""

import numpy as np
import pytest

from repro.llm import simulated
from repro.llm.cache import GenerationCache
from repro.llm.models import DEFAULT_MODEL, EMBEDDING_MODEL
from repro.llm.usage import UsageEvent, UsageTracker
from repro.obs import Tracer
from repro.utils.hashing import StablePrefix
from repro.utils.text import normalize_text

FLAG = "  Has the SPECIAL  flag? "
SAME = "same special flag"
COUNT = "extract the number of widgets"


# ---------------------------------------------------------------------------
# (b) keys: the written-out formula, scoped and unscoped
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scope", ["", "tenant-a"])
def test_cache_keys_equal_the_written_out_formula(make_toy_llm, toy_record, scope):
    llm = make_toy_llm()
    llm.cache_scope = scope
    a, b = toy_record(uid="a"), toy_record(uid="b")
    # The scoped layout: "scope", <scope> sit between the model and the kind.
    namespace = ("scope", scope) if scope else ()

    def key(model, *payload):
        return GenerationCache.key(model, *namespace, *payload)

    expected = []

    def call_adds(call, *keys):
        call()
        expected.extend(keys)
        assert len(llm.cache) == len(expected)
        assert all(llm.cache.get(k)[0] for k in expected)

    call_adds(
        lambda: llm.judge_filter(FLAG, a),
        key(DEFAULT_MODEL, "filter", normalize_text(FLAG), "a"),
    )
    call_adds(
        lambda: llm.judge_join(SAME, a, b, model="gpt-4o-mini"),
        key("gpt-4o-mini", "join", normalize_text(SAME), "a", "b"),
    )
    call_adds(
        lambda: llm.extract(COUNT, b),
        key(DEFAULT_MODEL, "extract", normalize_text(COUNT), "b"),
    )
    call_adds(lambda: llm.embed("some text"), key(EMBEDDING_MODEL, "embed", "some text"))
    call_adds(
        lambda: llm.embed_batch(["some text", "other text", "third"]),
        key(EMBEDDING_MODEL, "embed", "other text"),
        key(EMBEDDING_MODEL, "embed", "third"),
    )


def test_scope_flip_between_calls_never_reuses_the_other_scopes_hasher(
    make_toy_llm, toy_record
):
    llm = make_toy_llm()
    record = toy_record(uid="r")
    assert not llm.judge_filter(FLAG, record).event.cached
    llm.cache_scope = "tenant-a"
    assert not llm.judge_filter(FLAG, record).event.cached  # other namespace
    llm.embed("t")
    assert len(llm.cache) == 3
    llm.cache_scope = ""
    assert llm.judge_filter(FLAG, record).event.cached
    llm.embed("t")  # a miss again: the unscoped key is a different key
    assert len(llm.cache) == 4
    normalized = normalize_text(FLAG)
    for expected in (
        GenerationCache.key(DEFAULT_MODEL, "filter", normalized, "r"),
        GenerationCache.key(DEFAULT_MODEL, "scope", "tenant-a", "filter", normalized, "r"),
        GenerationCache.key(EMBEDDING_MODEL, "scope", "tenant-a", "embed", "t"),
        GenerationCache.key(EMBEDDING_MODEL, "embed", "t"),
    ):
        assert llm.cache.get(expected)[0]


def test_unknown_model_is_refused_before_anything_is_memoised(make_toy_llm, toy_record):
    from repro.errors import UnknownModelError

    llm = make_toy_llm()
    for _ in range(2):
        with pytest.raises(UnknownModelError):
            llm.judge_filter(FLAG, toy_record(uid="r"), model="no-such-model")
    assert not llm._prepared_calls and len(llm.cache) == 0


def test_classify_counts_the_option_list_it_was_given(make_toy_llm, toy_record):
    # One instruction, two option lists: the remembered token count follows
    # the list, so each call is charged for its own options.
    llm = make_toy_llm()
    short, long = ["41", "42"], ["41", "42", "a much longer option than the others"]
    tokens = [
        llm.classify("the number of widgets", options, toy_record(uid=f"u{i}")).event.input_tokens
        for i, options in enumerate([short, long, short, short, long])
    ]
    assert tokens[0] == tokens[2] == tokens[3] < tokens[1] == tokens[4]
    fresh = make_toy_llm()
    assert tokens[1] == fresh.classify(
        "the number of widgets", long, toy_record(uid="u1")
    ).event.input_tokens


# ---------------------------------------------------------------------------
# (d) accounting: N hits are N events and every reader sees what it always saw
# ---------------------------------------------------------------------------


def _hit_event(model, tag):
    return UsageEvent(
        model=model, input_tokens=0, output_tokens=0, cost_usd=0.0, latency_s=0.0,
        tag=tag, cached=True,
    )


def test_n_hits_append_n_events_and_every_reader_agrees(make_toy_llm, toy_record):
    llm = make_toy_llm()
    record = toy_record(uid="r")
    miss = llm.judge_filter(FLAG, record, tag="q:filter").event
    checkpoint = llm.tracker.checkpoint()
    hits = [llm.judge_filter(FLAG, record, tag="q:filter").event for _ in range(5)]
    hits += [llm.judge_filter(FLAG, record, tag="other").event for _ in range(2)]
    hits += [llm.extract(COUNT, record, model="gpt-4o-mini", tag="q:map").event]  # a miss
    hits += [llm.extract(COUNT, record, model="gpt-4o-mini", tag="q:map").event]

    # A tracker fed one freshly built event per call, as every hit used to be.
    reference = UsageTracker()
    reference.record(miss)
    for _ in range(5):
        reference.record(_hit_event(DEFAULT_MODEL, "q:filter"))
    for _ in range(2):
        reference.record(_hit_event(DEFAULT_MODEL, "other"))
    reference.record(hits[-2])
    reference.record(_hit_event("gpt-4o-mini", "q:map"))

    tracker = llm.tracker
    assert len(tracker.events) == 10 and tracker.events == reference.events
    assert tracker.events[checkpoint:] == hits
    assert tracker.since(checkpoint) == reference.since(checkpoint)
    assert tracker.since(checkpoint).calls == 9
    assert tracker.total() == reference.total()
    assert tracker.total("q:") == reference.total("q:")
    assert tracker.by_model() == reference.by_model()
    assert tracker.render_report() == reference.render_report()
    assert "cache hits: 8" in tracker.render_report()
    assert tracker.spent_usd == reference.spent_usd


def test_untagged_hits_resolve_their_tag_from_the_enclosing_span(make_toy_llm, toy_record):
    llm = make_toy_llm(tracer=Tracer())
    record = toy_record(uid="r")
    llm.judge_filter(FLAG, record)
    with llm.tracer.span("first-op"):
        first = llm.judge_filter(FLAG, record).event
    with llm.tracer.span("second-op"):
        second = llm.judge_filter(FLAG, record).event
        tagged = llm.judge_filter(FLAG, record, tag="explicit").event
    bare = llm.judge_filter(FLAG, record).event
    assert [e.tag for e in (first, second, tagged, bare)] == [
        "first-op", "second-op", "explicit", "",
    ]
    assert all(e.cached for e in (first, second, tagged, bare))


def test_a_hit_after_the_memo_caps_are_exceeded_is_still_a_hit(
    make_toy_llm, toy_record, monkeypatch
):
    monkeypatch.setattr(simulated, "_CALL_MEMO_CAP", 2)
    llm = make_toy_llm()
    record = toy_record(uid="r")
    instructions = [f"has the special flag, variant {i}" for i in range(5)]
    first = [llm.judge_filter(text, record, tag=f"t{i}") for i, text in enumerate(instructions)]
    again = [llm.judge_filter(text, record, tag=f"t{i}") for i, text in enumerate(instructions)]
    assert len(llm._prepared_calls) <= 2 and len(llm._hit_events) <= 2
    assert [j.answer for j in again] == [j.answer for j in first]
    assert [j.event for j in again] == [
        _hit_event(DEFAULT_MODEL, f"t{i}") for i in range(5)
    ]
    assert len(llm.tracker.events) == 10 and len(llm.cache) == 5


def test_operator_stats_count_hits_as_calls(make_llm, enron_bundle):
    from repro.data.datasets import enron as en
    from repro.sem import Dataset, MaxQuality, QueryProcessorConfig

    llm = make_llm(enron_bundle, seed=2)
    config = QueryProcessorConfig(
        llm=llm, policy=MaxQuality(), seed=2, optimize=False, parallelism=4
    )
    plan = Dataset.from_source(enron_bundle.source()).sem_filter(en.FILTER_RELEVANT)
    cold = plan.run(config)
    warm = plan.run(config)
    n = enron_bundle.source().cardinality()
    cold_filter, warm_filter = cold.operator_stats[-1], warm.operator_stats[-1]
    assert (cold_filter.llm_calls, cold_filter.cached_calls) == (n, 0)
    assert (warm_filter.llm_calls, warm_filter.cached_calls) == (n, n)
    assert warm_filter.cost_usd == 0.0 and warm_filter.total_tokens == 0
    assert warm.total_cost_usd == 0.0 and cold.total_cost_usd > 0.0
    assert [r.uid for r in warm.records] == [r.uid for r in cold.records]


# ---------------------------------------------------------------------------
# (e) embed_batch: one key per unique text, the per-text path's events
# ---------------------------------------------------------------------------


def _warm_llm(make_toy_llm):
    llm = make_toy_llm()
    for text in ("warm one", "warm two"):
        llm.embed(text)
    llm.tracker.reset()
    return llm


def test_embed_batch_digests_one_key_per_unique_text(make_toy_llm, monkeypatch):
    llm = _warm_llm(make_toy_llm)
    texts = ["warm one", "miss a", "miss a", "warm two", "miss b", "warm one", "miss a"]
    digested = []
    original = StablePrefix.digest

    def counting(self, *tail):
        digested.append(tail)
        return original(self, *tail)

    monkeypatch.setattr(StablePrefix, "digest", counting)
    llm.embed_batch(texts)
    assert sorted(digested) == sorted((text,) for text in set(texts))


@pytest.mark.parametrize("batch_size", [1, 2, 64])
def test_embed_batch_events_and_vectors_equal_the_per_text_paths(make_toy_llm, batch_size):
    texts = ["warm one", "miss a", "miss a", "warm two", "miss b", "warm one", "miss c"]
    unique = list(dict.fromkeys(texts))
    batched_llm, single_llm = _warm_llm(make_toy_llm), _warm_llm(make_toy_llm)

    vectors = batched_llm.embed_batch(texts, tag="t", batch_size=batch_size)
    singles = {text: single_llm.embed(text, tag="t") for text in unique}

    assert len(vectors) == len(texts)
    for text, vector in zip(texts, vectors):
        assert np.array_equal(vector, singles[text])
    batched, single = batched_llm.tracker.events, single_llm.tracker.events
    # Hits first (one per unique cached text), then one event per chunk of misses.
    assert batched[:2] == [_hit_event(EMBEDDING_MODEL, "t")] * 2
    assert [e for e in single if e.cached] == batched[:2]
    misses = [e for e in single if not e.cached]
    chunks = batched[2:]
    assert len(chunks) == -(-len(misses) // batch_size)
    assert sum(e.input_tokens for e in chunks) == sum(e.input_tokens for e in misses)
    assert batched_llm.tracker.total().cost_usd == pytest.approx(
        single_llm.tracker.total().cost_usd, rel=1e-12
    )
    if batch_size == 1:
        assert chunks == misses
    # Both paths left the same entries in the cache, under the same keys.
    assert len(batched_llm.cache) == len(single_llm.cache) == 5
    for text in unique:
        assert batched_llm.cache.get(GenerationCache.key(EMBEDDING_MODEL, "embed", text))[0]
