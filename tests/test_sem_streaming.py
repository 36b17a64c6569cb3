"""Standing queries: triggers, changelogs, delta reuse, and invalidation.

The tentpole contract: a registered standing query, refreshed tick by
tick as its sources receive appends and updates, must always hold the
exact view a from-scratch run over the full stream would produce — and
its changelog, folded from empty, must reproduce that view at every
tick.  The count trigger and update-forced refreshes only decide
*when* work happens, never *what* the answer is.
"""

from __future__ import annotations

import difflib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.context import Context
from repro.core.context_manager import ContextManager
from repro.data.records import DataRecord, reset_uid_counter
from repro.data.schemas import Field
from repro.data.sources import MemorySource
from repro.errors import StreamingError
from repro.llm.oracle import SemanticOracle
from repro.llm.simulated import SimulatedLLM
from repro.obs import Tracer, validate_spans
from repro.obs.metrics import MetricsRegistry
from repro.obs.stats import StatisticsStore
from repro.qa.corpus import CorpusSpec, build_corpus, instruction_for
from repro.sem import (
    Dataset,
    QueryProcessorConfig,
    RefreshPolicy,
    StandingQueryManager,
    fold_changelog,
)
from repro.sem.materialize import MaterializationStore
from repro.sem.shard import PARTITIONERS
from repro.sem import streaming
from repro.sem.streaming import ChangeEntry, diff_records


@pytest.fixture(scope="module")
def qa_bundle():
    return build_corpus(CorpusSpec(seed=19, n_records=18))


def _config(bundle, *, seed: int = 19, **kwargs) -> QueryProcessorConfig:
    llm = SimulatedLLM(oracle=SemanticOracle(bundle.registry), seed=seed)
    kwargs.setdefault("optimize", False)
    return QueryProcessorConfig(llm=llm, seed=seed, **kwargs)


def _normalized(records):
    return [(r.uid, tuple(sorted(r.fields.items()))) for r in records]


def _sem_plan(source) -> Dataset:
    """A delta-safe semantic chain: filter -> map."""
    return (
        Dataset.from_source(source)
        .sem_filter(instruction_for("qa.flag_urgent"))
        .sem_map(
            Field("customer", str, "customer name"),
            instruction_for("qa.customer"),
        )
    )


def _full_run(bundle, records, *, seed: int = 19):
    """From-scratch evaluation over ``records`` on a fresh substrate."""
    source = MemorySource(records, bundle.schema, source_id=bundle.name)
    return _sem_plan(source).run(_config(bundle, seed=seed)).records


def _standing(bundle, base, *, policy=None, store=None, config=None, **manager_kwargs):
    """A registered standing query over ``base`` plus its live source."""
    source = MemorySource(base, bundle.schema, source_id=bundle.name)
    manager = StandingQueryManager(store=store, **manager_kwargs)
    query = manager.register(
        "live", _sem_plan(source), config or _config(bundle), policy=policy
    )
    return manager, query, source


# ---------------------------------------------------------------------------
# RefreshPolicy validation
# ---------------------------------------------------------------------------


def test_policy_rejects_unknown_trigger():
    with pytest.raises(StreamingError, match="unknown refresh trigger"):
        RefreshPolicy(trigger="cron")


@pytest.mark.parametrize("kwargs", [{"count": 0}])
def test_policy_rejects_negative_knobs(kwargs):
    with pytest.raises(StreamingError):
        RefreshPolicy(**kwargs)


@pytest.mark.parametrize("trigger", ["interval", "watermark", "governor"])
def test_policy_names_count_as_the_only_trigger(trigger):
    with pytest.raises(StreamingError, match="'count'"):
        RefreshPolicy(trigger=trigger)


# ---------------------------------------------------------------------------
# diff / fold changelog algebra
# ---------------------------------------------------------------------------


def _recs(uids):
    return [DataRecord({"v": uid}, uid=uid) for uid in uids]


def test_diff_then_fold_roundtrips_arbitrary_edits():
    before = _recs(["a", "b", "c", "d"])
    after = _recs(["b", "x", "c", "y"])
    entries = diff_records(before, after, tick=3)
    assert [r.uid for r in fold_changelog(before, entries)] == [
        "b", "x", "c", "y",
    ]


def test_fold_rejects_mismatched_retract():
    before = _recs(["a", "b"])
    entries = diff_records(before, _recs(["b"]), tick=0)
    with pytest.raises(StreamingError, match="retract at position"):
        fold_changelog(_recs(["z", "b"]), entries)


def test_changelog_entries_carry_lineage():
    parent = DataRecord({"v": 1}, uid="p")
    child = parent.derive(new_fields={"w": 2})
    entries = diff_records([], [child], tick=0)
    assert entries[0].kind == "insert"
    assert entries[0].record.uid == child.uid
    assert entries[0].record.parent_uids == ("p",)


def _reference_diff(before, after, tick):
    """The full-sequence matcher ``diff_records`` must stay equal to."""
    key = streaming._record_key
    matcher = difflib.SequenceMatcher(
        a=[key(record) for record in before],
        b=[key(record) for record in after],
        autojunk=False,
    )
    entries = []
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag in ("delete", "replace"):
            entries.extend(
                ChangeEntry("retract", tick, position, before[position])
                for position in range(i1, i2)
            )
        if tag in ("insert", "replace"):
            entries.extend(
                ChangeEntry("insert", tick, position, after[position])
                for position in range(j1, j2)
            )
    return entries


#: Two objects per (uid, value) so a draw mixes same-object and
#: equal-but-distinct-object records; repeated picks give duplicate keys.
_POOL = [
    DataRecord({"v": value}, uid=uid)
    for uid in "abc"
    for value in (0, 1)
    for _copy in range(2)
]
_picks = st.lists(st.sampled_from(_POOL), max_size=10)


@settings(max_examples=300, deadline=None)
@given(
    before=_picks,
    tail=_picks,
    cut=st.integers(min_value=0, max_value=10),
    shape=st.sampled_from(["append", "truncate", "edit", "unrelated"]),
)
def test_property_diff_records_matches_the_full_matcher(before, tail, cut, shape):
    cut = min(cut, len(before))
    after = {
        "append": before + tail,
        "truncate": before[:cut],
        "edit": before[:cut] + tail + before[cut + 1 :],
        "unrelated": tail,
    }[shape]
    got = diff_records(before, after, tick=7)
    want = _reference_diff(before, after, tick=7)
    assert [(e.kind, e.tick, e.position) for e in got] == [
        (e.kind, e.tick, e.position) for e in want
    ]
    assert all(g.record is w.record for g, w in zip(got, want))


# ---------------------------------------------------------------------------
# Registration
# ---------------------------------------------------------------------------


def test_register_requires_subscribable_source(qa_bundle):
    from repro.sem import logical as L

    dataset = Dataset(L.ScanOp(child=None, source=None))
    manager = StandingQueryManager()
    with pytest.raises(StreamingError, match="no subscribable"):
        manager.register("dead", dataset, _config(qa_bundle))


def test_register_rejects_duplicate_names(qa_bundle):
    manager, _query, source = _standing(qa_bundle, qa_bundle.records()[:4])
    with pytest.raises(StreamingError, match="already registered"):
        manager.register(
            "live", _sem_plan(source), _config(qa_bundle)
        )


def test_register_primes_a_base_view(qa_bundle):
    records = qa_bundle.records()
    _manager, query, _source = _standing(qa_bundle, records[:8])
    assert query.tick_count == 1
    assert query.ticks[0].fired == "register"
    assert _normalized(query.records) == _normalized(
        _full_run(qa_bundle, records[:8])
    )


def test_register_leaves_the_callers_config_untouched(qa_bundle):
    """The manager's stores and each tick's tag land on derived copies."""
    records = qa_bundle.records()
    config = _config(qa_bundle, tag="mine")
    before = dict(vars(config))
    manager, query, source = _standing(
        qa_bundle,
        records[:8],
        config=config,
        store=MaterializationStore(),
        stats_store=StatisticsStore(),
    )
    source.append(records[8:10])
    (tick,) = manager.pump()
    assert tick.reuse_kind == "delta"  # the derived config did get the store
    assert vars(config) == before
    assert query.config is not config
    assert query.config.materialization_store is manager.store
    assert query.config.stats_store is manager.stats_store


# ---------------------------------------------------------------------------
# Count trigger + incremental convergence
# ---------------------------------------------------------------------------


def test_count_trigger_batches_until_threshold(qa_bundle):
    records = qa_bundle.records()
    manager, query, source = _standing(
        qa_bundle,
        records[:10],
        policy=RefreshPolicy(trigger="count", count=4),
        store=MaterializationStore(),
    )
    source.append(records[10:12])
    assert manager.pump() == []  # 2 pending < 4: keep batching
    assert query.pending_appends == 2
    source.append(records[12:14])
    ticks = manager.pump()
    assert [t.fired for t in ticks] == ["count"]
    assert query.pending_appends == 0
    assert _normalized(query.records) == _normalized(
        _full_run(qa_bundle, records[:14])
    )
    assert _normalized(query.folded()) == _normalized(query.records)


def test_ticks_take_the_delta_reuse_path(qa_bundle):
    records = qa_bundle.records()
    store = MaterializationStore()
    manager, query, source = _standing(
        qa_bundle, records[:10], store=store
    )
    primed_cost = query.cumulative_cost_usd
    source.append(records[10:12])
    (tick,) = manager.pump()
    assert tick.reuse_kind == "delta"
    assert tick.reused_prefix >= 1
    assert tick.delta_records == 2
    # O(delta), not O(stream): the tick costs less than re-priming.
    assert tick.cost_usd < primed_cost
    assert _normalized(query.records) == _normalized(
        _full_run(qa_bundle, records[:12])
    )


def _count_record_keys(monkeypatch) -> list:
    """Count ``_record_key`` renderings: the cost of the full matcher."""
    calls = []
    real = streaming._record_key

    def counting(record):
        calls.append(record.uid)
        return real(record)

    monkeypatch.setattr(streaming, "_record_key", counting)
    return calls


def test_append_tick_renders_no_record_update_tick_does(qa_bundle, monkeypatch):
    records = qa_bundle.records()
    manager, query, source = _standing(
        qa_bundle, records[:10], store=MaterializationStore()
    )
    assert query.records  # a non-empty view the matcher would have to render
    calls = _count_record_keys(monkeypatch)
    source.append(records[10:14])
    (tick,) = manager.pump()
    assert tick.reuse_kind == "delta"
    assert calls == []  # replayed view + tail: identity prefix only
    assert tick.inserts and not tick.retracts
    assert _normalized(query.folded()) == _normalized(query.records)
    victim = query.records[0].parent_uids[0]
    source.update(victim, {"priority": 9})
    manager.pump()
    assert calls  # recomputed view: new objects, the matcher runs


# ---------------------------------------------------------------------------
# Update events: forced invalidation past delta-safe prefixes
# ---------------------------------------------------------------------------


def test_update_event_invalidates_and_converges(qa_bundle):
    records = qa_bundle.records()
    store = MaterializationStore()
    manager, query, source = _standing(
        qa_bundle,
        records[:10],
        policy=RefreshPolicy(trigger="count", count=100),  # never by count
        store=store,
    )
    victim = records[0]
    source.update(
        victim.uid, {"body": victim.fields["body"] + " URGENT escalation"}
    )
    (tick,) = manager.pump()
    # Updates force the refresh regardless of the count trigger...
    assert tick.fired == "update"
    assert tick.pending_updates == 1
    # ...the rewritten record alone re-ran through the replayed prefix: its
    # stored outputs were invalidated, nothing was evicted...
    assert (tick.reuse_kind, tick.reused_prefix, tick.delta_records) == ("delta", 3, 1)
    assert store.stats()["update_invalidations"] == 0
    assert store.stats()["delta_records"] == 1
    # ...and the rewritten record's judgments were re-derived, not reused.
    assert _normalized(query.records) == _normalized(
        _full_run_current(qa_bundle, source)
    )
    assert _normalized(query.folded()) == _normalized(query.records)


def test_update_on_pass_through_plan_reaches_the_changelog(qa_bundle):
    """A filter-only view aliases source records: an amended record must
    show up as retract(old) + insert(new), never rewrite emitted entries."""
    records = qa_bundle.records()
    source = MemorySource(records[:10], qa_bundle.schema, source_id=qa_bundle.name)
    manager = StandingQueryManager(store=MaterializationStore())
    query = manager.register(
        "live",
        Dataset.from_source(source).sem_filter(instruction_for("qa.flag_urgent")),
        _config(qa_bundle),
    )
    position, victim = 0, query.records[0]
    old_priority = victim.fields["priority"]
    source.update(victim.uid, {"priority": old_priority + 100})
    (tick,) = manager.pump()
    assert query.records[position].uid == victim.uid  # stayed in the view
    assert [(e.kind, e.position, e.record.uid) for e in tick.changelog] == [
        ("retract", position, victim.uid),
        ("insert", position, victim.uid),
    ]
    retract, insert = tick.changelog
    assert retract.record.fields["priority"] == old_priority
    assert insert.record.fields["priority"] == old_priority + 100
    # Tick 0's entry still shows what was emitted then.
    assert query.changelog[position].record.fields["priority"] == old_priority
    assert _normalized(fold_changelog([], query.changelog)) == _normalized(
        query.records
    )


def _full_run_current(bundle, source):
    """From-scratch evaluation over the source's *current* records."""
    return _full_run(bundle, source.records())


def test_update_event_cascades_to_context_manager(qa_bundle):
    records = qa_bundle.records()
    config = _config(qa_bundle)
    contexts = ContextManager(config.llm)
    feed = Context(records[:6], qa_bundle.schema, desc="feed", name=qa_bundle.name)
    contexts.register(feed.derived("urgent tickets", records[:2]), "find urgent")
    _manager, query, source = _standing(
        qa_bundle, records[:6], config=config, context_manager=contexts
    )
    source.update(records[0].uid, {"priority": 4})
    assert len(contexts) == 0  # the view derived from the source went stale
    assert query.pending_updates == 1


def _seeded_priors(qa_bundle):
    """A standing query whose store holds a well-observed prior on its own
    dataset and one on another dataset."""
    records = qa_bundle.records()
    stats = StatisticsStore()
    _manager, _query, source = _standing(qa_bundle, records[:8], stats_store=stats)
    for _ in range(8):
        stats.observe(
            "k1", "sem_filter", "m", source.source_id, "run",
            records_in=10, records_out=5, cost_usd=0.01,
        )
    stats.observe(
        "elsewhere", "sem_filter", "m", "another-source", "run",
        records_in=10, records_out=5,
    )
    before = {prior.key: prior.to_dict() for prior in stats.priors()}
    return records, stats, source, before


def test_append_keeps_every_prior(qa_bundle):
    records, stats, source, before = _seeded_priors(qa_bundle)
    assert before["k1"]["observations"] == 8
    source.append(records[8:9])  # an append leaves every prior as it was
    assert {prior.key: prior.to_dict() for prior in stats.priors()} == before
    assert stats.dataset_invalidations == 0


def test_update_decays_statistics_priors(qa_bundle):
    # An in-place update decays the dataset's priors all the way: they are
    # dropped, and other datasets keep theirs.
    records, stats, source, before = _seeded_priors(qa_bundle)
    source.update(records[0].uid, {"priority": 1})
    assert stats.prior("k1") is None
    assert stats.prior("elsewhere").to_dict() == before["elsewhere"]
    assert stats.dataset_invalidations >= 1


# ---------------------------------------------------------------------------
# Observability: spans, metrics, EXPLAIN footer
# ---------------------------------------------------------------------------


def test_standing_spans_validate_and_carry_tick_attributes(qa_bundle):
    records = qa_bundle.records()
    tracer = Tracer()
    source = MemorySource(records[:8], qa_bundle.schema, source_id=qa_bundle.name)
    llm = SimulatedLLM(
        oracle=SemanticOracle(qa_bundle.registry), seed=19, tracer=tracer
    )
    config = QueryProcessorConfig(
        llm=llm, seed=19, optimize=False
    )
    manager = StandingQueryManager()
    manager.register("traced", _sem_plan(source), config)
    source.append(records[8:10])
    manager.pump()
    validate_spans(tracer.spans)
    kinds = [span.kind for span in tracer.spans]
    assert "standing-query" in kinds
    assert kinds.count("standing-tick") == 2  # prime + append tick
    assert "changelog" in kinds
    tick_span = [s for s in tracer.spans if s.kind == "standing-tick"][-1]
    assert tick_span.attributes["fired"] == "count"
    assert "inserts" in tick_span.attributes


def test_streaming_metrics_counters(qa_bundle):
    records = qa_bundle.records()
    metrics = MetricsRegistry()
    llm = SimulatedLLM(
        oracle=SemanticOracle(qa_bundle.registry), seed=19, metrics=metrics
    )
    config = QueryProcessorConfig(llm=llm, seed=19, optimize=False)
    manager, _query, source = _standing(qa_bundle, records[:8], config=config)
    source.append(records[8:10])
    manager.pump()
    assert metrics.counters["streaming.queries"].value == 1
    assert metrics.counters["streaming.appends"].value == 1
    assert metrics.counters["streaming.appended_records"].value == 2
    assert metrics.counters["streaming.ticks"].value == 2
    assert "streaming.refreshes" not in metrics.counters  # ticks counts every refresh


def test_explain_appends_refresh_provenance_footer(qa_bundle):
    records = qa_bundle.records()
    manager, query, source = _standing(
        qa_bundle, records[:8], store=MaterializationStore()
    )
    source.append(records[8:10])
    manager.pump()
    rendered = query.explain()
    assert "standing query 'live'" in rendered
    assert "2 ticks, trigger=count" in rendered
    assert "fired by count" in rendered
    assert "delta prefix=" in rendered


# ---------------------------------------------------------------------------
# Property: folded changelog == full recompute on random append schedules
# ---------------------------------------------------------------------------


@pytest.mark.slow
@settings(max_examples=12, deadline=None)
@given(
    split=st.integers(min_value=1, max_value=12),
    chunks=st.lists(st.integers(min_value=1, max_value=4), max_size=5),
    update_at=st.integers(min_value=-1, max_value=4),
)
def test_property_folded_state_matches_full_recompute(split, chunks, update_at):
    """Any append/update schedule: view == from-scratch, fold == view."""
    reset_uid_counter()
    bundle = build_corpus(CorpusSpec(seed=29, n_records=16))
    records = bundle.records()
    manager, query, source = _standing(
        bundle, records[:split], store=MaterializationStore()
    )
    cursor = split
    for index, chunk in enumerate(chunks):
        if index == update_at and query.records:
            target = records[0]
            source.update(
                target.uid, {"body": target.fields["body"] + " amended"}
            )
            manager.pump()
        batch = records[cursor : cursor + chunk]
        cursor += len(batch)
        if not batch:
            break
        source.append(batch)
        manager.pump()
        assert _normalized(query.folded()) == _normalized(query.records)
    assert _normalized(query.records) == _normalized(
        _full_run_from(bundle, source)
    )


@pytest.mark.slow
@settings(max_examples=15, deadline=None)
@given(
    split=st.integers(min_value=1, max_value=10),
    chunks=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4),
    shards=st.sampled_from([1, 2, 4]),
    partitioner=st.sampled_from(PARTITIONERS),
)
def test_property_standing_view_is_shard_count_independent(
    split, chunks, shards, partitioner
):
    """Append schedules x shard count x partitioner: one reuse decision.

    The standing view equals the unsharded one and a from-scratch run, the
    folded changelog equals the view at every tick, and — the plan being
    incremental-safe — every append tick is a delta tick with the same
    provenance and spend, however the tail is scattered.
    """
    reset_uid_counter()
    bundle = build_corpus(CorpusSpec(seed=29, n_records=16))
    records = bundle.records()

    def standing(**sharding):
        return _standing(
            bundle, records[:split], store=MaterializationStore(),
            config=_config(bundle, **sharding),
        )

    manager, query, source = standing(shards=shards, partitioner=partitioner)
    plain_manager, plain, plain_source = standing()
    cursor = split
    for chunk in chunks:
        batch = records[cursor : cursor + chunk]
        cursor += len(batch)
        if not batch:
            break
        for live_source, live_manager in ((source, manager), (plain_source, plain_manager)):
            live_source.append(batch)
            live_manager.pump()
        tick, plain_tick = query.ticks[-1], plain.ticks[-1]
        assert tick.reuse_kind == "delta" and tick.delta_records == len(batch)
        assert (tick.reuse_kind, tick.reused_prefix, tick.delta_records) == (
            plain_tick.reuse_kind, plain_tick.reused_prefix, plain_tick.delta_records
        )
        assert tick.cost_usd == pytest.approx(plain_tick.cost_usd, abs=1e-12)
        assert _normalized(query.folded()) == _normalized(query.records)
        assert _normalized(query.records) == _normalized(plain.records)
    assert _normalized(query.records) == _normalized(_full_run_from(bundle, source))
    assert query.config.materialization_store.stats() == (
        plain.config.materialization_store.stats()
    )


def _full_run_from(bundle, source):
    fresh = MemorySource(
        source.records(), bundle.schema, source_id=bundle.name
    )
    return _sem_plan(fresh).run(_config(bundle, seed=19)).records
