"""Tests for sub-plan materialization: fingerprints, store, and reuse."""

import json
from pathlib import Path

import pytest

from repro.data.records import DataRecord
from repro.data.schemas import Field, Schema
from repro.llm.models import DEFAULT_MODEL
from repro.llm.simulated import SimulatedLLM
from repro.obs.metrics import MetricsRegistry
from repro.sem.config import QueryProcessorConfig
from repro.sem.dataset import Dataset
from repro.sem.explain import explain_analyze
from repro.sem.materialize import (
    FINGERPRINT_VERSION,
    MaterializationStore,
    incremental_safe_prefix,
    prefix_fingerprints,
)

SCHEMA = Schema([Field("text", str)])

FILTER_A = "The text mentions suspicious deals."
FILTER_B = "The text is a firsthand account."
FILTER_C = "The text names a specific person."


def _records(n, prefix="u"):
    return [DataRecord({"text": f"text number {i}"}, uid=f"{prefix}{i}") for i in range(n)]


def _fingerprints(dataset, models=None, seed=0):
    chain = dataset.plan().operators()
    if models is None:
        models = [None] + ["gpt-4o"] * (len(chain) - 1)
    return prefix_fingerprints(chain, models, seed)


def _dataset(records, source_id="src"):
    return Dataset.from_records(records, SCHEMA, source_id=source_id)


def _config(store, seed=0, **kwargs):
    return QueryProcessorConfig(
        llm=SimulatedLLM(seed=seed),
        seed=seed,
        optimize=False,
        materialization_store=store,
        **kwargs,
    )


def _normalized(result):
    return [(r.uid, tuple(sorted(r.fields.items()))) for r in result.records]


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------


def test_fingerprint_stable_across_process_runs():
    # Hard-coded digest: fingerprints must be a pure function of the plan
    # shape, independent of process, hash seed, or object identity —
    # that's what makes a persisted store replayable in a later run.
    ds = _dataset(_records(1), source_id="stable-src").sem_filter(
        "Keep interesting records."
    )
    fps = _fingerprints(ds)
    assert fps == [None, "840652131ceb6065"]


def test_fingerprint_normalizes_instruction_text():
    base = _dataset(_records(1)).sem_filter("keep interesting records.")
    shouty = _dataset(_records(1)).sem_filter("  Keep   INTERESTING records. ")
    assert _fingerprints(base)[-1] == _fingerprints(shouty)[-1]


def test_fingerprint_commuting_filter_reorder_invariant():
    ab = _dataset(_records(1)).sem_filter(FILTER_A).sem_filter(FILTER_B)
    ba = _dataset(_records(1)).sem_filter(FILTER_B).sem_filter(FILTER_A)
    assert _fingerprints(ab)[-1] == _fingerprints(ba)[-1]


def test_fingerprint_cut_commuting_run_is_order_invariant():
    # A prefix boundary that slices a commuting run in half still
    # canonicalizes: {A, B} as a set decides the records, not the order.
    abc = (
        _dataset(_records(1))
        .sem_filter(FILTER_A)
        .sem_filter(FILTER_B)
        .sem_filter(FILTER_C)
    )
    bac = (
        _dataset(_records(1))
        .sem_filter(FILTER_B)
        .sem_filter(FILTER_A)
        .sem_filter(FILTER_C)
    )
    # Prefixes holding the same filter *subset* {A, B} agree even though
    # the third filter cuts the commuting run at the boundary...
    assert _fingerprints(abc)[2] == _fingerprints(bac)[2]
    assert _fingerprints(abc)[3] == _fingerprints(bac)[3]
    # ...but prefixes holding different subsets ({A} vs {B}) must differ.
    assert _fingerprints(abc)[1] != _fingerprints(bac)[1]


def test_fingerprint_sensitive_to_model_seed_and_source():
    ds = _dataset(_records(1)).sem_filter(FILTER_A)
    base = _fingerprints(ds)[-1]
    assert _fingerprints(ds, models=[None, "gpt-4o-mini"])[-1] != base
    assert _fingerprints(ds, seed=1)[-1] != base
    other_source = _dataset(_records(1), source_id="other").sem_filter(FILTER_A)
    assert _fingerprints(other_source)[-1] != base


def test_undescribed_python_op_poisons_suffix():
    ds = (
        _dataset(_records(1))
        .sem_filter(FILTER_A)
        .filter(lambda r: True)  # no description: not process-stable
        .sem_filter(FILTER_B)
    )
    fps = _fingerprints(ds)
    assert fps[1] is not None  # boundary before the lambda is fine
    assert fps[2] is None and fps[3] is None


def test_described_python_op_is_fingerprintable():
    ds = (
        _dataset(_records(1))
        .sem_filter(FILTER_A)
        .filter(lambda r: True, description="always true")
    )
    assert _fingerprints(ds)[-1] is not None


def test_free_prefix_not_materialized():
    ds = _dataset(_records(1)).project(["text"]).limit(5)
    assert _fingerprints(ds) == [None, None, None]


def test_incremental_safe_prefix_stops_at_whole_input_ops():
    ds = (
        _dataset(_records(1))
        .sem_filter(FILTER_A)
        .sem_map(Field("summary", str), "Summarize the text.")
        .sem_topk("most relevant", k=3)
        .sem_filter(FILTER_B)
    )
    chain = ds.plan().operators()
    assert incremental_safe_prefix(chain) == [True, True, True, False, False]


# ----------------------------------------------------------------------
# MaterializationStore
# ----------------------------------------------------------------------


def test_store_match_exact_delta_stale_miss():
    store = MaterializationStore()
    uids = ("u0", "u1", "u2")
    store.put("fp", _records(3), uids, "src", cost_usd=1.0, time_s=2.0)

    kind, entry = store.match("fp", uids)
    assert kind == "exact" and entry is not None

    kind, entry = store.match("fp", uids + ("u3",))
    assert kind == "delta" and entry is not None

    assert store.match("absent", uids) == ("miss", None)

    # Shrinkage is not append-only growth: the entry is dropped.
    kind, entry = store.match("fp", uids[:2])
    assert kind == "stale" and entry is None
    assert store.invalidations == 1
    assert len(store) == 0


def test_store_lru_eviction_and_hit_refresh(monkeypatch):
    monkeypatch.setattr(MaterializationStore, "MAX_ENTRIES", 2)
    store = MaterializationStore()
    for name in ("a", "b"):
        store.put(name, _records(1), ("u0",), "src", cost_usd=0.0, time_s=0.0)
    # Touch "a" so "b" becomes least recently used.
    _, entry = store.match("a", ("u0",))
    store.note_hit(entry, "exact")
    store.put("c", _records(1), ("u0",), "src", cost_usd=0.0, time_s=0.0)
    assert store.evictions == 1
    assert store.get("b") is None
    assert store.get("a") is not None and store.get("c") is not None


def test_store_counters_and_metrics_mirror():
    store = MaterializationStore()
    store.metrics = metrics = MetricsRegistry()
    store.put("fp", _records(2), ("u0", "u1"), "src", cost_usd=0.5, time_s=1.0)
    _, entry = store.match("fp", ("u0", "u1", "u2"))
    store.note_hit(entry, "delta", delta_records=1)
    store.note_miss()
    stats = store.stats()
    assert stats["stores"] == 1 and stats["hits"] == 1
    assert stats["delta_hits"] == 1 and stats["delta_records"] == 1
    assert stats["misses"] == 1
    counters = metrics.snapshot()["counters"]
    assert counters["materialization.stores"] == 1
    assert counters["materialization.hits"] == 1
    assert counters["materialization.delta_records"] == 1
    assert counters["materialization.misses"] == 1


def test_store_invalidate_sources():
    store = MaterializationStore()
    store.put("fp1", _records(1), ("u0",), "lake", cost_usd=0.0, time_s=0.0)
    store.put("fp2", _records(1), ("u0",), "view-1", cost_usd=0.0, time_s=0.0)
    store.put("fp3", _records(1), ("u0",), "other", cost_usd=0.0, time_s=0.0)
    assert store.invalidate_sources({"lake", "view-1"}) == 2
    assert len(store) == 1 and store.get("fp3") is not None


def test_store_save_load_roundtrip(tmp_path):
    store = MaterializationStore()
    records = [
        DataRecord(
            {"text": "hello"},
            uid="u0",
            annotations={"tag": True},
            source_id="src",
            parent_uids=("p0",),
        )
    ]
    store.put("fp", records, ("u0",), "src", cost_usd=0.25, time_s=3.0)
    path = tmp_path / "store.json"
    assert store.save(path) == 1

    fresh = MaterializationStore()
    assert fresh.load(path) == 1
    kind, entry = fresh.match("fp", ("u0",))
    assert kind == "exact"
    assert entry.cost_usd == 0.25
    loaded = entry.records[0]
    assert loaded.uid == "u0"
    assert loaded.fields == {"text": "hello"}
    assert loaded.annotations == {"tag": True}
    assert loaded.parent_uids == ("p0",)


def test_store_save_skips_unserializable_entries(tmp_path):
    store = MaterializationStore()
    store.put(
        "bad",
        [DataRecord({"obj": object()}, uid="u0")],
        ("u0",),
        "src",
        cost_usd=0.0,
        time_s=0.0,
    )
    store.put("good", _records(1), ("u0",), "src", cost_usd=0.0, time_s=0.0)
    path = tmp_path / "store.json"
    assert store.save(path) == 1
    fresh = MaterializationStore()
    assert fresh.load(path) == 1
    assert fresh.get("good") is not None and fresh.get("bad") is None


def test_store_load_rejects_version_mismatch(tmp_path):
    path = tmp_path / "store.json"
    path.write_text(
        json.dumps({"version": FINGERPRINT_VERSION + 1, "entries": []}),
        encoding="utf-8",
    )
    assert MaterializationStore().load(path) == 0


def test_store_kill_during_save_leaves_the_previous_file_readable(
    tmp_path, monkeypatch
):
    path = tmp_path / "store.json"
    store = MaterializationStore()
    store.put("fp1", _records(1), ("u0",), "src", cost_usd=0.0, time_s=0.0)
    store.save(path)
    before = path.read_bytes()
    store.put("fp2", _records(2), ("u0", "u1"), "src", cost_usd=0.0, time_s=0.0)
    write_text = Path.write_text

    def killed(self, data, **kwargs):
        write_text(self, data[: len(data) // 2], **kwargs)
        raise KeyboardInterrupt("killed halfway through the write")

    monkeypatch.setattr(Path, "write_text", killed)
    with pytest.raises(KeyboardInterrupt):
        store.save(path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert MaterializationStore().load(path) == 1
    # The next save goes through and leaves no temp file behind.
    assert store.save(path) == 2
    assert [entry.name for entry in tmp_path.iterdir()] == ["store.json"]


@pytest.mark.parametrize("damage", ["truncated", "not-json", "not-an-object"])
def test_store_corrupt_file_loads_as_empty_and_is_counted(tmp_path, damage):
    path = tmp_path / "store.json"
    store = MaterializationStore()
    store.put("fp", _records(1), ("u0",), "src", cost_usd=0.0, time_s=0.0)
    store.save(path)
    text = path.read_text(encoding="utf-8")
    path.write_text(
        {
            "truncated": text[: len(text) // 2],
            "not-json": "entries: none",
            "not-an-object": "[1, 2]",
        }[damage],
        encoding="utf-8",
    )
    fresh = MaterializationStore()
    fresh.metrics = MetricsRegistry()
    assert fresh.load(path) == 0
    assert len(fresh) == 0 and fresh.load_errors == 1
    counters = fresh.metrics.snapshot()["counters"]
    assert counters["materialization.load_errors"] == 1


def test_store_flipped_byte_in_a_record_fails_the_checksum(tmp_path):
    path = tmp_path / "store.json"
    store = MaterializationStore()
    store.put("fp", _records(1), ("u0",), "src", cost_usd=0.0, time_s=0.0)
    store.save(path)
    text = path.read_text(encoding="utf-8")
    assert "text number 0" in text
    # Still valid JSON, still the right shape: only the checksum can tell.
    path.write_text(text.replace("text number 0", "text number 1"), encoding="utf-8")
    json.loads(path.read_text(encoding="utf-8"))
    fresh = MaterializationStore()
    assert fresh.load(path) == 0
    assert len(fresh) == 0 and fresh.load_errors == 1


#: ``MaterializationStore.save`` output of a ``shards=4`` cold run of
#: ``sem_filter(FILTER_A)`` over four records, written by the commit before
#: per-shard entries were retired: four per-shard entries (``emit_counts``,
#: two of them for empty shards) and the whole boundary.
LEGACY_SHARDED_STORE = """
{"version": 1, "entries": [
 {"fingerprint": "68b17fa59dc52086", "records": [], "source_uids": [],
  "source_id": "legacy-src", "content_version": 0, "cost_usd": 0.0,
  "time_s": 0.0, "emit_counts": []},
 {"fingerprint": "4d5595cdca9cac1f",
  "records": [{"uid": "p2", "fields": {"text": "text number 2"},
               "annotations": {}, "source_id": "legacy-src", "parent_uids": []}],
  "source_uids": ["p2"], "source_id": "legacy-src", "content_version": 0,
  "cost_usd": 0.000235, "time_s": 0.7195999999999999, "emit_counts": [1]},
 {"fingerprint": "e523a3e2c6d5793e", "records": [], "source_uids": [],
  "source_id": "legacy-src", "content_version": 0, "cost_usd": 0.0,
  "time_s": 0.0, "emit_counts": []},
 {"fingerprint": "cef176cb1a146820",
  "records": [{"uid": "p0", "fields": {"text": "text number 0"},
               "annotations": {}, "source_id": "legacy-src", "parent_uids": []},
              {"uid": "p3", "fields": {"text": "text number 3"},
               "annotations": {}, "source_id": "legacy-src", "parent_uids": []}],
  "source_uids": ["p0", "p1", "p3"], "source_id": "legacy-src",
  "content_version": 0, "cost_usd": 0.000705, "time_s": 2.1588,
  "emit_counts": [1, 0, 1]},
 {"fingerprint": "d90d539408720705",
  "records": [{"uid": "p0", "fields": {"text": "text number 0"},
               "annotations": {}, "source_id": "legacy-src", "parent_uids": []},
              {"uid": "p2", "fields": {"text": "text number 2"},
               "annotations": {}, "source_id": "legacy-src", "parent_uids": []},
              {"uid": "p3", "fields": {"text": "text number 3"},
               "annotations": {}, "source_id": "legacy-src", "parent_uids": []}],
  "source_uids": ["p0", "p1", "p2", "p3"], "source_id": "legacy-src",
  "content_version": 0, "cost_usd": 0.00094, "time_s": 2.1588}
]}
"""


def test_store_load_drops_legacy_per_shard_entries(tmp_path, monkeypatch):
    path = tmp_path / "store.json"
    path.write_text(LEGACY_SHARDED_STORE, encoding="utf-8")
    metrics = MetricsRegistry()
    store = MaterializationStore()
    store.metrics = metrics
    # Only the whole boundary survives; the leftovers count as evictions.
    assert store.load(path) == 1
    assert store.evictions == 4
    assert metrics.snapshot()["counters"]["materialization.evictions"] == 4
    (entry,) = store.entries()
    assert entry.fingerprint == "d90d539408720705"
    assert not hasattr(entry, "emit_counts")

    # The file still serves what it was written for, at any shard count.
    def plan():
        return _dataset(_records(4, prefix="p"), "legacy-src").sem_filter(FILTER_A)

    for shards in (1, 4):
        warm, report = plan().run_with_report(_config(store, shards=shards))
        assert report.reuse_kind == "exact" and warm.total_cost_usd == 0.0
        assert [record.uid for record in warm.records] == ["p0", "p2", "p3"]
    # A re-save writes the current format: nothing per-shard comes back.
    store.save(path)
    assert "emit_counts" not in path.read_text(encoding="utf-8")

    # Capacity applies to what survives the drop, oldest first.
    payload = json.loads(LEGACY_SHARDED_STORE)
    payload["entries"].append({**payload["entries"][-1], "fingerprint": "newer"})
    path.write_text(json.dumps(payload), encoding="utf-8")
    monkeypatch.setattr(MaterializationStore, "MAX_ENTRIES", 1)
    tiny = MaterializationStore()
    assert tiny.load(path) == 1 and tiny.evictions == 5
    assert tiny.entries()[0].fingerprint == "newer"


def test_store_validates_capacity():
    # The bound is the class constant, not a knob.  The knob is passed
    # through a dict because the retired-keywords rule in
    # tests/test_architecture.py refuses it as a literal keyword.
    with pytest.raises(TypeError, match="max_entries"):
        MaterializationStore(**{"max_entries": 0})
    assert MaterializationStore.MAX_ENTRIES == 256


# ----------------------------------------------------------------------
# End-to-end reuse through Dataset.run
# ----------------------------------------------------------------------


def _plan(records):
    return _dataset(records).sem_filter(FILTER_A).sem_filter(FILTER_B)


def test_warm_run_is_bit_identical_and_free():
    records = _records(30)
    store = MaterializationStore()
    cold, cold_report = _plan(records).run_with_report(_config(store))
    warm, warm_report = _plan(records).run_with_report(_config(store))
    assert cold_report.reused_prefix == 0
    assert warm_report.reused_prefix == 3
    assert warm_report.reuse_kind == "exact"
    assert _normalized(warm) == _normalized(cold)
    assert warm.total_cost_usd == 0.0
    assert store.hits == 1 and store.stores >= 1


def test_incremental_append_runs_only_the_delta():
    records = _records(30)
    v1, v2 = records[:20], records
    store = MaterializationStore()
    _plan(v1).run_with_report(_config(store))
    warm, warm_report = _plan(v2).run_with_report(_config(store))
    cold, _ = _plan(v2).run_with_report(_config(MaterializationStore()))
    assert warm_report.reuse_kind == "delta"
    assert warm_report.reuse_delta_records == 10
    assert _normalized(warm) == _normalized(cold)
    assert warm.total_cost_usd < cold.total_cost_usd
    # The delta re-capture upgraded the entry: a third run is exact.
    again, again_report = _plan(v2).run_with_report(_config(store))
    assert again_report.reuse_kind == "exact"
    assert again.total_cost_usd == 0.0
    assert _normalized(again) == _normalized(cold)


def test_commuted_filter_order_hits_the_same_entry():
    records = _records(30)
    store = MaterializationStore()
    _dataset(records).sem_filter(FILTER_A).sem_filter(FILTER_B).run(_config(store))
    swapped = _dataset(records).sem_filter(FILTER_B).sem_filter(FILTER_A)
    warm, report = swapped.run_with_report(_config(store))
    baseline, _ = swapped.run_with_report(_config(MaterializationStore()))
    assert report.reused_prefix == 3 and report.reuse_kind == "exact"
    assert _normalized(warm) == _normalized(baseline)


def test_shrunken_source_invalidates_instead_of_reusing():
    records = _records(30)
    store = MaterializationStore()
    _plan(records).run_with_report(_config(store))
    shrunk, report = _plan(records[:20]).run_with_report(_config(store))
    fresh, _ = _plan(records[:20]).run_with_report(_config(MaterializationStore()))
    assert report.reused_prefix == 0
    assert _normalized(shrunk) == _normalized(fresh)
    assert store.invalidations >= 1


def test_truncated_run_is_not_captured():
    records = _records(30)
    store = MaterializationStore()
    result = _plan(records).run(_config(store, max_cost_usd=0.001))
    assert result.truncated
    assert len(store) == 0


def test_reuse_works_with_optimizer_on():
    records = _records(30)
    store = MaterializationStore()

    def config():
        return QueryProcessorConfig(
            llm=SimulatedLLM(seed=0),
            seed=0,
            optimize=True,
            available_models=[DEFAULT_MODEL],
            materialization_store=store,
        )

    cold, cold_report = _plan(records).run_with_report(config())
    warm, report = _plan(records).run_with_report(config())
    assert report.reused_prefix == 3 and report.reuse_kind == "exact"
    assert _normalized(warm) == _normalized(cold)
    assert warm.total_cost_usd == 0.0  # sampling is accounted separately
    # The replay is priced from what the store measured, not from the
    # sampled prefix it stands for: it emits the stored records and
    # charges nothing, so the plan estimate of a full replay is $0.
    assert cold_report.estimate.cost_usd > 0.0
    (replay,) = report.bound
    stored = store.get(report.reuse_fingerprint).records
    assert replay.estimate.rows == len(stored) == len(warm.records)
    assert "plan estimate: $0.0000, 0.0s" in explain_analyze(warm, report)


def test_exact_hit_binds_only_the_suffix(monkeypatch):
    """Reuse is decided on the logical chain: an exact hit never binds or
    annotates the prefix, so the replay and the suffix are all there is."""
    from repro.sem.optimizer.optimizer import Optimizer

    records = _records(30)
    store = MaterializationStore()
    _plan(records).run(_config(store))
    bound_labels = []
    bind_one = Optimizer._bind_one

    def spy(self, op, *args):
        bound_labels.append(op.label())
        return bind_one(self, op, *args)

    monkeypatch.setattr(Optimizer, "_bind_one", spy)
    _, report = _plan(records).sem_filter(FILTER_C).run_with_report(_config(store))
    assert report.reuse_kind == "exact" and report.reused_prefix == 3
    assert bound_labels == [report.bound[1].logical_op.label()]
    assert report.planned == report.bound
    assert [op.reused for op in report.bound] == [True, False]


def test_explain_analyze_reports_reuse():
    records = _records(30)
    store = MaterializationStore()
    plan = _plan(records)
    cold_text = plan.explain(analyze=True, config=_config(store))
    assert "Reused" in cold_text and "reuse:" not in cold_text
    warm_text = plan.explain(analyze=True, config=_config(store))
    assert "MaterializedScan" in warm_text
    assert "reuse: 3-operator prefix served from materialization" in warm_text
    assert "(exact)" in warm_text


def test_reuse_span_emitted_when_traced():
    from repro.obs.tracer import Tracer

    records = _records(30)
    store = MaterializationStore()
    _plan(records).run(_config(store))
    tracer = Tracer()
    config = QueryProcessorConfig(
        llm=SimulatedLLM(seed=0, tracer=tracer),
        seed=0,
        optimize=False,
        materialization_store=store,
    )
    _plan(records).run(config)
    reuse_spans = [span for span in tracer.spans if span.kind == "reuse"]
    assert len(reuse_spans) == 1
    assert reuse_spans[0].attributes["prefix"] == 3
    assert reuse_spans[0].attributes["match"] == "exact"


def test_runtime_wires_store_only_when_reuse_enabled():
    from repro.core.runtime import AnalyticsRuntime

    on = AnalyticsRuntime(seed=0, reuse_contexts=True)
    assert on.program_config().materialization_store is on.materialization_store
    assert on.context_manager.store is on.materialization_store

    off = AnalyticsRuntime(seed=0, reuse_contexts=False)
    assert off.program_config().materialization_store is None
