"""An in-place rewrite is a delta: the rewritten records re-run alone.

A materialized prefix whose source saw in-place rewrites since capture is
replayed like an appended one: the store classifies the probe as a delta,
the records rewritten since the entry's ``content_version`` and the
appended tail run through the prefix, the stored records descending from a
rewritten record are dropped, and the rest merge with the re-derived ones by
the source position of each record's root uid.  The view must be exactly a
from-scratch run's, at every shard count and partitioner; what cannot be
patched — a prefix past an order- or input-dependent operator, records
whose root does not resolve, an entry from a version the source never
reached — is evicted or missed, and still converges.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.records import DataRecord, reset_uid_counter
from repro.data.schemas import Field
from repro.data.sources import MemorySource
from repro.errors import ExecutionError
from repro.llm.oracle import SemanticOracle
from repro.llm.simulated import SimulatedLLM
from repro.qa.corpus import CorpusSpec, build_corpus, instruction_for
from repro.sem import Dataset, QueryProcessorConfig, StandingQueryManager
from repro.sem import logical as L
from repro.sem import physical as P
from repro.sem.batch import RecordBatch
from repro.sem.materialize import MaterializationStore, Rewrites, root_positions
from repro.utils.hashing import stable_digest


@pytest.fixture(scope="module")
def bundle():
    return build_corpus(CorpusSpec(seed=29, n_records=16))


def _config(bundle, **kwargs) -> QueryProcessorConfig:
    llm = SimulatedLLM(oracle=SemanticOracle(bundle.registry), seed=19)
    return QueryProcessorConfig(llm=llm, seed=19, optimize=False, **kwargs)


def _plan(source) -> Dataset:
    """filter -> map: incremental-safe end to end."""
    return (
        Dataset.from_source(source)
        .sem_filter(instruction_for("qa.flag_urgent"))
        .sem_map(Field("customer", str, "customer name"), instruction_for("qa.customer"))
    )


def _normalized(records):
    return [(r.uid, tuple(sorted(r.fields.items()))) for r in records]


def _scratch(bundle, source, plan=_plan):
    fresh = MemorySource(source.records(), bundle.schema, source_id=source.source_id)
    return plan(fresh).run(_config(bundle)).records


def _standing(bundle, base, plan=_plan, **config):
    source = MemorySource(base, bundle.schema, source_id=bundle.name)
    store = MaterializationStore()
    manager = StandingQueryManager(store=store)
    query = manager.register("live", plan(source), _config(bundle, **config))
    return manager, query, source, store


def _amend(source, uid, note):
    record = next(r for r in source.records() if r.uid == uid)
    source.update(uid, {"body": record.fields["body"] + f" [{note}]"})


# ---------------------------------------------------------------------------
# The pieces: the source's rewrite map, root resolution, the store's verdict
# ---------------------------------------------------------------------------


def test_source_keeps_each_uids_last_rewrite_version(bundle):
    records = bundle.records()
    source = MemorySource(records[:4], bundle.schema)
    assert source.rewritten_since(0) == []
    source.update(records[1].uid, {"priority": 1})
    source.update(records[2].uid, {"priority": 1})
    source.update(records[1].uid, {"priority": 2})
    assert source.content_version == 3
    assert sorted(source.rewritten_since(0)) == sorted([records[1].uid, records[2].uid])
    assert source.rewritten_since(1) == [records[1].uid, records[2].uid]
    assert source.rewritten_since(2) == [records[1].uid]
    assert source.rewritten_since(3) == []
    assert len(source._rewritten) == 2  # one entry per uid, not a log


def test_root_is_the_longest_dotted_truncation_that_is_a_source_uid():
    parent = DataRecord({"v": 1}, uid="file:a.csv")
    child = parent.derive({"w": 2})
    grandchild = child.derive({"x": 3})
    positions = {"file:a.csv": 4, "file:a": 9}
    assert root_positions([parent, child, grandchild], positions) == [4, 4, 4]
    minted = DataRecord({"v": 1}, uid="minted-7", parent_uids=("file:a.csv",))
    assert root_positions([child, minted], positions) is None


def test_rewrites_drop_stale_outputs_and_merge_by_position():
    source = [DataRecord({"v": i}, uid=f"s{i}") for i in range(5)]
    stored = [record.derive({"out": 0}) for record in source]
    fresh = source[3].derive({"out": 1})
    tail = DataRecord({"v": 5}, uid="s5").derive({"out": 0})
    positions = {f"s{i}": i for i in range(6)}
    rewrites = Rewrites(positions, frozenset({3}), root_positions(stored, positions))
    merged = rewrites.apply(stored, [fresh, tail])
    assert [r.uid for r in merged] == [r.uid for r in stored] + [tail.uid]
    assert merged[3] is fresh
    with pytest.raises(ExecutionError, match="does not descend from a source uid"):
        rewrites.apply(stored, [DataRecord({}, uid="minted")])


def _entry_store(content_version: int) -> MaterializationStore:
    store = MaterializationStore()
    store.put("fp", [], ("u0", "u1"), "src", 0.0, 0.0, content_version=content_version)
    return store


def test_store_classifies_a_rewrite_since_capture_as_a_delta():
    store = _entry_store(1)
    assert store.match("fp", ("u0", "u1"), 1)[0] == "exact"
    assert store.match("fp", ("u0", "u1"), 3)[0] == "delta"
    assert store.match("fp", ("u0", "u1", "u2"), 3)[0] == "delta"
    assert store.stats()["update_invalidations"] == 0


def test_store_evicts_an_entry_from_a_version_the_source_never_reached():
    store = _entry_store(3)
    assert store.match("fp", ("u0", "u1"), 1) == ("update", None)
    assert store.get("fp") is None
    assert store.stats()["update_invalidations"] == 1


def test_store_evicts_a_rewrite_a_prefix_cannot_absorb():
    store = _entry_store(1)
    # Appends alone leave an unsafe prefix's entry for the next exact hit...
    assert store.match("fp", ("u0", "u1", "u2"), 1, incremental=False)[0] == "delta"
    # ...a rewrite makes it unreplayable.
    assert store.match("fp", ("u0", "u1"), 2, incremental=False) == ("update", None)
    assert store.stats()["update_invalidations"] == 1


def test_a_loaded_entry_ahead_of_its_source_is_recomputed(bundle, tmp_path):
    """The ``content_version <= source`` guard: a store saved after rewrites,
    loaded against the source's original contents, must not replay them."""
    records = bundle.records()[:8]
    path = tmp_path / "store.json"
    manager, query, source, store = _standing(bundle, list(records))
    for record in records[:3]:
        _amend(source, record.uid, "amended")
    manager.pump()
    store.save(path)

    original = MemorySource(records, bundle.schema, source_id=bundle.name)
    loaded = MaterializationStore()
    loaded.load(path)
    result, report = _plan(original).run_with_report(
        _config(bundle, materialization_store=loaded)
    )
    assert report.reuse_kind == ""
    assert loaded.stats()["update_invalidations"] >= 1
    assert _normalized(result.records) == _normalized(_scratch(bundle, original))


# ---------------------------------------------------------------------------
# Standing ticks: patch provenance and convergence
# ---------------------------------------------------------------------------


def test_update_tick_patches_instead_of_recomputing(bundle):
    records = bundle.records()
    manager, query, source, store = _standing(bundle, records[:10])
    primed = query.ticks[0].cost_usd
    victim = query.records[0].parent_uids[0]
    _amend(source, victim, "escalated")
    (tick,) = manager.pump()
    assert (tick.reuse_kind, tick.reused_prefix, tick.delta_records) == ("delta", 3, 1)
    assert tick.cost_usd < primed
    assert store.stats()["update_invalidations"] == 0
    assert _normalized(query.records) == _normalized(_scratch(bundle, source))
    assert _normalized(query.folded()) == _normalized(query.records)


def _topk(source) -> Dataset:
    return _plan(source).sem_topk("urgent refund requests", k=3)


def _limit(source) -> Dataset:
    return _plan(source).limit(2)


@pytest.mark.parametrize("plan", [_topk, _limit], ids=["sem_topk", "limit"])
def test_rewrite_behind_an_order_dependent_tail_evicts_and_converges(bundle, plan):
    records = bundle.records()
    manager, query, source, store = _standing(bundle, records[:10], plan=plan)
    _amend(source, records[1].uid, "escalated")
    (tick,) = manager.pump()
    # The fused run captured only its end, behind the tail: that entry
    # cannot absorb the rewrite, so it is evicted and the tick recomputes.
    assert store.stats()["update_invalidations"] == 1
    assert (tick.reuse_kind, tick.reused_prefix) == ("", 0)
    assert _normalized(query.records) == _normalized(_scratch(bundle, source, plan))
    assert _normalized(query.folded()) == _normalized(query.records)


# A toy incremental-safe operator that mints its records' uids instead of
# deriving them: a stored record's root cannot be resolved, so a rewrite
# cannot be placed, and the probe must fall back to a miss.


@dataclass(frozen=True)
class MintOp(L.LogicalOperator):
    """Copy each record under a minted (deterministic, non-derived) uid."""

    charges = "free"
    incremental_safe = True

    def token(self, model):
        return ("mint",)


class PhysMint(P.StreamingOperator):
    implements = MintOp
    exchange = "scatter"

    def process_batch(self, batch, ctx, state):
        minted = [
            DataRecord(
                record.fields,
                uid=f"minted-{stable_digest(record.uid)[:8]}",
                annotations=record.annotations,
                source_id=record.source_id,
                parent_uids=(record.uid,),
            )
            for record in batch.records
        ]
        return RecordBatch(minted, batch.positions)


def _minting(source) -> Dataset:
    minted = Dataset(MintOp(child=Dataset.from_source(source)._root))
    return minted.sem_filter(instruction_for("qa.flag_urgent"))


@pytest.mark.parametrize("shards", [1, 4])
def test_minted_uids_fall_back_to_a_miss_and_stay_correct(bundle, shards):
    records = bundle.records()
    manager, query, source, store = _standing(
        bundle, records[:10], plan=_minting, shards=shards
    )
    source.append(records[10:12])
    (append_tick,) = manager.pump()
    assert append_tick.reuse_kind == "delta"  # a tail needs no roots
    _amend(source, records[2].uid, "escalated")
    (tick,) = manager.pump()
    assert (tick.reuse_kind, tick.reused_prefix) == ("", 0)
    assert _normalized(query.records) == _normalized(_scratch(bundle, source, _minting))
    assert _normalized(query.folded()) == _normalized(query.records)


# ---------------------------------------------------------------------------
# Property: any append/rewrite schedule, sharded or not, patches exactly
# ---------------------------------------------------------------------------


_ticks = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),  # records appended
        # Rewrite targets, as indexes into the source after the appends:
        # repeats rewrite one uid twice, high indexes hit unpumped appends.
        st.lists(st.integers(min_value=0, max_value=15), max_size=3),
    ),
    min_size=1,
    max_size=4,
)


@pytest.mark.slow
@settings(max_examples=40, deadline=None)
@given(
    split=st.integers(min_value=2, max_value=10),
    ticks=_ticks,
    shards=st.sampled_from([1, 4]),
    partitioner=st.sampled_from(["hash", "range"]),
)
def test_property_rewrites_and_appends_patch_the_view(split, ticks, shards, partitioner):
    """After every pump: view == from-scratch, fold == view, and the tick is
    a delta over exactly the rewritten-or-appended records."""
    reset_uid_counter()
    bundle = build_corpus(CorpusSpec(seed=29, n_records=16))
    records = bundle.records()
    manager, query, source, _store = _standing(
        bundle, records[:split], shards=shards, partitioner=partitioner
    )
    cursor = split
    for number, (appended, targets) in enumerate(ticks):
        batch = records[cursor : cursor + appended]
        cursor += len(batch)
        if batch:
            source.append(batch)
        uids = source.uids()
        rewritten = [uids[target % len(uids)] for target in targets]
        for uid in rewritten:
            _amend(source, uid, f"tick {number}")
        fired = manager.pump()
        changed = {record.uid for record in batch} | set(rewritten)
        if not changed:
            assert fired == []
            continue
        (tick,) = fired
        assert (tick.reuse_kind, tick.delta_records) == ("delta", len(changed))
        assert _normalized(query.records) == _normalized(_scratch(bundle, source))
        assert _normalized(query.folded()) == _normalized(query.records)
