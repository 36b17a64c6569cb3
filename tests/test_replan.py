"""Adaptive mid-query re-planning: statistics keys, triggers, bit-identity.

The contract under test: a replan may change *which order* commuting
filters run in mid-flight — never the records, their order, or their
uids — and only fires when learned priors say the reorder is strictly
cheaper.  A cold statistics store must behave exactly as if re-planning
were disabled.
"""

from __future__ import annotations

import pytest

from repro.data.datasets.base import DatasetBundle
from repro.data.corpus import FileCorpus
from repro.data.records import DataRecord, reset_uid_counter
from repro.data.schemas import Field, Schema
from repro.llm.oracle import DIFFICULTY_PREFIX, IntentRegistry
from repro.llm.simulated import SimulatedLLM
from repro.llm.oracle import SemanticOracle
from repro.obs import StatisticsStore, Tracer, validate_spans
from repro.sem import logical as L
from repro.sem.config import QueryProcessorConfig
from repro.sem.dataset import Dataset
from repro.sem.optimizer.replan import plan_fingerprint, stats_key

# ---------------------------------------------------------------------------
# Inline corpus: one common filter (~0.9 selectivity), one rare (~0.12),
# one numeric extraction — low difficulty so outcomes are near-exact.
# ---------------------------------------------------------------------------

COMMON = "The order was confirmed by the warehouse."
RARE = "The package was reported damaged."
AMOUNT = "Extract the declared value in dollars."

_INTENTS = {
    "rp.flag_common": (("order", "confirmed", "warehouse"), COMMON),
    "rp.flag_rare": (("package", "reported", "damaged"), RARE),
    "rp.amount": (("declared", "value", "dollars"), AMOUNT),
}


def build_replan_corpus(seed: int = 7, n: int = 24) -> DatasetBundle:
    registry = IntentRegistry()
    for key, (keywords, description) in _INTENTS.items():
        registry.register(key, keywords, description)
    records = []
    for index in range(n):
        common = index % 10 != 0  # ~90% pass
        rare = index % 8 == 0  # ~12% pass
        amount = round(25.0 + 3.0 * index, 2)
        annotations = {
            "rp.flag_common": common,
            "rp.flag_rare": rare,
            "rp.amount": amount,
        }
        for intent in list(annotations):
            annotations[DIFFICULTY_PREFIX + intent] = 0.05
        records.append(
            DataRecord(
                fields={
                    "title": f"parcel-{index}",
                    "body": (
                        f"Parcel {index}: declared value ${amount:.2f}, "
                        f"priority routing slip attached."
                    ),
                    "priority": 1 + index % 3,
                },
                uid=f"rp-{index:04d}",
                annotations=annotations,
                source_id=f"rp-corpus-{seed}",
            )
        )
    schema = Schema(
        [
            Field("title", str, "parcel label"),
            Field("body", str, "full manifest text"),
            Field("priority", int, "routing priority 1-3"),
        ],
        name="Parcel",
        desc="synthetic parcel manifests for replan tests",
    )
    return DatasetBundle(
        name=f"rp-corpus-{seed}",
        corpus=FileCorpus(name=f"rp-corpus-{seed}"),
        schema=schema,
        registry=registry,
        description="Parcel manifests with one common and one rare flag.",
        record_list=records,
    )


@pytest.fixture(scope="module")
def rp_bundle():
    return build_replan_corpus()


def _config(bundle, *, seed: int = 7, tracer=None, **kwargs) -> QueryProcessorConfig:
    llm = SimulatedLLM(
        oracle=SemanticOracle(bundle.registry),
        seed=seed,
        tracer=tracer if tracer is not None else None,
    )
    defaults = dict(optimize=False)
    defaults.update(kwargs)
    return QueryProcessorConfig(llm=llm, seed=seed, **defaults)


def _misestimate_plan(bundle, source=None):
    """where() collapses into a SqlScan whose static estimate halves the
    cardinality — every record passes, so divergence is a free 2.0x."""
    return (
        Dataset.from_source(source or bundle.source())
        .where("priority >= 1")
        .sem_filter(COMMON)
        .sem_filter(RARE)
        .sem_map(Field("declared_value", float, "declared value"), AMOUNT)
    )


def _plain_plan(bundle):
    return (
        Dataset.from_source(bundle.source())
        .sem_filter(COMMON)
        .sem_filter(RARE)
        .sem_map(Field("declared_value", float, "declared value"), AMOUNT)
    )


def _normalized(result):
    return [(r.uid, tuple(sorted(r.fields.items()))) for r in result.records]


def _warm_store(bundle, plan_fn=_plain_plan) -> StatisticsStore:
    """One full run with ingestion on — the priors later queries consult.

    Warmed on the plan without its where(), the store holds priors for
    the filters and the map but no evidence for the misestimate plan's
    SqlScan, whose estimate therefore stays static.
    """
    store = StatisticsStore()
    reset_uid_counter()
    plan_fn(bundle).run(_config(bundle, stats_store=store))
    assert len(store) > 0
    return store


def _est_sources(report) -> list[str]:
    return [op.estimate.source for op in report.bound]


def _run(bundle, plan_fn, **kwargs):
    reset_uid_counter()
    config = _config(bundle, **kwargs)
    return plan_fn(bundle).run_with_report(config)


def _armed(bundle, **gates):
    """The misestimate plan, optimized against a warm store; the armed
    re-planner's gates (constants, not configuration) overridden on the
    instance.  Boundary 1 sees every record: 2x the static estimate."""
    from repro.sem.optimizer.optimizer import Optimizer

    reset_uid_counter()
    config = _config(
        bundle,
        stats_store=_warm_store(bundle),
        replan=True,
    )
    bound, report = Optimizer(config).optimize(_misestimate_plan(bundle).plan())
    for name, value in gates.items():
        assert hasattr(report.replanner, name), name
        setattr(report.replanner, name, value)
    return bound, report.replanner


# ---------------------------------------------------------------------------
# Statistics keys
# ---------------------------------------------------------------------------


class TestStatsKeys:
    def test_semantically_identical_filters_share_a_key(self):
        a = L.SemFilterOp(child=None, instruction=COMMON)
        b = L.SemFilterOp(child=None, instruction=COMMON)
        assert stats_key(a, "m", "d", "", 7) == stats_key(b, "m", "d", "", 7)

    def test_key_varies_with_model_dataset_scope_and_seed(self):
        op = L.SemFilterOp(child=None, instruction=COMMON)
        base = stats_key(op, "m", "d", "", 7)
        assert stats_key(op, "m2", "d", "", 7) != base
        assert stats_key(op, "m", "d2", "", 7) != base
        assert stats_key(op, "m", "d", "tenant-a", 7) != base
        assert stats_key(op, "m", "d", "", 8) != base

    def test_missing_dataset_is_unkeyable(self):
        op = L.SemFilterOp(child=None, instruction=COMMON)
        assert stats_key(op, "m", "", "", 7) is None

    def test_undescribed_python_filter_is_unkeyable(self):
        op = L.PyFilterOp(child=None, fn=lambda r: True, description="")
        assert stats_key(op, None, "d", "", 7) is None

    def test_plan_fingerprint_tracks_order(self):
        a = L.SemFilterOp(child=None, instruction=COMMON)
        b = L.SemFilterOp(child=None, instruction=RARE)
        assert plan_fingerprint([a, b], ["m", "m"]) != plan_fingerprint(
            [b, a], ["m", "m"]
        )


# ---------------------------------------------------------------------------
# Estimate sources (prior vs sampled vs static)
# ---------------------------------------------------------------------------


class TestEstimateSources:
    def test_cold_store_estimates_are_static(self, rp_bundle):
        _result, report = _run(
            rp_bundle, _misestimate_plan, stats_store=StatisticsStore()
        )
        assert set(_est_sources(report)) == {"static"}

    def test_warm_store_estimates_come_from_priors(self, rp_bundle):
        store = _warm_store(rp_bundle)
        _result, report = _run(rp_bundle, _misestimate_plan, stats_store=store)
        assert "prior" in _est_sources(report)

    def test_missing_evidence_keeps_the_scan_static(self, rp_bundle):
        # The misestimate is missing evidence, not a mode: the store never
        # saw the SqlScan run, so only its estimate is static, boundary 1
        # diverges 2x and the filters' priors drive one reorder.
        baseline, _ = _run(rp_bundle, _misestimate_plan)
        result, report = _run(
            rp_bundle,
            _misestimate_plan,
            stats_store=_warm_store(rp_bundle),
            replan=True,
        )
        assert _est_sources(report) == ["static", "prior", "prior", "prior"]
        assert len(report.replans) == 1
        assert report.replans[0]["boundary"] == 1
        assert _normalized(result) == _normalized(baseline)


# ---------------------------------------------------------------------------
# The replan trigger
# ---------------------------------------------------------------------------


class TestReplanTrigger:
    def test_cold_store_never_replans(self, rp_bundle):
        baseline, _ = _run(rp_bundle, _misestimate_plan)
        cold, report = _run(
            rp_bundle,
            _misestimate_plan,
            stats_store=StatisticsStore(),
            replan=True,
        )
        assert report.replans == []
        assert _normalized(cold) == _normalized(baseline)

    def test_misestimate_with_warm_store_replans_once(self, rp_bundle):
        store = _warm_store(rp_bundle)
        _result, report = _run(
            rp_bundle,
            _misestimate_plan,
            stats_store=store,
            replan=True,
        )
        assert len(report.replans) == 1
        decision = report.replans[0]
        assert "cardinality divergence" in decision["cause"]
        assert decision["before_plan"] != decision["after_plan"]
        assert decision["est_cost_after_usd"] < decision["est_cost_before_usd"]
        # The rare filter moves ahead of the common one.
        assert decision["after_order"][0] != decision["before_order"][0]

    def test_replanned_records_are_bit_identical(self, rp_bundle):
        store = _warm_store(rp_bundle)
        baseline, _ = _run(rp_bundle, _misestimate_plan)
        replanned, report = _run(
            rp_bundle,
            _misestimate_plan,
            stats_store=store,
            replan=True,
        )
        assert len(report.replans) == 1
        assert _normalized(replanned) == _normalized(baseline)

    def test_replan_respects_the_limit(self, rp_bundle):
        from repro.sem.optimizer.replan import REPLAN_LIMIT

        n_rows = len(rp_bundle.records())
        bound, replanner = _armed(rp_bundle)
        assert replanner.limit == REPLAN_LIMIT == 1
        replanner.replans_used = replanner.limit  # the allowance is spent
        assert not replanner.consider(1, n_rows, bound)
        replanner.limit = 0  # unlimited
        assert replanner.consider(1, n_rows, bound)
        # One reorder exhausts the improvement; later boundaries find
        # nothing cheaper, so even "unlimited" stays at one.
        assert not replanner.consider(1, n_rows, bound)
        assert len(replanner.report.replans) == 1

    def test_min_rows_floor_suppresses_replanning(self, rp_bundle):
        n_rows = len(rp_bundle.records())
        bound, replanner = _armed(rp_bundle, min_rows=1000)
        assert not replanner.consider(1, n_rows, bound)
        replanner.min_rows = n_rows
        assert replanner.consider(1, n_rows, bound)

    def test_accurate_estimates_do_not_trigger(self, rp_bundle):
        store = _warm_store(rp_bundle, plan_fn=_plain_plan)
        _result, report = _run(
            rp_bundle,
            _plain_plan,
            stats_store=store,
            replan=True,
        )
        assert "prior" in _est_sources(report)
        assert report.replans == []

    def test_high_threshold_suppresses_replanning(self, rp_bundle):
        n_rows = len(rp_bundle.records())
        bound, replanner = _armed(rp_bundle, threshold=10.0)
        assert not replanner.consider(1, n_rows, bound)
        replanner.threshold = 1.9  # just under the 2.0x divergence
        assert replanner.consider(1, n_rows, bound)

    def test_plan_facts_move_with_their_operators(self, rp_bundle):
        """An accepted replan is a permutation: every bound operator keeps
        the statistics entry and model it was bound with, its estimate
        source only changes when a learned prior re-costed it, and the
        fingerprints are those of a fresh optimize of the reordered plan."""
        from repro.sem.materialize import MaterializationStore
        from repro.sem.optimizer.optimizer import Optimizer

        def optimize(plan_fn):
            reset_uid_counter()
            config = _config(
                rp_bundle,
                stats_store=_warm_store(rp_bundle),
                replan=True,
                materialization_store=MaterializationStore(),
            )
            return Optimizer(config).optimize(plan_fn(rp_bundle).plan())

        bound, report = optimize(_misestimate_plan)
        assert bound is report.bound
        before = list(bound)
        facts = {id(op): (op.stats_entry, op.model) for op in bound}
        sources = {id(op): op.estimate.source for op in bound}
        # Every record passes the pushed where(): 2x the static estimate.
        assert report.replanner.consider(1, len(rp_bundle.records()), bound)

        assert [id(op) for op in bound] != [id(op) for op in before]
        assert sorted(map(id, bound)) == sorted(map(id, before))
        store = report.replanner.config.stats_store
        for op in bound:
            assert (op.stats_entry, op.model) == facts[id(op)]
            learned = op in bound[1:] and (
                store.prior(op.stats_entry["key"]) is not None
            )
            assert op.estimate.source == ("prior" if learned else sources[id(op)])

        def reordered_plan(bundle):
            return (
                Dataset.from_source(bundle.source())
                .where("priority >= 1")
                .sem_filter(RARE)
                .sem_filter(COMMON)
                .sem_map(Field("declared_value", float, "declared value"), AMOUNT)
            )

        fresh, _ = optimize(reordered_plan)
        assert [op.label() for op in fresh] == [op.label() for op in bound]
        assert all(op.fingerprint for op in bound[1:])
        assert [op.fingerprint for op in fresh] == [op.fingerprint for op in bound]

    def test_report_views_stay_chain_aligned_after_replan(self, rp_bundle):
        store = _warm_store(rp_bundle)
        result, report = _run(
            rp_bundle,
            _misestimate_plan,
            stats_store=store,
            replan=True,
        )
        assert len(report.replans) == 1
        assert [stats.label for stats in result.operator_stats] == [
            op.label() for op in report.bound
        ]
        assert [stats.stats_entry for stats in result.operator_stats] == [
            op.stats_entry for op in report.bound
        ]


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_same_seed_and_store_replan_identically_twice(
        self, rp_bundle, tmp_path
    ):
        path = tmp_path / "stats.json"
        _warm_store(rp_bundle).save(path)

        outcomes = []
        for _ in range(2):
            store = StatisticsStore()
            store.load(path)
            result, report = _run(
                rp_bundle,
                _misestimate_plan,
                stats_store=store,
                replan=True,
            )
            outcomes.append((_normalized(result), report.replans))
        assert outcomes[0] == outcomes[1]


# ---------------------------------------------------------------------------
# Observability of the decision
# ---------------------------------------------------------------------------


class TestReplanObservability:
    def test_replan_span_is_emitted_and_trace_validates(self, rp_bundle):
        store = _warm_store(rp_bundle)
        tracer = Tracer()
        reset_uid_counter()
        config = _config(
            rp_bundle,
            tracer=tracer,
            stats_store=store,
            replan=True,
        )
        _result, report = _misestimate_plan(rp_bundle).run_with_report(config)
        assert len(report.replans) == 1
        validate_spans(tracer.spans)  # must not raise

        spans = tracer.by_kind("replan")
        assert len(spans) == 1
        attrs = spans[0].attributes
        assert attrs["cause"] == report.replans[0]["cause"]
        assert attrs["before_plan"] == report.replans[0]["before_plan"]
        assert attrs["after_plan"] == report.replans[0]["after_plan"]
        ingests = tracer.by_kind("stats.ingest")
        assert len(ingests) == 1  # the run fed its own measurements back

    def test_explain_analyze_shows_sources_drift_and_replan(self, rp_bundle):
        store = _warm_store(rp_bundle)
        reset_uid_counter()
        config = _config(
            rp_bundle,
            stats_store=store,
            replan=True,
        )
        text = _misestimate_plan(rp_bundle).explain(analyze=True, config=config)
        assert "Est src" in text
        assert "Drift" in text
        assert "replan: at boundary" in text
        assert "cardinality divergence" in text

    def test_explain_analyze_shows_prior_sources(self, rp_bundle):
        store = _warm_store(rp_bundle)
        reset_uid_counter()
        config = _config(rp_bundle, stats_store=store)
        text = _misestimate_plan(rp_bundle).explain(analyze=True, config=config)
        assert "prior" in text

    def test_replan_metrics_counters(self, rp_bundle):
        from repro.obs import MetricsRegistry

        store = _warm_store(rp_bundle)
        metrics = MetricsRegistry()
        reset_uid_counter()
        llm = SimulatedLLM(
            oracle=SemanticOracle(rp_bundle.registry), seed=7, metrics=metrics
        )
        config = QueryProcessorConfig(
            llm=llm,
            seed=7,
            optimize=False,
            stats_store=store,
            replan=True,
        )
        _misestimate_plan(rp_bundle).run(config)
        counters = metrics.snapshot()["counters"]
        assert counters["replan.triggers"] >= 1
        assert counters["replan.reorders"] == 1
        assert counters["stats.lookups"] > 0


# ---------------------------------------------------------------------------
# The gates are constants, not configuration
# ---------------------------------------------------------------------------


def test_replan_gates_are_not_config_fields():
    import dataclasses
    import inspect

    from repro.core.runtime import AnalyticsRuntime

    retired = {"replan_threshold", "replan_min_rows", "replan_limit"}
    assert not retired & {f.name for f in dataclasses.fields(QueryProcessorConfig)}
    assert not retired & set(inspect.signature(AnalyticsRuntime.__init__).parameters)
    assert "replan" in {f.name for f in dataclasses.fields(QueryProcessorConfig)}


# ---------------------------------------------------------------------------
# Composition: replan under shards and behind a replay
# ---------------------------------------------------------------------------


def _reference(bundle, plan_fn, source=None):
    """The plan's records as the reference interpreter evaluates them."""
    from repro.qa.reference import ReferenceInterpreter

    reset_uid_counter()
    llm = SimulatedLLM(oracle=SemanticOracle(bundle.registry), seed=7)
    return ReferenceInterpreter(llm).run(plan_fn(bundle, source).plan())


def _replanning(bundle, **kwargs):
    """Options of an armed re-planner over a store warmed on the plain
    plan (priors for every operator of these plans but the SqlScan)."""
    return dict(
        stats_store=_warm_store(bundle),
        replan=True,
        **kwargs,
    )


def _mapped_plan(bundle, source=None):
    """The misestimate plan with the map moved ahead of the filters: its
    prefix is a costly, capturable boundary in front of a commuting run."""
    return (
        Dataset.from_source(source or bundle.source())
        .where("priority >= 1")
        .sem_map(Field("declared_value", float, "declared value"), AMOUNT)
        .sem_filter(COMMON)
        .sem_filter(RARE)
    )


class TestReplanUnderSharding:
    @pytest.mark.parametrize("partitioner", ["hash", "range", "round_robin"])
    @pytest.mark.parametrize("shards", [3, 4])
    def test_sharded_plan_replans_bit_identically(
        self, rp_bundle, shards, partitioner
    ):
        from repro.sem.explain import explain_analyze

        sharding = dict(shards=shards, partitioner=partitioner)
        off, _ = _run(rp_bundle, _misestimate_plan, **sharding)
        result, report = _run(
            rp_bundle, _misestimate_plan, **_replanning(rp_bundle, **sharding)
        )
        assert report.replanner is not None and len(report.replans) == 1
        assert "replan: at boundary 1" in explain_analyze(result, report)
        assert _normalized(result) == _normalized(off)
        assert _normalized(result) == _normalized(
            _reference(rp_bundle, _misestimate_plan)
        )
        # The rare filter now runs first on every shard.
        assert result.total_cost_usd < off.total_cost_usd

    def test_note_is_absent_when_replan_can_apply_or_is_off(self, rp_bundle):
        from repro.sem.explain import explain_analyze

        store = _warm_store(rp_bundle)
        for kwargs in (
            dict(replan=True),
            dict(replan=True, shards=4),
            dict(replan=False, shards=4),
        ):
            result, report = _run(
                rp_bundle, _misestimate_plan, stats_store=store, **kwargs
            )
            assert "replan disabled" not in report.note
            assert "NOTE:" not in explain_analyze(result, report)


class TestReplanBehindAReplay:
    """A replay declares the rows the store measured and the boundary of
    the prefix it covers, so the re-planner re-stamps the suffix behind it
    like any operator's."""

    @pytest.mark.parametrize("shards", [1, 4])
    def test_partial_exact_replay(self, rp_bundle, shards):
        """The replay's boundary is measured, so the misestimate sits in the
        suffix: a filter with a wrong prior.  The engine consults the
        re-planner between steps, and a fused run of filters is one step,
        so the filter ends a step of its own in front of a struct_agg that
        keeps every record; the commuting pair behind it is re-ordered
        (the aggregated records carry no annotations, so it judges them
        lexically: one parcel passes)."""
        from repro.data.sources import MemorySource
        from repro.sem.materialize import MaterializationStore

        def prefix_plan(bundle, source=None):
            return (
                Dataset.from_source(source or bundle.source())
                .where("priority >= 1")
                .sem_map(Field("declared_value", float, "declared value"), AMOUNT)
            )

        def grouped(dataset):
            every_field = ("title", "body", "priority", "declared_value")
            return (
                dataset.struct_agg((("copies", "count(*)"),), group_by=every_field)
                .sem_filter("Parcel priority routing slip attached.")
                .sem_filter("Parcel 7")
            )

        def plan(bundle, source=None):
            return grouped(prefix_plan(bundle, source).where("priority >= 2"))

        cold, _ = _run(rp_bundle, plan, shards=shards)
        assert [record.fields["title"] for record in cold.records] == ["parcel-7"]
        # Priors for the pair, then a wrong one for the where(): learned
        # on priority-1 records alone, where it keeps nothing.
        stats = _warm_store(rp_bundle, lambda bundle: grouped(prefix_plan(bundle)))
        low = [r for r in rp_bundle.records() if r.fields["priority"] == 1]
        low_source = MemorySource(low, rp_bundle.schema, source_id=rp_bundle.name)
        _run(rp_bundle, lambda bundle: plan(bundle, low_source), stats_store=stats)
        options = dict(
            stats_store=stats,
            replan=True,
            shards=shards,
            materialization_store=MaterializationStore(),
        )
        _run(rp_bundle, prefix_plan, **options)  # captures the map's boundary
        result, report = _run(rp_bundle, plan, **options)
        assert report.reuse_kind == "exact" and report.reused_prefix == 2
        assert report.replanner is not None and len(report.replans) == 1
        assert report.replans[0]["boundary"] == 2  # behind the wrong prior
        assert _normalized(result) == _normalized(cold)
        assert _normalized(result) == _normalized(_reference(rp_bundle, plan))
        # The re-ordered suffix captured the written plan's boundary.
        again, again_report = _run(rp_bundle, plan, **options)
        assert again_report.reused_prefix == 6
        assert _normalized(again) == _normalized(cold)

    @pytest.mark.parametrize("shards", [1, 4])
    def test_appended_source_delta_replay(self, rp_bundle, shards):
        from repro.data.sources import MemorySource
        from repro.sem.materialize import MaterializationStore

        records = rp_bundle.records()
        source = MemorySource(records[:18], rp_bundle.schema, source_id=rp_bundle.name)

        def live_plan(bundle):
            return _misestimate_plan(bundle, source)

        options = _replanning(
            rp_bundle, shards=shards, materialization_store=MaterializationStore()
        )
        _run(rp_bundle, live_plan, **options)
        source.append(records[18:])
        result, report = _run(rp_bundle, live_plan, **options)
        assert report.reuse_kind == "delta" and report.reuse_delta_records == 6
        assert report.replanner is not None
        # Unsharded, the whole plan is one compact replay with no boundary
        # behind it.  Sharded, the prefix scans the 6 appended records: a
        # 2.0x miss of the scan's estimate re-orders the filters over them.
        assert len(report.replans) == (shards > 1)
        cold, _ = _run(rp_bundle, _misestimate_plan, shards=shards)
        assert _normalized(result) == _normalized(cold)
        assert _normalized(result) == _normalized(
            _reference(rp_bundle, _misestimate_plan)
        )
        # The operators ahead of an expanded replay saw only the delta, and
        # a re-stamp after the reorder must not let them capture it.
        again, again_report = _run(rp_bundle, live_plan, **options)
        assert again_report.reuse_kind == "exact"
        assert _normalized(again) == _normalized(cold)


class TestReplanThatCannotArm:
    """``replan=True`` is never dropped silently: the one cause has its note."""

    def _assert_noted(self, result, report, note):
        from repro.sem.explain import explain_analyze

        assert report.replanner is None and report.replans == []
        assert note in report.note
        assert f"NOTE: {note}" in explain_analyze(result, report)

    def test_missing_stats_store_is_reported(self, rp_bundle):
        result, report = _run(rp_bundle, _misestimate_plan, replan=True)
        self._assert_noted(
            result, report, "replan disabled: no stats_store to re-plan from"
        )

    def test_every_applicable_cause_is_listed(self, rp_bundle):
        # Neither shards nor a replayed prefix is a cause: a missing
        # stats_store is the only one, and the only note.
        from repro.sem.materialize import MaterializationStore

        options = dict(
            replan=True, shards=4, materialization_store=MaterializationStore()
        )
        _run(rp_bundle, _misestimate_plan, **options)
        result, report = _run(rp_bundle, _misestimate_plan, **options)
        assert report.reused_prefix > 0
        self._assert_noted(
            result, report, "replan disabled: no stats_store to re-plan from"
        )
        assert report.note.count("replan disabled") == 1

    def test_replan_off_never_notes(self, rp_bundle):
        _result, report = _run(rp_bundle, _misestimate_plan, shards=4)
        assert "replan disabled" not in report.note


# ---------------------------------------------------------------------------
# Interplay with materialization
# ---------------------------------------------------------------------------


class TestReplanWithMaterialization:
    def test_replanned_run_captures_and_second_run_reuses(self, rp_bundle):
        from repro.sem.materialize import MaterializationStore

        stats = _warm_store(rp_bundle)
        mat = MaterializationStore()

        first, first_report = _run(
            rp_bundle,
            _misestimate_plan,
            stats_store=stats,
            replan=True,
            materialization_store=mat,
        )
        assert len(first_report.replans) == 1
        assert first_report.capture is not None
        assert len(mat) > 0

        # Same query again: fingerprint canonicalization makes the
        # replanned capture match the written plan, so the whole plan
        # replays and the armed re-planner has no boundary to consider.
        second, second_report = _run(
            rp_bundle,
            _misestimate_plan,
            stats_store=stats,
            replan=True,
            materialization_store=mat,
        )
        assert second_report.reused_prefix > 0
        assert second_report.replans == []
        assert _normalized(second) == _normalized(first)
