"""Sharded execution: partitioners, exchange planning, and bit-identity.

The tentpole contract: executing a plan across N simulated workers may
change *where* and *when* work runs — scatter partitions, shuffles,
broadcasts, per-shard merges — but never the records, their order, or
their uids.  ``shards=1`` must be an exact no-op: the sharding machinery
is never constructed and the engine behaves byte-identically to the
unsharded path in records, cost, time, and spans.
"""

from __future__ import annotations

import ast
import inspect
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.runtime import AnalyticsRuntime
from repro.data.records import DataRecord, reset_uid_counter
from repro.data.schemas import Field, Schema
from repro.errors import ConfigurationError, OptimizationError
from repro.llm.faults import FaultConfig, FaultInjector, RetryPolicy
from repro.llm.oracle import SemanticOracle
from repro.llm.simulated import SimulatedLLM
from repro.obs import MetricsRegistry, Tracer, validate_spans
from repro.qa.corpus import CorpusSpec, build_corpus, instruction_for
from repro.sem import physical as P
from repro.sem.config import QueryProcessorConfig
from repro.sem.dataset import Dataset
from repro.sem.materialize import MaterializationStore
from repro.sem.shard import (
    PARTITIONERS,
    ShardPlan,
    ShardSegment,
    exchange_footer,
    key_shard,
    keys_match,
    partition_records,
    plan_shards,
    shard_of,
)
from repro.utils.hashing import stable_hash


@pytest.fixture(scope="module")
def qa_bundle():
    return build_corpus(CorpusSpec(seed=13, n_records=24))


def _config(bundle, *, seed: int = 13, **kwargs) -> QueryProcessorConfig:
    llm = SimulatedLLM(oracle=SemanticOracle(bundle.registry), seed=seed)
    kwargs.setdefault("optimize", False)
    return QueryProcessorConfig(llm=llm, seed=seed, **kwargs)


def _normalized(result):
    return [(r.uid, tuple(sorted(r.fields.items()))) for r in result.records]


def _filter_map(bundle) -> Dataset:
    return (
        Dataset.from_source(bundle.source())
        .where("priority >= 1")
        .sem_filter(instruction_for("qa.flag_urgent"))
        .sem_map(
            Field("customer", str, "customer name"),
            instruction_for("qa.customer"),
        )
    )


def _records(n, prefix="u"):
    return [
        DataRecord({"text": f"text number {i}"}, uid=f"{prefix}{i}")
        for i in range(n)
    ]


SCHEMA = Schema([Field("text", str)])


# ---------------------------------------------------------------------------
# Partitioners (unit level)
# ---------------------------------------------------------------------------


class TestPartitioners:
    def test_hash_keys_on_uid_only(self):
        # Position must not matter: hash is the strategy that stays
        # stable when the source grows and positions shift.
        assert shard_of("u1", 0, 10, 4, "hash") == shard_of("u1", 9, 99, 4, "hash")

    def test_hash_matches_stable_hash(self):
        assert shard_of("u7", 0, 1, 5, "hash") == stable_hash("shard", "u7") % 5

    def test_range_cuts_contiguous_chunks(self):
        assignments = [shard_of(f"u{i}", i, 8, 2, "range") for i in range(8)]
        assert assignments == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_round_robin_deals_cyclically(self):
        assignments = [shard_of(f"u{i}", i, 6, 3, "round_robin") for i in range(6)]
        assert assignments == [0, 1, 2, 0, 1, 2]

    def test_unknown_partitioner_raises(self):
        with pytest.raises(OptimizationError, match="unknown partitioner"):
            shard_of("u0", 0, 1, 2, "psychic")

    def test_partition_preserves_multiset_and_order(self):
        items = list(enumerate(_records(10)))
        for partitioner in PARTITIONERS:
            shards = partition_records(items, 3, partitioner)
            assert len(shards) == 3
            flattened = sorted(
                (pos, rec) for shard in shards for pos, rec in shard
            )
            assert flattened == items
            for shard in shards:
                positions = [pos for pos, _ in shard]
                assert positions == sorted(positions)

    def test_partition_empty_input_yields_empty_shards(self):
        assert partition_records([], 4, "hash") == [[], [], [], []]

    def test_range_keys_on_local_index_despite_position_gaps(self):
        # An upstream filter left only even positions; range must still
        # split the *surviving* items in half, not by stale position.
        records = _records(8)
        items = [(i * 2, records[i]) for i in range(8)]
        shards = partition_records(items, 2, "range")
        assert [len(shard) for shard in shards] == [4, 4]

    def test_more_shards_than_records(self):
        items = list(enumerate(_records(3)))
        shards = partition_records(items, 8, "round_robin")
        assert [len(shard) for shard in shards] == [1, 1, 1, 0, 0, 0, 0, 0]

    def test_all_records_can_land_on_one_shard(self):
        # Craft uids that all hash to shard 0: empty shards downstream
        # must be harmless.
        picked = [uid for uid in (f"u{i}" for i in range(200))
                  if stable_hash("shard", uid) % 4 == 0][:5]
        items = list(enumerate(
            DataRecord({"text": "t"}, uid=uid) for uid in picked
        ))
        shards = partition_records(items, 4, "hash")
        assert [len(shard) for shard in shards] == [5, 0, 0, 0]


class TestShuffleKeys:
    def test_key_shard_is_deterministic(self):
        assert key_shard("billing", 4) == key_shard("billing", 4)

    def test_null_key_routes_to_shard_zero(self):
        assert key_shard(None, 7) == 0

    def test_keys_match_follows_three_valued_semantics(self):
        # Mirrors structql: NULL = NULL is unknown, and unknown never
        # joins — co-locating NULLs on shard 0 must not create matches.
        assert keys_match("a", "a")
        assert not keys_match("a", "b")
        assert not keys_match(None, "a")
        assert not keys_match("a", None)
        assert not keys_match(None, None)


# ---------------------------------------------------------------------------
# The sharding pass
# ---------------------------------------------------------------------------


class _StubOp:
    def __init__(self, exchange):
        self.exchange = exchange

    def label(self):
        return f"Stub({self.exchange})"


def _plan(*exchanges, n_shards=4, partitioner="hash"):
    return plan_shards(
        [_StubOp(x) for x in exchanges], n_shards, partitioner
    )


class TestPlanShards:
    def test_scatter_run_groups_into_one_segment(self):
        plan = _plan("source", "scatter", "scatter", "scatter")
        assert [s.kind for s in plan.segments] == ["global", "scatter"]
        assert (plan.segments[1].start, plan.segments[1].end) == (1, 4)
        assert plan.segments[1].finisher is None

    def test_trailing_merge_becomes_finisher(self):
        plan = _plan("source", "scatter", "merge")
        scatter = plan.segments[1]
        assert scatter.kind == "scatter" and scatter.finisher == 2
        assert scatter.end == 3

    def test_bare_merge_gets_its_own_scatter_segment(self):
        plan = _plan("source", "merge")
        assert plan.segments[1].kind == "scatter"
        assert plan.segments[1].finisher == 1

    def test_source_and_gather_are_global(self):
        plan = _plan("source", "scatter", "gather")
        assert [s.kind for s in plan.segments] == ["global", "scatter", "global"]
        assert plan.segments[2].strategy == "gather"

    def test_shuffle_records_broadcast_as_rejected_alternative(self):
        plan = _plan("source", "shuffle")
        segment = plan.segments[1]
        assert segment.kind == "shuffle" and segment.alternative == "broadcast"

    def test_broadcast_records_shuffle_as_rejected_alternative(self):
        plan = _plan("source", "broadcast")
        segment = plan.segments[1]
        assert segment.kind == "broadcast" and segment.alternative == "shuffle"

    def test_undeclared_exchange_is_rejected(self):
        with pytest.raises(OptimizationError, match="declares no exchange"):
            _plan("source", None)

    def test_unknown_exchange_value_is_rejected(self):
        with pytest.raises(OptimizationError, match="unknown\\s+exchange"):
            _plan("source", "teleport")

    def test_unknown_partitioner_is_rejected(self):
        with pytest.raises(OptimizationError, match="unknown partitioner"):
            _plan("source", partitioner="psychic")

    def test_zero_shards_is_rejected(self):
        with pytest.raises(OptimizationError, match="n_shards"):
            _plan("source", n_shards=0)

    def test_describe_lists_segments(self):
        plan = _plan("source", "scatter", "shuffle")
        text = plan.describe()
        assert "shards=4" in text and "scatter[1:2]" in text and "shuffle[2:3]" in text

    def test_every_concrete_physical_operator_declares_exchange(self):
        # New operators must opt into sharding explicitly: a missing
        # declaration fails plan_shards, and this guard catches it at
        # unit-test time rather than in the first sharded query.
        valid = {"source", "gather", "scatter", "merge", "shuffle", "broadcast"}
        missing = [
            name
            for name, cls in vars(P).items()
            if inspect.isclass(cls)
            and issubclass(cls, P.PhysicalOperator)
            and cls not in (P.PhysicalOperator, P.StreamingOperator)
            and cls.exchange not in valid
        ]
        assert not missing, f"operators without exchange declarations: {missing}"


class TestStructure:
    """``shard.py`` places, measures and charges — nothing else.

    Checked on the AST, so prose in docstrings does not count.
    """

    @staticmethod
    def _tree(obj):
        return ast.parse(textwrap.dedent(inspect.getsource(obj)))

    def test_executor_never_touches_the_store(self):
        # Reuse is one optimizer decision; capture is the driver loop's.
        from repro.sem import shard

        tree = self._tree(shard)
        store_words = {
            "capture", "store", "materialization_store", "match", "put",
            "note_hit", "note_miss", "fingerprint", "source_uids",
        }
        touched = [
            f"{node.attr}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in store_words
        ]
        assert not touched, touched
        imported = {
            node.module
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
        }
        assert "repro.sem.materialize" not in imported

    def test_exchange_behaviour_is_asked_of_the_operator(self):
        # No operator class is special-cased and no operator state is read:
        # the only name taken from physical.py is the base type.
        from repro.sem import shard

        tree = self._tree(shard)
        from_physical = [
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and node.module == "repro.sem.physical"
            for alias in node.names
        ]
        assert from_physical == ["PhysicalOperator"]
        calls = {
            node.func.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        }
        assert "isinstance" not in calls
        constants = {
            node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)
        }
        assert "scored" not in constants
        assert not [
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in ("join_left", "classify_label", "build_group")
        ]

    def test_replay_splice_does_not_fork_on_unsharded(self):
        from repro.sem.optimizer.optimizer import Optimizer

        tree = self._tree(Optimizer._splice_replay)
        forks = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.Compare)
            and isinstance(node.ops[0], ast.Eq)
            and any(
                isinstance(side, ast.Attribute) and side.attr == "shards"
                for side in (node.left, *node.comparators)
            )
        ]
        assert not forks

    def test_shard_module_stays_small(self):
        from repro.sem import shard

        assert len(inspect.getsource(shard).splitlines()) <= 700


class TestConfigValidation:
    def test_rejects_zero_shards(self):
        with pytest.raises(ConfigurationError, match="shards"):
            QueryProcessorConfig(llm=SimulatedLLM(), shards=0)

    def test_rejects_unknown_partitioner(self):
        with pytest.raises(ConfigurationError, match="partitioner"):
            QueryProcessorConfig(llm=SimulatedLLM(), partitioner="psychic")


# ---------------------------------------------------------------------------
# End-to-end bit-identity
# ---------------------------------------------------------------------------


class TestBitIdentity:
    def test_filter_map_identical_across_shard_counts(self, qa_bundle):
        baseline = _filter_map(qa_bundle).run(_config(qa_bundle))
        expected = _normalized(baseline)
        assert expected  # the plan keeps some records
        for shards in (2, 3, 4, 8):
            result = _filter_map(qa_bundle).run(_config(qa_bundle, shards=shards))
            assert _normalized(result) == expected, f"{shards} shards diverged"
            assert result.total_cost_usd == pytest.approx(baseline.total_cost_usd)

    def test_partitioner_choice_never_changes_records(self, qa_bundle):
        expected = _normalized(_filter_map(qa_bundle).run(_config(qa_bundle)))
        for partitioner in PARTITIONERS:
            result = _filter_map(qa_bundle).run(
                _config(qa_bundle, shards=4, partitioner=partitioner)
            )
            assert _normalized(result) == expected, partitioner

    def test_four_shards_finish_faster(self, qa_bundle):
        base = _filter_map(qa_bundle).run(_config(qa_bundle))
        sharded = _filter_map(qa_bundle).run(_config(qa_bundle, shards=4))
        assert sharded.total_time_s < base.total_time_s

    def test_groupby_shuffle_identical(self, qa_bundle):
        def plan():
            return Dataset.from_source(qa_bundle.source()).sem_groupby(
                instruction_for("qa.department"),
                ["billing", "engineering", "sales"],
            )

        expected = _normalized(plan().run(_config(qa_bundle)))
        result = plan().run(_config(qa_bundle, shards=4))
        assert _normalized(result) == expected
        assert len(result.records) > 1  # groups actually formed

    def test_nested_join_broadcast_identical(self, qa_bundle):
        def plan():
            left = Dataset.from_source(qa_bundle.source()).where("priority >= 4")
            right = Dataset.from_source(qa_bundle.source()).where("priority <= 0")
            return left.sem_join(right, instruction_for("qa.same_customer"))

        expected = _normalized(plan().run(_config(qa_bundle)))
        result = plan().run(_config(qa_bundle, shards=3))
        assert _normalized(result) == expected

    def test_blocked_join_broadcast_identical(self, qa_bundle):
        def plan():
            left = Dataset.from_source(qa_bundle.source()).where("priority >= 4")
            right = Dataset.from_source(qa_bundle.source()).where("priority <= 0")
            return left.sem_join(right, instruction_for("qa.same_customer"))

        expected = _normalized(plan().run(_config(qa_bundle, join_method="blocked")))
        result = plan().run(
            _config(qa_bundle, join_method="blocked", shards=4)
        )
        assert _normalized(result) == expected

    def test_topk_merge_identical(self, qa_bundle):
        def plan():
            return (
                Dataset.from_source(qa_bundle.source())
                .sem_filter(instruction_for("qa.flag_urgent"))
                .sem_topk("tickets about billing problems", k=3)
            )

        expected = _normalized(plan().run(_config(qa_bundle)))
        assert len(expected) == 3
        for shards in (2, 4, 8):
            result = plan().run(_config(qa_bundle, shards=shards))
            assert _normalized(result) == expected, f"{shards} shards"

    def test_limit_merge_identical_records(self, qa_bundle):
        # Records (and order) must match; cost may legally differ — each
        # shard over-fetches up to its own limit before the global
        # truncation (distributed limit-pushdown overfetch).
        def plan():
            return (
                Dataset.from_source(qa_bundle.source())
                .sem_filter(instruction_for("qa.flag_urgent"))
                .limit(4)
            )

        expected = _normalized(plan().run(_config(qa_bundle)))
        result = plan().run(_config(qa_bundle, shards=4))
        assert _normalized(result) == expected

    def test_agg_runs_global_and_identical(self, qa_bundle):
        def plan():
            return (
                Dataset.from_source(qa_bundle.source())
                .where("priority >= 3")
                .sem_agg("Summarize the overall customer mood.")
            )

        expected = _normalized(plan().run(_config(qa_bundle)))
        result, report = plan().run_with_report(_config(qa_bundle, shards=4))
        assert _normalized(result) == expected
        assert report.shard_plan.segments[-1].kind == "global"

    def test_retrieve_gather_identical(self, qa_bundle):
        def plan():
            return (
                Dataset.from_source(qa_bundle.source())
                .retrieve("urgent billing tickets", k=8)
                .sem_filter(instruction_for("qa.flag_urgent"))
            )

        expected = _normalized(plan().run(_config(qa_bundle)))
        result = plan().run(_config(qa_bundle, shards=4))
        assert _normalized(result) == expected

    def test_empty_input_to_sharded_segment(self, qa_bundle):
        def plan():
            return (
                Dataset.from_source(qa_bundle.source())
                .where("priority > 99")
                .sem_map(Field("customer", str, "customer"),
                         instruction_for("qa.customer"))
            )

        result = plan().run(_config(qa_bundle, shards=4))
        assert result.records == []
        assert result.total_cost_usd == 0.0

    def test_shard_count_exceeding_record_count(self):
        bundle = build_corpus(CorpusSpec(seed=3, n_records=4))
        def plan():
            return Dataset.from_source(bundle.source()).sem_filter(
                instruction_for("qa.flag_urgent")
            )

        expected = _normalized(plan().run(_config(bundle, seed=3)))
        result = plan().run(_config(bundle, seed=3, shards=16))
        assert _normalized(result) == expected

    def test_optimized_plan_runs_sharded(self, qa_bundle):
        expected = _normalized(
            _filter_map(qa_bundle).run(_config(qa_bundle, optimize=True))
        )
        result = _filter_map(qa_bundle).run(
            _config(qa_bundle, optimize=True, shards=4)
        )
        assert _normalized(result) == expected


@settings(max_examples=10, deadline=None)
@given(
    shards=st.integers(min_value=1, max_value=6),
    partitioner=st.sampled_from(PARTITIONERS),
)
def test_property_sharding_preserves_output_multiset(shards, partitioner):
    # Any (partitioner, shard count) must reproduce the unsharded answer
    # exactly — the QA harness's check_shard_equivalence oracle, as a
    # hypothesis property over the whole configuration space.
    bundle = build_corpus(CorpusSpec(seed=11, n_records=12))
    baseline = (
        Dataset.from_source(bundle.source())
        .sem_filter(instruction_for("qa.flag_urgent"))
        .run(_config(bundle, seed=11))
    )
    result = (
        Dataset.from_source(bundle.source())
        .sem_filter(instruction_for("qa.flag_urgent"))
        .run(_config(bundle, seed=11, shards=shards, partitioner=partitioner))
    )
    assert _normalized(result) == _normalized(baseline)


# ---------------------------------------------------------------------------
# shards=1 is an exact no-op
# ---------------------------------------------------------------------------


class TestShardsOneNoOp:
    def test_no_shard_plan_is_attached(self, qa_bundle):
        _, report = _filter_map(qa_bundle).run_with_report(
            _config(qa_bundle, shards=1)
        )
        assert report.shard_plan is None

    def test_identical_records_cost_time_and_spans(self, qa_bundle):
        def traced_run(**kwargs):
            tracer = Tracer()
            llm = SimulatedLLM(
                oracle=SemanticOracle(qa_bundle.registry), seed=13, tracer=tracer
            )
            config = QueryProcessorConfig(
                llm=llm, seed=13, optimize=False, **kwargs
            )
            result = _filter_map(qa_bundle).run(config)
            spans = [
                (s.name, s.kind, s.start_s, s.end_s, s.track)
                for s in tracer.spans
            ]
            return result, spans

        plain, plain_spans = traced_run()
        gated, gated_spans = traced_run(shards=1)
        assert _normalized(gated) == _normalized(plain)
        assert gated.total_cost_usd == plain.total_cost_usd
        assert gated.total_time_s == plain.total_time_s
        assert gated_spans == plain_spans


# ---------------------------------------------------------------------------
# Faults x shards: shard cells are the engine's cells
# ---------------------------------------------------------------------------

PARALLELISM = 8
#: A throttle that outlasts the run: waves wider than 2 are bounced.
STORM = FaultConfig(
    rate_limit_storms=((0.0, 1e9),), storm_rate=1.0, storm_safe_parallelism=2
)


def _run_stormy(bundle, *, run_static_width=None, storm=True, shards=4):
    """Storm run; ``run_static_width`` (the fixture) drops the controller."""
    reset_uid_counter()
    metrics = MetricsRegistry()
    llm = SimulatedLLM(
        oracle=SemanticOracle(bundle.registry),
        seed=13,
        faults=FaultInjector(STORM, seed=13) if storm else None,
        retry=RetryPolicy(max_attempts=2, base_backoff_s=0.5),
        metrics=metrics,
    )
    config = QueryProcessorConfig(
        llm=llm, seed=13, optimize=False, parallelism=PARALLELISM, shards=shards
    )
    widths = metrics.histogram("engine.wave_width")
    if run_static_width is None:
        return _filter_map(bundle).run(config), widths
    return run_static_width(_filter_map(bundle), config), widths


class TestFaultsUnderSharding:
    def test_storm_narrows_sharded_waves_and_rescues_records(
        self, qa_bundle, run_static_width
    ):
        adaptive, widths = _run_stormy(qa_bundle)
        static, static_widths = _run_stormy(
            qa_bundle, run_static_width=run_static_width
        )
        assert adaptive.retried_calls > 0  # the storm really hit
        assert widths.min < PARALLELISM
        assert static_widths.min == PARALLELISM
        assert static.failed_records > 0
        assert adaptive.failed_records <= static.failed_records
        assert len(adaptive.records) >= len(static.records)

    def test_storm_degrades_no_more_records_sharded_than_unsharded(self, qa_bundle):
        sharded, _ = _run_stormy(qa_bundle, shards=4)
        unsharded, _ = _run_stormy(qa_bundle, shards=1)
        assert sharded.failed_records <= unsharded.failed_records

    def test_stormy_sharded_run_is_deterministic(self, qa_bundle):
        first, _ = _run_stormy(qa_bundle)
        second, _ = _run_stormy(qa_bundle)
        assert first.fingerprint() == second.fingerprint()
        assert first.failed_records == second.failed_records
        assert first.total_time_s == second.total_time_s

    def test_fault_free_sharded_width_never_leaves_the_cap(self, qa_bundle):
        result, widths = _run_stormy(qa_bundle, storm=False)
        assert widths.count > 0
        assert widths.min == widths.max == PARALLELISM
        assert result.retried_calls == 0 and result.failed_records == 0
        baseline, _ = _run_stormy(qa_bundle, storm=False, shards=1)
        assert _normalized(result) == _normalized(baseline)
        assert result.total_cost_usd == pytest.approx(baseline.total_cost_usd)


# ---------------------------------------------------------------------------
# EXPLAIN, spans, and diagnostics
# ---------------------------------------------------------------------------


class TestObservability:
    def test_explain_analyze_fills_shards_column_and_footer(self, qa_bundle):
        text = _filter_map(qa_bundle).explain(
            analyze=True, config=_config(qa_bundle, shards=2)
        )
        assert "Shards" in text
        assert "exchange: scatter over operators" in text
        assert "straggler gap" in text

    def test_unsharded_explain_has_no_exchange_footer(self, qa_bundle):
        text = _filter_map(qa_bundle).explain(
            analyze=True, config=_config(qa_bundle)
        )
        assert "exchange:" not in text

    def test_exchange_footer_rendering(self):
        plan = ShardPlan(n_shards=2, partitioner="hash")
        segment = ShardSegment(
            "shuffle", 1, 2, strategy="shuffle", alternative="broadcast",
            shard_makespans=[2.0, 3.5], straggler_gap_s=1.5,
            moved_records=12, cost_alternative=48,
        )
        plan.segments = [ShardSegment("global", 0, 1, strategy="source"), segment]
        text = exchange_footer(plan)
        assert "shuffle over operators 1..1" in text
        assert "2 shards, makespan 3.5s, straggler gap 1.5s" in text
        assert "12 records moved" in text
        assert "(rejected broadcast: 48 transfers)" in text

    @pytest.mark.parametrize("shards", [1, 2])
    def test_span_names_are_not_built_for_a_noop_tracer(
        self, qa_bundle, monkeypatch, shards
    ):
        # The no-op guard rule: a section / exchange span's name joins one
        # label per operator, so it is only built when someone will read it.
        labelled = []
        label = P.PhysicalOperator.label
        monkeypatch.setattr(
            P.PhysicalOperator, "label",
            lambda self: labelled.append(self) or label(self),
        )
        _filter_map(qa_bundle).run(_config(qa_bundle, shards=shards))
        # What is left for the fused / scattered operators is the one label
        # on their measured stats row.
        fused = [type(op) for op in labelled if op.streamable]
        assert fused == [P.PhysSemFilter, P.PhysSemMap]

    def test_sharded_trace_validates_with_exchange_spans(self, qa_bundle):
        tracer = Tracer()
        llm = SimulatedLLM(
            oracle=SemanticOracle(qa_bundle.registry), seed=13, tracer=tracer
        )
        config = QueryProcessorConfig(llm=llm, seed=13, optimize=False, shards=3)
        _filter_map(qa_bundle).run(config)
        validate_spans(tracer.spans)  # must not raise
        kinds = {s.kind for s in tracer.spans}
        assert "exchange" in kinds
        tracks = {s.track for s in tracer.spans}
        assert any(t and t.startswith("shard ") for t in tracks)

    def test_segment_diagnostics_are_populated(self, qa_bundle):
        _, report = _filter_map(qa_bundle).run_with_report(
            _config(qa_bundle, shards=4)
        )
        scatter = next(
            s for s in report.shard_plan.segments if s.kind == "scatter"
        )
        assert len(scatter.shard_makespans) == 4
        assert len(scatter.shard_rows) == 4
        assert sum(scatter.shard_rows) > 0
        assert scatter.straggler_gap_s == pytest.approx(
            max(scatter.shard_makespans) - min(scatter.shard_makespans)
        )

    def test_operator_stats_carry_shard_count(self, qa_bundle):
        result = _filter_map(qa_bundle).run(_config(qa_bundle, shards=4))
        sharded = [s for s in result.operator_stats if s.shards == 4]
        assert sharded  # the scatter stages ran shard-parallel


# ---------------------------------------------------------------------------
# Materialization composition
# ---------------------------------------------------------------------------


class TestReuseComposition:
    def test_sharded_run_replays_sharded_capture_for_free(self, qa_bundle):
        store = MaterializationStore()
        cold = _filter_map(qa_bundle).run(
            _config(qa_bundle, shards=4, materialization_store=store)
        )
        warm, report = _filter_map(qa_bundle).run_with_report(
            _config(qa_bundle, shards=4, materialization_store=store)
        )
        assert _normalized(warm) == _normalized(cold)
        assert warm.total_cost_usd == 0.0
        # The whole-boundary replay is the optimizer's, at any shard count.
        assert report.reused_prefix > 0 and report.reuse_kind == "exact"
        assert warm.operator_stats[0].reused

    def test_unsharded_capture_replays_under_sharding(self, qa_bundle):
        store = MaterializationStore()
        cold = _filter_map(qa_bundle).run(
            _config(qa_bundle, materialization_store=store)
        )
        warm, report = _filter_map(qa_bundle).run_with_report(
            _config(qa_bundle, shards=4, materialization_store=store)
        )
        assert _normalized(warm) == _normalized(cold)
        assert warm.total_cost_usd == 0.0
        assert report.reused_prefix > 0 and report.reuse_kind == "exact"

    def test_unsharded_barrier_capture_replays_mid_segment(self, qa_bundle):
        # A served run is operator steps, so it captures after every
        # operator, and a sharded query sharing only where+filter replays a
        # boundary that sits inside its own scatter segment; the sharding
        # pass plans what is left.
        def plan(map_intent):
            return (
                Dataset.from_source(qa_bundle.source())
                .where("priority >= 1")
                .sem_filter(instruction_for("qa.flag_urgent"))
                .sem_map(
                    Field("extracted", str, "extracted value"),
                    instruction_for(map_intent),
                )
            )

        runtime = AnalyticsRuntime(
            llm=SimulatedLLM(oracle=SemanticOracle(qa_bundle.registry), seed=13),
            seed=13,
        )
        runtime.serving().submit("tenant", plan("qa.customer"))
        store = runtime.materialization_store
        warm, report = plan("qa.amount").run_with_report(
            _config(
                qa_bundle, shards=4,
                materialization_store=store, scope="tenant",
            )
        )
        fresh = plan("qa.amount").run(_config(qa_bundle))
        assert report.reused_prefix == 2 and report.reuse_kind == "exact"
        assert [s.kind for s in report.shard_plan.segments] == ["global", "scatter"]
        assert [s.label for s in warm.operator_stats][0].startswith("MaterializedScan")
        assert _normalized(warm) == _normalized(fresh)
        assert 0.0 < warm.total_cost_usd < fresh.total_cost_usd
        from repro.sem.explain import explain_analyze

        assert "reuse: 2-operator prefix" in explain_analyze(warm, report)

    @staticmethod
    def _appended_run(store, n, shards=4, partitioner="hash", **kwargs):
        """One filter over the first ``n`` of 18 records, fresh LLM per run."""
        dataset = Dataset.from_records(
            _records(18, prefix="d")[:n], SCHEMA, source_id="delta-src"
        ).sem_filter("The text mentions suspicious deals.")
        config = QueryProcessorConfig(
            llm=SimulatedLLM(seed=0), seed=0, optimize=False, shards=shards,
            partitioner=partitioner, materialization_store=store, **kwargs,
        )
        return dataset.run_with_report(config)

    @pytest.mark.parametrize("partitioner", PARTITIONERS)
    def test_appended_source_runs_only_the_delta(self, partitioner):
        # One reuse decision: the optimizer offers the whole-boundary delta
        # at every shard count and partitioner and the appended tail is
        # scattered like any other input, so the store, its counters, the
        # report and the spend read exactly as in an unsharded run.
        def cold_then_warm(shards):
            store = MaterializationStore()
            self._appended_run(store, 12, shards, partitioner)
            entries_after_cold = len(store)
            warm, report = self._appended_run(store, 18, shards, partitioner)
            return store, entries_after_cold, warm, report

        plain_store, _, plain_warm, _ = cold_then_warm(1)
        store, entries_after_cold, warm, report = cold_then_warm(4)
        fresh, _ = self._appended_run(None, 18, 4, partitioner)
        assert entries_after_cold == 1  # the boundary, whole — no per-shard copies
        assert report.reuse_kind == "delta" and report.reuse_delta_records == 6
        assert _normalized(warm) == _normalized(fresh)
        assert 0.0 < warm.total_cost_usd < fresh.total_cost_usd
        assert warm.total_cost_usd == pytest.approx(plain_warm.total_cost_usd, abs=1e-12)
        assert store.stats() == plain_store.stats()
        assert store.stats()["hits"] == store.stats()["delta_hits"] == 1
        # The prefix ran over the tail only, scattered; the replay gathered.
        kinds = [segment.strategy for segment in report.shard_plan.segments]
        assert kinds == ["source", "scatter", "gather"]
        scan, sem_filter, replay = warm.operator_stats
        assert (scan.records_out, sem_filter.records_in) == (6, 6)
        assert replay.reused and replay.records_out == len(warm.records)
        again, report = self._appended_run(store, 18, 4, partitioner)
        assert report.reuse_kind == "exact" and again.total_cost_usd == 0.0
        assert _normalized(again) == _normalized(fresh)

    def test_budget_cut_inside_sharded_delta_truncates_and_never_captures(self):
        store = MaterializationStore()
        self._appended_run(store, 12)
        (before,) = store.entries()
        # The cap admits the delta's first judgment and cuts at the second.
        warm, report = self._appended_run(store, 18, max_cost_usd=1e-9)
        assert report.reuse_kind == "delta"
        assert warm.truncated and warm.total_cost_usd > 0.0
        assert store.stats()["stores"] == 1
        (after,) = store.entries()
        assert after is before and len(after.source_uids) == 12
        # The next uncapped run still finds the 12-record base to delta from.
        healed, report = self._appended_run(store, 18)
        assert report.reuse_kind == "delta" and not healed.truncated
        assert len(store.entries()[0].source_uids) == 18


# ---------------------------------------------------------------------------
# Serving integration
# ---------------------------------------------------------------------------


class TestServing:
    def test_sharded_query_respects_serving_clock_invariant(self, qa_bundle):
        runtime = AnalyticsRuntime.for_bundle(qa_bundle, seed=13, shards=4)
        serving = runtime.serving()
        job = serving.submit(
            "tenant-a",
            Dataset.from_source(qa_bundle.source()).sem_filter(
                instruction_for("qa.flag_urgent")
            ),
        )
        assert runtime.llm.clock.elapsed == 0.0  # submit never moves time
        assert job.timeline.steps
        report = serving.drain()
        assert len(report.jobs) == 1

    def test_served_sharded_records_match_standalone(self, qa_bundle):
        expected = _normalized(
            Dataset.from_source(qa_bundle.source())
            .sem_filter(instruction_for("qa.flag_urgent"))
            .run(_config(qa_bundle))
        )
        runtime = AnalyticsRuntime.for_bundle(qa_bundle, seed=13, shards=4)
        serving = runtime.serving()
        job = serving.submit(
            "tenant-a",
            Dataset.from_source(qa_bundle.source()).sem_filter(
                instruction_for("qa.flag_urgent")
            ),
        )
        serving.drain()
        normalized = [
            (r.uid, tuple(sorted(r.fields.items()))) for r in job.records
        ]
        assert normalized == expected


# ---------------------------------------------------------------------------
# QA harness wiring
# ---------------------------------------------------------------------------


class TestQaHarnessWiring:
    def test_matrix_includes_sharded_specs_for_every_plan(self):
        import random

        from repro.qa.configs import config_matrix
        from repro.qa.corpus import CorpusSpec
        from repro.qa.fuzzer import PlanFuzzer

        fuzzer = PlanFuzzer(seed=0)
        plan = fuzzer.generate_plan(
            random.Random(0), CorpusSpec(seed=0, n_records=12)
        )
        specs = [
            s for s in config_matrix(plan) if s.answer_class == "sharded"
        ]
        assert len(specs) >= 3
        assert {s.partitioner for s in specs} == set(PARTITIONERS)
        assert all(s.shards > 1 for s in specs)

    def test_shard_equivalence_oracle_is_registered(self):
        from repro.qa.oracles import ORACLES, check_shard_equivalence

        assert check_shard_equivalence in ORACLES
