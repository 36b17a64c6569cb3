"""An operator is declared once: two classes and nothing else.

(a) A toy per-record LLM operator defined *in this file* — one frozen
    logical dataclass, one ``StreamingOperator`` subclass, no other file
    edited and nothing monkey-patched — goes through every layer that used
    to keep its own per-class ladder: validation, sampling, pricing,
    fingerprinting, exact and delta replay, statistics ingestion, EXPLAIN
    ANALYZE and sharded execution.
(b) Completeness: every logical class answers every declaration and has
    exactly one registered physical class; omitting a required declaration
    fails loudly, naming it.
(c) Golden identity: tokens moved onto the classes byte for byte — the
    digests pinned by the code before the move still come out, and a store
    file that code saved still loads and hits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.data.records import DataRecord
from repro.data.schemas import Field, Schema
from repro.data.sources import MemorySource
from repro.errors import OptimizationError, PlanError
from repro.llm.simulated import SimulatedLLM
from repro.obs.stats import StatisticsStore
from repro.sem import logical as L
from repro.sem import physical as P
from repro.sem.config import QueryProcessorConfig
from repro.sem.dataset import Dataset
from repro.sem.explain import explain_analyze
from repro.sem.materialize import MaterializationStore
from repro.sem.optimizer.optimizer import Optimizer
from repro.utils.text import normalize_text
from tests.golden_builders import (
    build_operator_digests_golden,
    saved_store_config,
    saved_store_dataset,
)

GOLDENS = Path(__file__).parent / "goldens"


# ---------------------------------------------------------------------------
# (a) The toy operator: everything it needs is these two classes.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ToyTagOp(L.LogicalOperator):
    """Tag each record with whether it satisfies ``instruction``."""

    instruction: str = ""
    model: str | None = None
    charges = "per_record"
    costly = incremental_safe = True
    profiled = "model"

    def label(self) -> str:
        return f"ToyTag({self.instruction[:20]!r})"

    def token(self, model):
        return ("toy_tag", normalize_text(self.instruction), model)


class PhysToyTag(P.StreamingOperator):
    implements = ToyTagOp
    exchange = "scatter"

    def process_record(self, record, ctx, state):
        op = self.logical_op
        judgment = ctx.guarded(
            record.uid, self.model or op.model, "toy",
            ctx.llm.judge_filter, op.instruction, record,
        )
        tagged = judgment is not None and judgment.answer
        return [record.derive({"tagged": tagged})]


SCHEMA = Schema([Field("text", str)])
INSTRUCTION = "The text is worth tagging."


def _records(start: int, stop: int) -> list[DataRecord]:
    return [DataRecord({"text": f"text number {i}"}, uid=f"t{i}") for i in range(start, stop)]


def _toy_dataset(source: MemorySource) -> Dataset:
    tagged = Dataset(ToyTagOp(child=Dataset.from_source(source)._root, instruction=INSTRUCTION))
    return tagged.filter(lambda record: record["tagged"], description="tagged only")


def _config(**kwargs) -> QueryProcessorConfig:
    return QueryProcessorConfig(llm=SimulatedLLM(seed=4), seed=4, **kwargs)


def _normalized(result) -> list:
    return [(r.uid, tuple(sorted(r.fields.items()))) for r in result.records]


def test_toy_operator_is_validated():
    source = MemorySource(_records(0, 4), SCHEMA, source_id="toy")
    L.validate_plan(_toy_dataset(source).plan())
    with pytest.raises(PlanError, match="ToyTag.*missing its input"):
        L.validate_plan(L.LogicalPlan(ToyTagOp(child=None, instruction=INSTRUCTION)))


def test_toy_operator_is_sampled_priced_fingerprinted_ingested_and_explained():
    source = MemorySource(_records(0, 16), SCHEMA, source_id="toy")
    stats = StatisticsStore()
    config = _config(materialization_store=MaterializationStore(), stats_store=stats)
    result, report = _toy_dataset(source).run_with_report(config)

    toy = next(op for op in report.bound if isinstance(op, PhysToyTag))
    # Sampled: the candidates were auditioned by running PhysToyTag itself.
    assert toy.estimate.source == "sampled"
    assert len(toy.estimate.candidates) > 1
    assert report.sampling_cost_usd > 0
    # Priced by estimate_chain_steps: one believed charge per input record.
    assert toy.estimate.rows == 16.0
    assert toy.estimate.cost_usd == pytest.approx(16 * toy.estimate.cost_per_record)
    assert report.estimate.cost_usd >= toy.estimate.cost_usd > 0
    # Fingerprinted, keyed and ingested under its own statistics key.
    assert toy.fingerprint is not None
    assert toy.stats_entry["kind"] == "ToyTagOp"
    prior = stats.prior(toy.stats_entry["key"])
    assert prior is not None and prior.rows_in == 16.0 and prior.selectivity == 1.0
    # One EXPLAIN ANALYZE row, estimate columns filled.
    (row,) = [
        line for line in explain_analyze(result, report).splitlines() if "ToyTag(" in line
    ]
    assert "sampled" in row and toy.model in row


def test_toy_operator_replays_exact_then_delta_after_an_append():
    source = MemorySource(_records(0, 10), SCHEMA, source_id="toy")
    store = MaterializationStore()

    def run():
        return _toy_dataset(source).run_with_report(
            _config(optimize=False, materialization_store=store)
        )

    cold, cold_report = run()
    assert cold_report.reuse_kind == "" and store.stores >= 1

    exact, exact_report = run()
    assert exact_report.reuse_kind == "exact"
    assert exact.total_cost_usd == 0.0
    assert _normalized(exact) == _normalized(cold)

    source.append(_records(10, 14))
    delta, delta_report = run()
    assert (delta_report.reuse_kind, delta_report.reuse_delta_records) == ("delta", 4)
    assert any(isinstance(op, PhysToyTag) for op in delta_report.planned)
    recompute = _toy_dataset(source).run(_config(optimize=False))
    assert _normalized(delta) == _normalized(recompute)
    assert 0.0 < delta.total_cost_usd < recompute.total_cost_usd


def test_toy_operator_is_bit_identical_across_shard_counts():
    def run(shards: int):
        source = MemorySource(_records(0, 24), SCHEMA, source_id="toy")
        return _toy_dataset(source).run(_config(optimize=False, shards=shards))

    one, four = run(1), run(4)
    assert len(one.records) > 0
    assert four.fingerprint() == one.fingerprint()
    assert next(s for s in four.operator_stats if "ToyTag" in s.label).shards == 4


# ---------------------------------------------------------------------------
# (b) Completeness of the declarations and the table
# ---------------------------------------------------------------------------


def _logical_classes() -> list[type]:
    return [
        cls for cls in L.LogicalOperator.__subclasses__() if cls.__module__ == L.__name__
    ]


def test_every_logical_class_answers_every_declaration():
    classes = _logical_classes()
    assert len(classes) == 17
    for cls in classes:
        assert cls.charges in L.CHARGES
        assert cls.token is not L.LogicalOperator.token
        assert cls.profiled in (None, "model", "selectivity")
        assert cls.pushable in (None, "prefix", "terminal")
        for flag in ("costly", "commuting", "leaf"):
            assert isinstance(getattr(cls, flag), bool), (cls, flag)
        # What the flags imply about each other.
        assert not cls.commuting or cls.incremental_safe is True
        assert cls.profiled != "model" or (cls.costly and "model" in cls.__dataclass_fields__)
        assert cls.profiled != "selectivity" or cls.charges == "free"


def test_every_logical_class_has_exactly_one_physical_class():
    for cls in _logical_classes():
        if cls is L.MaterializedScanOp:
            # Built with its store entry by the optimizer's replay splice,
            # never bound from a written plan.
            assert cls not in P.IMPLEMENTATIONS
            continue
        physical = P.IMPLEMENTATIONS[cls]
        assert physical.implements is cls and physical.exchange is not None
    assert len(set(P.IMPLEMENTATIONS.values())) == len(P.IMPLEMENTATIONS)
    # The blocked join is a declared variant: it inherits, and is not in the table.
    assert P.PhysSemJoinBlocked.implements is L.SemJoinOp
    assert P.PhysSemJoinBlocked not in P.IMPLEMENTATIONS.values()
    with pytest.raises(PlanError, match="both declare `implements = LimitOp`"):

        class SecondLimit(P.StreamingOperator):
            implements = L.LimitOp


def test_a_missing_declaration_fails_loudly_and_names_it():
    with pytest.raises(PlanError, match="NoCharges must declare `charges`"):

        @dataclass(frozen=True)
        class NoCharges(L.LogicalOperator):
            def token(self, model):
                return ("no_charges",)

    with pytest.raises(PlanError, match=r"NoToken must declare `token\(model\)`"):

        @dataclass(frozen=True)
        class NoToken(L.LogicalOperator):
            charges = "free"

    @dataclass(frozen=True)
    class Unimplemented(L.LogicalOperator):
        charges = "free"

        def token(self, model):
            return ("unimplemented",)

    source = MemorySource(_records(0, 2), SCHEMA, source_id="toy")
    plan = L.LogicalPlan(Unimplemented(child=Dataset.from_source(source)._root))
    with pytest.raises(OptimizationError, match="`implements = Unimplemented`"):
        Optimizer(_config(optimize=False)).optimize(plan)


# ---------------------------------------------------------------------------
# (c) Golden identity
# ---------------------------------------------------------------------------


def test_digests_are_the_ones_pinned_before_tokens_moved_onto_the_classes():
    pinned = json.loads((GOLDENS / "operator_digests_golden.json").read_text("utf-8"))
    assert build_operator_digests_golden() == pinned
    covered = {name for entry in pinned.values() for name in entry["operators"]}
    assert covered == {cls.__name__ for cls in _logical_classes()}
    # What was unkeyable stays unkeyable.
    for name, entry in pinned.items():
        for operator, key in zip(entry["operators"], entry["stats_keys"]):
            unkeyable = operator in ("SemJoinOp", "MaterializedScanOp") or (
                name.startswith("undescribed/") and operator.startswith("Py")
            )
            assert (key is None) == unkeyable, (name, operator)
    for name in ("join", "materialized", "undescribed"):
        assert pinned[f"{name}/written/unscoped"]["fingerprints"][1:] == [None] * (
            len(pinned[f"{name}/written/unscoped"]["operators"]) - 1
        )


def test_a_store_saved_before_the_move_still_loads_and_hits():
    store = MaterializationStore()
    assert store.load(GOLDENS / "materialization_store_pr22.json") == 1
    warm, report = saved_store_dataset().run_with_report(saved_store_config(store))
    assert (report.reuse_kind, store.hits) == ("exact", 1)
    assert warm.total_cost_usd == 0.0
    cold = saved_store_dataset().run(saved_store_config(MaterializationStore()))
    assert _normalized(warm) == _normalized(cold)
