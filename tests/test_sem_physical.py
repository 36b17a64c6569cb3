"""Tests for physical operators over a small annotated dataset."""

import dataclasses
import inspect

import pytest

from repro.data.records import DataRecord
from repro.errors import ExecutionError
from repro.data.schemas import Field, Schema
from repro.data.sources import MemorySource
from repro.llm.oracle import DIFFICULTY_PREFIX, IntentRegistry, SemanticOracle
from repro.llm.simulated import SimulatedLLM
from repro.sem import logical as L
from repro.sem import physical as P
from tests.test_architecture import RULE, violations

SCHEMA = Schema([Field("name", str), Field("topic", str)])


def _registry():
    registry = IntentRegistry()
    registry.register("w.about_gadgets", ["about", "gadgets"])
    registry.register("w.owner", ["owner", "name"])
    registry.register("w.category", ["category", "label"])
    return registry


def _records():
    records = []
    for index in range(6):
        about_gadgets = index % 2 == 0
        records.append(
            DataRecord(
                {"name": f"item{index}", "topic": "gadgets" if about_gadgets else "plants"},
                uid=f"w{index}",
                annotations={
                    "w.about_gadgets": about_gadgets,
                    DIFFICULTY_PREFIX + "w.about_gadgets": 0.05,
                    "w.owner": f"owner{index}",
                    DIFFICULTY_PREFIX + "w.owner": 0.05,
                    "w.category": "gadget" if about_gadgets else "plant",
                    DIFFICULTY_PREFIX + "w.category": 0.05,
                },
            )
        )
    return records


@pytest.fixture
def ctx():
    llm = SimulatedLLM(oracle=SemanticOracle(_registry()), seed=0)
    return P.ExecutionContext(llm=llm, parallelism=1, tag="test")


def _scan_op():
    return L.ScanOp(child=None, source=MemorySource(_records(), SCHEMA, "widgets"))


def test_scan_materializes(ctx):
    records = P.PhysScan(_scan_op()).execute([], ctx)
    assert len(records) == 6


def test_scan_rejects_input(ctx):
    with pytest.raises(Exception):
        P.PhysScan(_scan_op()).execute(_records(), ctx)


def test_sem_filter_keeps_matching(ctx):
    op = L.SemFilterOp(child=_scan_op(), instruction="the record is about gadgets")
    kept = P.PhysSemFilter(op, "gpt-4o").execute(_records(), ctx)
    assert {record["name"] for record in kept} == {"item0", "item2", "item4"}


def test_sem_filter_charges_per_record(ctx):
    op = L.SemFilterOp(child=_scan_op(), instruction="the record is about gadgets")
    P.PhysSemFilter(op, "gpt-4o").execute(_records(), ctx)
    assert ctx.llm.tracker.total().calls == 6


def test_sem_map_adds_coerced_field(ctx):
    op = L.SemMapOp(
        child=_scan_op(),
        outputs=((Field("who", str, "owner"), "extract the owner name"),),
    )
    output = P.PhysSemMap(op, "gpt-4o").execute(_records()[:2], ctx)
    assert output[0]["who"] == "owner0"
    assert output[0].parent_uids  # lineage recorded


def test_sem_classify_labels(ctx):
    op = L.SemClassifyOp(
        child=_scan_op(),
        output_field="kind",
        options=("gadget", "plant"),
        instruction="assign the category label",
    )
    output = P.PhysSemClassify(op, "gpt-4o").execute(_records(), ctx)
    assert [record["kind"] for record in output[:2]] == ["gadget", "plant"]


def test_py_filter_and_map(ctx):
    records = _records()
    filtered = P.PhysPyFilter(
        L.PyFilterOp(child=_scan_op(), fn=lambda r: r["topic"] == "plants")
    ).execute(records, ctx)
    assert len(filtered) == 3
    mapped = P.PhysPyMap(
        L.PyMapOp(child=_scan_op(), fn=lambda r: {"upper": r["name"].upper()})
    ).execute(filtered, ctx)
    assert mapped[0]["upper"].startswith("ITEM")
    assert ctx.llm.tracker.total().calls == 0  # free operators


def test_py_map_requires_dict(ctx):
    from repro.errors import ExecutionError

    op = L.PyMapOp(child=_scan_op(), fn=lambda r: "not a dict")
    with pytest.raises(ExecutionError):
        P.PhysPyMap(op).execute(_records()[:1], ctx)


def test_project_drops_fields(ctx):
    output = P.PhysProject(
        L.ProjectOp(child=_scan_op(), fields=("name",))
    ).execute(_records(), ctx)
    assert output[0].field_names() == ["name"]


def test_limit_truncates(ctx):
    output = P.PhysLimit(L.LimitOp(child=_scan_op(), n=2)).execute(_records(), ctx)
    assert len(output) == 2


def test_sem_topk_embedding_prefers_topic(ctx):
    op = L.SemTopKOp(child=_scan_op(), query="gadgets electronics", k=3)
    output = P.PhysSemTopK(op).execute(_records(), ctx)
    assert len(output) == 3
    assert sum(1 for record in output if record["topic"] == "gadgets") >= 2


def test_sem_agg_single_output(ctx):
    op = L.SemAggOp(child=_scan_op(), instruction="summarize the records", output_field="summary")
    output = P.PhysSemAgg(op, "gpt-4o").execute(_records(), ctx)
    assert len(output) == 1
    assert isinstance(output[0]["summary"], str)
    assert len(output[0].parent_uids) == 6


def test_sem_join_pairs(ctx):
    left = _records()[:2]
    right_source = MemorySource(_records()[:3], SCHEMA, "right")
    right_scan = L.ScanOp(child=None, source=right_source)
    join_op = L.SemJoinOp(
        child=_scan_op(), right=right_scan, instruction="both records are about gadgets"
    )
    physical = P.PhysSemJoin(join_op, [P.PhysScan(right_scan)], "gpt-4o")
    joined = physical.execute(left, ctx)
    # merged annotations: right record's truth wins; pairs where the merged
    # record is gadget-annotated pass.
    assert all(len(record.parent_uids) == 2 for record in joined)
    assert len(joined) >= 1


def test_retrieve_uses_source_index(ctx):
    class FakeIndexedSource:
        def __init__(self):
            self.calls = 0

        def vector_search(self, query, k, llm):
            self.calls += 1
            return [(record, 1.0) for record in _records()[:k]]

    source = FakeIndexedSource()
    op = L.RetrieveOp(child=_scan_op(), query="anything", k=2)
    output = P.PhysRetrieve(op, source=source).execute(_records(), ctx)
    assert source.calls == 1
    assert len(output) == 2


def test_retrieve_fallback_embeds(ctx):
    op = L.RetrieveOp(child=_scan_op(), query="gadgets", k=2)
    output = P.PhysRetrieve(op).execute(_records(), ctx)
    assert len(output) == 2


# ---------------------------------------------------------------------------
# Structural guards: one definition per operator, one loop per executor
# ---------------------------------------------------------------------------


def _streamable_operator_classes():
    return [
        cls
        for cls in vars(P).values()
        if inspect.isclass(cls)
        and issubclass(cls, P.StreamingOperator)
        and cls is not P.StreamingOperator
    ]


def test_streamable_operators_define_exactly_one_entry_point():
    classes = _streamable_operator_classes()
    assert len(classes) >= 9
    for cls in [P.StreamingOperator, *classes]:
        assert "process_record" not in vars(cls), f"{cls.__name__} defines process_record"
    for cls in classes:
        defined = {"process_rows", "process_batch"} & set(vars(cls))
        assert len(defined) == 1, f"{cls.__name__} defines {sorted(defined)}"
        assert "execute" not in vars(cls), f"{cls.__name__} overrides execute"
        assert cls.streamable


def test_executors_only_call_the_batch_entry_point():
    assert violations(RULE["batch-entry-point"]) == []


def test_one_section_loop():
    assert violations(RULE["one-section-loop"]) == []


def test_config_field_count_only_ratchets_down():
    # Lower this when a knob dies; never raise it to merge.
    from repro.sem.config import QueryProcessorConfig

    assert len(dataclasses.fields(QueryProcessorConfig)) <= 18


def test_execution_path_option_count_only_ratchets_down():
    # The same rule one layer down: production runs one value of each
    # mechanic, so no constructor on the execution path takes it.
    from repro.llm.usage import UsageTracker

    def init_fields(cls) -> list[str]:
        return [f.name for f in dataclasses.fields(cls) if f.init]

    assert len(init_fields(P.ExecutionContext)) <= 8
    assert len(init_fields(P.AdaptiveParallelism)) <= 6
    assert list(inspect.signature(UsageTracker.__init__).parameters) == ["self"]


def test_fault_layer_option_count_only_ratchets_down():
    # The fault layer keeps what a benchmark or QA config runs: a failure
    # policy, breaker, timeout, burst or backoff tuning only tests set is
    # a constant or gone.
    from repro.agents.codeagent import CodeAgent
    from repro.llm.faults import FaultConfig, RetryPolicy

    assert len(dataclasses.fields(FaultConfig)) <= 5
    assert len(dataclasses.fields(RetryPolicy)) <= 1
    assert len(inspect.signature(CodeAgent.__init__).parameters) - 1 <= 7


def test_serving_option_count_only_ratchets_down():
    # Serving and standing queries keep what a workload runs: a tenant is
    # a name and a budget, slots are shared at unit strides, and every
    # standing query registers on its config and primes.
    from repro.sem.streaming import StandingQueryManager
    from repro.serve import TenantSpec
    from repro.serve.scheduler import CrossQueryScheduler

    def options(function) -> int:
        return len(inspect.signature(function).parameters) - 1  # self

    assert len(dataclasses.fields(TenantSpec)) <= 2
    assert options(CrossQueryScheduler.__init__) <= 2
    assert options(StandingQueryManager.register) <= 4


MECHANICS = ("pipeline", "pushdown", "embed_batch_size", "adaptive_parallelism")


def test_execution_mechanics_are_not_options():
    # Fusion, batched embeds, adaptive width and pushdown are
    # unconditional, served or not; a mode that exists to be diffed
    # against lives in repro.qa.reference.
    from repro.core.runtime import AnalyticsRuntime
    from repro.qa.configs import ConfigSpec
    from repro.sem.config import QueryProcessorConfig
    from repro.sem.execution import Engine

    for name in MECHANICS:
        assert not hasattr(QueryProcessorConfig, name), name
        assert name not in {f.name for f in dataclasses.fields(ConfigSpec)}, name
        assert name not in inspect.signature(AnalyticsRuntime.__init__).parameters
        assert name not in inspect.signature(Engine.__init__).parameters
    assert "batch_size" not in inspect.signature(AnalyticsRuntime.__init__).parameters


def test_reference_interpreter_stays_small_and_independent():
    from repro.qa import reference

    assert len(inspect.getsource(reference).splitlines()) <= 200
    assert violations(RULE["reference-interpreter-independent"]) == []


def test_sql_scan_runs_pushed_ops_as_their_physical_classes(ctx):
    scan = _scan_op()
    pushed = (
        L.StructFilterOp(child=None, condition="topic = 'gadgets'"),
        L.ProjectOp(child=None, fields=("name",)),
        L.LimitOp(child=None, n=2),
    )
    sql_scan = P.PhysSqlScan(
        L.SqlScanOp(child=None, source=scan.source, pushed=pushed, sql="")
    )
    assert [type(op) for op in sql_scan.pushed] == [
        P.PhysStructFilter, P.PhysProject, P.PhysLimit,
    ]
    output = sql_scan.execute([], ctx)
    assert sql_scan.scanned == 6
    assert [record.fields for record in output] == [
        {"name": "item0"}, {"name": "item2"},
    ]
    with pytest.raises(ExecutionError, match="cannot run inside a SqlScan"):
        P.PhysSqlScan(
            L.SqlScanOp(
                child=None, source=scan.source, sql="",
                pushed=(L.PyFilterOp(child=None, fn=bool),),
            )
        )
