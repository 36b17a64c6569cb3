"""The reference interpreter against the engine, over the fuzzer's plan space.

``repro.qa.reference`` defines every operator by its simplest algorithm and
shares no operator, executor or optimizer code with the engine (only the
logical plan, the LLM substrate and ``sem.structql``).  The property: whatever mechanics the
engine derives or is configured with — fused sections, four shards, a
serve sink's operator steps, a warm materialization store — the records
are bit-identical to the reference's and the dollars never exceed it
(the reference takes no early exit and pushes nothing down, so every
engine run issues a subset of its calls; that includes a sharded limit's
per-shard overfetch, which can only outspend the *unsharded engine*).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.runtime import AnalyticsRuntime
from repro.data.records import reset_uid_counter
from repro.llm.oracle import SemanticOracle
from repro.llm.simulated import SimulatedLLM
from repro.qa.corpus import build_corpus
from repro.qa.fuzzer import PlanFuzzer
from repro.qa.plans import normalized_records
from repro.qa.reference import ReferenceInterpreter
from repro.sem.config import QueryProcessorConfig
from repro.sem.materialize import MaterializationStore

PARALLELISM = 4
MODES = ("default", "sharded", "served", "warm")
#: Every operator kind ``repro.qa.plans`` can build.
OPERATOR_KINDS = {
    "sem_filter", "sem_map", "sem_classify", "sem_groupby", "sem_topk",
    "sem_agg", "sem_join", "limit", "project", "retrieve", "where",
    "py_filter", "py_map",
}
COST_EPS = 1e-9


def _substrate(case):
    reset_uid_counter()
    bundle = build_corpus(case.corpus)
    llm = SimulatedLLM(oracle=SemanticOracle(bundle.registry), seed=0)
    return case.plan.build(bundle), llm


def _reference(case):
    dataset, llm = _substrate(case)
    result = ReferenceInterpreter(llm, parallelism=PARALLELISM).run(dataset.plan())
    return normalized_records(result.records), result.total_cost_usd


def _engine(case, mode):
    dataset, llm = _substrate(case)
    if mode == "served":
        runtime = AnalyticsRuntime(llm=llm)
        job = runtime.serving(parallelism=PARALLELISM).submit("tenant", dataset)
        return normalized_records(job.records), job.raw_cost_usd
    store = MaterializationStore() if mode == "warm" else None

    def config(llm):
        return QueryProcessorConfig(
            llm=llm, optimize=False, parallelism=PARALLELISM,
            shards=4 if mode == "sharded" else 1, materialization_store=store,
        )

    if mode == "warm":
        dataset.run(config(llm))  # cold pass primes the store
        dataset, llm = _substrate(case)  # fresh generation cache
    result = dataset.run(config(llm))
    assert not result.truncated
    return normalized_records(result.records), result.total_cost_usd


def _assert_engine_matches_reference(case):
    records, cost = _reference(case)
    for mode in MODES:
        got, spent = _engine(case, mode)
        assert got == records, (mode, case.plan.describe())
        assert spent <= cost + COST_EPS, (mode, case.plan.describe(), spent, cost)


def test_every_operator_kind_matches_the_reference_in_every_mode():
    cases = PlanFuzzer(seed=11).cases(40)
    seen = set()
    for case in cases:
        for op in case.plan.ops:
            seen.add(op["op"])
            seen.update(sub["op"] for sub in op.get("right", ()))
    assert seen == OPERATOR_KINDS  # the sample exercises the whole catalog
    for case in cases:
        _assert_engine_matches_reference(case)


@pytest.mark.slow
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), index=st.integers(0, 200))
def test_engine_matches_reference_property(seed, index):
    _assert_engine_matches_reference(PlanFuzzer(seed=seed).case(index))


def test_sharded_limit_overfetch_stays_under_the_reference():
    # The documented overfetch: each shard fills its own limit before the
    # global merge truncates, so shards=4 outspends the unsharded engine —
    # but not the reference, which judges every record.
    case = next(
        case
        for case in PlanFuzzer(seed=11).cases(200)
        if [op["op"] for op in case.plan.ops][:2] == ["sem_filter", "limit"]
    )
    _, reference_cost = _reference(case)
    _, unsharded_cost = _engine(case, "default")
    _, sharded_cost = _engine(case, "sharded")
    assert unsharded_cost < sharded_cost <= reference_cost + COST_EPS
