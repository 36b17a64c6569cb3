"""System builders for the paper's evaluation (shared by benches & tests).

Each builder closes over a dataset bundle and returns a callable
``system(trial_seed) -> TrialOutcome``.  Every trial constructs a fresh
simulated LLM seeded by the trial seed, so systems are compared on
identical noise draws for identical (model, task, record) triples while
remaining independently accounted.
"""

from __future__ import annotations

from typing import Callable

from repro.agents.codeagent import CodeAgent
from repro.agents.filetools import build_file_tools
from repro.agents.policies.deep_research import (
    EnronCodeAgentPolicy,
    KramabenchCodeAgentPolicy,
)
from repro.agents.policies.semantic_tools import SemanticToolsCodeAgentPolicy
from repro.agents.semtools import build_semantic_tools
from repro.bench.harness import TrialOutcome
from repro.bench.metrics import mean_percent_error, set_metrics
from repro.core.runtime import AnalyticsRuntime
from repro.data.datasets import enron as en
from repro.data.datasets import kramabench as kb
from repro.data.datasets.base import DatasetBundle
from repro.data.schemas import Field
from repro.llm.faults import FaultConfig, FaultInjector, RetryPolicy
from repro.llm.oracle import SemanticOracle
from repro.llm.simulated import SimulatedLLM
from repro.sem.config import QueryProcessorConfig
from repro.sem.dataset import Dataset
from repro.sem.optimizer.policies import MaxQuality

System = Callable[[int], TrialOutcome]


def _fresh_llm(
    bundle: DatasetBundle,
    seed: int,
    fault_config: FaultConfig | None = None,
    retry_policy: RetryPolicy | None = None,
) -> SimulatedLLM:
    return SimulatedLLM(
        oracle=SemanticOracle(bundle.registry),
        seed=seed,
        faults=FaultInjector(fault_config, seed=seed) if fault_config else None,
        retry=retry_policy,
    )


# ---------------------------------------------------------------------------
# Table 1 systems (Kramabench legal-easy-3)
# ---------------------------------------------------------------------------


def kramabench_semops_system(
    bundle: DatasetBundle,
    fault_config: FaultConfig | None = None,
    retry_policy: RetryPolicy | None = None,
    on_failure: str = "skip",
) -> System:
    """The handcrafted Palimpzest program: filter, filter, map-ratio.

    Iterator semantics force it to process every file; when a semantic
    filter admits an errant file the program emits a second (wrong) ratio,
    and per the paper's protocol the trial's error is the mean percent
    error over all returned ratios.
    """
    truth = bundle.ground_truth["ratio"]

    def system(seed: int) -> TrialOutcome:
        llm = _fresh_llm(bundle, seed, fault_config, retry_policy)
        dataset = (
            Dataset.from_source(bundle.source())
            .sem_filter(kb.FILTER_MENTIONS)
            .sem_filter(kb.FILTER_STATS_BOTH)
            .sem_map(Field("ratio", object, "ratio of identity theft reports"), kb.MAP_RATIO)
        )
        result = dataset.run(
            QueryProcessorConfig(
                llm=llm, policy=MaxQuality(), seed=seed, on_failure=on_failure
            )
        )
        ratios = [
            float(value)
            for value in result.field_values("ratio")
            if isinstance(value, (int, float))
        ]
        return TrialOutcome(
            quality={"pct_err": mean_percent_error(ratios or [None], truth)},
            cost_usd=llm.tracker.total().cost_usd,
            time_s=llm.clock.elapsed,
            detail={
                "ratios": ratios,
                "n_records": len(result.records),
                "retried_calls": result.retried_calls,
                "failed_records": result.failed_records,
            },
        )

    return system


def kramabench_codeagent_system(
    bundle: DatasetBundle,
    fault_config: FaultConfig | None = None,
    retry_policy: RetryPolicy | None = None,
) -> System:
    """The naive Deep-Research CodeAgent with file tools."""
    truth = bundle.ground_truth["ratio"]

    def system(seed: int) -> TrialOutcome:
        llm = _fresh_llm(bundle, seed, fault_config, retry_policy)
        agent = CodeAgent(
            llm,
            build_file_tools(bundle.corpus),
            KramabenchCodeAgentPolicy(),
            seed=seed,
            name="codeagent",
        )
        result = agent.run(kb.QUERY_RATIO)
        ratio = result.answer.get("ratio") if isinstance(result.answer, dict) else None
        return TrialOutcome(
            quality={"pct_err": mean_percent_error([ratio], truth)},
            cost_usd=result.cost_usd,
            time_s=result.time_s,
            detail={
                "answer": result.answer,
                "steps": result.steps_used,
                "retried_calls": llm.tracker.failed_calls(),
                "failed_records": 0,
                "llm_failures": result.llm_failures,
                "aborted": result.aborted,
            },
        )

    return system


def kramabench_compute_system(
    bundle: DatasetBundle,
    fault_config: FaultConfig | None = None,
    retry_policy: RetryPolicy | None = None,
) -> System:
    """Our prototype: the query string goes straight into ``compute``."""
    truth = bundle.ground_truth["ratio"]

    def system(seed: int) -> TrialOutcome:
        runtime = AnalyticsRuntime.for_bundle(
            bundle,
            seed=seed,
            fault_config=fault_config,
            retry_policy=retry_policy,
        )
        context = runtime.make_context(bundle)
        result = runtime.compute(context, kb.QUERY_RATIO)
        ratio = result.answer.get("ratio") if isinstance(result.answer, dict) else None
        return TrialOutcome(
            quality={"pct_err": mean_percent_error([ratio], truth)},
            cost_usd=result.cost_usd,
            time_s=result.time_s,
            detail={
                "answer": result.answer,
                "steps": result.agent.steps_used,
                "retried_calls": runtime.llm.tracker.failed_calls(),
                "failed_records": getattr(
                    runtime.last_program_result, "failed_records", 0
                ),
            },
        )

    return system


# ---------------------------------------------------------------------------
# Table 2 systems (Enron email filter)
# ---------------------------------------------------------------------------


def _enron_quality(bundle: DatasetBundle, returned_filenames) -> dict[str, float]:
    gold = bundle.ground_truth["relevant_filenames"]
    metrics = set_metrics(gold, returned_filenames)
    return {"f1": metrics.f1, "recall": metrics.recall, "precision": metrics.precision}


def enron_codeagent_system(
    bundle: DatasetBundle,
    fault_config: FaultConfig | None = None,
    retry_policy: RetryPolicy | None = None,
) -> System:
    """The naive CodeAgent: regex grep + bounded manual verification."""

    def system(seed: int) -> TrialOutcome:
        llm = _fresh_llm(bundle, seed, fault_config, retry_policy)
        agent = CodeAgent(
            llm,
            build_file_tools(bundle.corpus),
            EnronCodeAgentPolicy(),
            seed=seed,
            name="codeagent",
        )
        result = agent.run(en.QUERY_RELEVANT)
        returned = list(result.answer or [])
        return TrialOutcome(
            quality=_enron_quality(bundle, returned),
            cost_usd=result.cost_usd,
            time_s=result.time_s,
            detail={
                "returned": returned,
                "steps": result.steps_used,
                "retried_calls": llm.tracker.failed_calls(),
                "failed_records": 0,
            },
        )

    return system


def enron_codeagent_plus_system(
    bundle: DatasetBundle,
    fault_config: FaultConfig | None = None,
    retry_policy: RetryPolicy | None = None,
) -> System:
    """CodeAgent+ = CodeAgent with (unoptimized) semantic-operator tools."""

    def system(seed: int) -> TrialOutcome:
        llm = _fresh_llm(bundle, seed, fault_config, retry_policy)
        tools = build_file_tools(bundle.corpus)
        semantic = build_semantic_tools(bundle.records(), llm)
        for name in semantic.names():
            tools.add(semantic.get(name))
        policy = SemanticToolsCodeAgentPolicy(
            filters=[en.FILTER_MENTIONS, en.FILTER_FIRSTHAND],
            maps=[
                ("summary", en.MAP_SUMMARY),
                ("sender", en.MAP_SENDER),
                ("subject", en.MAP_SUBJECT),
            ],
        )
        agent = CodeAgent(llm, tools, policy, seed=seed, name="codeagent-plus", max_steps=8)
        result = agent.run(en.QUERY_RELEVANT)
        returned = [
            row.get("key") for row in (result.answer or []) if isinstance(row, dict)
        ]
        return TrialOutcome(
            quality=_enron_quality(bundle, returned),
            cost_usd=result.cost_usd,
            time_s=result.time_s,
            detail={
                "returned": returned,
                "steps": result.steps_used,
                "retried_calls": llm.tracker.failed_calls(),
                "failed_records": 0,
            },
        )

    return system


def enron_compute_system(
    bundle: DatasetBundle,
    fault_config: FaultConfig | None = None,
    retry_policy: RetryPolicy | None = None,
) -> System:
    """Our prototype: ``compute`` writes one optimized PZ program."""

    def system(seed: int) -> TrialOutcome:
        runtime = AnalyticsRuntime.for_bundle(
            bundle,
            seed=seed,
            fault_config=fault_config,
            retry_policy=retry_policy,
        )
        context = runtime.make_context(bundle)
        result = runtime.compute(context, en.QUERY_RELEVANT)
        returned = [
            row.get("filename")
            for row in (result.answer or [])
            if isinstance(row, dict)
        ]
        return TrialOutcome(
            quality=_enron_quality(bundle, returned),
            cost_usd=result.cost_usd,
            time_s=result.time_s,
            detail={
                "returned": returned,
                "steps": result.agent.steps_used,
                "retried_calls": runtime.llm.tracker.failed_calls(),
                "failed_records": getattr(
                    runtime.last_program_result, "failed_records", 0
                ),
            },
        )

    return system
