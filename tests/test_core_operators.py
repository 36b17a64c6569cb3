"""Tests for the search and compute operators."""

import pytest

from repro.core.operators import compute, search
from repro.core.runtime import AnalyticsRuntime
from repro.data.datasets import enron as en
from repro.data.datasets import kramabench as kb
from repro.llm.models import DEFAULT_MODEL, completion_models_by_cost
from repro.sem.optimizer.policies import Balanced, MaxQuality, MinCost


@pytest.fixture
def legal_runtime(legal_bundle):
    runtime = AnalyticsRuntime.for_bundle(legal_bundle, seed=42)
    return runtime, runtime.make_context(legal_bundle)


def test_compute_ratio_flow_answers_correctly(legal_runtime, legal_bundle):
    runtime, context = legal_runtime
    result = compute(context, kb.QUERY_RATIO, runtime)
    truth = legal_bundle.ground_truth["ratio"]
    assert result.answer["ratio"] == pytest.approx(truth, rel=0.02)
    assert result.answer["source"] == legal_bundle.ground_truth["ground_truth_file"]
    assert result.cost_usd > 0 and result.time_s > 0


def test_compute_registers_output_context(legal_runtime):
    runtime, context = legal_runtime
    compute(context, kb.QUERY_RATIO, runtime)
    # programs (2) + the compute's own output context
    assert len(runtime.context_manager) >= 3


def test_compute_output_context_describes_result(legal_runtime):
    runtime, context = legal_runtime
    result = compute(context, kb.QUERY_RATIO, runtime)
    assert "Computed for:" in result.output_context.desc
    assert result.output_context.parent is context


def test_compute_filter_flow_returns_records(enron_bundle):
    runtime = AnalyticsRuntime.for_bundle(enron_bundle, seed=42)
    context = runtime.make_context(enron_bundle)
    result = compute(context, en.QUERY_RELEVANT, runtime)
    assert isinstance(result.answer, list)
    assert 30 <= len(result.answer) <= 45
    # Output context narrowed to the returned records.
    assert len(result.output_context) == len(result.answer)


def test_compute_generic_flow_produces_notes(legal_runtime):
    runtime, context = legal_runtime
    result = compute(context, "Tell me about robocall complaint trends.", runtime)
    assert isinstance(result.answer, dict)
    assert "notes" in result.answer


def test_search_enriches_description(legal_runtime):
    runtime, context = legal_runtime
    result = search(context, "information on identity theft reports", runtime)
    assert result.output_context.desc != context.desc
    assert "Search for:" in result.output_context.desc
    assert result.findings.get("relevant_items")
    assert all(
        "identity" in key for key in result.findings["relevant_items"]
    )


def test_search_then_compute_chain(legal_runtime, legal_bundle):
    runtime, context = legal_runtime
    enriched = search(context, "identity theft statistics", runtime).output_context
    result = compute(enriched, kb.QUERY_RATIO, runtime)
    truth = legal_bundle.ground_truth["ratio"]
    assert result.answer["ratio"] == pytest.approx(truth, rel=0.02)


def test_policy_declares_the_agent_model():
    cheapest = completion_models_by_cost()[0].name
    assert cheapest != DEFAULT_MODEL
    assert MaxQuality().agent_model() == DEFAULT_MODEL
    assert Balanced().agent_model() == DEFAULT_MODEL
    assert MinCost().agent_model() == cheapest


def test_compute_under_min_cost_plans_on_the_cheapest_model(legal_bundle):
    runtime = AnalyticsRuntime.for_bundle(legal_bundle, seed=42, policy=MinCost())
    context = runtime.make_context(legal_bundle)
    compute(context, kb.QUERY_RATIO, runtime)
    steps = [e for e in runtime.llm.tracker.events if e.tag == "compute:step"]
    assert steps
    assert {e.model for e in steps} == {completion_models_by_cost()[0].name}


def test_compute_deterministic_per_seed(legal_bundle):
    def run():
        runtime = AnalyticsRuntime.for_bundle(legal_bundle, seed=1234)
        context = runtime.make_context(legal_bundle)
        result = compute(context, kb.QUERY_RATIO, runtime)
        return result.answer, round(result.cost_usd, 8)

    assert run() == run()
