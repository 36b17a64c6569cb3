"""Tests for the search operator's policy behaviour."""

from repro.core.agent_policies import SearchAgentPolicy
from repro.core.runtime import AnalyticsRuntime


def test_search_respects_k_and_read_top(legal_bundle, monkeypatch):
    monkeypatch.setattr(SearchAgentPolicy, "K", 4)
    monkeypatch.setattr(SearchAgentPolicy, "READ_TOP", 2)
    runtime = AnalyticsRuntime.for_bundle(legal_bundle, seed=6)
    context = runtime.make_context(legal_bundle, build_index=True)
    result = runtime.search(context, "identity theft statistics")
    # Step 0's vector_search asked for K=4; findings keep READ_TOP=2.
    assert len(result.findings["relevant_items"]) == 2
    step0 = result.agent.trace.steps[0]
    assert ", 4)" in step0.code


def test_search_findings_drive_description(legal_bundle):
    runtime = AnalyticsRuntime.for_bundle(legal_bundle, seed=6)
    context = runtime.make_context(legal_bundle, build_index=True)
    result = runtime.search(context, "identity theft statistics")
    for key in result.findings["relevant_items"]:
        assert key in result.output_context.desc


def test_search_on_empty_context_degrades_gracefully(legal_bundle):
    runtime = AnalyticsRuntime.for_bundle(legal_bundle, seed=6)
    empty = runtime.make_context(
        [], schema=legal_bundle.schema, desc="an empty lake", name="empty"
    )
    result = runtime.search(empty, "anything at all")
    assert result.findings.get("relevant_items") == []
    assert "(none found)" in result.output_context.desc


def test_search_cost_is_small_relative_to_compute(legal_bundle):
    from repro.data.datasets.kramabench import QUERY_RATIO

    runtime = AnalyticsRuntime.for_bundle(legal_bundle, seed=6)
    context = runtime.make_context(legal_bundle, build_index=True)
    search_result = runtime.search(context, "identity theft statistics")
    compute_result = runtime.compute(context, QUERY_RATIO)
    assert search_result.cost_usd < 0.5 * compute_result.cost_usd
