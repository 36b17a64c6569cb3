"""End-to-end integration: the full vision pipeline.

Context -> search -> compute -> materialize -> SQL, exercising every
subsystem together, plus cross-subsystem accounting invariants.
"""

import pytest

from repro.core.runtime import AnalyticsRuntime
from repro.data.datasets import enron as en
from repro.data.datasets import kramabench as kb

pytestmark = pytest.mark.slow


def test_full_pipeline_legal(legal_bundle):
    runtime = AnalyticsRuntime.for_bundle(legal_bundle, seed=2024)
    context = runtime.make_context(legal_bundle, build_index=True)

    # 1. search: enrich the context.
    found = runtime.search(context, "identity theft report statistics")
    assert found.output_context.parent is context

    # 2. compute: answer the evaluation query on the enriched context.
    result = runtime.compute(found.output_context, kb.QUERY_RATIO)
    truth = legal_bundle.ground_truth["ratio"]
    assert result.answer["ratio"] == pytest.approx(truth, rel=0.02)

    # 3. materialize the answer and query it with SQL.
    runtime.materialize_rows(
        "answers",
        [{"query": "legal-easy-3", "ratio": result.answer["ratio"]}],
    )
    stored = runtime.sql("SELECT ratio FROM answers WHERE query = 'legal-easy-3'")
    assert stored.scalar() == pytest.approx(truth, rel=0.02)

    # 4. every context materialized along the way is indexed for reuse.
    assert len(runtime.context_manager) >= 3


def test_full_pipeline_enron_to_sql(enron_bundle):
    runtime = AnalyticsRuntime.for_bundle(enron_bundle, seed=77)
    context = runtime.make_context(enron_bundle)
    result = runtime.compute(context, en.QUERY_RELEVANT)
    rows = [row for row in result.answer if isinstance(row, dict)]
    assert rows and all("sender" in row for row in rows)

    runtime.materialize_rows("relevant_emails", rows)
    count = runtime.sql("SELECT COUNT(*) FROM relevant_emails").scalar()
    assert count == len(rows)
    top = runtime.sql(
        "SELECT sender, COUNT(*) AS n FROM relevant_emails "
        "GROUP BY sender ORDER BY n DESC LIMIT 1"
    ).to_dicts()
    assert top[0]["n"] >= 1


def test_accounting_is_consistent_end_to_end(enron_bundle):
    runtime = AnalyticsRuntime.for_bundle(enron_bundle, seed=5)
    context = runtime.make_context(enron_bundle)
    result = runtime.compute(context, en.QUERY_RELEVANT)
    # Everything the compute episode spent is visible in the runtime total
    # (the compute's own accounting is a subset: the operator registration
    # embeddings land after the agent finishes).
    assert runtime.usage().cost_usd >= result.cost_usd
    assert runtime.elapsed_s >= result.time_s
    assert result.cost_usd > 0


def test_same_llm_shared_across_operators(legal_bundle):
    """All operators bill one tracker, so accounting spans a session."""
    from repro.llm.oracle import SemanticOracle
    from repro.llm.simulated import SimulatedLLM
    from repro.llm.usage import UsageTracker

    tracker = UsageTracker()
    llm = SimulatedLLM(
        oracle=SemanticOracle(legal_bundle.registry), tracker=tracker, seed=0
    )
    runtime = AnalyticsRuntime(llm=llm, seed=0)
    context = runtime.make_context(legal_bundle)
    found = runtime.search(context, "identity theft report statistics")
    mark = tracker.checkpoint()
    result = runtime.compute(found.output_context, kb.QUERY_RATIO)
    # The search agent, the compute agent and the semantic program it
    # launched all billed the one tracker the explicit LLM carries.
    assert runtime.llm.tracker is tracker
    stages = {event.tag.split(":")[0] for event in tracker.events}
    assert {"search", "compute", "program"} <= stages
    assert tracker.since(mark).cost_usd == pytest.approx(result.cost_usd)
    assert tracker.spent_usd == pytest.approx(found.cost_usd + result.cost_usd)
    assert runtime.usage().cost_usd == pytest.approx(tracker.spent_usd)
