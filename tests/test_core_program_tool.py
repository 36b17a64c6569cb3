"""Tests for the optimized-program tool and context tools."""

import pytest

from repro.core.program_tool import (
    build_context_tools,
    build_program_tool,
    default_key_field,
)
from repro.core.runtime import AnalyticsRuntime
from repro.data.datasets import enron as en
from repro.errors import ToolError


@pytest.fixture
def runtime_and_context(enron_bundle):
    runtime = AnalyticsRuntime.for_bundle(enron_bundle, seed=0)
    return runtime, runtime.make_context(enron_bundle)


def test_default_key_field_prefers_filename(enron_bundle, realestate_bundle):
    runtime = AnalyticsRuntime.for_bundle(enron_bundle, seed=0)
    assert default_key_field(runtime.make_context(enron_bundle)) == "filename"
    runtime2 = AnalyticsRuntime.for_bundle(realestate_bundle, seed=0)
    assert default_key_field(runtime2.make_context(realestate_bundle)) == "listing_id"


def test_program_tool_runs_filter_and_extracts(runtime_and_context):
    runtime, context = runtime_and_context
    tool = build_program_tool(context, runtime)
    rows = tool(en.QUERY_RELEVANT)
    assert 30 <= len(rows) <= 45
    assert set(rows[0]) == {"filename", "sender", "subject", "summary"}
    assert runtime.usage().cost_usd > 0


def test_program_tool_registers_materialized_context(runtime_and_context):
    runtime, context = runtime_and_context
    tool = build_program_tool(context, runtime)
    tool(en.QUERY_RELEVANT)
    assert len(runtime.context_manager) == 1
    entry = runtime.context_manager.entries()[0]
    assert entry.context.parent is context
    assert "Materialized by semantic program" in entry.context.desc


def test_program_tool_rejects_unsynthesizable(runtime_and_context):
    runtime, context = runtime_and_context
    tool = build_program_tool(context, runtime)
    with pytest.raises(ToolError):
        tool("")


def test_program_tool_exposes_last_result(runtime_and_context):
    runtime, context = runtime_and_context
    build_program_tool(context, runtime)(en.QUERY_RELEVANT)
    assert runtime.last_program_result is not None
    assert runtime.last_program_result.operator_stats


def test_context_tools_list_get_search(runtime_and_context):
    runtime, context = runtime_and_context
    tools = build_context_tools(context, runtime)
    names = tools.names()
    assert {"list_items", "get_item", "vector_search", "run_semantic_program"} <= set(names)

    keys = tools.get("list_items")()
    assert len(keys) == 250
    text = tools.get("get_item")(keys[0])
    assert "sender" in text or "body" in text

    hits = tools.get("vector_search")("business transactions raptor", 3)
    assert len(hits) == 3 and "key" in hits[0] and "score" in hits[0]


def test_get_item_unknown_key(runtime_and_context):
    runtime, context = runtime_and_context
    tools = build_context_tools(context, runtime)
    with pytest.raises(ToolError):
        tools.get("get_item")("missing.txt")


def test_custom_context_tools_included(enron_bundle):
    from repro.agents.tools import Tool

    runtime = AnalyticsRuntime.for_bundle(enron_bundle, seed=0)
    context = runtime.make_context(enron_bundle)
    context.add_tool(Tool("custom_probe", "a custom tool", lambda: "ok"))
    tools = build_context_tools(context, runtime)
    assert "custom_probe" in tools.names()


def test_reuse_narrows_input(legal_bundle):
    first = (
        "Find the files which report national identity theft statistics "
        "for the year 2001 and extract the number of identity theft "
        "reports in the year 2001."
    )
    second = (
        "Find the files which report national identity theft statistics "
        "for the year 2024 and extract the number of identity theft "
        "reports in the year 2024."
    )
    runtime = AnalyticsRuntime.for_bundle(legal_bundle, seed=9, reuse_contexts=True)
    context = runtime.make_context(legal_bundle)
    tool = build_program_tool(context, runtime)
    tool(first)
    cost_mark = runtime.usage().cost_usd
    tool(second)
    marginal = runtime.usage().cost_usd - cost_mark

    runtime_off = AnalyticsRuntime.for_bundle(legal_bundle, seed=9, reuse_contexts=False)
    tool_off = build_program_tool(runtime_off.make_context(legal_bundle), runtime_off)
    tool_off(first)
    cost_mark_off = runtime_off.usage().cost_usd
    tool_off(second)
    marginal_off = runtime_off.usage().cost_usd - cost_mark_off

    assert marginal < 0.5 * marginal_off


_STATS_2001 = (
    "Find the files which report national identity theft statistics "
    "for the year 2001 and extract the number of identity theft "
    "reports in the year 2001."
)


def test_program_never_reads_a_context_materialized_from_another_lake(legal_bundle):
    runtime = AnalyticsRuntime.for_bundle(legal_bundle, seed=9, reuse_contexts=True)
    legal = runtime.make_context(legal_bundle)
    build_program_tool(legal, runtime)(_STATS_2001)
    (cached,) = runtime.context_manager.entries()
    assert len(cached.context) > 0

    other = runtime.make_context(
        legal_bundle.records()[40:],
        schema=legal_bundle.schema,
        desc="a different lake",
        name="other-lake",
    )
    rows = build_program_tool(other, runtime)(_STATS_2001.replace("2001", "2024"))
    derived = runtime.context_manager.entries()[-1].context
    assert "reused context" not in derived.desc
    # It scanned its own input: nothing it returns comes from the legal view.
    own = {record.get("filename") for record in other.records()}
    assert {row["filename"] for row in rows} <= own
    scan = runtime.last_program_result.operator_stats[0]
    assert scan.label == "Scan(other-lake)" and scan.records_out == len(other)


def test_program_keeps_its_input_when_the_similar_context_is_no_narrower(legal_bundle):
    runtime = AnalyticsRuntime.for_bundle(legal_bundle, seed=9, reuse_contexts=True)
    legal = runtime.make_context(legal_bundle)
    build_program_tool(legal, runtime)(_STATS_2001)
    view = runtime.context_manager.entries()[0].context

    # Same root, same size as the cached view: substituting saves nothing.
    same_size = legal.derived(
        description="an arbitrary slice", records=legal.records()[: len(view)]
    )
    build_program_tool(same_size, runtime)(_STATS_2001.replace("2001", "2024"))
    derived = runtime.context_manager.entries()[-1].context
    assert "reused context" not in derived.desc
    scan = runtime.last_program_result.operator_stats[0]
    assert scan.label == f"Scan({same_size.name})"
    assert scan.records_out == len(same_size)
