"""Tests for the agent-facing SQL tools."""

import pytest

from repro.core.program_tool import build_context_tools
from repro.core.runtime import AnalyticsRuntime
from repro.core.sql_tools import add_sql_tools, rows_from_file
from repro.errors import ToolError


def test_rows_from_csv_typed():
    rows = rows_from_file("Year,Reports,Losses\n2001,86250,$1.5M\n2002,100,$2M\n", "csv")
    assert rows[0] == {"year": 2001, "reports": 86250, "losses": "$1.5M"}


def test_rows_from_csv_commas_in_numbers():
    rows = rows_from_file("Category,Reports\nFraud,\"1,135,291\"\n", "csv")
    assert rows[0]["reports"] == 1135291


def test_rows_from_html_first_table():
    html = (
        "<html><body><table>"
        "<tr><th>Report Category</th><th>2024 Reports</th></tr>"
        "<tr><td>Identity Theft</td><td>1,135,291</td></tr>"
        "</table></body></html>"
    )
    rows = rows_from_file(html, "html")
    assert rows[0]["report_category"] == "Identity Theft"
    assert rows[0]["c_2024_reports"] == 1135291


def test_rows_from_empty_csv_rejected():
    with pytest.raises(ToolError):
        rows_from_file("OnlyHeader\n", "csv")


def test_rows_from_html_without_table_rejected():
    with pytest.raises(ToolError):
        rows_from_file("<html><p>prose</p></html>", "html")


def test_duplicate_headers_get_suffixes():
    rows = rows_from_file("a,a\n1,2\n", "csv")
    assert set(rows[0]) == {"a", "a_1"}


def test_materialize_and_query_ground_truth(legal_bundle):
    runtime = AnalyticsRuntime.for_bundle(legal_bundle, seed=0)
    context = add_sql_tools(runtime.make_context(legal_bundle), runtime)
    message = context.tools.get("materialize_table")(
        legal_bundle.ground_truth["ground_truth_file"], "national_reports"
    )
    assert "24 rows" in message
    rows = context.tools.get("sql")(
        "SELECT identity_theft_reports FROM national_reports WHERE year = 2024"
    )
    assert rows[0]["identity_theft_reports"] == legal_bundle.ground_truth[
        "identity_theft_2024"
    ]


def test_sql_over_materialized_ratio(legal_bundle):
    runtime = AnalyticsRuntime.for_bundle(legal_bundle, seed=0)
    context = add_sql_tools(runtime.make_context(legal_bundle), runtime)
    context.tools.get("materialize_table")(
        legal_bundle.ground_truth["ground_truth_file"], "reports"
    )
    rows = context.tools.get("sql")(
        "SELECT MAX(identity_theft_reports) * 1.0 / MIN(identity_theft_reports) "
        "AS ratio FROM reports WHERE year IN (2001, 2024)"
    )
    assert rows[0]["ratio"] == pytest.approx(legal_bundle.ground_truth["ratio"])


def test_materialize_unknown_file(legal_bundle):
    runtime = AnalyticsRuntime.for_bundle(legal_bundle, seed=0)
    context = add_sql_tools(runtime.make_context(legal_bundle), runtime)
    with pytest.raises(ToolError):
        context.tools.get("materialize_table")("missing.csv", "t")


def test_sql_tools_visible_to_agents(legal_bundle):
    runtime = AnalyticsRuntime.for_bundle(legal_bundle, seed=0)
    context = add_sql_tools(runtime.make_context(legal_bundle), runtime)
    tools = build_context_tools(context, runtime)
    assert "materialize_table" in tools.names()
    assert "sql" in tools.names()


def test_sql_costs_no_llm_tokens(legal_bundle):
    runtime = AnalyticsRuntime.for_bundle(legal_bundle, seed=0)
    context = add_sql_tools(runtime.make_context(legal_bundle), runtime)
    context.tools.get("materialize_table")(
        legal_bundle.ground_truth["ground_truth_file"], "reports"
    )
    cost_before = runtime.usage().cost_usd
    context.tools.get("sql")("SELECT COUNT(*) AS n FROM reports")
    assert runtime.usage().cost_usd == cost_before


@pytest.mark.parametrize(
    "statement",
    [
        "DROP TABLE answers",
        "DELETE FROM answers",
        "UPDATE answers SET ratio = 0",
        "INSERT INTO answers VALUES (0)",
        "CREATE TABLE scratch (x INTEGER)",
    ],
)
def test_sql_tool_is_read_only(legal_bundle, statement):
    runtime = AnalyticsRuntime.for_bundle(legal_bundle, seed=0)
    runtime.materialize_rows("answers", [{"ratio": 13.2}])
    sql = add_sql_tools(runtime.make_context(legal_bundle), runtime).tools.get("sql")
    with pytest.raises(ToolError, match="read-only"):
        sql(statement)
    # The user's table is untouched, and reading it still works.
    assert runtime.db.table_names() == ["answers"]
    assert sql("SELECT ratio FROM answers") == [{"ratio": 13.2}]


def test_sql_tool_refuses_writes_from_inside_a_sandboxed_episode(legal_bundle):
    from repro.agents.sandbox import Sandbox

    runtime = AnalyticsRuntime.for_bundle(legal_bundle, seed=0)
    runtime.materialize_rows("answers", [{"ratio": 13.2}])
    context = add_sql_tools(runtime.make_context(legal_bundle), runtime)
    tools = build_context_tools(context, runtime)
    result = Sandbox(tools=tools.as_namespace()).execute('sql("DROP TABLE answers")')
    assert result.error is not None and "read-only" in result.error
    assert "answers" in runtime.db.table_names()
