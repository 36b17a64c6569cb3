"""Tests for EXPLAIN ANALYZE extensions and execution/bench reporting."""

import pytest

from repro.bench.harness import TrialOutcome, render_report, summarize
from repro.data.datasets import enron as en
from repro.errors import PlanError
from repro.llm.faults import FaultConfig, FaultInjector, RetryPolicy
from repro.sem import Dataset, QueryProcessorConfig
from repro.sem.explain import explain_analyze


def _dataset(bundle):
    return (
        Dataset.from_source(bundle.source())
        .sem_filter(en.FILTER_MENTIONS)
        .sem_filter(en.FILTER_FIRSTHAND)
    )


# ---------------------------------------------------------------------------
# EXPLAIN ANALYZE
# ---------------------------------------------------------------------------


def test_explain_analyze_snapshot_columns(make_llm, enron_bundle):
    llm = make_llm(enron_bundle, seed=2)
    config = QueryProcessorConfig(llm=llm, seed=2)
    text = _dataset(enron_bundle).explain(analyze=True, config=config)
    header = next(
        line for line in text.splitlines() if line.startswith("| Operator")
    )
    for column in (
        "In", "Est. out", "Out", "Est. $", "Actual $", "Time (s)",
        "Calls", "Tokens", "Cache", "Retried", "Failed",
    ):
        assert f" {column} " in header or header.endswith(f" {column} |"), column
    assert "EXPLAIN ANALYZE" in text
    assert "totals: $" in text
    # A clean run shows zero retries and no fault-tolerance footer.
    assert "fault tolerance:" not in text


def test_explain_without_analyze_is_the_logical_plan(enron_bundle):
    text = _dataset(enron_bundle).explain()
    assert "SemFilter" in text
    assert "EXPLAIN ANALYZE" not in text


def test_explain_analyze_requires_config(enron_bundle):
    with pytest.raises(PlanError, match="QueryProcessorConfig"):
        _dataset(enron_bundle).explain(analyze=True)


def test_explain_analyze_surfaces_faults(make_llm, enron_bundle):
    llm = make_llm(
        enron_bundle,
        seed=5,
        faults=FaultInjector(FaultConfig(rate=0.3), seed=5),
        retry=RetryPolicy(max_attempts=8),
    )
    config = QueryProcessorConfig(llm=llm, seed=5)
    text = _dataset(enron_bundle).explain(analyze=True, config=config)
    assert "fault tolerance:" in text
    assert "retried calls" in text


# ---------------------------------------------------------------------------
# One operator-table renderer: EXPLAIN ANALYZE
# ---------------------------------------------------------------------------


def test_execution_report_renders_per_operator_rows(make_llm, enron_bundle):
    llm = make_llm(enron_bundle, seed=2)
    config = QueryProcessorConfig(llm=llm, seed=2)
    result, report = _dataset(enron_bundle).run_with_report(config)
    text = explain_analyze(result, report)
    header, *rows = [line for line in text.splitlines() if line.startswith("| ")]
    for column in ("Operator", "Tokens", "Cache", "Retried", "Failed", "Reused", "SQL"):
        assert f" {column} " in header, column
    # One row per measured operator, in execution order.
    assert len(rows) == len(result.operator_stats)
    for row, stats in zip(rows, result.operator_stats):
        assert row.startswith(f"| {stats.label}")


def test_operator_stats_track_tokens_and_cache(make_llm, enron_bundle):
    llm = make_llm(enron_bundle, seed=2)
    config = QueryProcessorConfig(llm=llm, seed=2)
    result = _dataset(enron_bundle).run(config)
    semantic = [s for s in result.operator_stats if s.llm_calls > 0]
    assert semantic
    for stats in semantic:
        assert stats.total_tokens > 0
        assert 0.0 <= stats.cache_hit_ratio <= 1.0


# ---------------------------------------------------------------------------
# Bench-report columns
# ---------------------------------------------------------------------------


def _summary(name, retried=None, failed=None):
    detail = {}
    if retried is not None:
        detail["retried_calls"] = retried
    if failed is not None:
        detail["failed_records"] = failed
    return summarize(
        name,
        [TrialOutcome(quality={"f1": 0.9}, cost_usd=1.0, time_s=2.0, detail=detail)],
    )


def test_render_report_has_fault_columns():
    text = render_report(
        "T",
        [_summary("SysA", retried=3, failed=1), _summary("SysB")],
        metric_columns=[("F1", "f1", lambda v: f"{v:.2f}")],
    )
    header = next(line for line in text.splitlines() if "System" in line)
    assert "Retried" in header and "Failed" in header
    sys_a = next(line for line in text.splitlines() if "SysA" in line)
    assert "3.0" in sys_a and "1.0" in sys_a
    sys_b = next(line for line in text.splitlines() if "SysB" in line)
    assert "-" in sys_b  # absent detail renders as '-'


def test_render_report_pads_paper_rows():
    text = render_report(
        "T",
        [_summary("SysA", retried=0, failed=0)],
        metric_columns=[("F1", "f1", lambda v: f"{v:.2f}")],
        paper_rows={"SysA": ["0.51", "2.10", "31.0"]},
    )
    assert "(paper)" in text and "0.51" in text


def test_table_summaries_carry_fault_detail(enron_bundle):
    from repro.bench.systems import enron_codeagent_system

    outcome = enron_codeagent_system(enron_bundle)(0)
    assert "retried_calls" in outcome.detail
    assert "failed_records" in outcome.detail
