"""EXPLAIN ANALYZE for semantic-operator plans.

Combines the optimizer's report (chosen models, sampled profiles, plan
estimate) with the engine's measured statistics into the side-by-side
rendering database users expect: per operator, estimated vs. actual rows
and cost, so optimizer misestimates are visible at a glance.
"""

from __future__ import annotations

from repro.sem.execution import ExecutionResult, pushdown_footer
from repro.sem.optimizer.optimizer import REPLAN_DISABLED_NO_STATS, OptimizationReport
from repro.utils.formatting import format_table


def explain_analyze(result: ExecutionResult, report: OptimizationReport) -> str:
    """Render measured operator stats with the optimizer's expectations.

    Every estimate column reads the row's own estimate record (the one its
    operator carried when it started): "Est. out" / "Est. $" scale the
    per-record numbers the plan estimate used by the measured input,
    "Est src" names where they came from (learned ``prior`` vs ``sampled``
    profile vs ``static`` formula, which renders no numbers) and "Drift"
    is the observed/estimated cardinality ratio — the signal the mid-query
    re-planner keys on.  A replay reads its prefix's estimate; rows the
    optimizer never estimated (join plans) render "-".
    """
    rows = []
    for stats in result.operator_stats:
        estimate = stats.estimate
        informed = estimate is not None and estimate.source != "static"
        est_out = (
            f"{stats.records_in * estimate.selectivity:.0f}"
            if informed and stats.records_in
            else "-"
        )
        est_cost = (
            f"{stats.records_in * estimate.cost_per_record:.4f}"
            if informed
            else "-"
        )
        est_source = estimate.source if estimate is not None else "-"
        drift = "-"
        if estimate is not None and estimate.rows > 0:
            drift = f"{stats.records_out / estimate.rows:.2f}x"
        rows.append(
            [
                stats.label,
                stats.records_in,
                est_out,
                stats.records_out,
                est_cost,
                f"{stats.cost_usd:.4f}",
                f"{stats.time_s:.1f}",
                stats.llm_calls,
                stats.total_tokens,
                f"{stats.cache_hit_ratio * 100:.0f}%",
                stats.retried_calls,
                stats.failed_records,
                "yes" if stats.reused else "-",
                "yes" if stats.sql_pushdown else "-",
                est_source,
                drift,
                stats.shards if stats.shards > 1 else "-",
            ]
        )
    table = format_table(
        [
            "Operator", "In", "Est. out", "Out", "Est. $", "Actual $",
            "Time (s)", "Calls", "Tokens", "Cache", "Retried", "Failed",
            "Reused", "SQL", "Est src", "Drift", "Shards",
        ],
        rows,
        title="EXPLAIN ANALYZE",
    )
    footer = (
        f"\ntotals: ${result.total_cost_usd:.4f} in {result.total_time_s:.1f}s"
        f" (+${report.sampling_cost_usd:.4f} optimizer sampling)"
    )
    if result.retried_calls or result.failed_records:
        footer += (
            f"\nfault tolerance: {result.retried_calls} retried calls, "
            f"{result.failed_records} records degraded under the failure policy"
        )
    if report.estimate is not None:
        footer += (
            f"\nplan estimate: ${report.estimate.cost_usd:.4f}, "
            f"{report.estimate.time_s:.1f}s, "
            f"{report.estimate.cardinality:.0f} rows out"
        )
    footer += pushdown_footer(result.operator_stats)
    if report.pushdown_ops:
        footer += (
            f"\npushdown: {report.pushdown_ops} structured operator(s) "
            f"compiled to SQL: {report.pushdown_sql}"
        )
    if report.reused_prefix:
        footer += (
            f"\nreuse: {report.reused_prefix}-operator prefix served from "
            f"materialization {report.reuse_fingerprint[:12]} "
            f"({report.reuse_kind}"
        )
        if report.reuse_delta_records:
            footer += f", {report.reuse_delta_records} delta records"
        footer += (
            f"); store hits: {report.reuse_store_hits}, "
            f"est. saved ${report.reuse_saved_est_usd:.4f}"
        )
    if report.shard_plan is not None:
        from repro.sem.shard import exchange_footer

        footer += exchange_footer(report.shard_plan)
    for decision in report.replans:
        footer += (
            f"\nreplan: at boundary {decision['boundary']} — {decision['cause']}; "
            f"plan {decision['before_plan'][:12]} -> {decision['after_plan'][:12]} "
            f"(est ${decision['est_cost_before_usd']:.4f} -> "
            f"${decision['est_cost_after_usd']:.4f} for the suffix)"
        )
    if REPLAN_DISABLED_NO_STATS in report.note:
        footer += f"\nNOTE: {REPLAN_DISABLED_NO_STATS}"
    if result.truncated:
        footer += "\nNOTE: execution truncated by the spend cap"
    return table + footer
