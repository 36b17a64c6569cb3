"""Trial running and paper-vs-measured reporting.

Each benchmark evaluates several *systems* on one query.  A system is a
callable ``(trial_seed) -> TrialOutcome``; the harness runs it for N trials
(the paper uses three), averages, and renders rows shaped like the paper's
tables with the paper's numbers alongside for comparison.
"""

from __future__ import annotations

import re
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro.errors import BenchmarkError
from repro.utils.formatting import format_table
from repro.utils.seeding import derive_seed


@dataclass
class TrialOutcome:
    """One trial of one system: quality numbers plus accounting."""

    #: Metric name -> value (e.g. {"pct_err": 17.0} or {"f1": 0.98, ...}).
    quality: dict[str, float]
    cost_usd: float
    time_s: float
    #: Free-form details kept for debugging (not aggregated).
    detail: dict = field(default_factory=dict)


@dataclass
class SystemSummary:
    """Averages over a system's trials."""

    name: str
    quality: dict[str, float]
    cost_usd: float
    time_s: float
    n_trials: int
    outcomes: list[TrialOutcome] = field(default_factory=list)


def run_trials(
    name: str,
    system: Callable[[int], TrialOutcome],
    n_trials: int = 3,
    base_seed: int = 0,
    trace_dir: str | Path | None = None,
) -> SystemSummary:
    """Run ``system`` for ``n_trials`` deterministic trials and average.

    With ``trace_dir`` set, each trial runs under a fresh default tracer and
    metrics registry (adopted by any LLM the system constructs) and its
    Chrome trace is written to ``<trace_dir>/<system>-trial<N>.trace.json``.
    """
    outcomes = []
    for trial in range(n_trials):
        seed = derive_seed(base_seed, name, trial)
        if trace_dir is None:
            outcomes.append(system(seed))
            continue
        outcomes.append(_traced_trial(name, system, seed, trial, Path(trace_dir)))
    return summarize(name, outcomes)


def _traced_trial(
    name: str,
    system: Callable[[int], TrialOutcome],
    seed: int,
    trial: int,
    trace_dir: Path,
) -> TrialOutcome:
    from repro import obs

    tracer = obs.Tracer()
    metrics = obs.MetricsRegistry()
    prev_tracer = obs.set_default_tracer(tracer)
    prev_metrics = obs.set_default_metrics(metrics)
    try:
        with tracer.span(f"trial:{name}#{trial}", kind="trial", seed=seed):
            outcome = system(seed)
    finally:
        obs.set_default_tracer(prev_tracer)
        obs.set_default_metrics(prev_metrics)
    trace_dir.mkdir(parents=True, exist_ok=True)
    slug = re.sub(r"[^A-Za-z0-9._-]+", "_", name).strip("_").lower()
    obs.write_chrome_trace(
        trace_dir / f"{slug}-trial{trial}.trace.json", tracer, metrics=metrics
    )
    return outcome


def summarize(name: str, outcomes: Sequence[TrialOutcome]) -> SystemSummary:
    if not outcomes:
        raise BenchmarkError(f"system {name!r} produced no trial outcomes")
    metric_names = list(outcomes[0].quality)
    quality = {
        metric: statistics.mean(outcome.quality[metric] for outcome in outcomes)
        for metric in metric_names
    }
    return SystemSummary(
        name=name,
        quality=quality,
        cost_usd=statistics.mean(outcome.cost_usd for outcome in outcomes),
        time_s=statistics.mean(outcome.time_s for outcome in outcomes),
        n_trials=len(outcomes),
        outcomes=list(outcomes),
    )


def render_report(
    title: str,
    summaries: Sequence[SystemSummary],
    metric_columns: Sequence[tuple[str, str, Callable[[float], str]]],
    paper_rows: dict[str, Sequence[str]] | None = None,
) -> str:
    """Render a paper-style table with measured (and paper) numbers.

    ``metric_columns`` is a sequence of ``(header, metric_key, formatter)``.
    ``paper_rows`` maps system name to that system's row in the paper, in
    the same column order (strings, rendered as-is).
    """
    headers = ["System"] + [header for header, _, _ in metric_columns] + [
        "Cost ($)",
        "Time (s)",
        "Retried",
        "Failed",
    ]
    rows: list[list[str]] = []
    for summary in summaries:
        row = [summary.name]
        for _, key, formatter in metric_columns:
            row.append(formatter(summary.quality[key]))
        row.append(f"{summary.cost_usd:.2f}")
        row.append(f"{summary.time_s:.1f}")
        row.append(_mean_detail(summary, "retried_calls"))
        row.append(_mean_detail(summary, "failed_records"))
        rows.append(row)
        if paper_rows and summary.name in paper_rows:
            # The paper predates the fault-tolerance columns; pad its rows.
            cells = [str(cell) for cell in paper_rows[summary.name]]
            cells += [""] * (len(headers) - 1 - len(cells))
            rows.append(["  (paper)"] + cells)
    return format_table(headers, rows, title=title)


def _mean_detail(summary: SystemSummary, key: str) -> str:
    """Mean of a numeric per-trial detail field, or ``-`` when absent."""
    values = [
        outcome.detail[key]
        for outcome in summary.outcomes
        if isinstance(outcome.detail.get(key), (int, float))
    ]
    if not values:
        return "-"
    return f"{statistics.mean(values):.1f}"
