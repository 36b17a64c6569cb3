"""Tests for the trial harness and report rendering."""

import pytest

from repro.bench.harness import TrialOutcome, render_report, run_trials, summarize
from repro.errors import BenchmarkError


def _system(seed: int) -> TrialOutcome:
    return TrialOutcome(
        quality={"f1": 0.9 + (seed % 3) * 0.01},
        cost_usd=1.0,
        time_s=10.0,
    )


def test_run_trials_averages():
    summary = run_trials("sys", _system, n_trials=3, base_seed=0)
    assert summary.n_trials == 3
    assert summary.cost_usd == pytest.approx(1.0)
    assert 0.9 <= summary.quality["f1"] <= 0.93


def test_run_trials_deterministic_seeds():
    a = run_trials("sys", _system, n_trials=3, base_seed=7)
    b = run_trials("sys", _system, n_trials=3, base_seed=7)
    assert a.quality == b.quality


def test_summarize_rejects_empty():
    with pytest.raises(BenchmarkError):
        summarize("x", [])


def test_render_report_with_paper_rows():
    summary = summarize(
        "SysA", [TrialOutcome(quality={"f1": 0.5}, cost_usd=2.0, time_s=30.0)]
    )
    report = render_report(
        "Title",
        [summary],
        metric_columns=[("F1", "f1", lambda v: f"{v:.2f}")],
        paper_rows={"SysA": ["0.51", "2.10", "31.0"]},
    )
    assert "Title" in report
    assert "SysA" in report
    assert "(paper)" in report
    assert "0.51" in report


def test_render_report_without_paper_rows():
    summary = summarize(
        "SysB", [TrialOutcome(quality={"err": 1.0}, cost_usd=0.5, time_s=5.0)]
    )
    report = render_report(
        "T", [summary], metric_columns=[("Err", "err", lambda v: f"{v:.1f}%")]
    )
    assert "(paper)" not in report
    assert "SysB" in report
