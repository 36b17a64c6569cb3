"""Tests for usage tracking and budgets."""

import pytest

from repro.errors import BudgetExceededError
from repro.llm.usage import Usage, UsageEvent, UsageTracker


def _event(model="gpt-4o", cost=0.01, tag="", cached=False):
    return UsageEvent(
        model=model,
        input_tokens=100,
        output_tokens=10,
        cost_usd=cost,
        latency_s=1.0,
        tag=tag,
        cached=cached,
    )


def test_total_aggregates_all_events():
    tracker = UsageTracker()
    tracker.record(_event(cost=0.01))
    tracker.record(_event(cost=0.02))
    total = tracker.total()
    assert total.cost_usd == pytest.approx(0.03)
    assert total.calls == 2
    assert total.input_tokens == 200


def test_total_filters_by_tag_prefix():
    tracker = UsageTracker()
    tracker.record(_event(tag="query:filter"))
    tracker.record(_event(tag="optimize:filter"))
    assert tracker.total(tag_prefix="query").calls == 1


def test_by_model_groups():
    tracker = UsageTracker()
    tracker.record(_event(model="gpt-4o"))
    tracker.record(_event(model="gpt-4o-mini"))
    tracker.record(_event(model="gpt-4o"))
    grouped = tracker.by_model()
    assert grouped["gpt-4o"].calls == 2
    assert grouped["gpt-4o-mini"].calls == 1


def test_checkpoint_and_since():
    tracker = UsageTracker()
    tracker.record(_event(cost=0.01))
    mark = tracker.checkpoint()
    tracker.record(_event(cost=0.05))
    assert tracker.since(mark).cost_usd == pytest.approx(0.05)
    assert tracker.since(mark).calls == 1


def test_budget_enforced():
    tracker = UsageTracker(budget_usd=0.015)
    tracker.record(_event(cost=0.01))
    with pytest.raises(BudgetExceededError):
        tracker.record(_event(cost=0.01))


def test_budget_allows_exact_spend():
    tracker = UsageTracker(budget_usd=0.02)
    tracker.record(_event(cost=0.01))
    tracker.record(_event(cost=0.01))
    assert tracker.total().calls == 2


def test_usage_add():
    total = Usage()
    total.add(Usage(input_tokens=5, output_tokens=3, cost_usd=0.1, calls=1))
    assert total.total_tokens == 8


def test_reset_clears_events():
    tracker = UsageTracker()
    tracker.record(_event())
    tracker.record(UsageEvent("gpt-4o", 100, 0, 0.001, 0.5, failed=True, error="api"))
    assert (tracker.failed_attempts, tracker.failed_calls()) == (1, 1)
    tracker.reset()
    assert tracker.total().calls == 0
    assert (tracker.spent_usd, tracker.failed_attempts) == (0.0, 0)
