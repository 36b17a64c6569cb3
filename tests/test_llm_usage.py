"""Tests for usage tracking."""

import pytest

from repro.llm.usage import UsageEvent, UsageTracker


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


def test_checkpoint_and_since():
    tracker = UsageTracker()
    tracker.record(_event(cost=0.01))
    mark = tracker.checkpoint()
    tracker.record(_event(cost=0.05))
    assert tracker.since(mark).cost_usd == pytest.approx(0.05)
    assert tracker.since(mark).calls == 1


def test_reset_clears_events():
    tracker = UsageTracker()
    tracker.record(_event())
    tracker.record(UsageEvent("gpt-4o", 100, 0, 0.001, 0.5, failed=True, error="api"))
    assert (tracker.failed_attempts, tracker.failed_calls()) == (1, 1)
    tracker.reset()
    assert tracker.total().calls == 0
    assert (tracker.spent_usd, tracker.failed_attempts) == (0.0, 0)
