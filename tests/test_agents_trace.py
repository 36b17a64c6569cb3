"""Tests for agent traces."""

from repro.agents.trace import AgentStep, AgentTrace


def _trace():
    trace = AgentTrace("the task")
    trace.add(AgentStep(0, "print(1)", "1", cost_usd=0.01, time_s=2.0))
    trace.add(AgentStep(1, "x = 2", "", error=None, cost_usd=0.02, time_s=1.0))
    trace.add(AgentStep(2, "print(x)", "2", cost_usd=0.03, time_s=1.0))
    return trace


def test_last_observation_skips_empty():
    trace = AgentTrace("t")
    trace.add(AgentStep(0, "c", "first obs"))
    trace.add(AgentStep(1, "c", ""))
    assert trace.last_observation() == "first obs"


def test_last_observation_empty_trace():
    assert AgentTrace("t").last_observation() == ""


def test_total_cost_sums_steps():
    assert sum(step.cost_usd for step in _trace().steps) == 0.06


def test_render_contains_all_steps():
    text = _trace().render()
    assert "step 0" in text and "step 2" in text
    assert "the task" in text


def test_render_truncates_long_code():
    trace = AgentTrace("t")
    trace.add(AgentStep(0, "x" * 1000, "obs"))
    assert "..." in trace.steps[0].render(max_chars=100)


def test_render_includes_errors():
    trace = AgentTrace("t")
    trace.add(AgentStep(0, "bad", "", error="KaboomError"))
    assert "KaboomError" in trace.render()


def test_summary_mentions_task_and_observations():
    summary = _trace().summary()
    assert "the task" in summary
    assert "3 step(s)" in summary


def test_len_and_observations():
    trace = _trace()
    assert len(trace) == 3
    assert trace.observations() == ["1", "", "2"]
