"""Tests for the CodeAgent loop with small scripted policies."""

import inspect
from types import SimpleNamespace

import pytest

from repro.agents.codeagent import CodeAgent
from repro.agents.policies.base import AgentPolicy, ScriptedPolicy
from repro.agents.tools import Tool, ToolRegistry
from repro.errors import AgentError
from repro.llm.simulated import SimulatedLLM


class _AnswerIn(ScriptedPolicy):
    """Explores for one step, then answers."""

    def step_0(self, task, trace, tools):
        return "x = 2 + 2\nprint('computed', x)"

    def step_1(self, task, trace, tools):
        assert "computed 4" in trace.last_observation()
        return "final_answer(x)"


class _NeverAnswers(AgentPolicy):
    def next_code(self, task, trace, tools):
        return "print('spinning')"


class _GivesUp(ScriptedPolicy):
    def step_0(self, task, trace, tools):
        return "print('tried once')"
    # no step_1: policy returns None -> premature termination


def _agent(policy, max_steps=6, **kwargs):
    return CodeAgent(
        SimulatedLLM(seed=0), ToolRegistry(), policy, max_steps=max_steps, **kwargs
    )


def test_agent_finishes_with_answer():
    result = _agent(_AnswerIn()).run("compute four")
    assert result.finished and result.answer == 4
    assert result.steps_used == 2


def test_agent_charges_cost_and_time_per_step():
    result = _agent(_AnswerIn()).run("compute four")
    assert result.cost_usd > 0
    assert result.time_s > 0
    assert all(step.cost_usd > 0 for step in result.trace.steps)


def test_agent_stops_at_max_steps():
    result = _agent(_NeverAnswers(), max_steps=3).run("never ends")
    assert not result.finished
    assert result.steps_used == 3
    assert result.answer is None


def test_agent_premature_termination():
    result = _agent(_GivesUp()).run("anything")
    assert not result.finished
    assert result.steps_used == 1


def test_agent_records_errors_in_trace():
    class Boom(ScriptedPolicy):
        def step_0(self, task, trace, tools):
            return "1 / 0"

        def step_1(self, task, trace, tools):
            assert trace.steps[-1].error
            return "final_answer('recovered')"

    result = _agent(Boom()).run("divide by zero")
    assert result.finished and result.answer == "recovered"
    assert "ZeroDivisionError" in result.trace.steps[0].error


def test_agent_tools_usable_from_code():
    tools = ToolRegistry([Tool("treble", "triples", lambda v: v * 3)])

    class UsesTool(ScriptedPolicy):
        def step_0(self, task, trace, tools):
            return "final_answer(treble(14))"

    agent = CodeAgent(SimulatedLLM(seed=0), tools, UsesTool())
    assert agent.run("use the tool").answer == 42


def test_agent_prompt_includes_context_note():
    captured = {}

    class Snoop(ScriptedPolicy):
        def step_0(self, task, trace, tools):
            return "final_answer('done')"

    llm = SimulatedLLM(seed=0)
    agent = CodeAgent(llm, ToolRegistry(), Snoop())
    agent.run("task text", context_note="THE-CONTEXT-NOTE")
    # The note costs tokens: compare against a run without it.
    cost_with = llm.tracker.total().cost_usd
    llm2 = SimulatedLLM(seed=0)
    CodeAgent(llm2, ToolRegistry(), Snoop()).run("task text")
    assert cost_with > llm2.tracker.total().cost_usd
    assert captured == {}


def test_agent_rejects_bad_max_steps():
    with pytest.raises(AgentError):
        _agent(_AnswerIn(), max_steps=0)


def test_same_seed_reproducible():
    def run():
        return _agent(_AnswerIn(), seed=7).run("task").cost_usd

    assert run() == run()


def test_observation_truncated():
    class BigPrinter(ScriptedPolicy):
        def step_0(self, task, trace, tools):
            return "print('x' * 100000)"

        def step_1(self, task, trace, tools):
            return "final_answer(len('done'))"

    result = _agent(BigPrinter()).run("print a lot")
    from repro.agents.codeagent import OBSERVATION_LIMIT

    assert len(result.trace.steps[0].observation) == OBSERVATION_LIMIT


def test_tools_are_described_once_per_episode(monkeypatch):
    from repro.agents import tools as tools_module

    signatures = []

    def counting(fn):
        signatures.append(fn)
        return inspect.signature(fn)

    monkeypatch.setattr(tools_module, "inspect", SimpleNamespace(signature=counting))
    registry = ToolRegistry(
        [Tool("treble", "triples", lambda v: v * 3), Tool("halve", "halves", lambda v: v / 2)]
    )

    class ThreeSteps(ScriptedPolicy):
        def step_0(self, task, trace, tools):
            return "x = treble(2)"

        def step_1(self, task, trace, tools):
            return "x = halve(x)"

        def step_2(self, task, trace, tools):
            return "final_answer(x)"

    llm = SimulatedLLM(seed=0)
    prompts = []
    complete = llm.complete

    def recording(prompt, **kwargs):
        prompts.append(prompt)
        return complete(prompt, **kwargs)

    monkeypatch.setattr(llm, "complete", recording)
    result = CodeAgent(llm, registry, ThreeSteps()).run("task")
    assert result.answer == 3.0 and result.steps_used == 3
    assert len(signatures) == len(registry)
    listing = "Tools:\n\n- treble(v): triples\n- halve(v): halves"
    assert len(prompts) == 3 and all(listing in prompt for prompt in prompts)
