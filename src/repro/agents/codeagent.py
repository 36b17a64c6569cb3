"""The CodeAgent: a plan-act-observe loop over the sandbox.

The *policy* stands in for the LLM's code generation: given the task and
the trace so far, it returns the next Python code block (see
``policies/base.py`` for why scripted policies are the right simulation of
the paper's agents).  Every step is nevertheless priced through the
simulated LLM — the prompt contains the task, the tool descriptions, and
recent observations, so agents that read lots of data through observations
pay for it, exactly like real CodeAgents.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.agents.policies.base import AgentPolicy
from repro.agents.sandbox import Sandbox
from repro.agents.tools import ToolRegistry
from repro.agents.trace import AgentStep, AgentTrace
from repro.errors import AgentError, TransientLLMError
from repro.llm.models import DEFAULT_MODEL
from repro.llm.simulated import SimulatedLLM
from repro.utils.seeding import SeededRng

#: Observation text beyond this many characters is truncated (as real agent
#: frameworks do to bound context growth).
OBSERVATION_LIMIT = 8_000

#: How many trailing observations are included in each step's prompt.
PROMPT_OBSERVATION_WINDOW = 2

#: Real CodeAgents emit a reasoning paragraph before each code block; the
#: simulated completion is charged for it so per-step latency and cost
#: match the ~hundreds-of-output-tokens profile of actual agent steps.
REASONING_PREAMBLE = (
    "Thought: Based on the task and the previous observation, the next "
    "step is to gather or verify the specific information required. I "
    "will inspect the relevant items, extract the values I need, check "
    "them for consistency with what I have already seen, and then either "
    "continue exploring or produce the final answer if the evidence is "
    "sufficient. Executing the following code now.\n"
)


@dataclass
class AgentResult:
    """Outcome of one agent episode."""

    answer: object
    trace: AgentTrace
    finished: bool
    steps_used: int
    cost_usd: float = 0.0
    time_s: float = 0.0
    #: Transient LLM failures survived (each burned a recovery turn).
    llm_failures: int = 0
    #: Sandbox/tool errors observed across the episode.
    tool_errors: int = 0
    #: Why the episode was cut short, if it was ("llm-unavailable",
    #: "step-timeout", "tool-errors"); None for a normal ending.
    aborted: str | None = None

    def succeeded(self) -> bool:
        return self.finished


class CodeAgent:
    """An agent that iteratively writes and executes Python code."""

    def __init__(
        self,
        llm: SimulatedLLM,
        tools: ToolRegistry,
        policy: AgentPolicy,
        model: str = DEFAULT_MODEL,
        max_steps: int = 12,
        name: str = "codeagent",
        seed: int = 0,
        step_timeout_s: float | None = None,
        max_llm_failures: int = 3,
        max_consecutive_tool_errors: int | None = None,
    ) -> None:
        if max_steps < 1:
            raise AgentError(f"max_steps must be >= 1, got {max_steps}")
        if step_timeout_s is not None and step_timeout_s <= 0:
            raise AgentError(f"step_timeout_s must be positive, got {step_timeout_s}")
        self.llm = llm
        self.tools = tools
        self.policy = policy
        self.model = model
        self.max_steps = max_steps
        self.name = name
        self.seed = seed
        #: Abort the episode if one step's virtual time exceeds this budget.
        self.step_timeout_s = step_timeout_s
        #: Transient LLM failures tolerated per episode before giving up.
        #: Each failure is a recovery turn: the same step is re-issued rather
        #: than advancing the (stateful) policy, so a blip does not skip work.
        self.max_llm_failures = max_llm_failures
        #: Abort after this many tool-error steps in a row (None = never).
        self.max_consecutive_tool_errors = max_consecutive_tool_errors

    def run(self, task: str, context_note: str = "") -> AgentResult:
        """Execute one episode on ``task``.

        ``context_note`` (e.g. a Context's description) rides along in every
        step prompt — the agent pays tokens for it — but is not part of the
        task string policies parse.
        """
        self._context_note = context_note
        trace = AgentTrace(task)
        sandbox = Sandbox(tools=self.tools.as_namespace())
        rng = SeededRng(self.seed).child("agent", self.name)
        self.tools.reset_counters()
        self.policy.reset(task, rng)

        tracer = self.llm.tracer
        metrics = self.llm.metrics
        if tracer.enabled:
            self.tools.instrument(tracer)
        if metrics.enabled:
            metrics.counter("agent.episodes").inc()

        start_cost = self.llm.tracker.spent_usd
        start_time = self.llm.clock.elapsed

        answer = None
        finished = False
        aborted = None
        llm_failures = 0
        tool_errors = 0
        consecutive_tool_errors = 0
        pending_code: str | None = None
        with tracer.span(
            f"agent:{self.name}", kind="agent-episode", model=self.model
        ) as episode_span:
            while len(trace) < self.max_steps:
                if pending_code is not None:
                    code, pending_code = pending_code, None
                else:
                    code = self.policy.next_code(task, trace, self.tools)
                if code is None:
                    # The policy has nothing further to try: the premature-
                    # termination failure mode the paper observes in the wild.
                    break

                checkpoint = self.llm.tracker.checkpoint()
                time_before = self.llm.clock.elapsed
                with tracer.span(
                    f"step {len(trace)}", kind="agent-step", step=len(trace)
                ) as step_span:
                    if metrics.enabled:
                        metrics.counter("agent.steps").inc()
                    try:
                        self.llm.complete(
                            self._prompt(task, trace),
                            model=self.model,
                            max_output_tokens=600,
                            tag=f"{self.name}:step",
                            expected_output=REASONING_PREAMBLE + code,
                        )
                    except TransientLLMError:
                        # The substrate's own retries are exhausted; the failed
                        # attempts are already charged.  Burn a recovery turn
                        # and re-issue the same step so the scripted policy
                        # stays in sync.
                        llm_failures += 1
                        step_span.attributes["recovery"] = True
                        if metrics.enabled:
                            metrics.counter("agent.recoveries").inc()
                        if llm_failures > self.max_llm_failures:
                            aborted = "llm-unavailable"
                            break
                        pending_code = code
                        continue
                    result = sandbox.execute(code)
                observation = result.stdout[:OBSERVATION_LIMIT]
                step = AgentStep(
                    index=len(trace),
                    code=code,
                    observation=observation,
                    error=result.error,
                    cost_usd=self.llm.tracker.since(checkpoint).cost_usd,
                    time_s=self.llm.clock.elapsed - time_before,
                )
                trace.add(step)
                if tracer.enabled:
                    step_span.attributes.update(
                        cost_usd=round(step.cost_usd, 6),
                        error=bool(result.error),
                    )
                if result.finished:
                    answer = result.final_answer
                    finished = True
                    break
                if result.error:
                    tool_errors += 1
                    consecutive_tool_errors += 1
                    if metrics.enabled:
                        metrics.counter("agent.tool_errors").inc()
                    if (
                        self.max_consecutive_tool_errors is not None
                        and consecutive_tool_errors >= self.max_consecutive_tool_errors
                    ):
                        aborted = "tool-errors"
                        break
                else:
                    consecutive_tool_errors = 0
                if self.step_timeout_s is not None and step.time_s > self.step_timeout_s:
                    aborted = "step-timeout"
                    break

        if tracer.enabled:
            episode_span.attributes.update(
                steps=len(trace),
                finished=finished,
                aborted=aborted,
                cost_usd=round(self.llm.tracker.spent_usd - start_cost, 6),
            )
        return AgentResult(
            answer=answer,
            trace=trace,
            finished=finished,
            steps_used=len(trace),
            cost_usd=self.llm.tracker.spent_usd - start_cost,
            time_s=self.llm.clock.elapsed - start_time,
            llm_failures=llm_failures,
            tool_errors=tool_errors,
            aborted=aborted,
        )

    def _prompt(self, task: str, trace: AgentTrace) -> str:
        """Assemble the step prompt the (simulated) LLM is charged for."""
        parts = [
            "You are a CodeAgent. Write Python code to make progress on the task.",
            f"Task: {task}",
            "Tools:",
            self.tools.describe(),
        ]
        note = getattr(self, "_context_note", "")
        if note:
            parts.insert(2, f"Context description: {note}")
        recent = trace.steps[-PROMPT_OBSERVATION_WINDOW:]
        for step in recent:
            parts.append(f"Previous code:\n{step.code}")
            if step.error:
                parts.append(f"Error: {step.error}")
            if step.observation:
                parts.append(f"Observation:\n{step.observation}")
        return "\n\n".join(parts)
