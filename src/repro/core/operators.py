"""The ``search`` and ``compute`` semantic operators (paper Section 2.3).

Both are *logical* operators over a Context, physically implemented with a
CodeAgent that holds the optimized-semantic-program tool.  The physical
decision the paper describes — which model drives the operator's agent —
is the optimization policy's
(:meth:`~repro.sem.optimizer.policies.OptimizationPolicy.agent_model`).

Semantics (paper §2.3):

- ``compute`` seeks to generate a specific output (a value, a set of
  records);
- ``search`` tries to find information that *enriches the Context's
  description*; its output is a new Context whose ``desc`` contains a
  summary of the search execution trace.

Both register their materialized output Context with the runtime's
ContextManager so later queries can reuse it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.agents.codeagent import AgentResult, CodeAgent
from repro.agents.policies.base import AgentPolicy
from repro.core.agent_policies import ComputeAgentPolicy, SearchAgentPolicy
from repro.core.context import Context
from repro.core.program_tool import build_context_tools
from repro.data.records import DataRecord
from repro.utils.seeding import derive_seed
from repro.utils.text import snippet

if TYPE_CHECKING:
    from repro.core.runtime import AnalyticsRuntime


@dataclass
class ComputeResult:
    """Output of one compute-operator execution."""

    answer: Any
    output_context: Context
    agent: AgentResult
    cost_usd: float = 0.0
    time_s: float = 0.0
    #: True when this result was served from the runtime's answer cache.
    reused: bool = False

    @property
    def records(self) -> list[DataRecord]:
        return self.output_context.records()


@dataclass
class SearchResult:
    """Output of one search-operator execution."""

    output_context: Context
    findings: dict = field(default_factory=dict)
    agent: AgentResult | None = None
    cost_usd: float = 0.0
    time_s: float = 0.0


def _run_agent(
    kind: str,
    instruction: str,
    context: Context,
    runtime: "AnalyticsRuntime",
    policy: AgentPolicy,
    max_steps: int,
) -> AgentResult:
    agent = CodeAgent(
        llm=runtime.llm,
        tools=build_context_tools(context, runtime),
        policy=policy,
        model=runtime.config.policy.agent_model(),
        max_steps=max_steps,
        name=kind,
        seed=derive_seed(runtime.seed, kind, instruction),
    )
    return agent.run(instruction, context_note=context.desc)


def _seed_context(
    context: Context, instruction: str, runtime: "AnalyticsRuntime"
) -> tuple[Context, str]:
    """Ask :meth:`ContextManager.narrow` before the agent episode starts.

    Returns ``(context, note)``; the note documents a substitution in the
    output Context's description.
    """
    if not runtime.reuse_contexts:
        return context, ""
    context, note = runtime.context_manager.narrow(context, instruction)
    return context, f"\nSeeded from cached {note}" if note else ""


def compute(
    context: Context,
    instruction: str,
    runtime: "AnalyticsRuntime",
    max_steps: int = 12,
    policy: AgentPolicy | None = None,
) -> ComputeResult:
    """Execute a compute operator: agent + optimized semantic programs."""
    context, seed_note = _seed_context(context, instruction, runtime)
    agent_result = _run_agent(
        "compute", instruction, context, runtime, policy or ComputeAgentPolicy(), max_steps
    )

    answer = agent_result.answer
    output_records = _records_from_answer(answer, context)
    output_context = context.derived(
        description=(
            f"{context.desc}{seed_note}\nComputed for: {instruction}\n"
            f"Result: {snippet(repr(answer), 300)}\n"
            f"Trace: {agent_result.trace.summary()}"
        ),
        records=output_records if output_records is not None else context.records(),
    )
    runtime.context_manager.register(output_context, instruction)
    return ComputeResult(
        answer=answer,
        output_context=output_context,
        agent=agent_result,
        cost_usd=agent_result.cost_usd,
        time_s=agent_result.time_s,
    )


def search(
    context: Context,
    instruction: str,
    runtime: "AnalyticsRuntime",
    max_steps: int = 8,
    policy: AgentPolicy | None = None,
) -> SearchResult:
    """Execute a search operator: enrich the Context's description."""
    context, seed_note = _seed_context(context, instruction, runtime)
    agent_result = _run_agent(
        "search", instruction, context, runtime, policy or SearchAgentPolicy(), max_steps
    )

    findings = agent_result.answer if isinstance(agent_result.answer, dict) else {}
    relevant_keys = findings.get("relevant_items") or []
    notes = findings.get("notes", "")
    output_context = context.derived(
        description=(
            f"{context.desc}{seed_note}\nSearch for: {instruction}\n"
            f"Relevant items: {', '.join(map(str, relevant_keys)) or '(none found)'}\n"
            f"Notes: {snippet(str(notes), 400)}"
        )
    )
    runtime.context_manager.register(output_context, instruction)
    return SearchResult(
        output_context=output_context,
        findings=findings,
        agent=agent_result,
        cost_usd=agent_result.cost_usd,
        time_s=agent_result.time_s,
    )


def _records_from_answer(answer: Any, context: Context) -> list[DataRecord] | None:
    """Map a record-set answer (list of dicts) back to Context records.

    Returns None when the answer is not a record set (e.g. a scalar), in
    which case the output Context keeps the input records.
    """
    if not isinstance(answer, list) or not answer:
        return None
    if not all(isinstance(item, dict) for item in answer):
        return None
    key_fields = [name for name in ("filename", "key", "uid") if name in answer[0]]
    if not key_fields:
        return None
    key_field = key_fields[0]
    wanted = {item.get(key_field) for item in answer}
    lookup_field = key_field if key_field != "key" else None
    matched: list[DataRecord] = []
    for record in context.records():
        candidates = (
            [record.get(lookup_field)] if lookup_field else list(record.fields.values())
        )
        if any(value in wanted for value in candidates):
            matched.append(record)
    return matched or None
