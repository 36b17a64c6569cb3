"""Agent execution traces.

A trace records the full plan-act-observe history of one agent episode:
what code each step ran, what it printed, and what it cost.  Traces feed
three consumers: benchmark debugging, the ``search`` operator's description
enrichment (a summary of the trace becomes the new Context description),
and the examples' pretty-printed walkthroughs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.utils.text import snippet


@dataclass
class AgentStep:
    """One step of an episode."""

    index: int
    code: str
    observation: str
    error: str | None = None
    cost_usd: float = 0.0
    time_s: float = 0.0

    def render(self, max_chars: int = 400) -> str:
        lines = [f"--- step {self.index} ---", "code:"]
        lines.append(self.code if len(self.code) <= max_chars else self.code[:max_chars] + "...")
        if self.error:
            lines.append(f"error: {self.error}")
        if self.observation:
            lines.append(f"observation: {snippet(self.observation, max_chars)}")
        return "\n".join(lines)


@dataclass
class AgentTrace:
    """The ordered steps of one episode."""

    task: str
    steps: list[AgentStep] = field(default_factory=list)

    def add(self, step: AgentStep) -> None:
        self.steps.append(step)

    def last_observation(self) -> str:
        for step in reversed(self.steps):
            if step.observation:
                return step.observation
        return ""

    def observations(self) -> list[str]:
        return [step.observation for step in self.steps]

    def render(self) -> str:
        header = f"task: {snippet(self.task, 200)}"
        return "\n".join([header] + [step.render() for step in self.steps])

    def summary(self, max_steps: int = 6) -> str:
        """Short narrative used to enrich Context descriptions."""
        parts = [f"Executed {len(self.steps)} step(s) for task: {snippet(self.task, 160)}."]
        for step in self.steps[-max_steps:]:
            if step.observation:
                parts.append(f"Step {step.index} observed: {snippet(step.observation, 200)}")
        return " ".join(parts)

    def __len__(self) -> int:
        return len(self.steps)
