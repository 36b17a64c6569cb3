"""Usage, cost, and latency accounting for the simulated LLM service.

Every simulated call appends a :class:`UsageEvent`; benchmarks read the
aggregate :class:`Usage` to report the Cost ($) and (together with the
virtual clock) Time (s) columns of the paper's tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import BudgetExceededError


@dataclass
class Usage:
    """Aggregate token and dollar usage."""

    input_tokens: int = 0
    output_tokens: int = 0
    cost_usd: float = 0.0
    calls: int = 0

    def add(self, other: "Usage") -> None:
        self.input_tokens += other.input_tokens
        self.output_tokens += other.output_tokens
        self.cost_usd += other.cost_usd
        self.calls += other.calls

    @property
    def total_tokens(self) -> int:
        return self.input_tokens + self.output_tokens


@dataclass(frozen=True)
class UsageEvent:
    """One simulated LLM call attempt."""

    model: str
    input_tokens: int
    output_tokens: int
    cost_usd: float
    latency_s: float
    tag: str = ""
    cached: bool = False
    #: True for an attempt that faulted (rate limit, timeout, API error).
    #: Failed attempts still carry the cost/latency they burned.
    failed: bool = False
    #: On a successful event: how many failed attempts preceded it.
    retries: int = 0
    #: Fault kind for a failed attempt ("rate_limit", "timeout", "api", ...).
    error: str = ""


def _accumulate(usage: Usage, event: UsageEvent) -> None:
    """Add one call's tokens and dollars to ``usage`` in place."""
    usage.input_tokens += event.input_tokens
    usage.output_tokens += event.output_tokens
    usage.cost_usd += event.cost_usd
    usage.calls += 1


class UsageTracker:
    """Accumulates :class:`UsageEvent` records with optional budget limits."""

    def __init__(self, budget_usd: float | None = None) -> None:
        self.events: list[UsageEvent] = []
        self.budget_usd = budget_usd
        #: Running sum of event costs — O(1) spend checks for budget guards
        #: that fire on every call (the pipelined executor checks mid-batch).
        self.spent_usd: float = 0.0
        #: Running ``failed_calls()``: a run reads deltas at every boundary.
        self.failed_attempts: int = 0

    def record(self, event: UsageEvent) -> None:
        """Record ``event``, enforcing the spend budget if one is set."""
        if self.budget_usd is not None:
            projected = self.spent_usd + event.cost_usd
            if projected > self.budget_usd:
                raise BudgetExceededError(
                    f"call to {event.model} for ${event.cost_usd:.4f} would bring "
                    f"spend to ${projected:.4f}, over budget ${self.budget_usd:.4f}"
                )
        self.events.append(event)
        self.spent_usd += event.cost_usd
        if event.failed:
            self.failed_attempts += 1

    def total(self, tag_prefix: str | None = None) -> Usage:
        """Aggregate usage, optionally restricted to events whose tag matches."""
        usage = Usage()
        for event in self.events:
            if tag_prefix is not None and not event.tag.startswith(tag_prefix):
                continue
            _accumulate(usage, event)
        return usage

    def by_model(self) -> dict[str, Usage]:
        """Aggregate usage grouped by model name."""
        result: dict[str, Usage] = {}
        for event in self.events:
            usage = result.setdefault(event.model, Usage())
            _accumulate(usage, event)
        return result

    def failed_calls(self, checkpoint: int = 0) -> int:
        """Number of faulted attempts recorded at or after ``checkpoint``."""
        return sum(1 for event in self.events[checkpoint:] if event.failed)

    def checkpoint(self) -> int:
        """Return a marker for :meth:`since` (the current event count)."""
        return len(self.events)

    def since(self, checkpoint: int) -> Usage:
        """Aggregate usage recorded after ``checkpoint``."""
        usage = Usage()
        for event in self.events[checkpoint:]:
            _accumulate(usage, event)
        return usage

    def reset(self) -> None:
        self.events.clear()
        self.spent_usd = 0.0
        self.failed_attempts = 0

    def render_report(self, title: str = "LLM usage") -> str:
        """Human-readable spend breakdown by model and by tag prefix."""
        lines = [title]
        total = self.total()
        lines.append(
            f"  total: {total.calls} calls, {total.input_tokens:,} in / "
            f"{total.output_tokens:,} out tokens, ${total.cost_usd:.4f}"
        )
        for model, usage in sorted(self.by_model().items()):
            lines.append(
                f"  {model}: {usage.calls} calls, ${usage.cost_usd:.4f}"
            )
        by_prefix: dict[str, Usage] = {}
        for event in self.events:
            prefix = event.tag.split(":")[0] if event.tag else "(untagged)"
            usage = by_prefix.setdefault(prefix, Usage())
            _accumulate(usage, event)
        for prefix, usage in sorted(by_prefix.items()):
            lines.append(f"  [{prefix}] {usage.calls} calls, ${usage.cost_usd:.4f}")
        cached = sum(1 for event in self.events if event.cached)
        lines.append(f"  cache hits: {cached}")
        failed = self.failed_calls()
        if failed:
            wasted = sum(event.cost_usd for event in self.events if event.failed)
            lines.append(f"  failed attempts: {failed} (${wasted:.4f} burned)")
        return "\n".join(lines)
