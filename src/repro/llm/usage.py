"""Usage, cost, and latency accounting for the simulated LLM service.

Every simulated call appends a :class:`UsageEvent`; benchmarks read the
aggregate :class:`Usage` to report the Cost ($) and (together with the
virtual clock) Time (s) columns of the paper's tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


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


class UsageEvent(NamedTuple):
    """One simulated LLM call attempt (an immutable tuple)."""

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
    """Accumulates :class:`UsageEvent` records.

    It records and never refuses: the spend caps are a run's
    ``max_cost_usd`` (checked against :attr:`spent_usd`) and a serving
    tenant's ``TenantSpec.budget_usd``.
    """

    def __init__(self) -> None:
        self.events: list[UsageEvent] = []
        #: Running sum of event costs — O(1) spend checks for budget guards
        #: that fire on every call (the pipelined executor checks mid-batch).
        self.spent_usd: float = 0.0
        #: Running ``failed_calls()``: a run reads deltas at every boundary.
        self.failed_attempts: int = 0

    def record(self, event: UsageEvent) -> None:
        """Record ``event``."""
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
