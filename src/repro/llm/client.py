"""Result types of the LLM service's calls.

:class:`repro.llm.simulated.SimulatedLLM` is the only implementation
shipped (the sandbox has no network access); a real API-backed client
would return these same records.  Each is an immutable
:class:`typing.NamedTuple`, as is the :class:`UsageEvent` it carries.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from repro.llm.usage import UsageEvent


class CompletionResult(NamedTuple):
    """Free-text completion plus its accounting record."""

    text: str
    event: UsageEvent


class FilterJudgment(NamedTuple):
    """Boolean semantic judgment plus provenance."""

    answer: bool
    #: Whether the oracle resolved the instruction to a known intent.
    resolved: bool
    intent_key: str
    event: UsageEvent


class ExtractionResult(NamedTuple):
    """Value extracted for a natural-language instruction."""

    value: Any
    resolved: bool
    intent_key: str
    event: UsageEvent
