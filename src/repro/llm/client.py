"""Result types of the LLM service's calls.

:class:`repro.llm.simulated.SimulatedLLM` is the only implementation
shipped (the sandbox has no network access); a real API-backed client
would return these same records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.llm.usage import UsageEvent


@dataclass(frozen=True)
class CompletionResult:
    """Free-text completion plus its accounting record."""

    text: str
    event: UsageEvent


@dataclass(frozen=True)
class FilterJudgment:
    """Boolean semantic judgment plus provenance."""

    answer: bool
    #: Whether the oracle resolved the instruction to a known intent.
    resolved: bool
    intent_key: str
    event: UsageEvent


@dataclass(frozen=True)
class ExtractionResult:
    """Value extracted for a natural-language instruction."""

    value: Any
    resolved: bool
    intent_key: str
    event: UsageEvent
