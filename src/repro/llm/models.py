"""Model catalog for the simulated LLM service.

Each :class:`ModelCard` captures the three axes the optimizer trades off:
price (per million tokens, mirroring mid-2025 OpenAI list prices), latency
(per-call overhead plus per-output-token decode time), and per-task error
rates.  The evaluation in the paper uses GPT-4o everywhere and notes that
Palimpzest's optimizer "was able to use cheaper models for some of the
semantic operators"; the catalog therefore includes cheaper tiers with
higher error rates so that trade-off is real in the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import UnknownModelError

#: Task kinds the quality model distinguishes.
TASK_KINDS = ("filter", "extract", "classify", "generate", "agent_step", "judge")


@dataclass(frozen=True)
class ModelCard:
    """Static description of a model tier in the simulated service."""

    name: str
    #: USD per 1M input tokens.
    usd_per_1m_input: float
    #: USD per 1M output tokens.
    usd_per_1m_output: float
    #: Fixed seconds of overhead per API call (network, queueing).
    per_call_overhead_s: float
    #: Seconds per generated output token (decode speed).
    seconds_per_output_token: float
    #: Seconds per prompt token (prefill speed); dominates for long documents.
    seconds_per_input_token: float = 0.0
    #: Base error probability per task kind (on a median-difficulty input).
    error_rates: dict[str, float] = field(default_factory=dict)
    #: Maximum context window in tokens.
    context_window: int = 128_000

    def input_cost(self, tokens: int) -> float:
        return tokens * self.usd_per_1m_input / 1_000_000

    def call_cost(self, input_tokens: int, output_tokens: int) -> float:
        """``input_cost(input_tokens)`` plus the output tokens' price, in one
        frame: every uncached call prices itself here."""
        return (
            input_tokens * self.usd_per_1m_input / 1_000_000
            + output_tokens * self.usd_per_1m_output / 1_000_000
        )

    def call_latency(self, input_tokens: int, output_tokens: int) -> float:
        return (
            self.per_call_overhead_s
            + input_tokens * self.seconds_per_input_token
            + output_tokens * self.seconds_per_output_token
        )

    def error_rate(self, task_kind: str) -> float:
        """Base error rate for ``task_kind`` (defaults to the 'generate' rate)."""
        if task_kind in self.error_rates:
            return self.error_rates[task_kind]
        return self.error_rates.get("generate", 0.05)


def _card(
    name: str,
    usd_in: float,
    usd_out: float,
    overhead: float,
    s_per_tok: float,
    errors: dict[str, float],
    s_per_in_tok: float = 0.0,
) -> ModelCard:
    return ModelCard(
        name=name,
        usd_per_1m_input=usd_in,
        usd_per_1m_output=usd_out,
        per_call_overhead_s=overhead,
        seconds_per_output_token=s_per_tok,
        seconds_per_input_token=s_per_in_tok,
        error_rates=errors,
    )


#: The model used throughout the paper's evaluation.
DEFAULT_MODEL = "gpt-4o"

#: Embedding model used by Context indexes and the ContextManager.
EMBEDDING_MODEL = "text-embedding-3-small"

MODEL_CATALOG: dict[str, ModelCard] = {
    "gpt-4o": _card(
        "gpt-4o",
        usd_in=2.50,
        usd_out=10.00,
        overhead=0.60,
        s_per_tok=0.018,
        s_per_in_tok=0.0004,
        errors={
            "filter": 0.02,
            "extract": 0.03,
            "classify": 0.03,
            "generate": 0.04,
            "agent_step": 0.05,
            "judge": 0.02,
        },
    ),
    "gpt-4o-mini": _card(
        "gpt-4o-mini",
        usd_in=0.15,
        usd_out=0.60,
        overhead=0.40,
        s_per_tok=0.009,
        s_per_in_tok=0.0002,
        errors={
            "filter": 0.10,
            "extract": 0.14,
            "classify": 0.12,
            "generate": 0.15,
            "agent_step": 0.18,
            "judge": 0.10,
        },
    ),
    "gpt-3.5-turbo": _card(
        "gpt-3.5-turbo",
        usd_in=0.50,
        usd_out=1.50,
        overhead=0.35,
        s_per_tok=0.008,
        s_per_in_tok=0.00015,
        errors={
            "filter": 0.18,
            "extract": 0.24,
            "classify": 0.20,
            "generate": 0.25,
            "agent_step": 0.30,
            "judge": 0.20,
        },
    ),
    "text-embedding-3-small": ModelCard(
        name="text-embedding-3-small",
        usd_per_1m_input=0.02,
        usd_per_1m_output=0.0,
        per_call_overhead_s=0.10,
        seconds_per_output_token=0.0,
        seconds_per_input_token=0.00002,
        error_rates={},
        context_window=8_192,
    ),
}


def get_model(name: str) -> ModelCard:
    """Look up a model card, raising :class:`UnknownModelError` if absent."""
    try:
        return MODEL_CATALOG[name]
    except KeyError:
        known = ", ".join(sorted(MODEL_CATALOG))
        raise UnknownModelError(f"unknown model {name!r}; known models: {known}") from None


def list_models(chat_only: bool = False) -> list[ModelCard]:
    """Return catalog entries, optionally excluding embedding models."""
    cards = list(MODEL_CATALOG.values())
    if chat_only:
        cards = [card for card in cards if card.usd_per_1m_output > 0]
    return cards


def completion_models_by_cost() -> list[ModelCard]:
    """Chat models sorted from cheapest to most expensive (per output token)."""
    return sorted(list_models(chat_only=True), key=lambda card: card.usd_per_1m_output)
