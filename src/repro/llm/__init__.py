"""Simulated LLM substrate.

The paper's prototype calls the OpenAI API (GPT-4o / GPT-4o-mini).  This
sandbox has no network access, so the substrate simulates a chat-completion
service deterministically while preserving the three properties the paper's
evaluation depends on:

1. **Cost** is proportional to tokens, with per-model pricing.
2. **Latency** is proportional to tokens plus per-call overhead, charged to a
   virtual clock.
3. **Quality** differs by model tier: semantic judgments are resolved by a
   ground-truth oracle and then corrupted with seeded, model-dependent noise,
   so cheaper models are consistently less accurate on the same hard records.
"""

from repro.llm.cache import GenerationCache
from repro.llm.embeddings import EmbeddingModel, cosine_similarity
from repro.llm.faults import (
    FAULT_KINDS,
    CircuitBreaker,
    FaultConfig,
    FaultInjector,
    RetryPolicy,
)
from repro.llm.models import (
    DEFAULT_MODEL,
    EMBEDDING_MODEL,
    MODEL_CATALOG,
    ModelCard,
    get_model,
    list_models,
)
from repro.llm.oracle import IntentRegistry, SemanticOracle
from repro.llm.simulated import SimulatedLLM
from repro.llm.usage import Usage, UsageEvent, UsageTracker

__all__ = [
    "CircuitBreaker",
    "DEFAULT_MODEL",
    "EMBEDDING_MODEL",
    "EmbeddingModel",
    "FAULT_KINDS",
    "FaultConfig",
    "FaultInjector",
    "GenerationCache",
    "RetryPolicy",
    "IntentRegistry",
    "MODEL_CATALOG",
    "ModelCard",
    "SemanticOracle",
    "SimulatedLLM",
    "Usage",
    "UsageEvent",
    "UsageTracker",
    "cosine_similarity",
    "get_model",
    "list_models",
]
