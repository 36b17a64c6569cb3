"""Query-processor configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.llm.models import DEFAULT_MODEL, completion_models_by_cost
from repro.llm.simulated import SimulatedLLM
from repro.sem.materialize import MaterializationStore
from repro.sem.optimizer.policies import MaxQuality, OptimizationPolicy

if TYPE_CHECKING:
    from repro.obs.stats import StatisticsStore

#: The champion: the reference model for agreement-based quality estimation,
#: and the model an operator is bound to without an explicit choice
#: (unoptimized runs, unsampled operators, agents).
DEFAULT_FALLBACK_MODEL = DEFAULT_MODEL

#: Valid ``on_failure`` modes: what an operator does with a record whose
#: call failed even after the LLM substrate's retries (see
#: ``ExecutionContext.guarded``).
FAILURE_MODES = ("skip", "fallback", "raise")


@dataclass
class QueryProcessorConfig:
    """Everything a :meth:`Dataset.run` call needs.

    Defaults mirror Palimpzest's: optimization on, champion model GPT-4o,
    sequential (iterator-semantics) execution.  Execution *mechanics* are
    not fields: structured prefixes are always pushed into the scan, and
    whether streamable runs fuse (with batched embeds and adaptive wave
    width) is derived by ``SimulatedLLM.sink_owns_time``.  A mode that
    exists to be diffed against lives in :mod:`repro.qa.reference`, never
    here.
    """

    llm: SimulatedLLM
    policy: OptimizationPolicy = field(default_factory=MaxQuality)
    #: Master switch; False executes the naive plan with the champion model.
    optimize: bool = True
    #: Reorder commuting filters by sampled cost/selectivity.
    reorder_filters: bool = True
    #: Records sampled per operator when profiling models.
    sample_size: int = 12
    #: Candidate models for selection (None = all chat models, by cost);
    #: ``[DEFAULT_FALLBACK_MODEL]`` pins every operator and turns selection off.
    available_models: list[str] | None = None
    #: Concurrent LLM calls per operator (1 = strict iterator semantics).
    parallelism: int = 1
    seed: int = 0
    #: Tag prefix for usage events, so benchmarks can slice spend.
    tag: str = "query"
    #: Semantic-join physical implementation: "nested" judges every pair,
    #: "blocked" pre-screens pairs by embedding similarity.
    join_method: str = "nested"
    #: Hard spend cap for this run (None = unlimited).  When set, the
    #: engine stops between operators once the cap is reached and returns
    #: the records produced so far, flagged as truncated.
    max_cost_usd: float | None = None
    #: Per-record degradation when a semantic call exhausts the LLM
    #: substrate's retry policy: "skip" flags the record and continues,
    #: "fallback" re-asks the cheapest chat model once (see
    #: :meth:`resolved_fallback_model`), "raise" propagates.
    on_failure: str = "skip"
    #: Records per streamed batch (None = ``max(2 * parallelism, 16)``).
    batch_size: int | None = None
    #: Cross-query sub-plan reuse: a shared
    #: :class:`~repro.sem.materialize.MaterializationStore` makes the
    #: optimizer replay fingerprint-matched plan prefixes (and run appended
    #: source deltas through them) instead of recomputing.  None disables
    #: materialization entirely.
    materialization_store: "MaterializationStore | None" = None
    #: Tenant namespace on *shared* stores: scoped runs only match
    #: materialization entries captured under the same scope, and one
    #: tenant's observed selectivities never steer another's plans.
    #: Empty (the default) keeps the historical single-tenant digests.
    scope: str = ""
    #: Learned per-operator priors: a shared
    #: :class:`~repro.obs.stats.StatisticsStore` that finished runs feed
    #: (observed selectivity/cost/latency per operator+model+dataset) and
    #: that estimates and mid-query re-planning consult.  None disables
    #: both ingestion and consultation.
    stats_store: "StatisticsStore | None" = None
    #: Adaptive mid-query re-optimization: at operator/section boundaries
    #: compare observed cardinality with the plan estimate and, past the
    #: divergence threshold, re-plan the remaining suffix using learned
    #: priors (the gates are constants in
    #: :mod:`repro.sem.optimizer.replan`).  Requires ``stats_store``;
    #: never changes records (only commuting reorderings are applied).
    replan: bool = False
    #: Simulated workers for scale-out execution (see
    #: :mod:`repro.sem.shard`): the sharding pass partitions sources and
    #: inserts scatter/shuffle/merge/broadcast exchanges, and the engine
    #: simulates the shards deterministically on the virtual clock.
    #: Records are bit-identical at every shard count; ``1`` (the
    #: default) never constructs any sharding machinery and is byte-
    #: identical to the unsharded engine.
    shards: int = 1
    #: How records are assigned to shards: "hash" keys on the lineage
    #: uid, "range" cuts contiguous position chunks, "round_robin" deals
    #: positions out cyclically.  Reuse does not depend on the choice: a
    #: delta replay scatters only the appended and rewritten records.
    partitioner: str = "hash"

    def __post_init__(self) -> None:
        if self.sample_size < 1:
            raise ConfigurationError(f"sample_size must be >= 1, got {self.sample_size}")
        if self.parallelism < 1:
            raise ConfigurationError(f"parallelism must be >= 1, got {self.parallelism}")
        if self.join_method not in ("nested", "blocked"):
            raise ConfigurationError(
                f"join_method must be 'nested' or 'blocked', got {self.join_method!r}"
            )
        if self.max_cost_usd is not None and self.max_cost_usd <= 0:
            raise ConfigurationError(
                f"max_cost_usd must be positive, got {self.max_cost_usd}"
            )
        if self.on_failure not in FAILURE_MODES:
            raise ConfigurationError(
                f"on_failure must be one of {FAILURE_MODES}, "
                f"got {self.on_failure!r}"
            )
        if self.batch_size is not None and self.batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )
        if self.shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {self.shards}")
        from repro.sem.shard import PARTITIONERS

        if self.partitioner not in PARTITIONERS:
            raise ConfigurationError(
                f"partitioner must be one of {PARTITIONERS}, "
                f"got {self.partitioner!r}"
            )

    def resolved_batch_size(self) -> int:
        """Records per streamed batch; defaults to ``max(2 * parallelism, 16)``.

        Batches must span several waves: each (batch, stage) cell rounds up
        to whole waves of ``parallelism`` calls, so a batch of exactly one
        wave wastes up to half its slots whenever an upstream filter thins
        the batch.  Two waves per batch keeps that rounding loss small while
        still streaming records downstream early.
        """
        if self.batch_size is not None:
            return self.batch_size
        return max(2 * self.parallelism, 16)

    def fused_batch_size(self) -> int | None:
        """The batch size fused sections stream at, None when nothing fuses.

        What the cost model prices time with: a pipelined makespan while
        the engine fuses, the operator-at-a-time sum under a serve sink.
        """
        return None if self.llm.sink_owns_time else self.resolved_batch_size()

    def candidate_models(self) -> list[str]:
        if self.available_models is not None:
            return list(self.available_models)
        return [card.name for card in completion_models_by_cost()]

    def resolved_fallback_model(self) -> str | None:
        """The tier ``on_failure='fallback'`` re-asks: the cheapest chat
        model (None under the other failure modes)."""
        if self.on_failure != "fallback":
            return None
        return completion_models_by_cost()[0].name
