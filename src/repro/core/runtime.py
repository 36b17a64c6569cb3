"""The AnalyticsRuntime facade.

Wires together everything a user needs for AI-driven analytics over a data
lake: the (simulated) LLM service, Contexts, the compute/search operators,
the ContextManager, the semantic-operator optimizer configuration, and the
SQL engine for structured materialization.

Typical use::

    runtime = AnalyticsRuntime.for_bundle(bundle, seed=7)
    ctx = runtime.make_context(bundle)
    found = runtime.search(ctx, "information on identity thefts")
    result = runtime.compute(found.output_context, QUERY_RATIO)
    runtime.materialize_rows("answers", [{"ratio": result.answer["ratio"]}])
    runtime.sql("SELECT * FROM answers")
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import Any, Sequence

from repro.core.context import Context
from repro.core.context_manager import ContextManager
from repro.core.operators import ComputeResult, SearchResult, compute, search
from repro.data.datasets.base import DatasetBundle
from repro.data.records import DataRecord
from repro.data.schemas import Schema
from repro.llm.faults import FaultConfig, FaultInjector, RetryPolicy
from repro.llm.models import completion_models_by_cost
from repro.llm.oracle import IntentRegistry, SemanticOracle
from repro.llm.simulated import SimulatedLLM
from repro.llm.usage import Usage
from repro.obs.stats import StatisticsStore
from repro.sem.config import QueryProcessorConfig
from repro.sem.materialize import MaterializationStore
from repro.sem.optimizer.policies import Balanced
from repro.sql.database import Database
from repro.sql.executor import ResultSet


class AnswerCache:
    """LRU-bounded whole-query answer cache with eviction accounting.

    Entries are ``(root context name, query embedding, ComputeResult)``;
    lookup is similarity-based (a linear scan in recency order, bounded by
    ``max_entries``), so keys are opaque insertion ids rather than content
    digests.  Counters mirror into an attached
    :class:`~repro.obs.metrics.MetricsRegistry` as ``answers.*``, matching
    the :class:`~repro.llm.cache.GenerationCache` /
    :class:`~repro.sem.materialize.MaterializationStore` accounting idiom.
    """

    def __init__(self, max_entries: int = 128) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[int, tuple[str, Any, ComputeResult]]" = OrderedDict()
        self._next_id = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.stores = 0
        self.clears = 0
        self.cleared_entries = 0
        #: Optional :class:`repro.obs.metrics.MetricsRegistry` mirror.
        self.metrics = None

    def lookup(
        self, root_name: str, query_vec: Any, similarity_floor: float
    ) -> "ComputeResult | None":
        from repro.llm.embeddings import cosine_similarity

        for key, (cached_root, cached_vec, cached_result) in self._entries.items():
            if cached_root != root_name:
                continue
            if cosine_similarity(query_vec, cached_vec) >= similarity_floor:
                self._entries.move_to_end(key)
                self.hits += 1
                self._count("answers.hits")
                return cached_result
        self.misses += 1
        self._count("answers.misses")
        return None

    def put(self, root_name: str, query_vec: Any, result: "ComputeResult") -> None:
        self._entries[self._next_id] = (root_name, query_vec, result)
        self._next_id += 1
        self.stores += 1
        self._count("answers.stores")
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1
            self._count("answers.evictions")

    def evict_roots(self, root_names: "set[str]") -> int:
        """Drop every answer computed over one of ``root_names``."""
        doomed = [
            key for key, entry in self._entries.items() if entry[0] in root_names
        ]
        for key in doomed:
            del self._entries[key]
        self.evictions += len(doomed)
        self._count("answers.evictions", len(doomed))
        return len(doomed)

    def clear(self) -> None:
        self.clears += 1
        self.cleared_entries += len(self._entries)
        self._count("answers.clears")
        self._count("answers.cleared_entries", len(self._entries))
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "clears": self.clears,
            "cleared_entries": self.cleared_entries,
        }

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None and amount:
            self.metrics.counter(name).inc(amount)


class AnalyticsRuntime:
    """One user-facing runtime instance (paper's envisioned system)."""

    def __init__(
        self,
        llm: SimulatedLLM | None = None,
        registry: IntentRegistry | None = None,
        seed: int = 0,
        reuse_contexts: bool = False,
        fault_config: FaultConfig | None = None,
        retry_policy: RetryPolicy | None = None,
        tracer: Any = None,
        metrics: Any = None,
        answer_cache_size: int = 128,
        **query_options: Any,
    ) -> None:
        if llm is None:
            self.llm = SimulatedLLM(
                oracle=SemanticOracle(registry or IntentRegistry()),
                seed=seed,
                faults=FaultInjector(fault_config, seed=seed) if fault_config else None,
                retry=retry_policy,
                tracer=tracer,
                metrics=metrics,
            )
        else:
            self.llm = llm
            _wire_explicit_llm(llm, fault_config, retry_policy, tracer, metrics)
        self.seed = seed
        self.reuse_contexts = reuse_contexts
        self.context_manager = ContextManager(self.llm)
        #: Runtime-wide sub-plan materialization store.  Semantic programs
        #: launched by compute/search agents share it (when
        #: ``reuse_contexts`` is on), so fingerprint-matched plan prefixes
        #: replay across queries; ContextManager.invalidate cascades into it.
        self.materialization_store = MaterializationStore()
        self.context_manager.materialization_store = self.materialization_store
        #: The one query-processor template: every semantic program, served
        #: query and standing tick on this runtime runs a
        #: :meth:`program_config` derivation of it.  ``query_options`` are
        #: :class:`~repro.sem.config.QueryProcessorConfig` fields (an unknown
        #: name is the dataclass's ``TypeError``).  The learned-statistics
        #: store is runtime-wide; pass ``stats_store=`` to share priors
        #: across runtimes or warm from a saved JSON file.
        query_options.setdefault("policy", Balanced(quality_floor=0.95))
        query_options.setdefault("sample_size", 16)
        query_options.setdefault("stats_store", StatisticsStore())
        self.config = QueryProcessorConfig(
            llm=self.llm,
            seed=seed,
            materialization_store=(
                self.materialization_store if reuse_contexts else None
            ),
            **query_options,
        )
        self.db = Database()
        #: Execution result of the most recent optimized program (debugging).
        self.last_program_result = None
        #: Whole-query answer cache (LRU-bounded; see :class:`AnswerCache`).
        self.answers = AnswerCache(max_entries=answer_cache_size)
        self.context_manager.answers = self.answers
        if self.llm.metrics.enabled:
            self.answers.metrics = self.llm.metrics
            if self.config.stats_store is not None:
                self.config.stats_store.metrics = self.llm.metrics

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def for_bundle(cls, bundle: DatasetBundle, **kwargs: Any) -> "AnalyticsRuntime":
        """Runtime whose oracle understands ``bundle``'s intents."""
        return cls(registry=bundle.registry, **kwargs)

    def make_context(
        self,
        bundle_or_records: DatasetBundle | Sequence[DataRecord],
        schema: Schema | None = None,
        desc: str | None = None,
        name: str | None = None,
        build_index: bool = False,
    ) -> Context:
        """Create a Context from a dataset bundle or a record list."""
        if isinstance(bundle_or_records, DatasetBundle):
            bundle = bundle_or_records
            context = Context(
                records=bundle.records(),
                schema=bundle.schema,
                desc=desc or bundle.description,
                name=name or bundle.name,
            )
        else:
            if schema is None or desc is None:
                raise ValueError("records-based contexts require schema and desc")
            context = Context(
                records=list(bundle_or_records), schema=schema, desc=desc, name=name
            )
        if build_index:
            context.index(llm=self.llm)
        return context

    # ------------------------------------------------------------------
    # Operators
    # ------------------------------------------------------------------

    def compute(self, context: Context, instruction: str, **kwargs: Any) -> ComputeResult:
        return compute(context, instruction, self, **kwargs)

    def search(self, context: Context, instruction: str, **kwargs: Any) -> SearchResult:
        return search(context, instruction, self, **kwargs)

    def answer(
        self,
        context: Context,
        instruction: str,
        similarity_floor: float = 0.92,
        **kwargs: Any,
    ) -> ComputeResult:
        """Compute with whole-query answer caching.

        If a near-identical instruction (embedding similarity >=
        ``similarity_floor``) was already answered against the same base
        Context, the cached result is returned at zero marginal LLM cost —
        the coarsest form of the paper's reuse-past-work vision.  Answers
        live in an LRU-bounded :class:`AnswerCache` and are evicted by
        capacity pressure, :meth:`clear_answers`, or when the base Context
        is invalidated in the ContextManager.
        """
        root_name = context.lineage()[-1].name
        query_vec = self.llm.embed(instruction, tag="answer-cache")
        cached = self.answers.lookup(root_name, query_vec, similarity_floor)
        if cached is not None:
            return dataclasses.replace(cached, reused=True, cost_usd=0.0, time_s=0.0)

        result = compute(context, instruction, self, **kwargs)
        self.answers.put(root_name, query_vec, result)
        return result

    def clear_answers(self) -> None:
        self.answers.clear()

    # ------------------------------------------------------------------
    # Optimizer configuration for semantic programs
    # ------------------------------------------------------------------

    def program_config(
        self, tag: str = "program", **overrides: Any
    ) -> QueryProcessorConfig:
        """The runtime's template under ``tag``, with ``overrides`` applied."""
        return dataclasses.replace(self.config, tag=tag, **overrides)

    def cheapest_model(self) -> str:
        return completion_models_by_cost()[0].name

    # ------------------------------------------------------------------
    # SQL materialization
    # ------------------------------------------------------------------

    def materialize_rows(
        self, table_name: str, rows: list[dict], replace: bool = True
    ):
        """Materialize dictionaries into a SQL table for future queries."""
        return self.db.create_table_from_rows(table_name, rows, replace=replace)

    def materialize_records(
        self,
        table_name: str,
        records: Sequence[DataRecord],
        fields: Sequence[str] | None = None,
        replace: bool = True,
    ):
        """Materialize records (optionally projected) into a SQL table."""
        rows = []
        for record in records:
            if fields is None:
                rows.append(dict(record.fields))
            else:
                rows.append({name: record.get(name) for name in fields})
        return self.db.create_table_from_rows(table_name, rows, replace=replace)

    def sql(self, query: str) -> ResultSet:
        """Run SQL against materialized tables."""
        return self.db.execute(query)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def usage(self) -> Usage:
        return self.llm.tracker.total()

    def usage_report(self) -> str:
        """Render a spend breakdown (per model, per pipeline stage)."""
        return self.llm.tracker.render_report(
            title=f"LLM usage (simulated) — elapsed {self.elapsed_s:.1f}s"
        )

    @property
    def tracer(self) -> Any:
        """The span tracer the LLM substrate (and everything above) uses."""
        return self.llm.tracer

    @property
    def metrics(self) -> Any:
        """The runtime-wide metrics registry."""
        return self.llm.metrics

    def metrics_report(self) -> str:
        """Render the counters/histograms collected so far."""
        return self.llm.metrics.render(title="RUNTIME METRICS")

    @property
    def elapsed_s(self) -> float:
        return self.llm.clock.elapsed

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def serving(self, **kwargs: Any) -> Any:
        """A multi-tenant :class:`~repro.serve.ServingRuntime` over this runtime.

        Sessions share this runtime's LLM substrate, generation cache, and
        materialization store; see :mod:`repro.serve` for admission control
        and cross-query batching semantics.
        """
        from repro.serve import ServingRuntime

        return ServingRuntime(self, **kwargs)

    # ------------------------------------------------------------------
    # Standing queries
    # ------------------------------------------------------------------

    def standing(self) -> Any:
        """A :class:`~repro.sem.streaming.StandingQueryManager` on this runtime.

        Standing queries registered through it share this runtime's clock,
        tracer, metrics, materialization store (delta reuse across ticks),
        statistics store (governor estimates + version-aware prior decay),
        and context manager (update-event invalidation cascade, which also
        evicts cached :meth:`answer` results).
        """
        from repro.sem.streaming import StandingQueryManager

        return StandingQueryManager(
            clock=self.llm.clock,
            tracer=self.llm.tracer,
            metrics=self.llm.metrics,
            store=self.materialization_store,
            stats_store=self.config.stats_store,
            context_manager=self.context_manager,
        )


def _wire_explicit_llm(
    llm: SimulatedLLM,
    fault_config: FaultConfig | None,
    retry_policy: RetryPolicy | None,
    tracer: Any,
    metrics: Any,
) -> None:
    """Wire constructor kwargs onto an explicitly provided LLM substrate.

    Historically ``AnalyticsRuntime(llm=..., tracer=...)`` silently dropped
    ``fault_config`` / ``retry_policy`` / ``tracer`` / ``metrics``.  Each is
    now applied to the client when the client has nothing configured there;
    a *genuine conflict* — the client already carries a different value —
    raises ``ValueError`` instead of guessing which one the caller meant.
    """
    if fault_config is not None:
        if llm.faults is None:
            llm.faults = FaultInjector(fault_config, seed=llm.seed)
            if llm.metrics.enabled:
                llm.faults.metrics = llm.metrics
        elif llm.faults.config != fault_config:
            raise ValueError(
                "conflicting fault configuration: the provided llm already "
                "carries a different FaultConfig; configure one or the other"
            )
    if retry_policy is not None and llm.retry != retry_policy:
        if llm.retry == RetryPolicy():
            llm.retry = retry_policy
        else:
            raise ValueError(
                "conflicting retry policy: the provided llm already carries "
                "a non-default RetryPolicy; configure one or the other"
            )
    if tracer is not None and tracer is not llm.tracer:
        if llm.tracer.enabled:
            raise ValueError(
                "conflicting tracer: the provided llm already carries an "
                "enabled tracer; configure one or the other"
            )
        llm.tracer = tracer
        if tracer.enabled and tracer.clock is None:
            tracer.clock = llm.clock
    if metrics is not None and metrics is not llm.metrics:
        if llm.metrics.enabled:
            raise ValueError(
                "conflicting metrics registry: the provided llm already "
                "carries an enabled registry; configure one or the other"
            )
        llm.metrics = metrics
        if metrics.enabled:
            llm.cache.metrics = metrics
            if llm.faults is not None:
                llm.faults.metrics = metrics
