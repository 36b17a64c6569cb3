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
from typing import Any, Sequence

from repro.core.context import Context
from repro.core.context_manager import ContextManager
from repro.core.operators import ComputeResult, SearchResult, compute, search
from repro.data.datasets.base import DatasetBundle
from repro.data.records import DataRecord
from repro.data.schemas import Schema
from repro.errors import ConfigurationError
from repro.llm.faults import FaultConfig, FaultInjector, RetryPolicy
from repro.llm.oracle import IntentRegistry, SemanticOracle
from repro.llm.simulated import SimulatedLLM
from repro.llm.usage import Usage
from repro.obs.stats import StatisticsStore
from repro.sem.config import QueryProcessorConfig
from repro.sem.materialize import MaterializationStore
from repro.sem.optimizer.policies import Balanced
from repro.sql.database import Database, ResultSet


class AnalyticsRuntime:
    """One user-facing runtime instance (paper's envisioned system).

    The runtime builds its LLM substrate from ``registry``, ``seed``,
    ``fault_config``, ``retry_policy``, ``tracer`` and ``metrics``.  An
    explicit ``llm=`` is used as given: passing it together with any of
    those substrate arguments raises :class:`~repro.errors.ConfigurationError`
    (configure them on the :class:`SimulatedLLM` instead).
    """

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
        **query_options: Any,
    ) -> None:
        if llm is not None:
            given = [
                name
                for name, value in (
                    ("registry", registry),
                    ("fault_config", fault_config),
                    ("retry_policy", retry_policy),
                    ("tracer", tracer),
                    ("metrics", metrics),
                )
                if value is not None
            ]
            if given:
                raise ConfigurationError(
                    f"an explicit llm= is used as given; configure "
                    f"{', '.join(given)} on the SimulatedLLM instead"
                )
            self.llm = llm
        else:
            self.llm = SimulatedLLM(
                oracle=SemanticOracle(registry if registry is not None else IntentRegistry()),
                seed=seed,
                faults=FaultInjector(fault_config, seed=seed) if fault_config else None,
                retry=retry_policy,
                tracer=tracer,
                metrics=metrics,
            )
        self.seed = seed
        self.reuse_contexts = reuse_contexts
        #: Runtime-wide sub-plan materialization store.  Semantic programs
        #: launched by compute/search agents share it (when
        #: ``reuse_contexts`` is on), so fingerprint-matched plan prefixes
        #: replay across queries; ContextManager.invalidate cascades into it.
        self.materialization_store = MaterializationStore()
        #: The one similarity catalog: Contexts, and answers computed into them.
        self.context_manager = ContextManager(self.llm, self.materialization_store)
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
        if self.llm.metrics.enabled and self.config.stats_store is not None:
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
                raise ConfigurationError("records-based contexts require schema and desc")
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

    def answer(self, context: Context, instruction: str, **kwargs: Any) -> ComputeResult:
        """Compute with whole-query answer caching.

        If a near-identical instruction (embedding similarity >=
        ``ContextManager.ANSWER_FLOOR``) was already answered against the
        same base Context, the cached result is returned at zero marginal
        LLM cost — the coarsest form of the paper's reuse-past-work vision.
        An answer rides on the catalog entry ``compute`` registered for its
        output Context and goes when that entry does: capacity pressure,
        :meth:`clear_answers`, or invalidation of a Context it derives from.
        """
        root_name = context.lineage()[-1].name
        query_vec = self.llm.embed(instruction, tag="answer-cache")
        cached = self.context_manager.find_answer(root_name, query_vec)
        if cached is not None:
            return dataclasses.replace(cached, reused=True, cost_usd=0.0, time_s=0.0)

        result = compute(context, instruction, self, **kwargs)
        self.context_manager.store_answer(result.output_context, query_vec, result)
        return result

    def clear_answers(self) -> None:
        self.context_manager.clear_answers()

    # ------------------------------------------------------------------
    # Optimizer configuration for semantic programs
    # ------------------------------------------------------------------

    def program_config(
        self, tag: str = "program", **overrides: Any
    ) -> QueryProcessorConfig:
        """The runtime's template under ``tag``, with ``overrides`` applied."""
        return dataclasses.replace(self.config, tag=tag, **overrides)

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

    @property
    def tracer(self) -> Any:
        """The span tracer the LLM substrate (and everything above) uses."""
        return self.llm.tracer

    @property
    def metrics(self) -> Any:
        """The runtime-wide metrics registry."""
        return self.llm.metrics

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

        Standing queries registered through it (on :meth:`program_config`
        derivations, whose LLM is this runtime's) share this runtime's
        materialization store (delta reuse across ticks), statistics store
        (version-aware prior decay), and context
        manager (update-event invalidation cascade, which also evicts cached
        :meth:`answer` results).
        """
        from repro.sem.streaming import StandingQueryManager

        return StandingQueryManager(
            store=self.materialization_store,
            stats_store=self.config.stats_store,
            context_manager=self.context_manager,
        )

