"""The fluent ``Dataset`` API — the user-facing surface of the framework.

A :class:`Dataset` is an immutable handle on a logical plan; every method
returns a new Dataset with one more operator.  Nothing executes until
:meth:`Dataset.run`.

Example::

    emails = Dataset.from_source(bundle.source())
    result = (
        emails
        .sem_filter("The email discusses the merger.")
        .sem_map(Field("summary", str, "one-sentence summary"),
                 "Write a one-sentence summary of the email.")
        .run(QueryProcessorConfig(llm=llm))
    )
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from repro.data.records import DataRecord
from repro.data.schemas import Field, Schema
from repro.data.sources import DataSource, MemorySource
from repro.errors import PlanError
from repro.llm.embeddings import DEFAULT_EMBED_BATCH
from repro.sem import logical as L
from repro.sem.config import QueryProcessorConfig
from repro.sem.execution import Engine, ExecutionResult
from repro.sem.optimizer.optimizer import OptimizationReport, Optimizer
from repro.sem.physical import AdaptiveParallelism, ExecutionContext


class Dataset:
    """An immutable, composable query over a data source."""

    def __init__(self, root: L.LogicalOperator) -> None:
        self._root = root

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_source(cls, source: DataSource) -> "Dataset":
        return cls(L.ScanOp(child=None, source=source))

    @classmethod
    def from_records(
        cls,
        records: Iterable[DataRecord],
        schema: Schema,
        source_id: str = "memory",
    ) -> "Dataset":
        return cls.from_source(MemorySource(records, schema, source_id=source_id))

    # ------------------------------------------------------------------
    # Semantic operators
    # ------------------------------------------------------------------

    def sem_filter(self, instruction: str, model: str | None = None) -> "Dataset":
        """Keep records satisfying a natural-language predicate."""
        _require_instruction(instruction, "sem_filter")
        return Dataset(L.SemFilterOp(child=self._root, instruction=instruction, model=model))

    def sem_map(
        self,
        field: Field | Sequence[tuple[Field, str]],
        instruction: str | None = None,
        model: str | None = None,
    ) -> "Dataset":
        """Compute new field(s) from each record.

        Accepts either a single ``(field, instruction)`` pair via the two
        positional arguments, or a sequence of pairs.
        """
        if isinstance(field, Field):
            if not instruction:
                raise PlanError("sem_map with a single Field requires an instruction")
            outputs = ((field, instruction),)
        else:
            outputs = tuple((f, instr) for f, instr in field)
            if not outputs:
                raise PlanError("sem_map requires at least one output field")
        return Dataset(L.SemMapOp(child=self._root, outputs=outputs, model=model))

    def sem_classify(
        self,
        output_field: str,
        options: Sequence[str],
        instruction: str,
        model: str | None = None,
    ) -> "Dataset":
        """Assign each record one label from ``options``."""
        _require_instruction(instruction, "sem_classify")
        if not options:
            raise PlanError("sem_classify requires at least one option")
        return Dataset(
            L.SemClassifyOp(
                child=self._root,
                output_field=output_field,
                options=tuple(options),
                instruction=instruction,
                model=model,
            )
        )

    def sem_groupby(
        self,
        instruction: str,
        groups: Sequence[str],
        summarize: bool = False,
        model: str | None = None,
    ) -> "Dataset":
        """Partition records into semantic groups; one output row per group."""
        _require_instruction(instruction, "sem_groupby")
        if len(groups) < 2:
            raise PlanError("sem_groupby requires at least two groups")
        return Dataset(
            L.SemGroupByOp(
                child=self._root,
                groups=tuple(groups),
                instruction=instruction,
                summarize=summarize,
                model=model,
            )
        )

    def sem_join(self, other: "Dataset", instruction: str, model: str | None = None) -> "Dataset":
        """Join against ``other`` on a natural-language pair predicate."""
        _require_instruction(instruction, "sem_join")
        return Dataset(
            L.SemJoinOp(
                child=self._root, right=other._root, instruction=instruction, model=model
            )
        )

    def sem_agg(
        self,
        instruction: str,
        output_field: str = "answer",
        model: str | None = None,
    ) -> "Dataset":
        """Aggregate all records into one synthesized answer record."""
        _require_instruction(instruction, "sem_agg")
        return Dataset(
            L.SemAggOp(
                child=self._root,
                instruction=instruction,
                output_field=output_field,
                model=model,
            )
        )

    def sem_topk(
        self,
        query: str,
        k: int,
        method: str = "embedding",
        model: str | None = None,
    ) -> "Dataset":
        """Keep the ``k`` records most relevant to ``query``."""
        _require_instruction(query, "sem_topk")
        if method not in ("embedding", "llm"):
            raise PlanError(f"sem_topk method must be 'embedding' or 'llm', got {method!r}")
        return Dataset(
            L.SemTopKOp(child=self._root, query=query, k=k, method=method, model=model)
        )

    # ------------------------------------------------------------------
    # Plain (free) operators
    # ------------------------------------------------------------------

    def filter(self, fn: Callable[[DataRecord], bool], description: str = "") -> "Dataset":
        """Keep records for which the Python predicate returns True."""
        return Dataset(L.PyFilterOp(child=self._root, fn=fn, description=description))

    def map(self, fn: Callable[[DataRecord], dict], description: str = "") -> "Dataset":
        """Add fields computed by a Python function returning a dict."""
        return Dataset(L.PyMapOp(child=self._root, fn=fn, description=description))

    def where(self, condition: str) -> "Dataset":
        """Keep records satisfying a structured SQL predicate.

        ``condition`` is a ``repro.sql`` WHERE expression over typed record
        fields (``"priority >= 2 AND status <> 'done'"``).  SQL semantics
        apply: a missing field reads as NULL, and only rows where the
        predicate is exactly TRUE survive.  Because the predicate is
        structured, the optimizer can push it (with adjacent projections
        and pre-aggregations) into a SQL scan that prunes records before
        any LLM operator runs.
        """
        if not isinstance(condition, str) or not condition.strip():
            raise PlanError("where requires a non-empty SQL condition string")
        return Dataset(L.StructFilterOp(child=self._root, condition=condition))

    def struct_agg(
        self,
        aggregates: Sequence[tuple[str, str]],
        group_by: Sequence[str] = (),
    ) -> "Dataset":
        """Aggregate typed fields with SQL semantics (no LLM involved).

        ``aggregates`` is a sequence of ``(output_name, sql_expression)``
        pairs, e.g. ``[("n", "count(*)"), ("worst", "max(priority)")]``;
        ``group_by`` names grouping fields.  Runs through the ``repro.sql``
        engine, so NULL handling, grouping, and empty-input behaviour are
        exactly SQL's.
        """
        return Dataset(
            L.StructAggOp(
                child=self._root,
                group_by=tuple(group_by),
                aggregates=tuple((alias, expr) for alias, expr in aggregates),
            )
        )

    def project(self, fields: Sequence[str]) -> "Dataset":
        """Keep only the named fields."""
        return Dataset(L.ProjectOp(child=self._root, fields=tuple(fields)))

    def limit(self, n: int) -> "Dataset":
        """Stop after ``n`` records."""
        return Dataset(L.LimitOp(child=self._root, n=n))

    def retrieve(self, query: str, k: int) -> "Dataset":
        """Replace the full scan with top-k vector retrieval (access path)."""
        return Dataset(L.RetrieveOp(child=self._root, query=query, k=k))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def plan(self) -> L.LogicalPlan:
        return L.LogicalPlan(root=self._root)

    def explain(
        self, analyze: bool = False, config: QueryProcessorConfig | None = None
    ) -> str:
        """Render the logical plan; with ``analyze=True``, run it and render
        the EXPLAIN ANALYZE table (per-operator time, $, tokens, cache-hit
        ratio, retries, records in/out vs. the optimizer's estimates).
        """
        if not analyze:
            return self.plan().explain()
        if config is None:
            raise PlanError("explain(analyze=True) requires a QueryProcessorConfig")
        from repro.sem.explain import explain_analyze

        result, report = self.run_with_report(config)
        return explain_analyze(result, report)

    def run(self, config: QueryProcessorConfig) -> ExecutionResult:
        """Optimize and execute the plan, returning records + accounting."""
        result, _report = self.run_with_report(config)
        return result

    def run_with_report(
        self, config: QueryProcessorConfig
    ) -> tuple[ExecutionResult, OptimizationReport]:
        """Like :meth:`run` but also returns the optimizer's report."""
        plan = self.plan()
        tracer = config.llm.tracer
        # Mechanics are derived, never configured: batched embeds and the
        # adaptive wave width ride with fusion, which only a serve sink
        # turns off (it wants every call as its own timeline step).
        fused = not config.llm.sink_owns_time
        with tracer.span(
            f"query:{config.tag}", kind="query", pipeline=fused
        ) as query_span:
            operators, report = Optimizer(config).optimize(plan)
            engine = Engine(
                ExecutionContext(
                    llm=config.llm,
                    parallelism=config.parallelism,
                    tag=config.tag,
                    on_failure=config.on_failure,
                    fallback_model=config.resolved_fallback_model(),
                    max_cost_usd=config.max_cost_usd,
                    embed_batch_size=DEFAULT_EMBED_BATCH if fused else 1,
                    adaptive=(
                        AdaptiveParallelism(cap=config.parallelism)
                        if fused
                        else None
                    ),
                ),
                batch_size=config.resolved_batch_size(),
                capture=report.capture,
                replanner=report.replanner,
                shard_plan=report.shard_plan,
            )
            result = engine.execute(operators)
            result.optimization_cost_usd = report.sampling_cost_usd
            result.optimization_time_s = report.sampling_time_s
            stats_store = config.stats_store
            if (
                stats_store is not None
                # Join plans bind only their left spine: no statistics
                # entries, nothing to ingest.
                and plan.is_linear()
                and not result.truncated
                and not report.reused_prefix
            ):
                # Feed learned priors only with full, honestly measured
                # runs: truncated executions under-count selectivity, and a
                # run behind a replayed prefix measures only its suffix.
                stats_store.ingest_run(result.operator_stats, tracer=tracer)
        if tracer.enabled:
            query_span.attributes.update(
                records=len(result.records),
                cost_usd=round(result.total_cost_usd, 6),
                time_s=result.total_time_s,
                truncated=result.truncated,
            )
            if report.shard_plan is not None:
                query_span.attributes.update(
                    shards=report.shard_plan.n_shards,
                    partitioner=report.shard_plan.partitioner,
                )
            if report.reused_prefix:
                query_span.attributes.update(
                    reused_prefix=report.reused_prefix,
                    reuse_kind=report.reuse_kind,
                )
        return result, report

    def records(self, config: QueryProcessorConfig) -> list[DataRecord]:
        """Convenience: run and return just the records."""
        return self.run(config).records


def _require_instruction(instruction: Any, operator_name: str) -> None:
    if not isinstance(instruction, str) or not instruction.strip():
        raise PlanError(f"{operator_name} requires a non-empty instruction string")
