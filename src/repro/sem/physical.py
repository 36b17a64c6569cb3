"""Physical operators.

Each physical operator executes one logical operator over records,
charging the simulated LLM for every semantic call.  The engine (see
:mod:`repro.sem.execution`) wires operators together and collects
statistics.

There is one definition per operator.  Whole-input operators (scans,
retrieve, group-by, joins, aggregations) implement ``execute``; the ones
the sharded executor spreads over workers (group-by, joins) write it as
their per-partition phases applied to the one whole-input partition.
*Streamable* operators (:class:`StreamingOperator`) implement exactly one
of two methods and never ``execute``: LLM operators implement
``process_record`` and the base class lifts it to a batch once — the
executor's only wave loop, with the adaptive width and throttled-record
resubmission — while token-free operators implement ``process_batch``
directly over a :class:`~repro.sem.batch.RecordBatch`.
Executors call ``process_batch`` (plus ``new_state`` / ``finalize`` /
``sated``); ``execute`` on a streamable operator is derived — one
all-records batch, then ``finalize`` — so operator steps and fused
sections run the same code.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, TypeVar

from repro.data.records import DataRecord
from repro.errors import (
    BudgetExceededError,
    ExecutionError,
    OptimizationError,
    PlanError,
    TransientLLMError,
)
from repro.llm.embeddings import cosine_similarity, top_k_similar
from repro.llm.simulated import SimulatedLLM
from repro.sem import logical as L
from repro.sem.logical import AGG_TEXT_BUDGET
from repro.sem.batch import (
    RecordBatch,
    project_batch,
    py_map_batch,
    struct_filter_mask,
)
from repro.sem.structql import compile_predicate, run_aggregation
from repro.utils.hashing import stable_digest

import numpy as np

T = TypeVar("T")


@dataclass
class AdaptiveParallelism:
    """Wave-width controller for the pipelined executor (TCP-style).

    Replaces the static ``parallelism`` knob on the streaming path: waves
    start at the configured cap, and a wave that draws rate-limit faults
    halves the width (multiplicative decrease).  Recovery is two-phase:
    clean waves *double* the width back toward the last level that worked
    (fast recovery after a burst passes), then probe one slot at a time
    beyond it every ``widen_after`` consecutive clean waves (additive
    increase).  Each fault also lowers the fast-recovery ceiling just
    below the width that faulted, so a persistent throttle converges to
    the safe width instead of re-probing the cap every round.  A
    fault-free run never leaves the cap, so the controller is invisible
    until the substrate actually throttles.
    """

    cap: int
    min_width: int = 1
    #: Consecutive clean waves required before probing one slot wider.
    widen_after: int = 3
    width: int = 0
    #: Waves that saw at least one rate-limit fault.
    backoffs: int = 0
    widenings: int = 0
    _clean_streak: int = 0
    #: Fast-recovery ceiling: doubling stops here, additive probing beyond.
    _recover_target: int = 0

    def __post_init__(self) -> None:
        if self.cap < 1:
            raise ValueError(f"parallelism cap must be >= 1, got {self.cap}")
        self.min_width = max(1, min(self.min_width, self.cap))
        if self.width < 1:
            self.width = self.cap
        if self._recover_target < 1:
            self._recover_target = self.width

    def observe(self, rate_limited: bool) -> None:
        """Feed back one wave's outcome; adjusts :attr:`width`."""
        if rate_limited:
            self._recover_target = max(self.min_width, self.width - 1)
            self.width = max(self.min_width, self.width // 2)
            self.backoffs += 1
            self._clean_streak = 0
            return
        self._clean_streak += 1
        if self.width < self._recover_target:
            self.width = min(self._recover_target, self.width * 2)
            self.widenings += 1
            self._clean_streak = 0
        elif self.width < self.cap and self._clean_streak >= self.widen_after:
            self.width += 1
            self.widenings += 1
            self._clean_streak = 0


@dataclass
class ExecutionContext:
    """Shared state for one plan execution."""

    llm: SimulatedLLM
    parallelism: int = 1
    tag: str = "exec"
    #: What an operator does when a semantic call fails even after the LLM
    #: substrate's retries: "skip" flags the record and moves on, "fallback"
    #: re-asks ``fallback_model`` once (then skips), "raise" propagates.
    on_failure: str = "skip"
    #: Cheaper tier used by the "fallback" mode.
    fallback_model: str | None = None
    #: (record uid, error class name) for every degraded record, in order.
    failures: list[tuple[str, str]] = field(default_factory=list)
    #: The run's one spend cap: the engine stops between steps once it is
    #: reached, and operators truncate mid-batch instead of overshooting.
    max_cost_usd: float | None = None
    #: Spend already on the tracker when this execution began; the cap
    #: applies to the delta.
    cost_baseline_usd: float = 0.0
    #: Texts per batched embedding request; 1 = one call per text.
    embed_batch_size: int = 1
    #: Live wave-width controller (None = static ``parallelism``).
    adaptive: AdaptiveParallelism | None = None
    #: kind -> ``f"{tag}:{kind}"``, the usage tag of each kind of guarded
    #: call, built when the first call of that kind is made.
    _tags: dict[str, str] = field(default_factory=dict, init=False, repr=False)

    def wave_width(self) -> int:
        """Concurrency the next wave should be issued at."""
        if self.adaptive is not None:
            return self.adaptive.width
        return self.parallelism

    def check_budget(self) -> None:
        """Raise :class:`BudgetExceededError` once the spend cap is reached."""
        if self.max_cost_usd is None:
            return
        spent = self.llm.tracker.spent_usd - self.cost_baseline_usd
        if spent >= self.max_cost_usd:
            raise BudgetExceededError(
                f"spent ${spent:.4f} of the ${self.max_cost_usd:.4f} cap"
            )

    def guarded(
        self, uid: str, model: str, kind: str, call: Callable[..., T], *args
    ) -> T | None:
        """Run one tagged endpoint call under the failure policy.

        ``call`` is a bound :class:`SimulatedLLM` endpoint and ``args`` its
        leading positional arguments: it runs as ``call(*args, model=model,
        tag="<ctx tag>:<kind>")`` — per record the caller builds no closure
        and no tag.  ``on_failure`` (one of
        :data:`repro.sem.config.FAILURE_MODES`) decides what a call that
        failed even after the substrate's retries does; None means the
        record was degraded and flagged in :attr:`failures`.
        """
        if self.max_cost_usd is not None:
            self.check_budget()
        tag = self._tags.get(kind)
        if tag is None:
            tag = self._tags[kind] = f"{self.tag}:{kind}"
        try:
            return call(*args, model=model, tag=tag)
        except TransientLLMError as exc:
            if self.on_failure == "raise":
                raise
            if (
                self.on_failure == "fallback"
                and self.fallback_model
                and self.fallback_model != model
            ):
                try:
                    return call(*args, model=self.fallback_model, tag=tag)
                except TransientLLMError as fallback_exc:
                    exc = fallback_exc
            self.failures.append((uid, type(exc).__name__))
            return None


def _embed_texts(texts: list[str], ctx: ExecutionContext, tag: str) -> list[np.ndarray]:
    """Embed ``texts`` one batched request per chunk, or one call per text.

    ``ctx.embed_batch_size > 1`` selects the batched path (fused
    execution); 1 issues one call per text, each its own step on a serving
    timeline.
    """
    if ctx.embed_batch_size > 1:
        return ctx.llm.embed_batch(texts, tag=tag, batch_size=ctx.embed_batch_size)
    return [ctx.llm.embed(text, tag=tag) for text in texts]


#: Logical class -> the physical class that runs it: the one table the
#: optimizer's binder and :class:`PhysSqlScan` bind through, filled as
#: physical classes declare ``implements``.
IMPLEMENTATIONS: "dict[type[L.LogicalOperator], type[PhysicalOperator]]" = {}


def implementation(op: L.LogicalOperator) -> "type[PhysicalOperator]":
    """The physical class registered for ``op``'s logical class."""
    physical = IMPLEMENTATIONS.get(type(op))
    if physical is None:
        raise OptimizationError(
            f"no physical implementation for {op.label()}: no PhysicalOperator "
            f"subclass declares `implements = {type(op).__name__}`"
        )
    return physical


class PhysicalOperator(abc.ABC):
    """Executes one logical operator over a batch of records."""

    #: The logical class this operator runs; declaring it registers the
    #: class.  A variant (the blocked join) inherits its parent's and is
    #: chosen by the binder.
    implements: "type[L.LogicalOperator] | None" = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        logical = cls.__dict__.get("implements")
        if logical in IMPLEMENTATIONS:
            raise PlanError(
                f"{cls.__name__} and {IMPLEMENTATIONS[logical].__name__} both "
                f"declare `implements = {logical.__name__}`"
            )
        if logical is not None:
            IMPLEMENTATIONS[logical] = cls

    #: Streamable operators (:class:`StreamingOperator`) consume record
    #: batches and can be fused into pipelined sections by the engine.
    streamable = False

    #: How the sharded executor (:mod:`repro.sem.shard`) may place this
    #: operator: "source" leaves run once at the coordinator; "scatter"
    #: ops run shard-parallel on any partition (record-local); "merge"
    #: ops run shard-parallel with a global order-restoring merge (partial
    #: top-k/limit per shard + global rerank); "shuffle" ops repartition
    #: by their grouping key; "broadcast" ops replicate their right input
    #: to every shard; "gather" ops need the whole input at the
    #: coordinator.  ``None`` means undeclared — the sharding pass refuses
    #: to plan around such an operator instead of guessing.
    exchange: str | None = None

    #: Surfaced in per-operator stats: a replayed materialized prefix
    #: (EXPLAIN "Reused"), a pushed-down SQL section (EXPLAIN "SQL"), and
    #: the source records a pushed-down scan saw before pruning.
    reused = False
    pushed_down = False
    scanned = 0

    #: Plan facts the optimizer's binder hangs on each bound operator —
    #: the bound list is the plan's only position-indexed table: the
    #: statistics-key entry (None = not keyable), the fingerprint of the
    #: boundary after this operator (None = don't capture), and the
    #: :class:`~repro.sem.optimizer.cost_model.OperatorEstimate`.
    stats_entry: dict | None = None
    fingerprint: str | None = None
    estimate = None

    def __init__(self, logical_op: L.LogicalOperator, model: str | None = None) -> None:
        self.logical_op = logical_op
        self.model = model

    @abc.abstractmethod
    def execute(self, records: list[DataRecord], ctx: ExecutionContext) -> list[DataRecord]:
        """Transform ``records``; must not mutate the input list."""

    def label(self) -> str:
        suffix = f" [{self.model}]" if self.model else ""
        return self.logical_op.label() + suffix

    def sample_answer(self, record: DataRecord, ctx: ExecutionContext) -> list:
        """This operator's answer for one record, as the optimizer's sampler
        compares it across models.  Streamable operators answer; a profiled
        operator that is not streamable overrides this."""
        raise ExecutionError(f"{self.label()} has no per-record answer to sample")


class StreamingOperator(PhysicalOperator):
    """Batch-at-a-time operator the engine can fuse into pipelined sections.

    Subclasses define exactly one of :meth:`process_record` (LLM
    operators) or :meth:`process_batch` (token-free operators) and never
    :meth:`execute` — ``tests/test_sem_physical.py`` enforces it.
    """

    streamable = True

    def execute(self, records: list[DataRecord], ctx: ExecutionContext) -> list[DataRecord]:
        """Whole-input entry point, derived: one all-records batch + flush."""
        state = self.new_state(ctx)
        output = self.process_batch(RecordBatch(records), ctx, state)
        return output.records + self.finalize(ctx, state)

    def sample_answer(self, record: DataRecord, ctx: ExecutionContext) -> list:
        """The fields of the records :meth:`process_record` emits from a
        fresh state."""
        emitted = self.process_record(record, ctx, self.new_state(ctx))
        return [out.fields for out in emitted]

    def new_state(self, ctx: ExecutionContext) -> dict:
        """Fresh per-execution mutable state."""
        return {}

    def prepare_batch(
        self, batch: RecordBatch, ctx: ExecutionContext, state: dict
    ) -> None:
        """Batch-level vectorized work (e.g. one embedding request per batch)."""

    def process_record(
        self, record: DataRecord, ctx: ExecutionContext, state: dict
    ) -> list[DataRecord]:
        """One record through the operator; may emit zero or more records.

        LLM operators override this.  A token-free operator's is derived:
        its batch kernel on a batch of one — what the optimizer's sampler
        calls, so a sampled answer is the operator's own.
        """
        if type(self).process_batch is StreamingOperator.process_batch:
            raise ExecutionError(
                f"{self.label()} defines neither process_record nor process_batch"
            )
        return self.process_batch(RecordBatch([record]), ctx, state).records

    def process_batch(
        self, batch: RecordBatch, ctx: ExecutionContext, state: dict
    ) -> RecordBatch:
        """One batch through the operator: :meth:`process_record`, lifted.

        The only wave loop in the executor.  The wave is issued at
        ``ctx.wave_width()``; when it drew rate-limit faults and the
        adaptive controller narrowed the width, records whose calls
        exhausted their retries are resubmitted once at the reduced width
        (their failure flags are withdrawn; a second exhaustion re-flags
        them).  Token-free operators override this with a whole-batch
        kernel and must not open a ``parallel`` section.
        """
        rows = batch.records
        tracker = ctx.llm.tracker
        metrics = ctx.llm.metrics
        self.prepare_batch(batch, ctx, state)
        emitted: list[list[DataRecord]] = [[] for _ in rows]
        pending = list(enumerate(rows))
        for attempt in range(2):
            width = ctx.wave_width()
            if metrics.enabled:
                metrics.histogram("engine.wave_width").observe(width)
            wave_checkpoint = tracker.checkpoint()
            wave_failures = len(ctx.failures)
            with ctx.llm.parallel(width):
                for row, record in pending:
                    emitted[row] = self.process_record(record, ctx, state)
            if ctx.adaptive is None:
                break
            ctx.adaptive.observe(
                any(
                    event.failed and event.error == "rate_limit"
                    for event in tracker.events[wave_checkpoint:]
                )
            )
            throttled_uids = {
                uid
                for uid, error in ctx.failures[wave_failures:]
                if error == "RateLimitError"
            }
            if attempt > 0 or not throttled_uids or ctx.adaptive.width >= width:
                break
            # Withdraw the throttled records' failure flags and give them
            # one more pass at the narrowed width.
            ctx.failures[wave_failures:] = [
                entry
                for entry in ctx.failures[wave_failures:]
                if entry[0] not in throttled_uids
            ]
            pending = [
                (row, record)
                for row, record in pending
                if record.uid in throttled_uids
            ]
        return batch.expand(emitted)

    def finalize(self, ctx: ExecutionContext, state: dict) -> list[DataRecord]:
        """Records held back until the stream ends (e.g. top-k winners)."""
        return []

    def sated(self, state: dict) -> bool:
        """True once this operator can never emit more records (early exit)."""
        return False

    def partial(self, emitted: RecordBatch, state: dict) -> list[tuple]:
        """What a shard worker hands back when this is its last stage: each
        emitted record under a merge key — by default its global position."""
        return list(zip(emitted.positions, emitted.records))

    def merge(self, partials: list[tuple]) -> list[DataRecord]:
        """Every worker's :meth:`partial` pairs -> the whole-input output:
        ascending key order (``exchange = "merge"`` operators then cut)."""
        return [record for _, record in sorted(partials, key=itemgetter(0))]


class PhysScan(PhysicalOperator):
    implements = L.ScanOp
    exchange = "source"

    #: The records to scan instead of the source: a delta replay's prefix
    #: (see :class:`PhysMaterializedScan`) scans only what changed.
    delta: list[DataRecord] | None = None

    def execute(self, records: list[DataRecord], ctx: ExecutionContext) -> list[DataRecord]:
        if records:
            raise ExecutionError("scan is a leaf; it takes no input records")
        if self.delta is not None:
            return list(self.delta)
        return list(self.logical_op.source.iterate())


class PhysMaterializedScan(PhysicalOperator):
    """Replay a materialized prefix; merge the source's delta into it.

    The stored records are replayed as-is (zero LLM cost) and the delta —
    the records appended or rewritten in place since capture — runs
    through the prefix, its leaf scanning exactly the delta.  With nothing
    rewritten the delta's survivors follow the stored records; otherwise
    ``rewrites`` (:class:`~repro.sem.materialize.Rewrites`) drops the stored
    records descending from a rewritten record and merges the rest with
    the delta's survivors by the source position of each record's root.
    This matches a full recompute exactly because delta merging is only
    offered for order-preserving record-local prefixes
    (``LogicalOperator.incremental_safe``).  The optimizer binds it in one
    of two shapes:

    - *compact* (every exact hit, and an unsharded delta): a leaf standing
      in for the whole prefix — the bound operators it replaced, in
      ``prefix`` — which it runs over the delta right here.  The unsharded
      engine keeps it because a standing tick is too small to pay for
      extra cells (``standing_ticks`` ``op_ms_p50`` +19 % when expanded).
    - *expanded* (a sharded delta): the prefix stays in the plan ahead of
      it, so the sharding pass scatters the delta like any other input,
      and this operator — ``exchange = "gather"`` on the instance — folds
      whatever arrives into the stored records.
    """

    reused = True

    logical_op: L.MaterializedScanOp
    exchange = "source"

    def __init__(
        self,
        logical_op: L.MaterializedScanOp,
        entry,
        prefix=(),
        rewrites=None,
    ) -> None:
        super().__init__(logical_op, None)
        self.entry = entry
        self.prefix = list(prefix)
        self.rewrites = rewrites

    def execute(self, records: list[DataRecord], ctx: ExecutionContext) -> list[DataRecord]:
        if self.prefix and self.prefix[0].delta:
            for operator in self.prefix:
                records = operator.execute(records, ctx)
        if self.rewrites is None:
            return [*self.entry.records, *records]
        return self.rewrites.apply(self.entry.records, records)


class PhysRetrieve(PhysicalOperator):
    """Top-k vector retrieval over the upstream scan's records.

    If the scan's source exposes a prebuilt vector index (a Context with a
    registered index), retrieval delegates to it; otherwise records are
    embedded on the fly (embeddings are cached, so this cost is paid once),
    one batched request per ``ctx.embed_batch_size`` texts on the
    vectorized path.
    """

    implements = L.RetrieveOp
    exchange = "gather"

    def __init__(
        self,
        logical_op: L.RetrieveOp,
        model: str | None = None,
        source: object | None = None,
    ) -> None:
        super().__init__(logical_op, model)
        self.source = source

    def execute(self, records: list[DataRecord], ctx: ExecutionContext) -> list[DataRecord]:
        op = self.logical_op
        if self.source is not None and hasattr(self.source, "vector_search"):
            hits = self.source.vector_search(op.query, op.k, llm=ctx.llm)
            return [record for record, _ in hits]
        if not records:
            return []
        tag = f"{ctx.tag}:retrieve"
        query_vec = ctx.llm.embed(op.query, tag=tag)
        matrix = np.stack(
            _embed_texts([record.as_text() for record in records], ctx, tag)
        )
        hits = top_k_similar(query_vec, matrix, op.k)
        return [records[index] for index, _ in hits]


class PhysSemFilter(StreamingOperator):
    implements = L.SemFilterOp
    exchange = "scatter"

    def process_record(
        self, record: DataRecord, ctx: ExecutionContext, state: dict
    ) -> list[DataRecord]:
        op = self.logical_op
        model = self.model or op.model
        judgment = ctx.guarded(
            record.uid, model, "filter", ctx.llm.judge_filter, op.instruction, record
        )
        if judgment is not None and judgment.answer:
            return [record]
        return []


class PhysSemMap(StreamingOperator):
    implements = L.SemMapOp
    exchange = "scatter"

    def process_record(
        self, record: DataRecord, ctx: ExecutionContext, state: dict
    ) -> list[DataRecord]:
        op = self.logical_op
        model = self.model or op.model
        new_fields = {}
        for schema_field, instruction in op.outputs:
            extraction = ctx.guarded(
                record.uid, model, "map", ctx.llm.extract, instruction, record
            )
            # Degraded extractions surface as None (flagged in ctx.failures),
            # keeping the record and its other fields.
            new_fields[schema_field.name] = (
                schema_field.coerce(extraction.value)
                if extraction is not None
                else None
            )
        return [record.derive(new_fields)]


class PhysSemClassify(StreamingOperator):
    implements = L.SemClassifyOp
    exchange = "scatter"

    def process_record(
        self, record: DataRecord, ctx: ExecutionContext, state: dict
    ) -> list[DataRecord]:
        op = self.logical_op
        model = self.model or op.model
        result = ctx.guarded(
            record.uid, model, "classify", ctx.llm.classify,
            op.instruction, list(op.options), record,
        )
        value = result.value if result is not None else None
        return [record.derive({op.output_field: value})]


class PhysSemGroupBy(PhysicalOperator):
    """Classify-then-partition implementation of the semantic group-by.

    Two per-partition phases, both pure functions of (records, substrate):
    :meth:`classify_partition` labels any partition of the input and
    :meth:`build_groups` mints the records of any set of groups whose
    members are complete and in input order.  ``execute`` is the two over
    the one whole-input partition; the sharded executor scatters the first
    and runs the second once per owner shard, so the split changes nothing
    about the answers.
    """

    implements = L.SemGroupByOp
    exchange = "shuffle"

    def classify_partition(
        self, records: list[DataRecord], ctx: ExecutionContext
    ) -> list[str | None]:
        """One label per record of a partition; None means degraded (the
        record is flagged and stays ungrouped)."""
        op = self.logical_op
        model = self.model or op.model
        labels: list[str | None] = []
        with ctx.llm.parallel(ctx.wave_width()):
            for record in records:
                result = ctx.guarded(
                    record.uid, model, "groupby", ctx.llm.classify,
                    op.instruction, list(op.groups), record,
                )
                labels.append(None if result is None else str(result.value))
        return labels

    def sample_answer(self, record: DataRecord, ctx: ExecutionContext) -> list:
        """The label :meth:`classify_partition` gives a partition of one."""
        return self.classify_partition([record], ctx)

    def build_groups(
        self, members: dict[str, list[DataRecord]], ctx: ExecutionContext
    ) -> dict[str, DataRecord]:
        """One output record per non-empty group, in declared group order."""
        from repro.sem.config import DEFAULT_FALLBACK_MODEL

        op = self.logical_op
        model = self.model or op.model
        built: dict[str, DataRecord] = {}
        for group in op.groups:
            rows = members.get(group)
            if not rows:
                continue
            fields: dict = {"group": group, "count": len(rows)}
            if op.summarize:
                joined_text = "\n---\n".join(
                    member.as_text() for member in rows
                )[:AGG_TEXT_BUDGET]
                completion = ctx.guarded(
                    f"group:{group}",
                    model or DEFAULT_FALLBACK_MODEL,
                    "groupby",
                    ctx.llm.complete,
                    f"Summarize the records in group {group!r}: "
                    f"{op.instruction}\n\n{joined_text}",
                )
                fields["summary"] = completion.text if completion is not None else None
            member_uids = tuple(member.uid for member in rows)
            built[group] = DataRecord(
                fields=fields,
                # Deterministic group-record uid: pure function of the
                # label and membership, identical across execution modes.
                uid=f"group:{group}:{stable_digest(member_uids)[:6]}",
                parent_uids=member_uids,
            )
        return built

    def execute(self, records: list[DataRecord], ctx: ExecutionContext) -> list[DataRecord]:
        members: dict[str, list[DataRecord]] = {}
        for label, record in zip(self.classify_partition(records, ctx), records):
            if label is not None:
                members.setdefault(label, []).append(record)
        return list(self.build_groups(members, ctx).values())


class PhysSemJoin(PhysicalOperator):
    """Nested-loop semantic join: one judgment per candidate pair.

    ``execute`` is :meth:`probe_partition` over the whole left input
    against :meth:`prepare_right`; the sharded executor prepares once at
    the coordinator (the broadcast side) and probes one partition per
    shard.
    """

    implements = L.SemJoinOp
    exchange = "broadcast"

    def __init__(
        self,
        logical_op: L.SemJoinOp,
        right_ops: "list[PhysicalOperator]",
        model: str | None = None,
    ) -> None:
        super().__init__(logical_op, model)
        self.right_ops = right_ops

    def prepare_right(self, ctx: ExecutionContext, have_left: bool = True) -> dict:
        """Run the right subplan once (broadcast side in sharded mode)."""
        right_records: list[DataRecord] = []
        for op in self.right_ops:
            right_records = op.execute(right_records, ctx)
        return {"right_records": right_records}

    def judge_pairs(
        self, left: DataRecord, rights: list[DataRecord], ctx: ExecutionContext
    ) -> list[DataRecord]:
        """One judgment per (left, right) candidate; the pairs that join."""
        model = self.model or self.logical_op.model
        joined: list[DataRecord] = []
        for right in rights:
            judgment = ctx.guarded(
                f"{left.uid}|{right.uid}", model, "join", ctx.llm.judge_join,
                self.logical_op.instruction, left, right,
            )
            if judgment is not None and judgment.answer:
                joined.append(DataRecord.merge(left, right))
        return joined

    def probe_partition(
        self, records: list[DataRecord], ctx: ExecutionContext, right_state: dict
    ) -> list[list[DataRecord]]:
        """Join a partition of left records against a prepared right side.

        Returns one emit list per left record, so a caller that scattered
        the left side can restore its order.
        """
        rights = right_state["right_records"]
        with ctx.llm.parallel(ctx.wave_width()):
            return [self.judge_pairs(left, rights, ctx) for left in records]

    def execute(self, records: list[DataRecord], ctx: ExecutionContext) -> list[DataRecord]:
        right_state = self.prepare_right(ctx, have_left=bool(records))
        return [
            record
            for joined in self.probe_partition(records, ctx, right_state)
            for record in joined
        ]


class PhysSemJoinBlocked(PhysSemJoin):
    """Embedding-blocked semantic join.

    Classic blocking applied to LLM joins: pairs are pre-screened by
    embedding similarity and only the most promising candidates are sent
    to the model for judgment.  Cuts the O(n*m) judgment cost at a small
    recall risk (pairs below the similarity floor are never judged).
    """

    #: Cosine similarity a candidate pair needs to be judged at all.
    SIMILARITY_FLOOR = 0.10
    #: Most similar right records judged per left record.
    MAX_CANDIDATES_PER_LEFT = 8

    def label(self) -> str:
        return super().label() + " (blocked)"

    def prepare_right(self, ctx: ExecutionContext, have_left: bool = True) -> dict:
        """Run the right subplan once; embed it when a probe side exists.

        Coordinator-side in sharded mode: the right records (and their
        embedding matrix) are broadcast to every shard rather than
        recomputed per shard.
        """
        state = super().prepare_right(ctx)
        right_records = state["right_records"]
        state["right_matrix"] = None
        if have_left and right_records:
            state["right_matrix"] = np.stack(
                _embed_texts(
                    [record.as_text() for record in right_records],
                    ctx, f"{ctx.tag}:join",
                )
            )
        return state

    def join_left(
        self,
        left: DataRecord,
        ctx: ExecutionContext,
        right_state: dict,
        left_vec=None,
    ) -> list[DataRecord]:
        """Judge one left record against its blocked candidates."""
        right_records = right_state["right_records"]
        if left_vec is None:
            left_vec = ctx.llm.embed(left.as_text(), tag=f"{ctx.tag}:join")
        hits = top_k_similar(
            left_vec, right_state["right_matrix"], self.MAX_CANDIDATES_PER_LEFT
        )
        candidates = [
            right_records[index]
            for index, similarity in hits
            if similarity >= self.SIMILARITY_FLOOR
        ]
        return self.judge_pairs(left, candidates, ctx)

    def probe_partition(
        self, records: list[DataRecord], ctx: ExecutionContext, right_state: dict
    ) -> list[list[DataRecord]]:
        if not records or right_state["right_matrix"] is None:
            return [[] for _ in records]
        # Vectorized path: one batched request for every left vector before
        # the judgment waves, instead of one embed call inside each slot.
        left_vectors = (
            _embed_texts(
                [left.as_text() for left in records], ctx, f"{ctx.tag}:join"
            )
            if ctx.embed_batch_size > 1
            else [None] * len(records)
        )
        with ctx.llm.parallel(ctx.wave_width()):
            return [
                self.join_left(left, ctx, right_state, left_vec)
                for left, left_vec in zip(records, left_vectors)
            ]


class PhysSemAgg(PhysicalOperator):
    implements = L.SemAggOp
    exchange = "gather"

    def execute(self, records: list[DataRecord], ctx: ExecutionContext) -> list[DataRecord]:
        from repro.sem.config import DEFAULT_FALLBACK_MODEL

        op = self.logical_op
        model = self.model or op.model
        chunks: list[str] = []
        used = 0
        for record in records:
            text = record.as_text()
            if used + len(text) > AGG_TEXT_BUDGET:
                break
            chunks.append(text)
            used += len(text)
        prompt = op.instruction + "\n\n" + "\n---\n".join(chunks)
        completion = ctx.guarded(
            "agg", model or DEFAULT_FALLBACK_MODEL, "agg", ctx.llm.complete, prompt
        )
        input_uids = tuple(record.uid for record in records)
        result = DataRecord(
            fields={op.output_field: completion.text if completion is not None else None},
            uid=f"agg:{stable_digest(input_uids)[:6]}",
            parent_uids=input_uids,
        )
        return [result]


class PhysSemTopK(StreamingOperator):
    """Embedding-ranked top-k with optional LLM reranking.

    Streams: every record is scored (and, for ``method="llm"``, judged) as
    it arrives, held back, and the top ``k`` are emitted at stream end.
    The relevance judgment partitions candidates; the embedding score
    breaks ties within each partition, then input position (:meth:`_rank`).
    Sharded, each worker keeps its own top ``k`` and the coordinator
    re-ranks the union by the same key.
    """

    implements = L.SemTopKOp
    exchange = "merge"

    def new_state(self, ctx: ExecutionContext) -> dict:
        return {
            "scored": {},
            "pending": {},
            "arrivals": 0,
            "ask": f"The record is relevant to: {self.logical_op.query}",
        }

    def prepare_batch(
        self, batch: RecordBatch, ctx: ExecutionContext, state: dict
    ) -> None:
        records = batch.records
        if not records:
            return
        tag = f"{ctx.tag}:topk"
        if "query_vec" not in state:
            state["query_vec"] = ctx.llm.embed(self.logical_op.query, tag=tag)
        vectors = _embed_texts([record.as_text() for record in records], ctx, tag)
        # A record's place in the input: its tracked (global) position when
        # the batch carries one, else its arrival slot.
        positions = batch.positions
        if positions is None:
            positions = range(state["arrivals"], state["arrivals"] + len(records))
        state["arrivals"] += len(records)
        for record, vector, position in zip(records, vectors, positions):
            state["pending"][record.uid] = (
                cosine_similarity(state["query_vec"], vector), position,
            )

    def process_record(
        self, record: DataRecord, ctx: ExecutionContext, state: dict
    ) -> list[DataRecord]:
        op = self.logical_op
        previous = state["scored"].get(record.uid)
        if previous is None:
            similarity, position = state["pending"].pop(record.uid)
        else:
            # Resubmission after a withdrawn rate-limit failure: replace the
            # degraded judgment, keeping the original score and position so
            # the ranking matches a fault-free run.
            _, similarity, position, _ = previous
        relevant = 1
        if op.method == "llm":
            model = self.model or op.model
            judgment = ctx.guarded(
                record.uid, model, "topk", ctx.llm.judge_filter, state["ask"], record
            )
            # A degraded judgment falls back to the embedding score.
            relevant = 1 if (judgment is not None and judgment.answer) else 0
        state["scored"][record.uid] = (relevant, similarity, position, record)
        return []

    @staticmethod
    def _rank(scored: tuple) -> tuple:
        """The ranking key, written once: ascending order is best first.

        The lineage uid breaks (impossible-by-construction) residual ties
        between records sharing a position.
        """
        relevant, similarity, position, record = scored
        return (-relevant, -similarity, position, record.uid)

    def finalize(self, ctx: ExecutionContext, state: dict) -> list[DataRecord]:
        ranked = sorted(state["scored"].values(), key=self._rank)
        return [record for *_, record in ranked[: self.logical_op.k]]

    def partial(self, emitted: RecordBatch, state: dict) -> list[tuple]:
        scored = state["scored"]
        return [(self._rank(scored[record.uid]), record) for record in emitted.records]

    def merge(self, partials: list[tuple]) -> list[DataRecord]:
        return super().merge(partials)[: self.logical_op.k]


class PhysPyFilter(StreamingOperator):
    implements = L.PyFilterOp
    exchange = "scatter"

    def process_batch(
        self, batch: RecordBatch, ctx: ExecutionContext, state: dict
    ) -> RecordBatch:
        fn = self.logical_op.fn
        return batch.take([fn(record) for record in batch.records])


class PhysPyMap(StreamingOperator):
    implements = L.PyMapOp
    exchange = "scatter"

    def process_batch(
        self, batch: RecordBatch, ctx: ExecutionContext, state: dict
    ) -> RecordBatch:
        return py_map_batch(batch, self.logical_op.fn)


class PhysProject(StreamingOperator):
    implements = L.ProjectOp
    exchange = "scatter"

    def process_batch(
        self, batch: RecordBatch, ctx: ExecutionContext, state: dict
    ) -> RecordBatch:
        return project_batch(batch, self.logical_op.fields)


class PhysLimit(StreamingOperator):
    """Limit with early-exit pushdown: once sated, the engine stops pulling
    batches from upstream stages instead of truncating after the fact."""

    implements = L.LimitOp
    exchange = "merge"

    def new_state(self, ctx: ExecutionContext) -> dict:
        return {"remaining": self.logical_op.n}

    def sated(self, state: dict) -> bool:
        return state["remaining"] <= 0

    def process_batch(
        self, batch: RecordBatch, ctx: ExecutionContext, state: dict
    ) -> RecordBatch:
        take = max(0, min(state["remaining"], len(batch)))
        state["remaining"] -= take
        return batch.head(take)

    def merge(self, partials: list[tuple]) -> list[DataRecord]:
        # Each worker over-fetched up to its own limit: head-n by position.
        return super().merge(partials)[: self.logical_op.n]


class PhysStructFilter(StreamingOperator):
    """SQL predicate over record fields: keep rows where it is TRUE.

    The compiled expression is evaluated once per batch with vectorized
    masks (:func:`repro.sem.batch.struct_filter_mask`, which falls back to
    the ``repro.sql`` executor per row wherever a vector path is not
    provably exact).  It only *selects* rows, so the surviving record
    objects — and their uids — are untouched.
    """

    implements = L.StructFilterOp
    exchange = "scatter"

    def __init__(self, logical_op: L.StructFilterOp, model: str | None = None) -> None:
        super().__init__(logical_op, model)
        self._expr = compile_predicate(logical_op.condition)

    def process_batch(
        self, batch: RecordBatch, ctx: ExecutionContext, state: dict
    ) -> RecordBatch:
        return batch.take(struct_filter_mask(self._expr, batch))


class PhysStructAgg(PhysicalOperator):
    """Structured GROUP BY / aggregation via the SQL engine (token-free).

    One fresh record per SQL result row; uids are a pure function of the
    input lineage and the group key, so the operator mints identical
    records standalone and inside a pushed-down SqlScan.
    """

    implements = L.StructAggOp
    exchange = "gather"

    def execute(self, records: list[DataRecord], ctx: ExecutionContext) -> list[DataRecord]:
        op = self.logical_op
        rows = run_aggregation(
            [record.fields for record in records], op.group_by, op.aggregates
        )
        input_uids = tuple(record.uid for record in records)
        output = []
        for row in rows:
            group_values = tuple(row[name] for name in op.group_by)
            output.append(
                DataRecord(
                    fields=dict(row),
                    uid=f"structagg:{stable_digest(input_uids, group_values)[:6]}",
                    parent_uids=input_uids,
                )
            )
        return output


class PhysSqlScan(PhysicalOperator):
    """Leaf: scan a source and run its pushed-down structured prefix.

    The pushed operators are bound to the same physical classes they
    would run as above the scan (so they cannot drift) and prune/project/
    pre-aggregate the record set before any LLM operator runs.
    ``scanned`` records how many source records the scan saw, so EXPLAIN
    can report what was pruned ahead of the first LLM operator.
    """

    implements = L.SqlScanOp
    exchange = "source"
    pushed_down = True
    #: As :attr:`PhysScan.delta`; ``scanned`` then counts the delta only.
    delta: list[DataRecord] | None = None

    def __init__(self, logical_op: L.SqlScanOp, model: str | None = None) -> None:
        super().__init__(logical_op, model)
        self.pushed: list[PhysicalOperator] = []
        for op in logical_op.pushed:
            if op.pushable is None:
                raise ExecutionError(
                    f"operator {op.label()} cannot run inside a SqlScan"
                )
            self.pushed.append(implementation(op)(op))

    def execute(self, records: list[DataRecord], ctx: ExecutionContext) -> list[DataRecord]:
        if records:
            raise ExecutionError("sql scan is a leaf; it takes no input records")
        if self.delta is not None:
            current = list(self.delta)
        else:
            current = list(self.logical_op.source.iterate())
        self.scanned = len(current)
        for operator in self.pushed:
            current = operator.execute(current, ctx)
        return current
