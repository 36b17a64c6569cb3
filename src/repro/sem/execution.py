"""Execution engine and statistics.

The engine executes a list of bound physical operators leaves-first and
measures, per operator: records in/out, LLM calls, dollars, and simulated
seconds.  Four pieces exist exactly once:

- **The driver loop** (:meth:`Engine.drive`) walks the plan a *step* at a
  time and owns the spend-cap check, truncation, boundary capture,
  re-planning and result assembly.  A step is one whole-input *operator*
  (a barrier: time is spent as the operator spends it), a *pipelined
  section* (a maximal run of streamable operators, always fused), or —
  supplied by :mod:`repro.sem.shard` — an *exchange segment* across
  simulated workers.
- **The measured step** (:class:`measured_step`) attributes everything a
  piece of work spent — dollars, calls, tokens, cache hits, retries,
  degraded records, seconds, a budget cut — to an :class:`OperatorStats`.
- **The cell runner** (:meth:`Engine.run_cell`) puts one record batch
  through one streamable operator's ``process_batch`` inside a measured
  step.
- **The section loop** (:meth:`Engine.run_section`) streams fixed-size
  batches through fused stages, so batch *b* can occupy stage *s* while
  batch *b+1* is still in stage *s-1*: each (batch, stage) cell's seconds
  are captured via :meth:`SimulatedLLM.measure` and fed to a
  :class:`~repro.utils.clock.PipelineSchedule`, and a per-cell callback
  says what the schedule means to the caller.  A pipelined section
  spends online the growth of its critical-path makespan, so the charged
  time is the pipeline's makespan, not the stage sum; a shard worker
  (:mod:`repro.sem.shard`) only files its cells, and its segment charges
  the slowest worker.  A sated downstream limit stops upstream batches
  (early-exit pushdown), the spend cap truncates mid-batch, and held-back
  records (top-k winners) flush at stream end.

Time is spent through ``SimulatedLLM.spend``, so a query served through
``repro.serve`` runs exactly this schedule, with the serving timeline in
place of the clock.  The engine only passes dependency tokens for it: a
section takes ``llm.mark()`` as its entry, each cell's measure section
waits for its ``after`` token, and a cell returns its ``tail`` for the
batch's next cell — a no-op ``()`` off serving.

Answers from the simulated LLM are a pure function of the input, never of
call order, so operator-step, fused and sharded runs produce
bit-identical records and dollar cost on a fault-free run; only the time
accounting differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.records import DataRecord
from repro.errors import BudgetExceededError, ConfigurationError
from repro.sem.batch import RecordBatch
from repro.sem.physical import (
    ExecutionContext,
    PhysicalOperator,
    StreamingOperator,
)
from repro.utils.clock import PipelineSchedule


@dataclass
class OperatorStats:
    """Measured behaviour of one physical operator in one execution.

    In pipelined sections ``time_s`` is the operator's *busy* time (the sum
    of its cell durations); operators overlap, so per-operator times can
    sum to more than the run's critical-path ``total_time_s``.  Records,
    calls, and dollars are exact in both modes.
    """

    label: str
    model: str | None
    records_in: int = 0
    records_out: int = 0
    cost_usd: float = 0.0
    time_s: float = 0.0
    llm_calls: int = 0
    cached_calls: int = 0
    #: Attempts that faulted and were retried (or gave up) in this operator.
    retried_calls: int = 0
    #: Records degraded (skipped/flagged) after exhausting the retry policy.
    failed_records: int = 0
    #: Prompt/completion tokens billed to this operator (failed attempts
    #: included — their prefill is real spend).
    input_tokens: int = 0
    output_tokens: int = 0
    #: True when this operator replayed a materialized sub-plan prefix.
    reused: bool = False
    #: True when this operator is a pushed-down SQL section (token-free).
    sql_pushdown: bool = False
    #: Source records a pushed-down scan saw before pruning (0 elsewhere).
    records_scanned: int = 0
    #: Simulated workers this operator ran across (1 = coordinator-only).
    shards: int = 1
    #: The operator's statistics-key entry (None = not keyable) and plan
    #: estimate record, so ingestion, span export and EXPLAIN read the
    #: measured row alone — no list to keep aligned with it.
    stats_entry: dict | None = field(default=None, repr=False)
    estimate: object | None = field(default=None, repr=False)

    @classmethod
    def start(cls, operator: PhysicalOperator, shards: int = 1) -> "OperatorStats":
        """Zeroed stats for ``operator``, ready to accumulate measured steps."""
        return cls(
            label=operator.label(),
            model=operator.model,
            reused=operator.reused,
            sql_pushdown=operator.pushed_down,
            shards=shards,
            stats_entry=operator.stats_entry,
            estimate=operator.estimate,
        )

    @property
    def total_tokens(self) -> int:
        return self.input_tokens + self.output_tokens

    @property
    def cache_hit_ratio(self) -> float:
        """Fraction of this operator's calls served from the cache."""
        if self.llm_calls == 0:
            return 0.0
        return self.cached_calls / self.llm_calls


@dataclass
class ExecutionResult:
    """Output records plus the full accounting of how they were produced."""

    records: list[DataRecord]
    operator_stats: list[OperatorStats] = field(default_factory=list)
    total_cost_usd: float = 0.0
    total_time_s: float = 0.0
    #: Extra spend attributed to the optimizer's sampling phase.
    optimization_cost_usd: float = 0.0
    optimization_time_s: float = 0.0
    #: True when a spend cap stopped execution before the plan completed;
    #: ``records`` then holds everything produced up to the cut (a fused
    #: section salvages fully-processed batches; an operator step returns
    #: the output of the last finished operator).
    truncated: bool = False
    #: Faulted-and-retried attempts across all operators.
    retried_calls: int = 0
    #: Records degraded under the failure policy, across all operators.
    failed_records: int = 0

    def __len__(self) -> int:
        return len(self.records)

    def field_values(self, name: str) -> list:
        return [record.get(name) for record in self.records]


def answer_fingerprint(
    records: list[DataRecord], total_cost_usd: float, truncated: bool
) -> str:
    """Stable digest of an answer: its records, dollars and truncation flag.

    Covers record uids, field names and values (in record order), the
    total dollar cost, and the truncation flag — everything the
    bit-identical equivalence contract promises is mode-independent.
    Virtual time is deliberately excluded: execution modes are allowed
    to (and should) differ on time, never on the fingerprint.
    """
    from repro.utils.hashing import stable_digest

    rows = [
        (record.uid, tuple(sorted(record.fields.items(), key=lambda kv: kv[0])))
        for record in records
    ]
    return stable_digest(rows, round(total_cost_usd, 9), truncated)


def pushdown_footer(operator_stats: list[OperatorStats]) -> str:
    """EXPLAIN footer for pushed-down SQL sections (empty when none ran).

    Reports how many records the SQL engine pruned before the first LLM
    operator ever saw the stream — the headline number of the hybrid
    pushdown path.
    """
    scan = next((s for s in operator_stats if s.sql_pushdown), None)
    if scan is None:
        return ""
    pruned = scan.records_scanned - scan.records_out
    return (
        f"\npushdown: {scan.label} pruned {pruned} of {scan.records_scanned} "
        f"records before the first LLM operator ({scan.records_out} passed)"
    )


def _stats_attrs(stats: OperatorStats) -> dict:
    """Span attributes summarizing one operator's measured behaviour."""
    attrs = {
        "records_in": stats.records_in,
        "records_out": stats.records_out,
        "cost_usd": round(stats.cost_usd, 6),
        "tokens": stats.total_tokens,
        "llm_calls": stats.llm_calls,
        "cached_calls": stats.cached_calls,
        "retried_calls": stats.retried_calls,
        "failed_records": stats.failed_records,
    }
    if stats.reused:
        attrs["reused"] = True
    if stats.sql_pushdown:
        attrs["sql_pushdown"] = True
        attrs["records_scanned"] = stats.records_scanned
    if stats.shards > 1:
        attrs["shards"] = stats.shards
    return attrs


class measured_step:
    """Run the block as one measured unit of work, accumulated into ``stats``.

    The single place usage is attributed to an operator: dollars, calls,
    tokens, cache hits, faulted attempts and degraded records since the
    block began are added to ``stats``, along with its seconds.  With
    ``cell=True`` the seconds are *captured* (:meth:`SimulatedLLM.measure`)
    for the caller to place on a schedule — pipelined and shard cells;
    with ``cell=False`` the block spends time on the clock as it goes and
    the elapsed delta is read back — operator steps and coordinator-side
    work.  A cell's call steps wait for its ``after`` token (its measure
    section's ``tail`` names the last one).  A
    :class:`BudgetExceededError` from the block is absorbed: what it burned
    before the cut is accounted, and :attr:`truncated` says so the caller
    can still schedule the partial :attr:`seconds`.
    """

    __slots__ = ("ctx", "stats", "section", "checkpoint", "failures_before",
                 "time_before", "seconds", "truncated")

    def __init__(self, ctx: ExecutionContext, stats: OperatorStats,
                 cell: bool = True, after: tuple = ()):
        self.ctx = ctx
        self.stats = stats
        self.section = ctx.llm.measure(after) if cell else None
        self.seconds = 0.0
        self.truncated = False

    def __enter__(self) -> "measured_step":
        llm = self.ctx.llm
        self.checkpoint = len(llm.tracker.events)
        self.failures_before = len(self.ctx.failures)
        self.time_before = llm.clock.elapsed
        if self.section is not None:
            self.section.__enter__()
        return self

    def __exit__(self, exc_type, exc, traceback) -> bool:
        if self.section is not None:
            self.section.__exit__(exc_type, exc, traceback)
        if exc_type is not None and not issubclass(exc_type, BudgetExceededError):
            return False
        self.truncated = exc_type is not None
        llm = self.ctx.llm
        stats = self.stats
        # One walk of the block's events.  Dollars are summed left to right
        # from 0.0 and only then added to ``stats`` — the float result of
        # ``tracker.since(checkpoint).cost_usd``, bit for bit.
        events = llm.tracker.events[self.checkpoint:]
        cost_usd = 0.0
        input_tokens = output_tokens = cached = failed = 0
        for event in events:
            cost_usd += event.cost_usd
            input_tokens += event.input_tokens
            output_tokens += event.output_tokens
            if event.cached:
                cached += 1
            if event.failed:
                failed += 1
        stats.cost_usd += cost_usd
        stats.llm_calls += len(events)
        stats.input_tokens += input_tokens
        stats.output_tokens += output_tokens
        stats.cached_calls += cached
        stats.retried_calls += failed
        stats.failed_records += len(self.ctx.failures) - self.failures_before
        self.seconds = (
            self.section.seconds if self.section else llm.clock.elapsed - self.time_before
        )
        stats.time_s += self.seconds
        return True


class Engine:
    """Executes a bound operator chain with per-operator accounting."""

    def __init__(
        self,
        ctx: ExecutionContext,
        batch_size: int,
        capture=None,
        replanner=None,
        shard_plan=None,
    ) -> None:
        self.ctx = ctx
        #: Records per streamed batch of a fused section or shard worker
        #: (``QueryProcessorConfig.resolved_batch_size``).
        self.batch_size = batch_size
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        #: Optional :class:`repro.sem.materialize.CapturePlan`: the store
        #: that boundaries of operators carrying a ``fingerprint`` are
        #: materialized into after they complete.
        self.capture = capture
        #: Optional :class:`repro.sem.optimizer.replan.Replanner` consulted
        #: at every step boundary with the observed cardinality; when it
        #: accepts, the remaining operators are permuted in place.
        self.replanner = replanner
        #: Optional :class:`repro.sem.shard.ShardPlan`: when set, the
        #: scale-out :class:`repro.sem.shard.ShardedExecutor` supplies the
        #: steps (``shards=1`` never builds a plan).
        self.shard_plan = shard_plan
        #: Tracker state when the current run began (see :meth:`drive`).
        self.run_start_cost = 0.0
        self.run_start_time = 0.0
        self.run_start_failed = 0

    def execute(self, operators: list[PhysicalOperator]) -> ExecutionResult:
        if self.shard_plan is not None:
            from repro.sem.shard import ShardedExecutor

            return ShardedExecutor(self, self.shard_plan).execute(operators)
        return self.drive(operators, self._step_at)

    def drive(self, operators: list[PhysicalOperator], step_at) -> ExecutionResult:
        """The one driver loop: run ``operators`` a step at a time.

        ``step_at(operators, index)`` names the step starting at ``index``
        as ``(end, run)``; ``run(operators, index, end, records)`` executes
        ``operators[index:end]`` and returns ``(records, stats, truncated)``
        — on a budget cut, the records worth keeping (the step's input, or
        whatever a pipelined section salvaged).
        """
        llm = self.ctx.llm
        index = 0
        records: list[DataRecord] = []
        stats: list[OperatorStats] = []
        self.run_start_cost = llm.tracker.spent_usd
        self.run_start_time = llm.clock.elapsed
        self.run_start_failed = llm.tracker.failed_attempts
        # The context's spend cap applies to this run's delta: operators
        # truncate mid-batch instead of overshooting to the next boundary.
        self.ctx.cost_baseline_usd = self.run_start_cost
        max_cost_usd = self.ctx.max_cost_usd
        truncated = False

        while index < len(operators):
            spent = llm.tracker.spent_usd - self.run_start_cost
            if max_cost_usd is not None and spent >= max_cost_usd:
                truncated = True
                break
            end, run = step_at(operators, index)
            records, step_stats, truncated = run(operators, index, end, records)
            stats.extend(step_stats)
            if truncated:
                break
            self._maybe_capture(operators[end - 1], records)
            if self.replanner is not None:
                # The re-planner owns the decision (divergence threshold,
                # learned priors, strict cost improvement) and permutes
                # ``operators[end:]`` in place; every plan fact rides on
                # the operators, so ingestion and EXPLAIN follow along.
                self.replanner.consider(end, len(records), operators)
            index = end

        if llm.metrics.enabled and truncated:
            llm.metrics.counter("engine.truncations").inc()
        return ExecutionResult(
            records=records,
            operator_stats=stats,
            total_cost_usd=llm.tracker.spent_usd - self.run_start_cost,
            total_time_s=llm.clock.elapsed - self.run_start_time,
            truncated=truncated,
            retried_calls=sum(s.retried_calls for s in stats),
            failed_records=sum(s.failed_records for s in stats),
        )

    def _step_at(self, operators: list[PhysicalOperator], index: int):
        """Unsharded steps: a fused pipelined section, else one operator.

        A section is a maximal run of streamable operators; a run of one
        gains nothing from pipelining and runs as an operator step
        (identical wave structure either way).
        """
        end = index
        while end < len(operators) and operators[end].streamable:
            end += 1
        if end - index >= 2:
            return end, self._section_step
        return index + 1, self.operator_step

    def _maybe_capture(
        self, operator: PhysicalOperator, records: list[DataRecord]
    ) -> None:
        """Materialize the boundary after ``operator`` if eligible.

        Capture is skipped on tainted runs: degraded records (``skip``)
        would poison later reuse, and a faulted call is the only way one
        happens — so any failed call since the run started vetoes the
        write.  The stored cost is the
        cumulative spend up to this boundary plus the cost carried from a
        replayed entry, i.e. an honest full-recompute estimate.
        """
        plan = self.capture
        fingerprint = operator.fingerprint
        if plan is None or fingerprint is None:
            return
        llm = self.ctx.llm
        if self.ctx.failures or llm.tracker.failed_attempts > self.run_start_failed:
            return
        plan.store.put(
            fingerprint,
            records,
            source_uids=plan.source_uids,
            source_id=plan.source_id,
            cost_usd=plan.carried_cost_usd
            + (llm.tracker.spent_usd - self.run_start_cost),
            time_s=plan.carried_time_s + (llm.clock.elapsed - self.run_start_time),
            content_version=plan.content_version,
        )

    # ------------------------------------------------------------------
    # Operator steps
    # ------------------------------------------------------------------

    def operator_step(
        self,
        operators: list[PhysicalOperator],
        index: int,
        end: int,
        records: list[DataRecord],
    ) -> tuple[list[DataRecord], list[OperatorStats], bool]:
        """One operator over its whole input, charging the clock as it goes.

        On a mid-operator budget cut the partial output is discarded (the
        input — the last finished operator's output — is what the run
        keeps), but the spend and calls the operator burned are accounted.
        """
        operator = operators[index]
        tracer = self.ctx.llm.tracer
        metrics = self.ctx.llm.metrics
        op_stats = OperatorStats.start(operator)
        op_stats.records_in = len(records)
        output = records
        with tracer.span(op_stats.label, kind="operator") as op_span:
            with measured_step(self.ctx, op_stats, cell=False) as step:
                output = operator.execute(records, self.ctx)
                op_stats.records_out = len(output)
        op_stats.records_scanned = operator.scanned
        if tracer.enabled:
            op_span.attributes.update(_stats_attrs(op_stats))
        if metrics.enabled:
            metrics.histogram("engine.operator_s").observe(op_stats.time_s)
        return output, [op_stats], step.truncated

    # ------------------------------------------------------------------
    # Pipelined sections
    # ------------------------------------------------------------------

    def _section_step(
        self,
        operators: list[PhysicalOperator],
        index: int,
        end: int,
        records: list[DataRecord],
    ) -> tuple[list[DataRecord], list[OperatorStats], bool]:
        """``operators[index:end]`` fused into one pipelined section.

        The growth of the section's pipelined makespan is spent online
        after every cell, and each cell is exported as a span at
        its *scheduled* position (section origin + the
        :class:`PipelineSchedule` placement) on a per-stage track, so a
        trace shows the overlap the makespan accounting charges for.
        """
        section = operators[index:end]
        ctx = self.ctx
        llm = ctx.llm
        tracer = llm.tracer
        metrics = llm.metrics
        name = ""
        if tracer.enabled:
            name = f"pipeline[{' | '.join(op.label() for op in section)}]"
        states = [operator.new_state(ctx) for operator in section]
        stats = [OperatorStats.start(operator) for operator in section]
        origin = llm.clock.elapsed
        charged = 0.0

        def on_cell(stage: int, n_records: int, schedule: PipelineSchedule) -> None:
            nonlocal charged
            if tracer.enabled:
                self.cell_span(
                    f"{section[stage].label()} b{schedule.batches}", stage,
                    origin, schedule.last_cell, section_span,
                    batch=schedule.batches, records=n_records,
                )
            if schedule.makespan > charged:
                llm.spend(schedule.makespan - charged)
                charged = schedule.makespan

        with tracer.span(
            name, kind="pipeline-section", stages=len(section)
        ) as section_span:
            emitted, schedule, truncated = self.run_section(
                section, states, stats, RecordBatch(records), self.batch_size,
                on_cell, llm.mark(),
            )
        outputs = [record for batch in emitted for record in batch.records]
        if tracer.enabled:
            section_span.attributes.update(
                batches=schedule.batches,
                makespan_s=schedule.makespan,
                records_in=len(records),
                records_out=len(outputs),
                cost_usd=round(sum(s.cost_usd for s in stats), 6),
            )
        if metrics.enabled:
            metrics.histogram("engine.section_makespan_s").observe(
                schedule.makespan
            )
        return outputs, stats, truncated

    def cell_span(
        self,
        name: str,
        stage: int,
        origin: float,
        placement: tuple[float, float],
        parent,
        shard: int | None = None,
        **attributes,
    ) -> None:
        """Export one scheduled cell: the only place cell spans are made.

        ``placement`` is the cell's (start, end) relative to ``origin``; a
        section's cells sit on ``stage k`` tracks, a shard worker's on
        ``shard i stage k``.  Callers check ``tracer.enabled`` first.
        """
        track = f"stage {stage}"
        attributes = {"stage": stage, **attributes}
        if shard is not None:
            track = f"shard {shard} {track}"
            attributes = {"shard": shard, **attributes}
        self.ctx.llm.tracer.add_span(
            name, "cell", origin + placement[0], origin + placement[1],
            track=track, parent=parent, **attributes,
        )

    def run_section(
        self,
        section: list[StreamingOperator],
        states: list[dict],
        stats: list[OperatorStats],
        batch: RecordBatch,
        batch_size: int,
        on_cell,
        entry: tuple,
    ) -> tuple[list[RecordBatch], PipelineSchedule, bool]:
        """The one input-batch loop: stream ``batch`` through fused stages.

        ``batch`` is cut into ``batch_size``-row batches (its ``positions``
        sidecar, if any, rides along) and cells run depth-first per batch
        on a fresh :class:`PipelineSchedule`; after every cell
        ``on_cell(stage, records_in, schedule)`` lets the caller place it —
        a fused section spends the makespan growth and draws the span, a
        shard worker files it for its segment's ``max(makespans)`` charge.
        Each input batch's first cell waits for ``entry`` and each later
        cell for the one before; a flushed holdback batch waits for
        everything recorded when it is flushed (``llm.mark()``).
        Returns (emitted batches in order, the schedule, truncated); on a
        budget cut the batch in flight is dropped and the rest kept.
        """
        ctx = self.ctx
        schedule = PipelineSchedule()
        emitted: list[RecordBatch] = []
        truncated = False

        def run_stages(
            batch: RecordBatch, first_stage: int, ready: float, after: tuple
        ) -> None:
            """One batch, available at ``ready`` and waiting for ``after``,
            through stages ``first_stage``.. — emits the survivors."""
            nonlocal truncated
            schedule.start_batch(ready)
            for stage in range(first_stage, len(section)):
                if not len(batch):
                    break
                n_records = len(batch)
                batch, seconds, truncated, after = self.run_cell(
                    section[stage], batch, states[stage], stats[stage], after
                )
                schedule.record(stage, seconds)
                on_cell(stage, n_records, schedule)
                if truncated:
                    return
            emitted.append(batch)

        # Early-exit pushdown: a sated stage (a filled limit) means no
        # further input batch can change the output — stop scanning.  Only
        # stages that can ever be sated are asked.
        satable = [
            (op, state)
            for op, state in zip(section, states)
            if type(op).sated is not StreamingOperator.sated
        ]
        for start in range(0, len(batch), batch_size):
            if truncated or any(op.sated(state) for op, state in satable):
                break
            run_stages(batch.slice(start, start + batch_size), 0, 0.0, entry)

        # Flush held-back records (e.g. top-k winners) downstream, in stage
        # order so later holdbacks see everything emitted before them.  A
        # holdback exists only once its stage has seen its last cell, so
        # that is when the flushed batch becomes ready.
        if not truncated:
            for stage, operator in enumerate(section):
                held = operator.finalize(ctx, states[stage])
                if not held:
                    continue
                stats[stage].records_out += len(held)
                run_stages(
                    RecordBatch(held), stage + 1, schedule.stage_finish(stage),
                    ctx.llm.mark(),
                )
                if truncated:
                    break
        return emitted, schedule, truncated

    def run_cell(
        self,
        operator: StreamingOperator,
        batch: RecordBatch,
        state: dict,
        stats: OperatorStats,
        after: tuple,
    ) -> tuple[RecordBatch, float, bool, tuple]:
        """One batch through one stage, measured: the only cell runner.

        Returns (emitted batch, cell seconds, truncated, tail); pipelined
        sections and shard workers both schedule cells from here.  The
        cell's call steps wait for ``after``; ``tail`` is what the batch's
        next cell waits for.  On a budget cut the batch is the cell's
        input, which the caller drops, and the seconds are what the cell
        burned before the cut.
        """
        metrics = self.ctx.llm.metrics
        stats.records_in += len(batch)
        with measured_step(self.ctx, stats, after=after) as step:
            batch = operator.process_batch(batch, self.ctx, state)
            stats.records_out += len(batch)
        if metrics.enabled and not step.truncated:
            metrics.histogram("engine.cell_s").observe(step.seconds)
        return batch, step.seconds, step.truncated, step.section.tail
