"""Scale-out sharded execution: partitioned sources + exchange operators.

This module turns the single-worker engine into a deterministic simulation
of an N-worker cluster.  A :func:`plan_shards` pass walks the bound
physical operators, reads each operator's declared ``exchange``
requirement (see :class:`~repro.sem.physical.PhysicalOperator.exchange`),
and groups the chain into exchange segments:

- **scatter** — maximal runs of record-local operators (filter / map /
  classify / where / project) run shard-parallel on any partition of
  their input; a trailing **merge** operator (limit, top-k) runs as a
  per-shard partial pass plus a global order-restoring merge (partial
  top-k per shard + global rerank, ties broken by lineage uid);
- **shuffle** — the semantic group-by classifies shard-parallel, then
  repartitions each label's members to an owner shard (``key_shard``)
  for the summary phase;
- **broadcast** — semantic joins replicate their (smaller) right side to
  every shard and scatter only the probe side;
- **global** — sources and whole-input aggregations run once at the
  coordinator, exactly as in unsharded execution.

The executor is a *step provider* for the engine's one driver loop
(:meth:`~repro.sem.execution.Engine.drive`): global segments are the
engine's own operator step, the other kinds are exchange steps defined
here, and budget checks, truncation, boundary capture and result assembly
stay in the loop.  It only *places, measures and charges*: what runs on a
shard is the operator's own code.  A scatter worker is the engine's one
section loop (:meth:`~repro.sem.execution.Engine.run_section`) over its
partition — the same vectorized kernels, adaptive-width waves, sated
check and holdback flush as an unsharded section, each batch carrying its
rows' global positions in the ``RecordBatch.positions`` sidecar — and the
last stage says what the worker hands back and how the coordinator
combines it (``partial`` / ``merge``: by position, head-n for a limit,
re-ranked for a top-k).  Shuffle and broadcast run the group-by's and the
joins' own per-partition phases (``classify_partition`` / ``build_groups``,
``prepare_right`` / ``probe_partition``), the very methods their
``execute`` is made of.

Workers are *simulated*: each shard's cells are measured steps (seconds
captured, not spent) on its own
:class:`~repro.utils.clock.PipelineSchedule`, so no virtual time passes
while a shard runs; after all shards of a segment finish, the clock is
charged ``max(shard makespans)`` — N workers in parallel — and the gap
``max - min`` is the segment's measurable straggler cost.  Under a
serving sink (``SimulatedLLM.sink_owns_time``) each worker runs
its partition as one batch per stage, and the same charge is routed
through ``serve_sink.end_step(width, busy)`` so the shared clock is never
touched directly (the serving invariant).

Determinism and bit-identity: partitioners are pure functions of record
uid / position; simulated answers are pure functions of (seed, model,
instruction, record uid), never of call order; and derived-record uids
are lineage-deterministic.  Scatter preserves each record's global input
position, so the order-restoring merge reproduces the unsharded output
order exactly — records are bit-identical at every shard count.  Dollars
are identical too on fault-free runs *except* plans whose early-exit
limit stops upstream work: each shard over-fetches up to its own limit
before the global truncation (the classic distributed limit-pushdown
overfetch), so such plans may spend more when sharded — never produce
different records.

Materialization is not this module's business: the optimizer decides
reuse once, before the sharding pass, and executors never probe the
store.  An exact hit arrives as a replay leaf (a global segment); a
delta — the records appended or rewritten in place since capture —
arrives *expanded*: the prefix operators still in the plan, their leaf
scanning only the delta, followed by a gather-side replay that folds
what arrives into the stored records by source position — so the delta
is scattered like any other input, under every partitioner, and the
engine's driver loop captures the merged boundary whole.

``shards=1`` never constructs any of this — the config gates the pass,
so an unsharded run walks only the engine's own steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import zip_longest
from operator import itemgetter

from repro.data.records import DataRecord
from repro.errors import OptimizationError
from repro.sem.batch import RecordBatch
from repro.sem.execution import OperatorStats, measured_step
from repro.sem.physical import PhysicalOperator
from repro.utils.hashing import stable_hash

#: Supported partitioning strategies for scatter/shuffle exchanges.
PARTITIONERS = ("hash", "range", "round_robin")


def shard_of(
    uid: str, position: int, total: int, n_shards: int, partitioner: str
) -> int:
    """Which shard one record lands on under ``partitioner``.

    ``hash`` keys on the record uid alone, whatever its position;
    ``range`` cuts the input into contiguous position chunks;
    ``round_robin`` deals positions out cyclically.
    """
    if partitioner == "hash":
        return stable_hash("shard", uid) % n_shards
    if partitioner == "range":
        return position * n_shards // max(total, 1)
    if partitioner == "round_robin":
        return position % n_shards
    raise OptimizationError(
        f"unknown partitioner {partitioner!r}; expected one of {PARTITIONERS}"
    )


def partition_records(
    items: list[tuple[int, DataRecord]], n_shards: int, partitioner: str
) -> list[list[tuple[int, DataRecord]]]:
    """Split ``(position, record)`` pairs into ``n_shards`` ordered lists.

    Positions are global segment-input positions (what the merge restores
    order by); the ``range``/``round_robin`` strategies key on the local
    index within ``items`` so partitions stay balanced even when an
    upstream filter left position gaps.
    """
    shards: list[list[tuple[int, DataRecord]]] = [[] for _ in range(n_shards)]
    total = len(items)
    for index, (position, record) in enumerate(items):
        shards[shard_of(record.uid, index, total, n_shards, partitioner)].append(
            (position, record)
        )
    return shards


def key_shard(key, n_shards: int) -> int:
    """Owner shard for one shuffle key (group label / join key).

    NULL keys route deterministically to shard 0 so NULL-keyed records
    still land *somewhere*, but routing is not matching: under SQL
    three-valued semantics (see :func:`keys_match`, mirroring
    ``structql``'s evaluator) NULL never equi-matches anything — not even
    another NULL — so co-locating NULLs can never manufacture a match
    that the unsharded evaluator would reject.
    """
    if key is None:
        return 0
    return stable_hash("shard-key", str(key)) % n_shards


def keys_match(a, b) -> bool:
    """Three-valued equi-match: NULL = anything is unknown, i.e. no match.

    Matches ``structql``'s ``evaluate_predicate`` on ``a = b``: a NULL on
    either side yields NULL, and only TRUE joins.
    """
    if a is None or b is None:
        return False
    return a == b


@dataclass
class ShardSegment:
    """One exchange segment of a sharded plan: ``operators[start:end)``."""

    kind: str  # "global" | "scatter" | "shuffle" | "broadcast"
    start: int
    end: int
    #: Operator index of a trailing merge op (limit/top-k) run per-shard
    #: with a global merge; None = plain segment.
    finisher: int | None = None
    #: Exchange strategy shown in EXPLAIN ("source"/"gather"/"scatter"/
    #: "shuffle"/"broadcast").
    strategy: str = ""
    #: Rejected alternative strategy (exchange costing), "" = none.
    alternative: str = ""
    # -- runtime diagnostics, filled by the executor --------------------
    shard_makespans: list[float] = field(default_factory=list)
    shard_rows: list[int] = field(default_factory=list)
    straggler_gap_s: float = 0.0
    #: Record transfers the chosen strategy performed.
    moved_records: int = 0
    #: Record transfers the rejected alternative would have performed.
    cost_alternative: int = 0


@dataclass
class ShardPlan:
    """Output of the sharding pass; doubles as the run's diagnostics."""

    n_shards: int
    partitioner: str
    segments: list[ShardSegment] = field(default_factory=list)

    def describe(self) -> str:
        parts = []
        for segment in self.segments:
            parts.append(f"{segment.strategy}[{segment.start}:{segment.end}]")
        return (
            f"shards={self.n_shards} partitioner={self.partitioner} "
            + " -> ".join(parts)
        )


def plan_shards(
    operators: list[PhysicalOperator], n_shards: int, partitioner: str
) -> ShardPlan:
    """Group bound operators into exchange segments for ``n_shards`` workers.

    Raises :class:`~repro.errors.OptimizationError` when an operator has
    not declared its exchange requirement — new operators must opt in
    explicitly rather than being scattered on a guess — or when the
    partitioner is unknown.
    """
    if partitioner not in PARTITIONERS:
        raise OptimizationError(
            f"unknown partitioner {partitioner!r}; expected one of {PARTITIONERS}"
        )
    if n_shards < 1:
        raise OptimizationError(f"n_shards must be >= 1, got {n_shards}")
    for operator in operators:
        if operator.exchange is None:
            raise OptimizationError(
                f"operator {operator.label()} ({type(operator).__name__}) "
                "declares no exchange requirement; set the class attribute "
                "`exchange` to one of source/scatter/merge/shuffle/"
                "broadcast/gather before it can run sharded"
            )

    plan = ShardPlan(n_shards=n_shards, partitioner=partitioner)
    index = 0
    while index < len(operators):
        exchange = operators[index].exchange
        if exchange in ("source", "gather"):
            plan.segments.append(
                ShardSegment("global", index, index + 1, strategy=exchange)
            )
            index += 1
        elif exchange in ("scatter", "merge"):
            start = index
            while index < len(operators) and operators[index].exchange == "scatter":
                index += 1
            finisher = None
            if index < len(operators) and operators[index].exchange == "merge":
                finisher = index
                index += 1
            plan.segments.append(
                ShardSegment(
                    "scatter", start, index, finisher=finisher, strategy="scatter"
                )
            )
        elif exchange == "shuffle":
            # Group-by moves each record once (to its label's owner shard);
            # broadcasting would move it n_shards times.
            plan.segments.append(
                ShardSegment(
                    "shuffle", index, index + 1,
                    strategy="shuffle", alternative="broadcast",
                )
            )
            index += 1
        elif exchange == "broadcast":
            # Semantic joins have no equi-key to shuffle on (the predicate
            # is a model judgment), so the right side is replicated; the
            # rejected shuffle cost is still recorded for EXPLAIN.
            plan.segments.append(
                ShardSegment(
                    "broadcast", index, index + 1,
                    strategy="broadcast", alternative="shuffle",
                )
            )
            index += 1
        else:
            raise OptimizationError(
                f"operator {operators[index].label()} declares unknown "
                f"exchange {exchange!r}"
            )
    return plan


def exchange_footer(plan: ShardPlan) -> str:
    """EXPLAIN ANALYZE footer lines for a sharded run's exchanges."""
    lines = []
    for segment in plan.segments:
        if segment.kind == "global":
            continue
        line = (
            f"\nexchange: {segment.strategy} over operators "
            f"{segment.start}..{segment.end - 1}"
        )
        if segment.shard_makespans:
            line += (
                f" — {len(segment.shard_makespans)} shards, "
                f"makespan {max(segment.shard_makespans):.1f}s, "
                f"straggler gap {segment.straggler_gap_s:.1f}s"
            )
        line += f", {segment.moved_records} records moved"
        if segment.alternative:
            line += (
                f" (rejected {segment.alternative}: "
                f"{segment.cost_alternative} transfers)"
            )
        lines.append(line)
    return "".join(lines)


class ShardedExecutor:
    """Runs one plan's exchange segments across N simulated workers.

    Constructed (and dispatched to) by :meth:`Engine.execute` when a
    :class:`ShardPlan` is attached.  It only supplies steps to the
    engine's driver loop, and every step only places records on shards,
    measures what the operators' own methods spend there and charges the
    clock for N parallel workers.
    """

    def __init__(self, engine, plan: ShardPlan) -> None:
        self.engine = engine
        self.plan = plan
        self.ctx = engine.ctx
        self._segment_at = {segment.start: segment for segment in plan.segments}

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------

    def execute(self, operators: list[PhysicalOperator]):
        return self.engine.drive(operators, self._step_at)

    def _step_at(self, operators: list[PhysicalOperator], index: int):
        """Sharded steps: one per exchange segment of the plan."""
        segment = self._segment_at[index]
        if segment.kind == "global":
            return segment.end, self.engine.operator_step
        return segment.end, self._exchange_step

    def _exchange_step(
        self,
        operators: list[PhysicalOperator],
        index: int,
        end: int,
        records: list[DataRecord],
    ):
        segment = self._segment_at[index]
        section = operators[index:end]
        tracer = self.ctx.llm.tracer
        name = ""
        if tracer.enabled:
            name = f"exchange[{' | '.join(op.label() for op in section)}]"
        with tracer.span(
            name, kind="exchange",
            strategy=segment.strategy, shards=self.plan.n_shards,
            partitioner=self.plan.partitioner,
        ) as segment_span:
            # _run_scatter / _run_shuffle / _run_broadcast
            run = getattr(self, f"_run_{segment.kind}")
            merged, segment_stats, truncated = run(
                segment, section, records, segment_span
            )
            if tracer.enabled:
                segment_span.attributes.update(
                    records_in=len(records),
                    records_out=len(merged),
                    shard_rows=list(segment.shard_rows),
                    shard_makespans=[
                        round(s, 3) for s in segment.shard_makespans
                    ],
                    straggler_gap_s=round(segment.straggler_gap_s, 3),
                    moved_records=segment.moved_records,
                )
        # A cut segment's partial output is discarded: the run keeps the
        # records that entered it.
        return (records if truncated else merged), segment_stats, truncated

    # ------------------------------------------------------------------
    # Placing, measuring, charging
    # ------------------------------------------------------------------

    def _place(
        self, segment: ShardSegment, records: list[DataRecord]
    ) -> list[RecordBatch]:
        """One batch per shard, each row tagged with its global position."""
        parts = partition_records(
            list(enumerate(records)), self.plan.n_shards, self.plan.partitioner
        )
        segment.shard_rows = [len(part) for part in parts]
        segment.shard_makespans = []
        return [
            RecordBatch([record for _, record in part], [at for at, _ in part])
            for part in parts
        ]

    @staticmethod
    def _in_input_order(parts: list[RecordBatch], results: list[list]) -> list[tuple]:
        """Every shard's ``(position, record, result)`` rows, back in global
        input order (``results[i]`` is aligned with ``parts[i]``)."""
        rows = (
            row
            for part, part_results in zip(parts, results)
            for row in zip(part.positions, part.records, part_results)
        )
        return sorted(rows, key=itemgetter(0))

    def _charge(self, segment: ShardSegment, shard_seconds: list[float]) -> None:
        """Advance time as if the shards had run on N parallel workers.

        Off serving, the clock moves by the slowest shard's makespan.
        Under a serving sink the busy shards' makespans are handed to
        ``end_step`` as one wave (its standalone makespan is the same
        max), so the shared clock is never advanced during body execution
        — the serving invariant the runtime asserts.  The seconds are also
        booked on the segment, shard by shard across its phases.
        """
        booked = zip_longest(segment.shard_makespans, shard_seconds, fillvalue=0.0)
        segment.shard_makespans = makespans = [a + b for a, b in booked]
        segment.straggler_gap_s = max(makespans) - min(makespans)
        llm = self.ctx.llm
        busy = [seconds for seconds in shard_seconds if seconds > 0]
        if not busy:
            return
        if llm.sink_owns_time:
            llm.serve_sink.end_step(len(busy), busy)
        else:
            llm.clock.advance(max(shard_seconds))

    def _run_phase(
        self, segment: ShardSegment, name: str, stage: int, parts: list, work,
        stats: OperatorStats, segment_span,
    ) -> tuple[list, bool]:
        """One shard-parallel phase of a whole-input operator.

        ``work(part)`` runs once per shard as a measured cell; the phase
        stops at a budget cut, charges the clock for N parallel workers
        and exports one cell span per busy shard.  Returns (per-shard
        results, truncated).
        """
        llm = self.ctx.llm
        origin = llm.clock.elapsed
        results: list = []
        seconds: list[float] = []
        for part in parts:
            with measured_step(self.ctx, stats) as step:
                results.append(work(part))
            seconds.append(step.seconds)
            if step.truncated:
                break
        self._charge(segment, seconds)
        if llm.tracer.enabled and not llm.sink_owns_time:
            for shard, busy in enumerate(seconds):
                if busy > 0:
                    self.engine.cell_span(
                        f"{name} s{shard}", stage, origin, (0.0, busy),
                        segment_span, shard=shard, records=len(parts[shard]),
                    )
        return results, step.truncated

    # ------------------------------------------------------------------
    # Scatter segments (record-local stages, optional merge finisher)
    # ------------------------------------------------------------------

    def _run_scatter(
        self,
        segment: ShardSegment,
        section: list[PhysicalOperator],
        records: list[DataRecord],
        segment_span,
    ):
        ctx = self.ctx
        llm = ctx.llm
        engine = self.engine
        stats = [OperatorStats.start(op, shards=self.plan.n_shards) for op in section]
        last = section[-1]
        parts = self._place(segment, records)
        segment.moved_records = len(records)
        # Workers are measured, never spent: the clock stands at ``origin``
        # until the segment is charged, so cells can be drawn as they run.
        origin = llm.clock.elapsed
        draw_cells = llm.tracer.enabled and not llm.sink_owns_time

        def on_cell(stage, n_records, schedule):
            if draw_cells:  # ``shard``: the worker running right now
                engine.cell_span(
                    f"{section[stage].label()} s{shard}b{schedule.batches}",
                    stage, origin, schedule.last_cell, segment_span,
                    shard=shard, batch=schedule.batches, records=n_records,
                )

        partials: list[tuple] = []
        shard_seconds: list[float] = []
        truncated = False
        for shard, part in enumerate(parts):
            states = [op.new_state(ctx) for op in section]
            emitted, schedule, truncated = engine.run_section(
                section, states, stats, part,
                # Under a serve sink a worker is one operator-at-a-time pass.
                max(len(part), 1) if llm.sink_owns_time else engine.batch_size,
                on_cell,
            )
            shard_seconds.append(schedule.makespan)
            if truncated:
                break
            for batch in emitted:
                partials.extend(last.partial(batch, states[-1]))

        self._charge(segment, shard_seconds)
        if truncated:
            return [], stats, True
        merged = last.merge(partials)
        stats[-1].records_out = len(merged)
        return merged, stats, False

    # ------------------------------------------------------------------
    # Shuffle segments (semantic group-by)
    # ------------------------------------------------------------------

    def _run_shuffle(
        self,
        segment: ShardSegment,
        section: list[PhysicalOperator],
        records: list[DataRecord],
        segment_span,
    ):
        ctx = self.ctx
        (operator,) = section
        n = self.plan.n_shards
        stats = OperatorStats.start(operator, shards=n)
        stats.records_in = len(records)
        parts = self._place(segment, records)

        # Phase A: classify shard-parallel (scatter by the partitioner).
        labels, truncated = self._run_phase(
            segment, "classify", 0, parts,
            lambda part: operator.classify_partition(part.records, ctx),
            stats, segment_span,
        )
        if truncated:
            return [], [stats], True

        # Shuffle: repartition by group label to each label's owner shard.
        #: Members arrive sorted by global position, so membership — and
        #: therefore the lineage-deterministic group uid and the summary
        #: prompt — matches the unsharded grouping exactly.
        labeled = [
            (label, record)
            for _, record, label in self._in_input_order(parts, labels)
            if label is not None
        ]
        owners: list[dict[str, list[DataRecord]]] = [{} for _ in range(n)]
        for label, record in labeled:
            owners[key_shard(label, n)].setdefault(label, []).append(record)

        # Phase B: each owner shard builds its labels' group records.
        built, truncated = self._run_phase(
            segment, "build", 1, owners,
            lambda members: operator.build_groups(members, ctx),
            stats, segment_span,
        )
        segment.moved_records = len(records) + len(labeled)
        segment.cost_alternative = n * len(records)
        if truncated:
            return [], [stats], True

        groups = {
            group: record for owner in built for group, record in owner.items()
        }
        output = [
            groups[group] for group in operator.logical_op.groups if group in groups
        ]
        stats.records_out = len(output)
        return output, [stats], False

    # ------------------------------------------------------------------
    # Broadcast segments (semantic joins)
    # ------------------------------------------------------------------

    def _run_broadcast(
        self,
        segment: ShardSegment,
        section: list[PhysicalOperator],
        records: list[DataRecord],
        segment_span,
    ):
        ctx = self.ctx
        (operator,) = section
        n = self.plan.n_shards
        stats = OperatorStats.start(operator, shards=n)
        stats.records_in = len(records)

        # Coordinator side: run (and for the blocked join, embed) the right
        # subplan once; the result is broadcast to every shard by reference.
        with measured_step(ctx, stats, cell=False) as step:
            right_state = operator.prepare_right(ctx, have_left=bool(records))
        if step.truncated:
            return [], [stats], True
        right_count = len(right_state["right_records"])
        segment.moved_records = n * right_count
        segment.cost_alternative = len(records) + right_count

        parts = self._place(segment, records)
        joined, truncated = self._run_phase(
            segment, "join", 0, parts,
            lambda part: operator.probe_partition(part.records, ctx, right_state),
            stats, segment_span,
        )
        if truncated:
            return [], [stats], True
        merged = [
            record
            for _, _, emitted in self._in_input_order(parts, joined)
            for record in emitted
        ]
        stats.records_out = len(merged)
        return merged, [stats], False
