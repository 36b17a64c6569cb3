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
stay in the loop.  Whole-boundary replay is not here either: the
optimizer splices a materialized prefix in before the sharding pass, so
the segments are planned over the list that actually runs.  Shard
workers put batches through the engine's one cell runner
(:meth:`~repro.sem.execution.Engine.run_cell`), so a sharded cell is the
same vectorized kernel or adaptive-width wave as an unsharded one; each
batch carries its rows' global positions in the ``RecordBatch.positions``
sidecar.

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

Materialization composes with partitioning through per-shard
fingerprints (:func:`~repro.sem.materialize.shard_fingerprint`): pure
scatter segments capture one store entry per shard keyed by (the
fingerprint their last operator carries, partitioner, shard count, shard
index), with per-input emit counts so a replay can re-place records at
their global positions; these per-shard entries are the sharded *delta*
mechanism and are probed by the workers themselves.  Hash
partitioning keeps shard assignments stable under append-only source
growth, so per-shard *delta* execution runs only each shard's appended
tail; range/round-robin assignments shift on append and their stale
entries are invalidated by the store's source-uid prefix check.

``shards=1`` never constructs any of this — the config gates the pass,
so an unsharded run walks only the engine's own steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.records import DataRecord
from repro.errors import OptimizationError
from repro.sem.batch import RecordBatch
from repro.sem.execution import OperatorStats, measured_step
from repro.sem.materialize import shard_fingerprint
from repro.sem.physical import (
    PhysicalOperator,
    PhysLimit,
    PhysSemJoinBlocked,
    PhysSemTopK,
    _embed_texts,
)
from repro.utils.clock import PipelineSchedule
from repro.utils.hashing import stable_hash

#: Supported partitioning strategies for scatter/shuffle exchanges.
PARTITIONERS = ("hash", "range", "round_robin")


def shard_of(
    uid: str, position: int, total: int, n_shards: int, partitioner: str
) -> int:
    """Which shard one record lands on under ``partitioner``.

    ``hash`` keys on the record uid (the only assignment stable under
    append-only source growth); ``range`` cuts the input into contiguous
    position chunks; ``round_robin`` deals positions out cyclically.
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
    #: Shards served entirely from per-shard materialized entries.
    replayed_shards: int = 0
    #: Shards that ran only their appended delta tail.
    delta_shards: int = 0


@dataclass
class ShardPlan:
    """Output of the sharding pass; doubles as the run's diagnostics."""

    n_shards: int
    partitioner: str
    segments: list[ShardSegment] = field(default_factory=list)

    @property
    def reused_any(self) -> bool:
        """True when a per-shard replay (exact or delta) fed this run —
        gates statistics ingestion like ``report.reused_prefix``."""
        return any(
            segment.replayed_shards or segment.delta_shards
            for segment in self.segments
        )

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
        if segment.replayed_shards or segment.delta_shards:
            line += (
                f"; reuse: {segment.replayed_shards} shard(s) replayed, "
                f"{segment.delta_shards} delta"
            )
        lines.append(line)
    return "".join(lines)


class ShardedExecutor:
    """Runs one plan's exchange segments across N simulated workers.

    Constructed (and dispatched to) by :meth:`Engine.execute` when a
    :class:`ShardPlan` is attached.  It only supplies steps to the
    engine's driver loop and runs its cells through the engine's cell
    runner, so everything except worker placement behaves identically.
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

    # ------------------------------------------------------------------
    # Exchange steps
    # ------------------------------------------------------------------

    def _exchange_step(
        self,
        operators: list[PhysicalOperator],
        index: int,
        end: int,
        records: list[DataRecord],
    ):
        segment = self._segment_at[index]
        tracer = self.ctx.llm.tracer
        label = " | ".join(op.label() for op in operators[index:end])
        with tracer.span(
            f"exchange[{label}]", kind="exchange",
            strategy=segment.strategy, shards=self.plan.n_shards,
            partitioner=self.plan.partitioner,
        ) as segment_span:
            if segment.kind == "scatter":
                out = self._run_scatter(segment, operators, records, segment_span)
            elif segment.kind == "shuffle":
                out = self._run_shuffle(
                    segment, operators[index], records, segment_span
                )
            else:
                out = self._run_broadcast(
                    segment, operators[index], records, segment_span
                )
            merged, segment_stats, truncated = out
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
    # Scatter segments (with optional merge finisher)
    # ------------------------------------------------------------------

    def _run_scatter(
        self,
        segment: ShardSegment,
        operators: list[PhysicalOperator],
        records: list[DataRecord],
        segment_span,
    ):
        ctx = self.ctx
        llm = ctx.llm
        tracer = llm.tracer
        plan = self.plan
        n = plan.n_shards
        section = operators[segment.start : segment.end]
        stats = [OperatorStats.start(op, shards=n) for op in section]
        finisher = section[-1] if segment.finisher is not None else None

        items = list(enumerate(records))
        shards = partition_records(items, n, plan.partitioner)

        base_fingerprint = None
        if finisher is None and self.engine.capture is not None:
            base_fingerprint = section[-1].fingerprint

        out_by_pos: dict[int, list[DataRecord]] = {}
        topk_candidates: list[tuple] = []
        shard_seconds: list[float] = []
        cells: list[tuple] = []
        origin = llm.clock.elapsed
        truncated = False
        segment.replayed_shards = 0
        segment.delta_shards = 0

        for shard_index in range(n):
            seconds, truncated = self._run_one_shard(
                shard_index, shards[shard_index], section, finisher,
                stats, segment, out_by_pos, topk_candidates,
                base_fingerprint, cells,
            )
            shard_seconds.append(seconds)
            if truncated:
                break

        self._charge(shard_seconds)
        segment.shard_makespans = list(shard_seconds)
        segment.shard_rows = [len(shard) for shard in shards]
        segment.straggler_gap_s = (
            max(shard_seconds) - min(shard_seconds) if shard_seconds else 0.0
        )
        segment.moved_records = len(items)

        if tracer.enabled and not llm.sink_owns_time:
            for shard_index, stage, start_s, end_s, batch_no, n_records in cells:
                tracer.add_span(
                    f"{section[stage].label()} s{shard_index}b{batch_no}",
                    "cell",
                    origin + start_s,
                    origin + end_s,
                    track=f"shard {shard_index} stage {stage}",
                    parent=segment_span,
                    shard=shard_index, stage=stage,
                    batch=batch_no, records=n_records,
                )

        if segment.replayed_shards == n:
            for op_stats in stats:
                op_stats.reused = True
        if truncated:
            return [], stats, True

        merged = [
            record for position in sorted(out_by_pos)
            for record in out_by_pos[position]
        ]
        if isinstance(finisher, PhysLimit):
            merged = merged[: finisher.logical_op.n]
        elif isinstance(finisher, PhysSemTopK):
            # Global rerank of the per-shard partial top-k: position
            # reproduces the unsharded arrival order; the lineage uid
            # breaks (impossible-by-construction) residual ties.
            topk_candidates.sort(
                key=lambda item: (-item[0], -item[1], item[2], item[3])
            )
            merged = [
                record
                for _, _, _, _, record in topk_candidates[: finisher.logical_op.k]
            ]
        if finisher is not None:
            stats[-1].records_out = len(merged)
        return merged, stats, False

    def _run_one_shard(
        self,
        shard_index: int,
        items: list[tuple[int, DataRecord]],
        section: list[PhysicalOperator],
        finisher: PhysicalOperator | None,
        stats: list[OperatorStats],
        segment: ShardSegment,
        out_by_pos: dict[int, list[DataRecord]],
        topk_candidates: list[tuple],
        base_fingerprint: str | None,
        cells: list[tuple],
    ) -> tuple[float, bool]:
        """One simulated worker: its partition through the segment's stages.

        Returns (shard makespan, truncated).  Emitted records land in
        ``out_by_pos`` under their global positions; a top-k finisher's
        per-shard winners land in ``topk_candidates``.  When the segment
        boundary is fingerprintable, an exact per-shard store hit replays
        the whole shard for free, a delta hit runs only the shard's
        appended tail, and a fault-free run captures the shard's output.
        """
        ctx = self.ctx
        llm = ctx.llm
        engine = self.engine
        plan = self.plan
        capture = engine.capture
        input_uids = tuple(record.uid for _, record in items)

        live_items = items
        carried_cost = 0.0
        carried_time = 0.0
        fingerprint = None
        if base_fingerprint is not None:
            fingerprint = shard_fingerprint(
                base_fingerprint, plan.partitioner, plan.n_shards, shard_index
            )
            kind, entry = capture.store.match(
                fingerprint, input_uids, capture.content_version
            )
            if kind == "exact" and entry.emit_counts is not None:
                capture.store.note_hit(entry, "exact")
                self._place_replayed(items, entry, out_by_pos)
                segment.replayed_shards += 1
                return 0.0, False
            if kind == "delta" and entry.emit_counts is not None:
                base = len(entry.source_uids)
                capture.store.note_hit(
                    entry, "delta", delta_records=len(items) - base
                )
                self._place_replayed(items[:base], entry, out_by_pos)
                live_items = items[base:]
                carried_cost = entry.cost_usd
                carried_time = entry.time_s
                segment.delta_shards += 1

        schedule = PipelineSchedule()
        states = [op.new_state(ctx) for op in section]
        positions = [position for position, _ in live_items]
        rows = [record for _, record in live_items]
        position_of: dict[str, int] = {}
        # Under a serve sink a worker is one operator-at-a-time pass.
        batch_size = max(len(rows), 1) if llm.sink_owns_time else engine.batch_size
        batch_no = 0
        truncated = False
        # The shard's own spend, for its store entry (stage stats span shards).
        shard_total = OperatorStats(label=f"shard {shard_index}", model=None)

        with measured_step(ctx, shard_total, cell=False):
            for start in range(0, len(rows), batch_size):
                if truncated or any(
                    op.sated(state) for op, state in zip(section, states)
                ):
                    break
                batch = RecordBatch(
                    rows[start : start + batch_size],
                    positions[start : start + batch_size],
                )
                schedule.start_batch()
                batch_no += 1
                for stage, operator in enumerate(section):
                    if truncated or not len(batch):
                        break
                    n_records = len(batch)
                    if operator is finisher:
                        position_of.update(
                            (record.uid, position)
                            for position, record in zip(batch.positions, batch.records)
                        )
                    batch, seconds, truncated = engine.run_cell(
                        operator, batch, states[stage], stats[stage]
                    )
                    schedule.record(stage, seconds)
                    cells.append(
                        (shard_index, stage, *schedule.last_cell, batch_no, n_records)
                    )
                if not truncated:
                    for position, record in zip(batch.positions, batch.records):
                        out_by_pos.setdefault(position, []).append(record)

        if not truncated and isinstance(finisher, PhysSemTopK):
            entries = [
                (relevant, similarity, position_of[uid], uid, record)
                for uid, (relevant, similarity, _arrival, record)
                in states[-1]["scored"].items()
            ]
            entries.sort(key=lambda item: (-item[0], -item[1], item[2], item[3]))
            topk_candidates.extend(entries[: finisher.logical_op.k])

        if (
            not truncated
            and fingerprint is not None
            and not (
                ctx.failures or llm.tracker.failed_calls(engine.run_checkpoint)
            )
        ):
            emit_counts = tuple(
                len(out_by_pos.get(position, ())) for position, _ in items
            )
            shard_records = [
                record
                for position, _ in items
                for record in out_by_pos.get(position, ())
            ]
            capture.store.put(
                fingerprint,
                shard_records,
                source_uids=input_uids,
                source_id=capture.source_id,
                cost_usd=carried_cost + shard_total.cost_usd,
                time_s=carried_time + schedule.makespan,
                emit_counts=emit_counts,
                content_version=capture.content_version,
            )
        return schedule.makespan, truncated

    def _place_replayed(
        self,
        items: list[tuple[int, DataRecord]],
        entry,
        out_by_pos: dict[int, list[DataRecord]],
    ) -> None:
        """Re-place a shard entry's records at their global positions."""
        cursor = 0
        for (position, _), count in zip(items, entry.emit_counts):
            if count:
                out_by_pos.setdefault(position, []).extend(
                    entry.records[cursor : cursor + count]
                )
            cursor += count

    def _charge(self, shard_seconds: list[float]) -> None:
        """Advance time as if the shards had run on N parallel workers.

        Off serving, the clock moves by the slowest shard's makespan.
        Under a serving sink the busy shards' makespans are handed to
        ``end_step`` as one wave (its standalone makespan is the same
        max), so the shared clock is never advanced during body execution
        — the serving invariant the runtime asserts.
        """
        llm = self.ctx.llm
        busy = [seconds for seconds in shard_seconds if seconds > 0]
        if not busy:
            return
        if llm.sink_owns_time:
            llm.serve_sink.end_step(len(busy), busy)
        else:
            llm.clock.advance(max(shard_seconds))

    def _emit_phase_cells(
        self, name: str, stage: int, origin: float, seconds: list[float],
        rows: list[int], segment_span,
    ) -> None:
        """One cell span per busy shard of a shuffle/broadcast phase."""
        llm = self.ctx.llm
        if not llm.tracer.enabled or llm.sink_owns_time:
            return
        for shard_index, shard_seconds in enumerate(seconds):
            if shard_seconds > 0:
                llm.tracer.add_span(
                    f"{name} s{shard_index}", "cell",
                    origin, origin + shard_seconds,
                    track=f"shard {shard_index} stage {stage}",
                    parent=segment_span,
                    shard=shard_index, stage=stage,
                    records=rows[shard_index],
                )

    # ------------------------------------------------------------------
    # Shuffle segments (semantic group-by)
    # ------------------------------------------------------------------

    def _run_shuffle(
        self,
        segment: ShardSegment,
        operator,
        records: list[DataRecord],
        segment_span,
    ):
        ctx = self.ctx
        llm = ctx.llm
        plan = self.plan
        n = plan.n_shards
        stats = OperatorStats.start(operator, shards=n)
        items = list(enumerate(records))
        shards = partition_records(items, n, plan.partitioner)
        origin = llm.clock.elapsed

        # Phase A: classify shard-parallel (scatter by the partitioner).
        labeled: dict[int, tuple[str, DataRecord]] = {}
        classify_seconds: list[float] = []
        for shard_items in shards:
            stats.records_in += len(shard_items)
            with measured_step(ctx, stats) as step:
                with llm.parallel(ctx.wave_width()):
                    for position, record in shard_items:
                        label = operator.classify_label(record, ctx)
                        if label is not None:
                            labeled[position] = (label, record)
            classify_seconds.append(step.seconds)
            if step.truncated:
                break
        self._charge(classify_seconds)
        self._emit_phase_cells(
            "classify", 0, origin, classify_seconds,
            [len(shard) for shard in shards], segment_span,
        )
        if step.truncated:
            return [], [stats], True

        # Shuffle: repartition by group label to each label's owner shard.
        owners: list[dict[str, list[DataRecord]]] = [{} for _ in range(n)]
        for position in sorted(labeled):
            label, record = labeled[position]
            owners[key_shard(label, n)].setdefault(label, []).append(record)

        # Phase B: each owner shard builds its labels' group records.
        #: Members arrive sorted by global position, so membership — and
        #: therefore the lineage-deterministic group uid and the summary
        #: prompt — matches the unsharded grouping exactly.
        build_origin = llm.clock.elapsed
        build_seconds: list[float] = []
        built: dict[str, DataRecord] = {}
        for shard_labels in owners:
            with measured_step(ctx, stats) as step:
                for label in sorted(shard_labels):
                    built[label] = operator.build_group(
                        label, shard_labels[label], ctx
                    )
            build_seconds.append(step.seconds)
            if step.truncated:
                break
        self._charge(build_seconds)
        self._emit_phase_cells(
            "build", 1, build_origin, build_seconds,
            [len(shard_labels) for shard_labels in owners], segment_span,
        )

        build_seconds += [0.0] * (n - len(build_seconds))
        makespans = [a + b for a, b in zip(classify_seconds, build_seconds)]
        segment.shard_makespans = makespans
        segment.shard_rows = [len(shard) for shard in shards]
        segment.straggler_gap_s = max(makespans) - min(makespans)
        segment.moved_records = len(items) + len(labeled)
        segment.cost_alternative = n * len(items)

        if step.truncated:
            return [], [stats], True
        output = [
            built[group]
            for group in operator.logical_op.groups
            if group in built
        ]
        stats.records_out = len(output)
        return output, [stats], False

    # ------------------------------------------------------------------
    # Broadcast segments (semantic joins)
    # ------------------------------------------------------------------

    def _run_broadcast(
        self,
        segment: ShardSegment,
        operator,
        records: list[DataRecord],
        segment_span,
    ):
        ctx = self.ctx
        llm = ctx.llm
        plan = self.plan
        n = plan.n_shards
        stats = OperatorStats.start(operator, shards=n)
        stats.records_in = len(records)
        blocked = isinstance(operator, PhysSemJoinBlocked)

        # Coordinator side: run (and for the blocked join, embed) the right
        # subplan once; the result is broadcast to every shard by reference.
        with measured_step(ctx, stats, cell=False) as step:
            right_state = operator.prepare_right(ctx, have_left=bool(records))
        if step.truncated:
            return [], [stats], True
        right_count = len(right_state["right_records"])
        segment.moved_records = n * right_count
        segment.cost_alternative = len(records) + right_count

        if blocked and (not records or not right_count):
            return [], [stats], False

        items = list(enumerate(records))
        shards = partition_records(items, n, plan.partitioner)
        out_by_pos: dict[int, list[DataRecord]] = {}
        shard_seconds: list[float] = []
        origin = llm.clock.elapsed
        tag = f"{ctx.tag}:join"
        for shard_items in shards:
            with measured_step(ctx, stats) as step:
                vectors = None
                if blocked and ctx.embed_batch_size > 1 and shard_items:
                    vectors = _embed_texts(
                        [record.as_text() for _, record in shard_items],
                        ctx, tag,
                    )
                with llm.parallel(ctx.wave_width()):
                    for index, (position, left) in enumerate(shard_items):
                        probe = {} if vectors is None else {"left_vec": vectors[index]}
                        out_by_pos[position] = operator.join_left(
                            left, ctx, right_state, **probe
                        )
            shard_seconds.append(step.seconds)
            if step.truncated:
                break
        self._charge(shard_seconds)
        segment.shard_makespans = list(shard_seconds)
        segment.shard_rows = [len(shard) for shard in shards]
        segment.straggler_gap_s = max(shard_seconds) - min(shard_seconds)
        self._emit_phase_cells(
            "join", 0, origin, shard_seconds, segment.shard_rows, segment_span
        )

        if step.truncated:
            return [], [stats], True
        merged = [
            record
            for position in sorted(out_by_pos)
            for record in out_by_pos[position]
        ]
        stats.records_out = len(merged)
        return merged, [stats], False
