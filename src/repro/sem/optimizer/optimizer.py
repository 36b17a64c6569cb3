"""The plan optimizer: rewrites + sampling + model selection + binding.

For linear plans the optimizer:

1. materializes the scan's records and draws a profiling sample;
2. profiles every semantic operator across candidate models with the
   successive-halving :class:`~repro.sem.optimizer.sampler.Sampler`,
   which auditions a model by running the operator *as bound under that
   model* on the sample;
3. lets the configured policy choose each operator's physical model;
4. reorders commuting filters by cost/selectivity rank and pushes free
   Python filters first;
5. binds logical operators to physical operators and hangs every
   per-position plan fact on them — statistics-key entry, estimate record,
   boundary fingerprint — so the bound list is the plan's only
   position-indexed table and a splice or reorder moves the facts along;
6. swaps the longest fingerprint-matched prefix for a materialized replay
   — the one whole-boundary replay decision, at every shard count (the
   sharding pass runs after it, over the spliced list).

Plans containing joins are bound without sampling (the champion model runs
every semantic operator) — mirroring the prototype status of join
optimization in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import OptimizationError
from repro.sem import logical as L
from repro.sem import physical as P

if TYPE_CHECKING:
    from repro.sem.config import QueryProcessorConfig
from repro.sem.materialize import (
    CapturePlan,
    delta_since,
    incremental_safe_prefix,
    stamp_fingerprints,
)
from repro.sem.optimizer.cost_model import (
    OperatorEstimate,
    PlanEstimate,
    believe,
    estimate_chain_steps,
    filter_rank,
)
from repro.sem.optimizer.pushdown import push_structured_prefix
from repro.sem.optimizer.replan import Replanner, stats_key
from repro.sem.optimizer.rules import (
    merge_adjacent_limits,
    prune_noop_projects,
    push_py_filters,
    reorder_filters,
)
from repro.sem.optimizer.sampler import OperatorProfile, Sampler
from repro.utils.seeding import SeededRng


@dataclass
class OptimizationReport:
    """What the optimizer decided and what deciding cost."""

    optimized: bool
    sampling_cost_usd: float = 0.0
    sampling_time_s: float = 0.0
    estimate: PlanEstimate | None = None
    note: str = ""
    #: Sub-plan reuse decision (0 = no materialized prefix was reused).
    reused_prefix: int = 0
    reuse_kind: str = ""
    reuse_fingerprint: str = ""
    reuse_delta_records: int = 0
    #: Estimated spend avoided by replaying instead of recomputing.
    reuse_saved_est_usd: float = 0.0
    #: Store-wide hit count after this decision (exact + delta).
    reuse_store_hits: int = 0
    #: Engine-side capture instructions (None = no store configured).
    capture: "CapturePlan | None" = field(default=None, repr=False)
    #: Structured operators compiled into the SqlScan leaf (0 = no pushdown).
    pushdown_ops: int = 0
    #: Display-form SELECT the pushed prefix compiles to.
    pushdown_sql: str = ""
    #: The bound physical operators (leaves first) — the very list the
    #: engine runs, so a mid-query replan's permutation shows up here.  Each
    #: carries its own model, statistics entry, estimate and fingerprint.
    bound: list = field(default_factory=list, repr=False)
    #: Accepted mid-query replan decisions (cause, before/after plans).
    replans: list = field(default_factory=list)
    #: Armed re-planner the engine consults at boundaries (None = off).
    replanner: "Replanner | None" = field(default=None, repr=False)
    #: Exchange segmentation for scale-out execution (None = shards=1,
    #: the unsharded engine path).  The executor updates the segments'
    #: runtime diagnostics in place, so EXPLAIN footers see them.
    shard_plan: object | None = field(default=None, repr=False)

    @property
    def planned(self) -> list:
        """``bound`` with a replay expanded into the prefix it stands in for."""
        return [
            planned
            for op in self.bound
            for planned in getattr(op, "prefix", None) or [op]
        ]

    @property
    def profiles(self) -> dict[str, dict[str, OperatorProfile]]:
        """Label-keyed view of every profiled operator's candidates.

        A convenience for reports and tests: labels truncate instructions,
        so operators that collide share one entry — per-operator readers
        use ``bound[i].estimate``.
        """
        return {
            op.logical_op.label(): op.estimate.candidates
            for op in self.planned
            if op.estimate is not None and op.estimate.candidates
        }

    @property
    def chosen_models(self) -> dict[str, str]:
        """Label-keyed view of the model chosen per profiled operator."""
        return {
            op.logical_op.label(): op.model
            for op in self.planned
            if op.model and op.estimate is not None and op.estimate.candidates
        }


#: Why ``replan=True`` could not arm.  It lands in ``OptimizationReport.note``
#: and as an EXPLAIN ANALYZE ``NOTE:`` line, so the knob is honoured by
#: saying it cannot apply — never silently dropped.
REPLAN_DISABLED_NO_STATS = "replan disabled: no stats_store to re-plan from"


class Optimizer:
    """Optimizes and binds a logical plan under a configuration."""

    def __init__(self, config: "QueryProcessorConfig") -> None:
        from repro.sem.config import DEFAULT_FALLBACK_MODEL

        self.config = config
        #: The agreement reference, and what runs when nothing chose a model.
        self.champion = DEFAULT_FALLBACK_MODEL

    def optimize(self, plan: L.LogicalPlan) -> tuple[list[P.PhysicalOperator], OptimizationReport]:
        bound, report = self._optimize(plan)
        report.bound = bound
        shards = self.config.shards
        if shards > 1:
            # The sharding pass runs last, over the bound operators, so the
            # exchange segments line up with whatever rewrites, model
            # choices and replay splice were made above.  shards=1 never
            # reaches this — report.shard_plan stays None and the engine
            # path is untouched.
            from repro.sem.shard import plan_shards

            report.shard_plan = plan_shards(bound, shards, self.config.partitioner)
        return bound, report

    def _optimize(self, plan: L.LogicalPlan) -> tuple[list[P.PhysicalOperator], OptimizationReport]:
        L.validate_plan(plan)
        if not plan.is_linear():
            note = (
                "join plans are bound without sampling"
                if self.config.optimize
                else "optimization disabled"
            )
            return self._bind_spine(plan.root, {}), OptimizationReport(
                optimized=False, note=note
            )
        if not self.config.optimize:
            report = OptimizationReport(optimized=False, note="optimization disabled")
            chain = self._push_down(plan.operators(), report)
            return self._reuse_and_bind(chain, {}, report), report
        return self._optimize_linear(plan)

    @staticmethod
    def _push_down(
        chain: list[L.LogicalOperator], report: OptimizationReport
    ) -> list[L.LogicalOperator]:
        """Compile the structured prefix into a SqlScan leaf.

        Always runs, independently of cost-based optimization: pushdown is
        a semantics-preserving rewrite that only ever removes LLM calls.
        """
        chain, sql_scan = push_structured_prefix(chain)
        if sql_scan is not None:
            report.pushdown_ops = len(sql_scan.pushed)
            report.pushdown_sql = sql_scan.sql
        return chain

    # ------------------------------------------------------------------
    # Linear-plan optimization
    # ------------------------------------------------------------------

    def _optimize_linear(
        self, plan: L.LogicalPlan
    ) -> tuple[list[P.PhysicalOperator], OptimizationReport]:
        config = self.config
        chain = plan.operators()
        scans = [op for op in chain if isinstance(op, L.ScanOp)]
        if len(scans) != 1:
            raise OptimizationError(
                f"linear plan must have exactly one scan, found {len(scans)}"
            )
        source_records = list(scans[0].source.iterate())

        sampler = Sampler(SeededRng(config.seed))
        sample = sampler.sample_records(source_records, config.sample_size)
        candidates = config.candidate_models()
        # Sampled calls run the bound operator itself; a call lost to
        # faults must surface to the sampler, one record at a time.
        sampling_ctx = P.ExecutionContext(
            llm=config.llm,
            parallelism=1,
            tag=f"{config.tag}:optimize",
            on_failure="raise",
        )

        checkpoint = config.llm.tracker.checkpoint()
        time_before = config.llm.clock.elapsed

        tracer = config.llm.tracer
        profiles: dict[int, dict[str | None, OperatorProfile]] = {}
        chosen: dict[int, str] = {}
        with tracer.span(
            "optimize", kind="optimize", sample_size=len(sample)
        ) as optimize_span:
            for position, op in enumerate(chain):
                if op.profiled == "model":
                    champion = self.champion
                    # A pinned model is already decided and the sampler
                    # just measures its selectivity/cost: profiling other
                    # tiers only pays off if the policy may pick them.
                    decided = op.model
                    models = [decided] if decided else candidates
                elif op.profiled == "selectivity":
                    champion = decided = None
                    models = [None]
                else:
                    continue

                def bind(model: str | None) -> P.PhysicalOperator:
                    return self._bind_one(op, chain, position, {id(op): model})

                with tracer.span(f"profile:{op.label()}", kind="profile"):
                    profiles[id(op)] = sampler.profile(
                        bind, models, champion, sample, sampling_ctx
                    )
                if champion is not None:
                    chosen[id(op)] = decided or config.policy.choose_model(
                        profiles[id(op)], champion
                    )

        sampling_usage = config.llm.tracker.since(checkpoint)
        sampling_time = config.llm.clock.elapsed - time_before
        if tracer.enabled:
            optimize_span.attributes.update(
                sampling_cost_usd=round(sampling_usage.cost_usd, 6),
                sampling_time_s=sampling_time,
            )

        new_chain = push_py_filters(chain)
        if config.reorder_filters:

            def rank(_position: int, op: L.LogicalOperator) -> float:
                profile = profiles.get(id(op), {}).get(chosen.get(id(op)))
                return filter_rank(profile) if profile is not None else 0.0

            new_chain = reorder_filters(new_chain, rank)
        new_chain = prune_noop_projects(new_chain)
        new_chain = merge_adjacent_limits(new_chain)

        report = OptimizationReport(
            optimized=True,
            sampling_cost_usd=sampling_usage.cost_usd,
            sampling_time_s=sampling_time,
        )
        new_chain = self._push_down(new_chain, report)
        return self._reuse_and_bind(
            new_chain, chosen, report, source_records, profiles
        ), report

    # ------------------------------------------------------------------
    # Plan facts, sub-plan reuse (materialization), re-plan arming
    # ------------------------------------------------------------------

    def _reuse_and_bind(
        self,
        chain: list[L.LogicalOperator],
        chosen: dict[int, str],
        report: OptimizationReport,
        source_records: list | None = None,
        profiles: dict[int, dict[str, OperatorProfile]] | None = None,
    ) -> list[P.PhysicalOperator]:
        """Bind ``chain``, annotate it, and swap a matched prefix for a replay."""
        bound = self._bind_chain(chain, chosen)
        self._annotate(bound, report, source_records, profiles or {})
        self._splice_replay(bound, report, source_records)
        self._arm_replanner(report)
        return bound

    def _annotate(
        self,
        bound: list[P.PhysicalOperator],
        report: OptimizationReport,
        source_records: list | None,
        profiles: dict[int, dict[str, OperatorProfile]],
    ) -> None:
        """Hang the statistics entry and estimate record on each operator.

        The entry is what ingestion and :func:`believe` key priors with;
        the estimate is what ``believe`` makes of the chosen model's
        sampled profile, plus the operator's estimated cardinality/cost;
        the plan total lands on the report.  With a cold store and sampled
        ``profiles`` this reproduces the historical plan estimate exactly.
        """
        config = self.config
        store = config.stats_store
        if store is not None:
            store.metrics = config.llm.metrics if config.llm.metrics.enabled else None
        scope = config.scope
        chain = [op.logical_op for op in bound]
        leaf = chain[0]
        has_source = getattr(leaf, "source", None) is not None
        dataset = leaf.source.source_id if has_source else ""
        for op in bound:
            key = stats_key(op.logical_op, op.model, dataset, scope, config.llm.seed)
            if key is not None:
                op.stats_entry = {
                    "key": key,
                    "kind": type(op.logical_op).__name__,
                    "model": op.model or "",
                    "dataset": dataset,
                    "scope": scope,
                }
            candidates = profiles.get(id(op.logical_op), {})
            profile = candidates.get(op.model)
            if profile is not None:
                op.estimate = OperatorEstimate(
                    profile.selectivity,
                    profile.cost_per_record,
                    profile.latency_per_record,
                    "sampled",
                    candidates=candidates,
                )
            op.estimate = believe(op, store)

        input_cardinality = (
            float(len(source_records)) if source_records is not None else None
        )
        if input_cardinality is None and has_source:
            size = leaf.source.cardinality()
            input_cardinality = float(size) if size is not None else None
        report.estimate, steps = estimate_chain_steps(
            bound,
            [op.estimate for op in bound],
            input_cardinality=input_cardinality,
            parallelism=config.parallelism,
            fused_batch_size=config.fused_batch_size(),
        )
        for op, step in zip(bound, steps):
            op.estimate.rows = step.cardinality
            op.estimate.cost_usd = step.cost_usd

    def _arm_replanner(self, report: OptimizationReport) -> None:
        """Attach a re-planner when config + store allow it, else say why not.

        Any plan can carry one: every fact moves with its operator, a replay
        carries the estimate of the prefix it stands for, and a commuting
        run never straddles an exchange segment.
        """
        config = self.config
        if not config.replan:
            return
        if config.stats_store is None:
            report.note = "; ".join(
                filter(None, [report.note, REPLAN_DISABLED_NO_STATS])
            )
            return
        report.replanner = Replanner(config, report)

    def _splice_replay(
        self,
        bound: list[P.PhysicalOperator],
        report: OptimizationReport,
        source_records: list | None,
    ) -> None:
        """Swap the longest fingerprint-matched prefix of ``bound`` for a replay.

        The one reuse decision, at every shard count and partitioner: no
        executor probes the store.  Stamps every operator with its
        boundary fingerprint and leaves a :class:`CapturePlan` on the
        report so the engine materializes this run's own boundaries, then
        probes the store longest-prefix first.  An exact hit replays for
        free; a delta hit also runs the records appended or rewritten since
        capture through the matched prefix, which can never cost more than
        recomputing (the delta is a subset of the source).  ``bound`` is
        edited in place — the sharding pass sees the spliced list — in one
        of the two shapes :class:`~repro.sem.physical.PhysMaterializedScan`
        documents: the compact replay leaf, or, for a delta that will be
        sharded, the prefix kept in the plan over the delta with the replay
        gathering behind it.  Either way the prefix's leaf scans exactly
        the delta.
        """
        config = self.config
        store = config.materialization_store
        leaf = bound[0].logical_op
        source = getattr(leaf, "source", None)
        if store is None or source is None:
            return
        store.metrics = config.llm.metrics if config.llm.metrics.enabled else None
        if source_records is None:
            source_records = list(source.iterate())
        source_uids = source.uids()
        source_id = source.source_id
        content_version = source.content_version
        stamp_fingerprints(bound, config.llm.seed, config.scope)
        capture = CapturePlan(
            store=store,
            source_id=source_id,
            source_uids=source_uids,
            content_version=content_version,
        )
        report.capture = capture

        safe = incremental_safe_prefix([op.logical_op for op in bound])
        for length in range(len(bound), 1, -1):
            fingerprint = bound[length - 1].fingerprint
            if fingerprint is None:
                continue
            kind, entry = store.match(
                fingerprint, source_uids, content_version, safe[length - 1]
            )
            if kind == "exact":
                delta, rewrites = [], None
                break
            if kind == "delta" and safe[length - 1]:
                changed = delta_since(entry, source, source_records)
                if changed is not None:
                    delta, rewrites = changed
                    break
        else:
            store.note_miss()
            return
        store.note_hit(entry, kind, delta_records=len(delta))

        materialized = L.MaterializedScanOp(
            child=None,
            source_id=source_id,
            fingerprint=fingerprint,
            base_records=len(entry.records),
            delta_records=len(delta),
        )
        replaced = bound[length - 1]
        if delta:
            bound[0].delta = delta
        if delta and config.shards > 1:
            # Expanded: the sharding pass scatters the delta like any other
            # input; the prefix's own boundaries now carry delta-only
            # records, so none may capture.
            replay = P.PhysMaterializedScan(materialized, entry=entry, rewrites=rewrites)
            replay.exchange = "gather"
            for operator in bound[:length]:
                operator.fingerprint = None
            bound.insert(length, replay)
        else:
            replay = P.PhysMaterializedScan(
                materialized, entry=entry, prefix=bound[:length], rewrites=rewrites
            )
            bound[:length] = [replay]
        # The replay boundary keeps the prefix's fingerprint and estimate: a
        # fault-free run re-puts the (possibly delta-merged) records, carrying
        # the entry's measured cost so the updated entry stays an honest
        # recompute estimate, and a re-planner compares what crosses it with
        # what the prefix was expected to emit.
        replay.fingerprint = fingerprint
        replay.estimate = replaced.estimate
        capture.carried_cost_usd = entry.cost_usd
        capture.carried_time_s = entry.time_s

        base_cardinality = max(1, len(entry.source_uids))
        recompute_est = entry.cost_usd * (len(source_records) / base_cardinality)
        reuse_est = entry.cost_usd * (len(delta) / base_cardinality)
        report.reused_prefix = length
        report.reuse_kind = kind
        report.reuse_fingerprint = fingerprint
        report.reuse_delta_records = len(delta)
        report.reuse_saved_est_usd = max(0.0, recompute_est - reuse_est)
        report.reuse_store_hits = store.hits
        tracer = config.llm.tracer
        if tracer.enabled:
            with tracer.span(
                "materialization-reuse",
                kind="reuse",
                fingerprint=fingerprint[:12],
                prefix=length,
                match=kind,
                delta_records=len(delta),
                saved_est_usd=round(report.reuse_saved_est_usd, 6),
            ):
                pass

    # ------------------------------------------------------------------
    # Binding
    # ------------------------------------------------------------------

    def _bind_chain(
        self, chain: list[L.LogicalOperator], chosen: dict[int, str]
    ) -> list[P.PhysicalOperator]:
        bound: list[P.PhysicalOperator] = []
        for position, op in enumerate(chain):
            bound.append(self._bind_one(op, chain, position, chosen))
        return bound

    def _bind_spine(
        self, root: L.LogicalOperator, chosen: dict[int, str]
    ) -> list[P.PhysicalOperator]:
        """Bind the left spine of a (possibly join-bearing) plan.

        Only ``child`` edges are followed; a join's right subtree is bound
        recursively *inside* its :class:`~repro.sem.physical.PhysSemJoin`,
        so the engine's linear walk never feeds left records into it.
        """
        spine: list[L.LogicalOperator] = []
        node: L.LogicalOperator | None = root
        while node is not None:
            spine.append(node)
            node = node.child
        spine.reverse()
        return self._bind_chain(spine, chosen)

    def _bind_one(
        self,
        op: L.LogicalOperator,
        chain: list[L.LogicalOperator],
        position: int,
        chosen: dict[int, str],
    ) -> P.PhysicalOperator:
        """Bind through :data:`~repro.sem.physical.IMPLEMENTATIONS`; the two
        constructors that take more than ``(op, model)`` stay explicit."""
        physical = P.implementation(op)
        model = None
        if hasattr(op, "model"):
            model = chosen.get(id(op)) or op.model or self.champion
        if physical is P.PhysSemJoin:
            if self.config.join_method == "blocked":
                physical = P.PhysSemJoinBlocked
            return physical(op, self._bind_spine(op.right, chosen), model)
        if physical is P.PhysRetrieve:
            source = None
            if position > 0 and isinstance(chain[position - 1], L.ScanOp):
                source = chain[position - 1].source
            return physical(op, source=source)
        return physical(op, model)
