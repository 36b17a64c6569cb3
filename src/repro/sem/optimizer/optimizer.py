"""The plan optimizer: rewrites + sampling + model selection + binding.

For linear plans the optimizer:

1. materializes the scan's records and draws a profiling sample;
2. profiles every semantic operator across candidate models with the
   successive-halving :class:`~repro.sem.optimizer.sampler.Sampler`;
3. lets the configured policy choose each operator's physical model;
4. reorders commuting filters by cost/selectivity rank and pushes free
   Python filters first;
5. binds logical operators to physical operators.

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
    incremental_safe_prefix,
    prefix_fingerprints,
)
from repro.sem.optimizer.cost_model import (
    PlanEstimate,
    estimate_chain_steps,
    filter_rank,
    profile_from_prior,
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

_PROFILED_OPS = (L.SemFilterOp, L.SemMapOp, L.SemClassifyOp, L.SemGroupByOp)


@dataclass
class OptimizationReport:
    """What the optimizer decided and what deciding cost."""

    optimized: bool
    chosen_models: dict[str, str] = field(default_factory=dict)
    final_order: list[str] = field(default_factory=list)
    sampling_cost_usd: float = 0.0
    sampling_time_s: float = 0.0
    profiles: dict[str, dict[str, OperatorProfile]] = field(default_factory=dict)
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
    #: The bound logical chain (leaves first) — kept aligned with the
    #: engine's physical operators, including across mid-query replans.
    final_chain: list = field(default_factory=list, repr=False)
    #: Resolved physical model per chain position (None for free ops).
    resolved_models: list = field(default_factory=list, repr=False)
    #: Statistics-key metadata per chain position (None = not keyable);
    #: what post-run ingestion and the re-planner look priors up with.
    stats_plan: list = field(default_factory=list, repr=False)
    #: Estimated output cardinality / cost per chain position.
    est_rows: list = field(default_factory=list)
    est_costs: list = field(default_factory=list)
    #: Where each position's estimate came from: "prior" | "sampled" | "static".
    est_sources: list = field(default_factory=list)
    #: The profile actually used per position (prior-derived or sampled).
    est_profiles: dict = field(default_factory=dict, repr=False)
    #: Accepted mid-query replan decisions (cause, before/after plans).
    replans: list = field(default_factory=list)
    #: Armed re-planner the engine consults at boundaries (None = off).
    replanner: "Replanner | None" = field(default=None, repr=False)
    #: Exchange segmentation for scale-out execution (None = shards=1,
    #: the unsharded engine path).  The executor updates the segments'
    #: runtime diagnostics in place, so EXPLAIN footers see them.
    shard_plan: object | None = field(default=None, repr=False)


#: ``OptimizationReport.note`` / EXPLAIN footer when ``replan=True`` meets
#: ``shards > 1`` (the knob is honoured by saying it cannot apply).
REPLAN_DISABLED_SHARDED = "replan disabled: sharded plans have no replan boundary"


class Optimizer:
    """Optimizes and binds a logical plan under a configuration."""

    def __init__(self, config: "QueryProcessorConfig") -> None:
        self.config = config

    def optimize(self, plan: L.LogicalPlan) -> tuple[list[P.PhysicalOperator], OptimizationReport]:
        bound, report = self._optimize(plan)
        shards = self.config.shards
        if shards > 1:
            # The sharding pass runs last, over the bound operators, so the
            # exchange segments line up with whatever rewrites and model
            # choices were made above.  shards=1 never reaches this —
            # report.shard_plan stays None and the engine path is untouched.
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
            chain = self._maybe_pushdown(plan.operators(), report)
            return self._reuse_and_bind(chain, {}, report), report
        return self._optimize_linear(plan)

    def _maybe_pushdown(
        self, chain: list[L.LogicalOperator], report: OptimizationReport
    ) -> list[L.LogicalOperator]:
        """Compile the structured prefix into a SqlScan when enabled.

        Runs independently of cost-based optimization: pushdown is a
        semantics-preserving rewrite gated only by ``config.pushdown``.
        """
        if not self.config.pushdown:
            return chain
        chain, sql_scan = push_structured_prefix(chain)
        if sql_scan is not None:
            report.pushdown_ops = len(sql_scan.pushed)
            report.pushdown_sql = sql_scan.sql
            report.final_order = [op.label() for op in chain]
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

        sampler = Sampler(config.llm, SeededRng(config.seed), tag=f"{config.tag}:optimize")
        sample = sampler.sample_records(source_records, config.sample_size)
        candidates = config.candidate_models()

        checkpoint = config.llm.tracker.checkpoint()
        time_before = config.llm.clock.elapsed

        def candidate_models(op: L.LogicalOperator) -> list[str]:
            # Profiling non-champion tiers only pays off if the policy may
            # pick them; with model selection off (or a pinned model) the
            # sampler just measures the champion's selectivity/cost.
            if getattr(op, "model", None) is not None:
                return [op.model]
            if not config.select_models:
                return [config.champion_model]
            return candidates

        tracer = config.llm.tracer
        profiles: dict[int, dict[str, OperatorProfile]] = {}
        with tracer.span(
            "optimize", kind="optimize", sample_size=len(sample)
        ) as optimize_span:
            for op in chain:
                if not isinstance(op, _PROFILED_OPS + (L.PyFilterOp, L.StructFilterOp)):
                    continue
                with tracer.span(f"profile:{op.label()}", kind="profile"):
                    if isinstance(op, L.SemFilterOp):
                        profiles[id(op)] = sampler.profile_filter(
                            op.instruction, sample, candidate_models(op),
                            config.champion_model,
                        )
                    elif isinstance(op, L.SemMapOp):
                        profiles[id(op)] = sampler.profile_map(
                            op.outputs, sample, candidate_models(op),
                            config.champion_model,
                        )
                    elif isinstance(op, L.SemClassifyOp):
                        profiles[id(op)] = sampler.profile_classify(
                            op.instruction, list(op.options), sample,
                            candidate_models(op), config.champion_model,
                        )
                    elif isinstance(op, L.SemGroupByOp):
                        profiles[id(op)] = sampler.profile_classify(
                            op.instruction, list(op.groups), sample,
                            candidate_models(op), config.champion_model,
                        )
                    elif isinstance(op, L.PyFilterOp):
                        profiles[id(op)] = {"python": _python_filter_profile(op, sample)}
                    elif isinstance(op, L.StructFilterOp):
                        profiles[id(op)] = {"sql": _struct_filter_profile(op, sample)}

        sampling_usage = config.llm.tracker.since(checkpoint)
        sampling_time = config.llm.clock.elapsed - time_before
        if tracer.enabled:
            optimize_span.attributes.update(
                sampling_cost_usd=round(sampling_usage.cost_usd, 6),
                sampling_time_s=sampling_time,
            )

        chosen: dict[int, str] = {}
        for op in chain:
            if not isinstance(op, _PROFILED_OPS):
                continue
            if op.model is not None:
                chosen[id(op)] = op.model
            elif config.select_models:
                chosen[id(op)] = config.policy.choose_model(
                    profiles[id(op)], config.champion_model
                )
            else:
                chosen[id(op)] = config.champion_model

        new_chain = push_py_filters(chain)
        if config.reorder_filters:
            new_chain = reorder_filters(
                new_chain, lambda _pos, op: self._rank(op, profiles, chosen)
            )
        new_chain = prune_noop_projects(new_chain)
        new_chain = merge_adjacent_limits(new_chain)
        sql_scan = None
        if config.pushdown:
            new_chain, sql_scan = push_structured_prefix(new_chain)

        chosen_profiles: dict[int, OperatorProfile] = {}
        for position, op in enumerate(new_chain):
            model = chosen.get(id(op))
            op_profiles = profiles.get(id(op), {})
            profile = op_profiles.get(model) if model else None
            if profile is None and op_profiles:
                profile = next(iter(op_profiles.values()))
            if profile is not None:
                chosen_profiles[position] = profile

        report = OptimizationReport(
            optimized=True,
            chosen_models={op.label(): chosen[id(op)] for op in chain if id(op) in chosen},
            final_order=[op.label() for op in new_chain],
            sampling_cost_usd=sampling_usage.cost_usd,
            sampling_time_s=sampling_time,
            profiles={
                op.label(): profiles[id(op)] for op in chain if id(op) in profiles
            },
            pushdown_ops=len(sql_scan.pushed) if sql_scan is not None else 0,
            pushdown_sql=sql_scan.sql if sql_scan is not None else "",
        )
        return self._reuse_and_bind(
            new_chain,
            chosen,
            report,
            source_records=source_records,
            chosen_profiles=chosen_profiles,
        ), report

    def _rank(
        self,
        op: L.LogicalOperator,
        profiles: dict[int, dict[str, OperatorProfile]],
        chosen: dict[int, str],
    ) -> float:
        op_profiles = profiles.get(id(op))
        if not op_profiles:
            return 0.0
        model = chosen.get(id(op))
        profile = op_profiles.get(model) if model else None
        if profile is None:
            profile = next(iter(op_profiles.values()))
        return filter_rank(profile)

    # ------------------------------------------------------------------
    # Sub-plan reuse (materialization)
    # ------------------------------------------------------------------

    def _annotate_stats(
        self,
        chain: list[L.LogicalOperator],
        chosen: dict[int, str],
        report: OptimizationReport,
        source_records: list | None,
        chosen_profiles: dict[int, OperatorProfile] | None,
    ) -> None:
        """Attach statistics keys and per-position estimates to the report.

        Builds the position-aligned ``stats_plan`` (what ingestion and the
        re-planner key priors with), resolves each position's estimate
        source — learned prior beats sampled profile beats static formula —
        and records per-operator estimated cardinality/cost plus the plan
        total.  With a cold store and ``chosen_profiles`` from sampling
        this reproduces the historical plan estimate exactly.
        """
        config = self.config
        store = config.stats_store
        models = [self._resolved_model(op, chosen) for op in chain]
        report.final_chain = list(chain)
        report.resolved_models = models
        scope = config.stats_scope
        llm_seed = config.llm.seed
        dataset = ""
        if isinstance(chain[0], (L.ScanOp, L.SqlScanOp)) and chain[0].source is not None:
            dataset = chain[0].source.source_id
        stats_plan: list = []
        for position, op in enumerate(chain):
            key = stats_key(op, models[position], dataset, scope, llm_seed)
            if key is None:
                stats_plan.append(None)
            else:
                stats_plan.append(
                    {
                        "key": key,
                        "kind": type(op).__name__,
                        "model": models[position] or "",
                        "dataset": dataset,
                        "scope": scope,
                        "label": op.label(),
                    }
                )
        report.stats_plan = stats_plan

        est_profiles: dict[int, OperatorProfile] = dict(chosen_profiles or {})
        est_sources = [
            "sampled" if position in est_profiles else "static"
            for position in range(len(chain))
        ]
        if store is not None:
            store.metrics = config.llm.metrics if config.llm.metrics.enabled else None
            if config.stats_estimates:
                for position, entry in enumerate(stats_plan):
                    if entry is None:
                        continue
                    prior = store.usable_prior(entry["key"])
                    if prior is not None:
                        est_profiles[position] = profile_from_prior(prior)
                        est_sources[position] = "prior"
        report.est_profiles = est_profiles
        report.est_sources = est_sources

        input_cardinality = (
            float(len(source_records)) if source_records is not None else None
        )
        if (
            input_cardinality is None
            and isinstance(chain[0], (L.ScanOp, L.SqlScanOp))
            and chain[0].source is not None
        ):
            size = chain[0].source.cardinality()
            input_cardinality = float(size) if size is not None else None
        total, steps = estimate_chain_steps(
            chain,
            est_profiles,
            input_cardinality=input_cardinality,
            parallelism=config.parallelism,
            pipeline=config.pipeline,
            batch_size=config.resolved_batch_size(),
        )
        report.est_rows = [step.cardinality for step in steps]
        report.est_costs = [step.cost_usd for step in steps]
        report.estimate = total

    def _arm_replanner(
        self, chosen: dict[int, str], report: OptimizationReport
    ) -> None:
        """Attach a re-planner when config + store allow it.

        Reuse-bearing plans are excluded: a replayed prefix breaks the
        position alignment between the logical chain and the physical
        operators the engine runs.
        """
        config = self.config
        if not config.replan or config.stats_store is None:
            return
        if not report.final_chain or report.reused_prefix:
            return
        if config.shards > 1:
            # A replanned suffix would desync the exchange segments from
            # the bound operators, so sharded plans stay on their plan —
            # and say so instead of silently ignoring the knob.
            report.note = "; ".join(filter(None, [report.note, REPLAN_DISABLED_SHARDED]))
            return
        report.replanner = Replanner(self, chosen, report)

    def _reuse_and_bind(
        self,
        chain: list[L.LogicalOperator],
        chosen: dict[int, str],
        report: OptimizationReport,
        source_records: list | None = None,
        chosen_profiles: dict[int, OperatorProfile] | None = None,
    ) -> list[P.PhysicalOperator]:
        """Bind ``chain``, swapping a fingerprint-matched prefix for a replay.

        Enumerates reuse-aware plans longest-prefix first and costs
        "replay prefix (+ run the appended delta through it) + run suffix"
        against full recompute using the store's measured per-entry spend;
        replay wins whenever its estimated cost is no higher.  Also leaves a
        :class:`CapturePlan` on the report so the engine materializes this
        run's own fingerprintable boundaries.
        """
        config = self.config
        self._annotate_stats(chain, chosen, report, source_records, chosen_profiles)
        bound = self._bind_chain(chain, chosen)
        store = config.materialization_store
        if store is None or not isinstance(chain[0], (L.ScanOp, L.SqlScanOp)):
            self._arm_replanner(chosen, report)
            return bound
        store.metrics = config.llm.metrics if config.llm.metrics.enabled else None
        if source_records is None:
            source_records = list(chain[0].source.iterate())
        source_uids = chain[0].source.uids()
        source_id = chain[0].source.source_id
        content_version = getattr(chain[0].source, "content_version", 0)
        models = [self._resolved_model(op, chosen) for op in chain]
        fingerprints = prefix_fingerprints(
            chain,
            models,
            config.llm.seed,
            scope=config.materialization_scope,
        )
        capture = CapturePlan(
            store=store,
            source_id=source_id,
            source_uids=source_uids,
            fingerprints=list(fingerprints),
            content_version=content_version,
        )
        report.capture = capture

        if config.shards > 1:
            # Reuse for sharded runs happens inside the sharded executor
            # (whole-boundary replay + per-shard exact/delta probes keyed by
            # shard fingerprints); splicing a PhysMaterializedScan here would
            # desync the exchange segments from the capture fingerprints.
            self._arm_replanner(chosen, report)
            return bound

        safe = incremental_safe_prefix(chain)
        reuse = None
        for length in range(len(chain), 1, -1):
            fingerprint = fingerprints[length - 1]
            if fingerprint is None:
                continue
            kind, entry = store.match(fingerprint, source_uids, content_version)
            if kind == "exact":
                reuse = (length, kind, entry, [])
                break
            if kind == "delta" and safe[length - 1]:
                delta = source_records[len(entry.source_uids):]
                reuse = (length, kind, entry, delta)
                break
        if reuse is None:
            store.note_miss()
            self._arm_replanner(chosen, report)
            return bound

        length, kind, entry, delta = reuse
        base_cardinality = max(1, len(entry.source_uids))
        recompute_est = entry.cost_usd * (len(source_records) / base_cardinality)
        reuse_est = entry.cost_usd * (len(delta) / base_cardinality)
        if reuse_est > recompute_est:
            store.note_miss()
            self._arm_replanner(chosen, report)
            return bound
        store.note_hit(entry, kind, delta_records=len(delta))

        fingerprint = fingerprints[length - 1]
        materialized = L.MaterializedScanOp(
            child=None,
            source_id=source_id,
            fingerprint=fingerprint,
            base_records=len(entry.records),
            delta_records=len(delta),
        )
        delta_ops: list[P.PhysicalOperator] = []
        if delta:
            if isinstance(chain[0], L.SqlScanOp):
                # Raw delta source records must pass through the pushed
                # structured prefix before the rest of the reused chain
                # (delta reuse is only offered when every pushed op is
                # incremental-safe, so these all bind to per-record ops).
                delta_ops.extend(
                    self._bind_one(op, chain, 0, chosen)
                    for op in chain[0].pushed
                )
            delta_ops.extend(
                self._bind_one(op, chain, position, chosen)
                for position, op in enumerate(chain[1:length], start=1)
            )
        replay = P.PhysMaterializedScan(
            materialized, entry=entry, delta_ops=delta_ops, delta_records=delta
        )
        # The replay boundary keeps the prefix fingerprint: a fault-free run
        # re-puts the (possibly delta-merged) records, carrying the entry's
        # measured cost so the updated entry stays an honest recompute
        # estimate.
        capture.fingerprints = [fingerprint] + fingerprints[length:]
        capture.carried_cost_usd = entry.cost_usd
        capture.carried_time_s = entry.time_s

        report.reused_prefix = length
        report.reuse_kind = kind
        report.reuse_fingerprint = fingerprint
        report.reuse_delta_records = len(delta)
        report.reuse_saved_est_usd = max(0.0, recompute_est - reuse_est)
        report.reuse_store_hits = store.hits
        report.final_order = [materialized.label()] + [
            op.label() for op in chain[length:]
        ]
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
        return [replay] + bound[length:]

    def _resolved_model(
        self, op: L.LogicalOperator, chosen: dict[int, str]
    ) -> str | None:
        """The model ``_bind_one`` would give ``op`` (None for free ops)."""
        if not isinstance(op, (
            L.SemFilterOp, L.SemMapOp, L.SemClassifyOp, L.SemGroupByOp,
            L.SemAggOp, L.SemTopKOp,
        )):
            return None
        return chosen.get(id(op)) or getattr(op, "model", None) or self.config.champion_model

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
        model = chosen.get(id(op)) or getattr(op, "model", None) or self.config.champion_model
        if isinstance(op, L.ScanOp):
            return P.PhysScan(op)
        if isinstance(op, L.RetrieveOp):
            source = None
            if position > 0 and isinstance(chain[position - 1], L.ScanOp):
                source = chain[position - 1].source
            return P.PhysRetrieve(op, source=source)
        if isinstance(op, L.SemFilterOp):
            return P.PhysSemFilter(op, model)
        if isinstance(op, L.SemMapOp):
            return P.PhysSemMap(op, model)
        if isinstance(op, L.SemClassifyOp):
            return P.PhysSemClassify(op, model)
        if isinstance(op, L.SemGroupByOp):
            return P.PhysSemGroupBy(op, model)
        if isinstance(op, L.SemJoinOp):
            right_ops = self._bind_spine(op.right, chosen)
            if self.config.join_method == "blocked":
                return P.PhysSemJoinBlocked(op, right_ops, model)
            return P.PhysSemJoin(op, right_ops, model)
        if isinstance(op, L.SemAggOp):
            return P.PhysSemAgg(op, model)
        if isinstance(op, L.SemTopKOp):
            return P.PhysSemTopK(op, model)
        if isinstance(op, L.PyFilterOp):
            return P.PhysPyFilter(op)
        if isinstance(op, L.PyMapOp):
            return P.PhysPyMap(op)
        if isinstance(op, L.StructFilterOp):
            return P.PhysStructFilter(op)
        if isinstance(op, L.StructAggOp):
            return P.PhysStructAgg(op)
        if isinstance(op, L.SqlScanOp):
            return P.PhysSqlScan(op)
        if isinstance(op, L.ProjectOp):
            return P.PhysProject(op)
        if isinstance(op, L.LimitOp):
            return P.PhysLimit(op)
        raise OptimizationError(f"no physical implementation for {op.label()}")


def _python_filter_profile(op: L.PyFilterOp, sample: list) -> OperatorProfile:
    """Selectivity of a free Python filter, measured by running it.

    Filters that crash on raw source records (they may read fields created
    upstream) fall back to the uninformative default of 0.5.
    """
    passed = 0
    seen = 0
    for record in sample:
        try:
            result = bool(op.fn(record))
        except Exception:
            continue
        seen += 1
        passed += int(result)
    selectivity = passed / seen if seen else 0.5
    return OperatorProfile(
        model="python",
        agreement=1.0,
        selectivity=selectivity,
        cost_per_record=0.0,
        latency_per_record=0.0,
        sample_size=seen,
    )


def _struct_filter_profile(op: L.StructFilterOp, sample: list) -> OperatorProfile:
    """Selectivity of a structured SQL filter, measured by evaluating it.

    Never crashes on raw source records: a referenced-but-missing field
    reads as NULL, which simply fails the predicate.
    """
    from repro.sem.structql import predicate_holds

    passed = sum(
        1 for record in sample if predicate_holds(op.condition, record.fields)
    )
    selectivity = passed / len(sample) if sample else 0.5
    return OperatorProfile(
        model="sql",
        agreement=1.0,
        selectivity=selectivity,
        cost_per_record=0.0,
        latency_per_record=0.0,
        sample_size=len(sample),
    )
