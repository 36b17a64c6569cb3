"""Plan cost estimation from sampled operator profiles.

Chains per-operator estimates: a filter shrinks the estimated cardinality
by its sampled selectivity; downstream operators are charged only for the
surviving records.  This is what makes filter reordering and pushdown
worthwhile — exactly the effect the paper credits for ``PZ compute``'s
savings over ``CodeAgent+``.

When the engine fuses streamable runs (always, unless a serve sink owns
time), the time estimate must predict the *critical-path makespan* of the
fused sections — not the per-operator sum — or plan choice regresses
toward plans that only look good operator-at-a-time.  ``estimate_chain``
therefore accepts the engine's ``parallelism`` and the resolved
``fused_batch_size``; with the defaults it is the sequential-sum estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.sem import logical as L
from repro.sem.optimizer.sampler import OperatorProfile

#: Logical operators whose physical implementations stream record batches
#: (mirrors ``PhysicalOperator.streamable``); adjacent runs of these fuse
#: into one pipelined section.
STREAMABLE_OPS = (
    L.SemFilterOp,
    L.SemMapOp,
    L.SemClassifyOp,
    L.SemTopKOp,
    L.PyFilterOp,
    L.PyMapOp,
    L.StructFilterOp,
    L.ProjectOp,
    L.LimitOp,
)


@dataclass(frozen=True)
class PlanEstimate:
    """Estimated totals for executing a (partial) plan."""

    cost_usd: float
    time_s: float
    cardinality: float

    def __add__(self, other: "PlanEstimate") -> "PlanEstimate":
        return PlanEstimate(
            self.cost_usd + other.cost_usd,
            self.time_s + other.time_s,
            other.cardinality,
        )


@dataclass
class OperatorEstimate:
    """What the plan believes about one bound operator (its EXPLAIN row).

    The binder sets one on every ``PhysicalOperator.estimate``; the
    re-planner replaces it when it re-costs a moved suffix.
    """

    #: Profile the estimate was computed from (None = static formula).
    profile: OperatorProfile | None = None
    #: Where ``profile`` came from: "prior" | "sampled" | "static".
    source: str = "static"
    #: Estimated output cardinality and spend of this operator.
    rows: float = 0.0
    cost_usd: float = 0.0
    #: Every candidate model profiled for this operator (sampling only).
    candidates: dict[str, OperatorProfile] = field(default_factory=dict)


def estimate_operator(
    op: L.LogicalOperator,
    cardinality: float,
    profile: OperatorProfile | None,
) -> PlanEstimate:
    """Estimate one operator given its input cardinality."""
    if isinstance(op, (L.PyFilterOp, L.StructFilterOp)):
        selectivity = profile.selectivity if profile else 0.5
        return PlanEstimate(0.0, 0.0, cardinality * selectivity)
    if isinstance(op, (L.PyMapOp, L.ProjectOp)):
        return PlanEstimate(0.0, 0.0, cardinality)
    if isinstance(op, L.LimitOp):
        return PlanEstimate(0.0, 0.0, min(cardinality, op.n))
    if isinstance(op, L.StructAggOp):
        # Token-free; a global aggregate collapses to one row, a grouped
        # one to at most the input's distinct keys (unknown — pass through).
        return PlanEstimate(0.0, 0.0, 1.0 if not op.group_by else cardinality)
    if isinstance(op, L.SqlScanOp):
        # Pushed sections are token-free by construction: chain the
        # embedded structured operators' estimates from the source size.
        size = op.source.cardinality() if op.source is not None else None
        pushed_cardinality = float(size) if size is not None else cardinality
        for pushed in op.pushed:
            pushed_cardinality = estimate_operator(
                pushed, pushed_cardinality, None
            ).cardinality
        return PlanEstimate(0.0, 0.0, pushed_cardinality)
    if isinstance(op, L.RetrieveOp):
        return PlanEstimate(0.0, 0.0, min(cardinality, op.k))
    if isinstance(op, L.SemFilterOp):
        cost_per = profile.cost_per_record if profile else 0.0
        latency_per = profile.latency_per_record if profile else 0.0
        selectivity = profile.selectivity if profile else 0.5
        return PlanEstimate(
            cardinality * cost_per, cardinality * latency_per, cardinality * selectivity
        )
    if isinstance(op, (L.SemMapOp, L.SemClassifyOp)):
        cost_per = profile.cost_per_record if profile else 0.0
        latency_per = profile.latency_per_record if profile else 0.0
        return PlanEstimate(cardinality * cost_per, cardinality * latency_per, cardinality)
    if isinstance(op, L.SemGroupByOp):
        cost_per = profile.cost_per_record if profile else 0.0
        latency_per = profile.latency_per_record if profile else 0.0
        return PlanEstimate(
            cardinality * cost_per,
            cardinality * latency_per,
            min(cardinality, float(len(op.groups))),
        )
    if isinstance(op, L.SemTopKOp):
        return PlanEstimate(0.0, 0.0, min(cardinality, op.k))
    if isinstance(op, L.SemAggOp):
        cost_per = profile.cost_per_record if profile else 0.0
        latency_per = profile.latency_per_record if profile else 0.0
        return PlanEstimate(cost_per, latency_per, 1.0)
    if isinstance(op, L.ScanOp):
        size = op.source.cardinality() if op.source is not None else None
        return PlanEstimate(0.0, 0.0, float(size) if size is not None else cardinality)
    # Joins and unknown operators: pass cardinality through unpriced.
    return PlanEstimate(0.0, 0.0, cardinality)


def estimate_chain_steps(
    chain: list[L.LogicalOperator],
    profiles: dict[int, OperatorProfile],
    input_cardinality: float | None = None,
    parallelism: int = 1,
    fused_batch_size: int | None = None,
) -> tuple[PlanEstimate, list[PlanEstimate]]:
    """Like :func:`estimate_chain` but also returns the per-operator steps.

    ``steps[i].cardinality`` is the estimated *output* cardinality of
    ``chain[i]`` — what EXPLAIN's drift column and the mid-query
    re-planner compare against observed row counts.
    ``fused_batch_size`` is the engine's resolved records-per-batch when
    it fuses streamable runs, None when it runs operator steps.
    """
    cardinality = input_cardinality if input_cardinality is not None else 0.0
    total = PlanEstimate(0.0, 0.0, cardinality)
    steps: list[PlanEstimate] = []
    for position, op in enumerate(chain):
        step = estimate_operator(op, total.cardinality, profiles.get(position))
        if parallelism > 1:
            step = PlanEstimate(step.cost_usd, step.time_s / parallelism, step.cardinality)
        steps.append(step)
        total = total + step
    if fused_batch_size is None:
        return total, steps

    time_s = 0.0
    index = 0
    while index < len(chain):
        if not isinstance(chain[index], STREAMABLE_OPS):
            time_s += steps[index].time_s
            index += 1
            continue
        end = index
        while end < len(chain) and isinstance(chain[end], STREAMABLE_OPS):
            end += 1
        section = steps[index:end]
        section_input = steps[index - 1].cardinality if index > 0 else cardinality
        n_batches = max(1, math.ceil(section_input / fused_batch_size))
        stage_times = [step.time_s for step in section]
        if len(section) < 2:
            time_s += sum(stage_times)
        else:
            fill = sum(stage_times) / n_batches
            bottleneck = max(stage_times) / n_batches
            time_s += fill + (n_batches - 1) * bottleneck
        index = end
    return PlanEstimate(total.cost_usd, time_s, total.cardinality), steps


def estimate_chain(
    chain: list[L.LogicalOperator],
    profiles: dict[int, OperatorProfile],
    input_cardinality: float | None = None,
    parallelism: int = 1,
    fused_batch_size: int | None = None,
) -> PlanEstimate:
    """Estimate a leaves-first operator chain.

    ``profiles`` maps chain positions to the profile of the model *chosen*
    for that operator.  Cost and cardinality are mode-independent;
    ``parallelism`` divides per-operator latency into wave time, and a
    ``fused_batch_size`` replaces the per-operator time sum of each fused
    streamable section with its pipelined makespan:
    ``fill + (B - 1) * bottleneck`` for ``B`` batches — the first batch
    crosses every stage, then the slowest stage paces the rest.
    """
    total, _ = estimate_chain_steps(
        chain,
        profiles,
        input_cardinality=input_cardinality,
        parallelism=parallelism,
        fused_batch_size=fused_batch_size,
    )
    return total


def profile_from_prior(prior) -> OperatorProfile:
    """Adapt a learned :class:`~repro.obs.stats.OperatorPrior` to the
    :class:`OperatorProfile` shape the estimators consume.

    Duck-typed on purpose: the obs layer must not import sem, and the
    cost model only needs the prior's selectivity/cost/latency surface.
    Agreement is pinned to 1.0 — priors describe the model the plan
    already chose, not a candidate being auditioned.
    """
    return OperatorProfile(
        model=prior.model or "prior",
        agreement=1.0,
        selectivity=prior.selectivity,
        cost_per_record=prior.cost_per_record,
        latency_per_record=prior.latency_per_record,
        sample_size=max(1, round(prior.rows_in)),
    )


def filter_rank(profile: OperatorProfile) -> float:
    """Ordering key for commuting filters: cheap, selective filters first.

    Classic predicate ordering: rank = cost / (1 - selectivity).  A free
    filter ranks first regardless of selectivity; a filter that drops
    nothing ranks last regardless of cost.
    """
    reduction = max(1e-6, 1.0 - profile.selectivity)
    return profile.cost_per_record / reduction
