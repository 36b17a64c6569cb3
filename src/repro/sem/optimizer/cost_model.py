"""Plan cost estimation: one belief per operator, one pricing loop.

What the plan believes about an operator is three per-record numbers —
selectivity, cost, latency — and where they came from.  :func:`believe`
is the only rule that resolves them (a learned prior, else what the
operator already carries from sampling, else the static formula) and
:func:`estimate_chain_steps` the only loop that prices a chain with them;
the optimizer's binder and the mid-query re-planner are the only callers
of both, and EXPLAIN reads the record they leave on each operator.

The loop chains per-operator estimates — each operator class declares its
own rule (``charges`` and ``rows_out`` in :mod:`repro.sem.logical`): a
filter shrinks the estimated cardinality by its selectivity; downstream
operators are charged only for the surviving records.  This is what makes
filter reordering and pushdown worthwhile — exactly the effect the paper
credits for ``PZ compute``'s savings over ``CodeAgent+``.

The engine always fuses streamable runs, so the time estimate must
predict the *critical-path makespan* of the fused sections — not the
per-operator sum — or plan choice regresses toward plans that only look
good operator-at-a-time.  ``estimate_chain_steps`` therefore accepts the
engine's ``parallelism`` and resolved ``batch_size``; with the defaults it
is the sequential-sum estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.sem import logical as L

if TYPE_CHECKING:
    from repro.obs.stats import StatisticsStore
    from repro.sem.optimizer.sampler import OperatorProfile
    from repro.sem.physical import PhysicalOperator


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
    re-planner replaces it when it re-costs a moved suffix.  The defaults
    are the static formula: a filter nothing is known about keeps half its
    input, and no spend is predicted.
    """

    #: Emitted records per input record (read for filters only).
    selectivity: float = L.STATIC_SELECTIVITY
    cost_per_record: float = 0.0
    latency_per_record: float = 0.0
    #: Where the three numbers came from: "prior" | "sampled" | "static".
    source: str = "static"
    #: Estimated output cardinality and spend of this operator.
    rows: float = 0.0
    cost_usd: float = 0.0
    #: Every candidate model profiled for this operator (sampling only).
    candidates: "dict[str | None, OperatorProfile]" = field(default_factory=dict)


def believe(
    operator: "PhysicalOperator", store: "StatisticsStore | None"
) -> OperatorEstimate:
    """What to believe about ``operator`` now — the one precedence rule.

    A learned prior beats what the operator already carries (its sampled
    profile, or an earlier belief) beats the static formula, so an
    estimate is static only when nothing was sampled and the store holds
    no evidence for the operator.  The prior is *snapshotted*: the store
    keeps blending observations into the live object, and EXPLAIN ANALYZE
    reads the estimate after ingestion.
    """
    carried = operator.estimate
    entry = operator.stats_entry
    if store is not None and entry is not None:
        prior = store.prior(entry["key"])
        if prior is not None:
            return OperatorEstimate(
                prior.selectivity,
                prior.cost_per_record,
                prior.latency_per_record,
                "prior",
                candidates=carried.candidates if carried is not None else {},
            )
    return carried if carried is not None else OperatorEstimate()


def estimate_chain_steps(
    operators: "list[PhysicalOperator]",
    beliefs: list[OperatorEstimate],
    input_cardinality: float | None = None,
    parallelism: int = 1,
    batch_size: int | None = None,
) -> tuple[PlanEstimate, list[PlanEstimate]]:
    """Price a leaves-first chain of bound operators under ``beliefs``.

    ``beliefs[i]`` is what to believe about ``operators[i]`` — passed
    beside the operators, not read off them, so a caller can price a
    hypothetical (the re-planner's candidate order) without touching the
    plan.  Returns the plan total and the per-operator steps:
    ``steps[i].cardinality`` is the estimated *output*
    cardinality of ``operators[i]`` — what EXPLAIN's drift column and the
    mid-query re-planner compare against observed row counts.

    Cost and cardinality are mode-independent; ``parallelism`` divides
    per-operator latency into wave time, and ``batch_size`` — the engine's
    resolved records per fused batch, None for the operator-at-a-time
    sum — replaces the per-operator time sum
    of each fused streamable section with its pipelined makespan:
    ``fill + (B - 1) * bottleneck`` for ``B`` batches — the first batch
    crosses every stage, then the slowest stage paces the rest.
    """
    cardinality = input_cardinality if input_cardinality is not None else 0.0
    total = PlanEstimate(0.0, 0.0, cardinality)
    steps: list[PlanEstimate] = []
    for operator, belief in zip(operators, beliefs):
        # The class declares the rule (charges, rows out); the belief
        # supplies the numbers; parallelism divides latency into wave time.
        op = operator.logical_op
        charged = op.charged(total.cardinality)
        step = PlanEstimate(
            charged * belief.cost_per_record,
            charged * belief.latency_per_record / parallelism,
            op.rows_out(total.cardinality, belief.selectivity),
        )
        steps.append(step)
        total = total + step
    if batch_size is None:
        return total, steps

    time_s = 0.0
    index = 0
    while index < len(operators):
        if not operators[index].streamable:
            time_s += steps[index].time_s
            index += 1
            continue
        end = index
        while end < len(operators) and operators[end].streamable:
            end += 1
        section = steps[index:end]
        section_input = steps[index - 1].cardinality if index > 0 else cardinality
        n_batches = max(1, math.ceil(section_input / batch_size))
        stage_times = [step.time_s for step in section]
        if len(section) < 2:
            time_s += sum(stage_times)
        else:
            fill = sum(stage_times) / n_batches
            bottleneck = max(stage_times) / n_batches
            time_s += fill + (n_batches - 1) * bottleneck
        index = end
    return PlanEstimate(total.cost_usd, time_s, total.cardinality), steps


def filter_rank(belief: "OperatorEstimate | OperatorProfile") -> float:
    """Ordering key for commuting filters: cheap, selective filters first.

    Classic predicate ordering: rank = cost / (1 - selectivity).  A free
    filter ranks first regardless of selectivity; a filter that drops
    nothing ranks last regardless of cost.
    """
    reduction = max(1e-6, 1.0 - belief.selectivity)
    return belief.cost_per_record / reduction
