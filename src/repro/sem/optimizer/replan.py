"""Statistics keys and the adaptive mid-query re-planner.

Two halves, one feedback loop:

- **Keys.** :func:`stats_key` names the unit the
  :class:`~repro.obs.stats.StatisticsStore` learns over: a stable digest
  of (the operator's own canonical token — the one materialization
  fingerprints are built from — dataset, tenant scope, substrate seed), so
  semantically identical operators accumulate into one prior across
  queries.

- **Re-planning.** The :class:`Replanner` is armed by the optimizer and
  consulted by the engine at operator/section boundaries: when observed
  cardinality diverges from the plan estimate past
  :data:`REPLAN_THRESHOLD`, it re-costs the remaining suffix under what
  :func:`~repro.sem.optimizer.cost_model.believe` now believes and —
  only on a strict estimated-cost improvement — *permutes the bound
  suffix in place*: the only rewrite that is bit-identity safe mid-flight
  is reordering commuting filters (records are unchanged), and their
  physical operators are position-independent, so nothing is re-bound.
  Every plan fact (model, statistics entry) rides on the operator and
  moves with it; estimates and boundary fingerprints are reassigned in
  one pass.  Every accepted decision is recorded on the report and
  emitted as a zero-duration ``replan`` span carrying the trigger cause
  and before/after plan fingerprints.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from repro.sem import logical as L
from repro.sem.materialize import stamp_fingerprints
from repro.sem.optimizer.cost_model import (
    believe,
    estimate_chain_steps,
    filter_rank,
)
from repro.sem.optimizer.rules import filter_order
from repro.utils.hashing import stable_digest

if TYPE_CHECKING:
    from repro.sem import physical as P
    from repro.sem.config import QueryProcessorConfig
    from repro.sem.optimizer.optimizer import OptimizationReport

#: Bump when the key grammar changes (stale persisted priors must miss).
STATS_KEY_VERSION = 1

#: Divergence ratio (max of observed/estimated and its inverse) that
#: triggers a replan consideration.
REPLAN_THRESHOLD = 1.5

#: Minimum observed rows at a boundary before replanning — tiny
#: cardinalities make ratios noisy and savings negligible.
REPLAN_MIN_ROWS = 4

#: Maximum replans per query (0 = unlimited).
REPLAN_LIMIT = 1


def stats_key(
    op: L.LogicalOperator,
    model: "str | None",
    dataset: str,
    scope: str,
    llm_seed: int,
) -> "str | None":
    """Digest naming the prior for ``op`` on ``dataset`` (None = unkeyable).

    ``scope`` isolates tenants on a shared store; ``llm_seed`` keeps
    priors honest across simulated worlds (different seeds are different
    populations).
    """
    token = op.token(model)
    if token is None or not dataset:
        return None
    return stable_digest(
        "stats-key", STATS_KEY_VERSION, llm_seed, scope, dataset, token
    )


def plan_fingerprint(
    chain: "list[L.LogicalOperator]", models: "list[str | None]"
) -> str:
    """Short digest identifying a bound plan (order + models)."""
    return stable_digest(
        "plan-fp", tuple((op.label(), model) for op, model in zip(chain, models))
    )


class Replanner:
    """Mid-query suffix re-optimizer, consulted at execution boundaries."""

    def __init__(
        self, config: "QueryProcessorConfig", report: "OptimizationReport"
    ) -> None:
        self.config = config
        self.report = report
        self.replans_used = 0
        self.threshold = REPLAN_THRESHOLD
        self.min_rows = REPLAN_MIN_ROWS
        self.limit = REPLAN_LIMIT

    def consider(
        self,
        boundary: int,
        observed_rows: int,
        operators: "list[P.PhysicalOperator]",
    ) -> bool:
        """Maybe re-plan ``operators[boundary:]``, in place.

        ``observed_rows`` is the record count flowing across the boundary;
        ``operators`` the bound list the engine is running (the report's
        ``bound``).  Returns whether the suffix was reordered.
        """
        config = self.config
        if self.limit and self.replans_used >= self.limit:
            return False
        if observed_rows < self.min_rows:
            return False
        if boundary <= 0 or boundary >= len(operators):
            return False

        est = operators[boundary - 1].estimate.rows
        divergence = max(
            (observed_rows + 1e-9) / (est + 1e-9),
            (est + 1e-9) / (observed_rows + 1e-9),
        )
        if divergence < self.threshold:
            return False
        metrics = config.llm.metrics
        if metrics.enabled:
            metrics.counter("replan.triggers").inc()

        suffix = operators[boundary:]
        chain = [op.logical_op for op in suffix]
        # What do we now believe about the suffix?  Learned priors beat
        # plan-time profiles; operators with neither stay unknown.
        beliefs = [believe(op, config.stats_store) for op in suffix]
        if not any(
            belief.source == "prior" and op.commuting
            for belief, op in zip(beliefs, chain)
        ):
            # Nothing learned about any movable filter — a reorder would
            # be driven by the same estimates the plan already used.
            return False

        def rank(offset: int, _op: L.LogicalOperator) -> float:
            belief = beliefs[offset]
            return filter_rank(belief) if belief.source != "static" else float("inf")

        written = list(range(len(suffix)))
        order = filter_order(chain, rank)
        if order == written:
            return False

        def estimate(offsets: list[int]):
            return estimate_chain_steps(
                [suffix[offset] for offset in offsets],
                [beliefs[offset] for offset in offsets],
                input_cardinality=float(observed_rows),
                parallelism=config.parallelism,
                fused_batch_size=config.fused_batch_size(),
            )

        old_total, _ = estimate(written)
        new_total, new_steps = estimate(order)
        improves_cost = new_total.cost_usd < old_total.cost_usd - 1e-12
        ties_cost = abs(new_total.cost_usd - old_total.cost_usd) <= 1e-12
        improves_time = new_total.time_s < old_total.time_s - 1e-12
        if not (improves_cost or (ties_cost and improves_time)):
            return False

        # Accept: permute the suffix and re-estimate it, so EXPLAIN,
        # ingestion, capture and any later boundary see the new plan.
        before_fp = _bound_fingerprint(operators)
        for position, (offset, step) in enumerate(zip(order, new_steps), boundary):
            op = suffix[offset]
            op.estimate = replace(
                beliefs[offset], rows=step.cardinality, cost_usd=step.cost_usd
            )
            operators[position] = op
        if self.report.capture is not None:
            stamp_fingerprints(operators, config.llm.seed, config.scope)

        decision = {
            "boundary": boundary,
            "cause": (
                f"cardinality divergence {divergence:.2f}x after "
                f"{operators[boundary - 1].logical_op.label()} "
                f"(est {est:.1f}, observed {observed_rows})"
            ),
            "divergence": round(divergence, 4),
            "est_rows": round(est, 2),
            "observed_rows": observed_rows,
            "before_plan": before_fp,
            "after_plan": _bound_fingerprint(operators),
            "before_order": [op.label() for op in chain],
            "after_order": [chain[offset].label() for offset in order],
            "est_cost_before_usd": round(old_total.cost_usd, 6),
            "est_cost_after_usd": round(new_total.cost_usd, 6),
        }
        self.report.replans.append(decision)
        self.replans_used += 1
        tracer = config.llm.tracer
        if tracer.enabled:
            with tracer.span("replan", kind="replan", **decision):
                pass
        if metrics.enabled:
            metrics.counter("replan.reorders").inc()
        return True


def _bound_fingerprint(operators: "list[P.PhysicalOperator]") -> str:
    return plan_fingerprint(
        [op.logical_op for op in operators], [op.model for op in operators]
    )
