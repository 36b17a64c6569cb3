"""Statistics keys and the adaptive mid-query re-planner.

Two halves, one feedback loop:

- **Keys.** :func:`stats_key` names the unit the
  :class:`~repro.obs.stats.StatisticsStore` learns over: a stable digest
  of (operator token, resolved model, dataset, tenant scope, substrate
  seed).  The token grammar is :func:`~repro.sem.materialize.op_token`'s —
  the same normalization that makes materialization fingerprints stable
  makes statistics keys stable — so semantically identical operators
  accumulate into one prior across queries.

- **Re-planning.** The :class:`Replanner` is armed by the optimizer and
  consulted by the engine at operator/section boundaries: when observed
  cardinality diverges from the plan estimate past the configured
  threshold, it re-costs the remaining suffix under learned priors,
  reorders its commuting filters (the only rewrite that is bit-identity
  safe mid-flight: filters commute, so records are unchanged), and — only
  on a strict estimated-cost improvement — hands the engine freshly bound
  physical operators for the suffix.  Every accepted decision is recorded
  on the report and emitted as a zero-duration ``replan`` span carrying
  the trigger cause and before/after plan fingerprints.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sem import logical as L
from repro.sem.materialize import op_token, prefix_fingerprints
from repro.sem.optimizer.cost_model import (
    estimate_chain_steps,
    filter_rank,
    profile_from_prior,
)
from repro.sem.optimizer.rules import reorder_filters
from repro.utils.hashing import stable_digest

if TYPE_CHECKING:
    from repro.sem import physical as P
    from repro.sem.optimizer.optimizer import OptimizationReport, Optimizer

#: Bump when the key grammar changes (stale persisted priors must miss).
STATS_KEY_VERSION = 1

#: Filters that commute — the only operators the re-planner may move.
_COMMUTING = (L.SemFilterOp, L.PyFilterOp, L.StructFilterOp)


def stats_token(op: L.LogicalOperator, model: "str | None") -> "tuple | None":
    """Canonical statistics token for one operator (None = unkeyable).

    Same grammar as materialization's :func:`op_token`, plus a SqlScan
    case: a pushed-down leaf is keyed by its source and embedded operator
    tokens, so its learned selectivity survives re-optimization of the
    surrounding plan.
    """
    if isinstance(op, L.SqlScanOp):
        pushed = tuple(op_token(inner, None) for inner in op.pushed)
        if any(token is None for token in pushed):
            return None
        return ("sql_scan", op.source.source_id, pushed)
    return op_token(op, model)


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
    token = stats_token(op, model)
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
    """Mid-query suffix re-optimizer, consulted at execution boundaries.

    Holds the optimizer (for re-binding), the model choices, and the
    report whose ``final_chain`` / ``stats_plan`` / ``est_*`` views it
    keeps aligned with what the engine is actually running.
    """

    def __init__(
        self,
        optimizer: "Optimizer",
        chosen: "dict[int, str]",
        report: "OptimizationReport",
    ) -> None:
        self.optimizer = optimizer
        self.config = optimizer.config
        self.chosen = chosen
        self.report = report
        self.replans_used = 0

    def consider(
        self,
        boundary: int,
        observed_rows: int,
        operators: "list[P.PhysicalOperator]",
    ) -> "list[P.PhysicalOperator] | None":
        """Maybe re-plan the suffix past ``boundary``.

        ``observed_rows`` is the record count flowing across the boundary;
        ``operators`` the engine's current physical list (used only as an
        alignment check).  Returns freshly bound physical operators for
        the suffix, or None to keep the current plan.
        """
        config = self.config
        report = self.report
        if config.replan_limit and self.replans_used >= config.replan_limit:
            return None
        if observed_rows < config.replan_min_rows:
            return None
        chain = report.final_chain
        if not chain or len(chain) != len(operators):
            return None
        if boundary <= 0 or boundary >= len(chain):
            return None
        if len(report.est_rows) != len(chain):
            return None

        est = report.est_rows[boundary - 1]
        divergence = max(
            (observed_rows + 1e-9) / (est + 1e-9),
            (est + 1e-9) / (observed_rows + 1e-9),
        )
        if divergence < config.replan_threshold:
            return None
        metrics = config.llm.metrics
        if metrics.enabled:
            metrics.counter("replan.triggers").inc()

        store = config.stats_store
        suffix = chain[boundary:]
        models = report.resolved_models
        # What do we now believe about the suffix?  Learned priors beat
        # plan-time profiles; positions with neither stay unknown.
        knowledge: dict[int, object] = {}
        sources: dict[int, str] = {}
        filter_priors = 0
        for offset, op in enumerate(suffix):
            position = boundary + offset
            entry = (
                report.stats_plan[position]
                if position < len(report.stats_plan)
                else None
            )
            prior = store.usable_prior(entry["key"]) if entry else None
            if prior is not None:
                knowledge[offset] = profile_from_prior(prior)
                sources[offset] = "prior"
                if isinstance(op, _COMMUTING):
                    filter_priors += 1
            else:
                profile = report.est_profiles.get(position)
                if profile is not None:
                    knowledge[offset] = profile
                    sources[offset] = (
                        report.est_sources[position]
                        if position < len(report.est_sources)
                        else "static"
                    )
        if filter_priors == 0:
            # Nothing learned about any movable filter — a reorder would
            # be driven by the same estimates the plan already used.
            return None

        def rank(offset: int, op: L.LogicalOperator) -> float:
            profile = knowledge.get(offset)
            if profile is None:
                return float("inf")
            return filter_rank(profile)

        new_suffix = reorder_filters(list(suffix), rank)
        if [id(op) for op in new_suffix] == [id(op) for op in suffix]:
            return None

        observed = float(observed_rows)
        estimate_args = dict(
            input_cardinality=observed,
            parallelism=config.parallelism,
            pipeline=config.pipeline,
            batch_size=config.resolved_batch_size(),
        )
        old_total, _ = estimate_chain_steps(suffix, knowledge, **estimate_args)
        profile_by_id = {
            id(op): knowledge.get(offset) for offset, op in enumerate(suffix)
        }
        new_profiles = {
            offset: profile_by_id[id(op)]
            for offset, op in enumerate(new_suffix)
            if profile_by_id.get(id(op)) is not None
        }
        new_total, new_steps = estimate_chain_steps(
            new_suffix, new_profiles, **estimate_args
        )
        improves_cost = new_total.cost_usd < old_total.cost_usd - 1e-12
        ties_cost = abs(new_total.cost_usd - old_total.cost_usd) <= 1e-12
        improves_time = new_total.time_s < old_total.time_s - 1e-12
        if not (improves_cost or (ties_cost and improves_time)):
            return None

        # Accept: rebuild every chain-aligned view on the report so
        # EXPLAIN, ingestion, and any later boundary see the new plan.
        before_fp = plan_fingerprint(chain, models)
        entry_by_id = {
            id(op): report.stats_plan[boundary + offset]
            for offset, op in enumerate(suffix)
        }
        model_by_id = {
            id(op): models[boundary + offset]
            for offset, op in enumerate(suffix)
        }
        source_by_offset = {
            id(op): sources.get(offset) for offset, op in enumerate(suffix)
        }
        new_chain = chain[:boundary] + new_suffix
        new_models = models[:boundary] + [model_by_id[id(op)] for op in new_suffix]
        after_fp = plan_fingerprint(new_chain, new_models)

        report.final_chain = new_chain
        report.resolved_models = new_models
        report.final_order = [op.label() for op in new_chain]
        report.stats_plan[boundary:] = [entry_by_id[id(op)] for op in new_suffix]
        new_est_profiles = {
            position: profile
            for position, profile in report.est_profiles.items()
            if position < boundary
        }
        new_est_sources = report.est_sources[:boundary]
        for offset, op in enumerate(new_suffix):
            profile = profile_by_id.get(id(op))
            if profile is not None:
                new_est_profiles[boundary + offset] = profile
            new_est_sources.append(source_by_offset.get(id(op)) or "static")
        report.est_profiles = new_est_profiles
        report.est_sources = new_est_sources
        report.est_rows[boundary:] = [step.cardinality for step in new_steps]
        report.est_costs[boundary:] = [step.cost_usd for step in new_steps]
        if report.capture is not None:
            report.capture.fingerprints = list(
                prefix_fingerprints(
                    new_chain,
                    new_models,
                    config.llm.seed,
                    scope=config.materialization_scope,
                )
            )

        decision = {
            "boundary": boundary,
            "cause": (
                f"cardinality divergence {divergence:.2f}x after "
                f"{chain[boundary - 1].label()} "
                f"(est {est:.1f}, observed {observed_rows})"
            ),
            "divergence": round(divergence, 4),
            "est_rows": round(est, 2),
            "observed_rows": observed_rows,
            "before_plan": before_fp,
            "after_plan": after_fp,
            "before_order": [op.label() for op in suffix],
            "after_order": [op.label() for op in new_suffix],
            "est_cost_before_usd": round(old_total.cost_usd, 6),
            "est_cost_after_usd": round(new_total.cost_usd, 6),
        }
        report.replans.append(decision)
        self.replans_used += 1
        tracer = config.llm.tracer
        if tracer.enabled:
            with tracer.span("replan", kind="replan", **decision):
                pass
        if metrics.enabled:
            metrics.counter("replan.reorders").inc()
        return [
            self.optimizer._bind_one(op, new_chain, boundary + offset, self.chosen)
            for offset, op in enumerate(new_suffix)
        ]
