"""Equivalence and invariant oracles over a case's observation matrix.

Each oracle inspects a :class:`~repro.qa.runner.CaseRun` and yields
:class:`Violation` objects.  An honest runtime produces none; the oracles
are calibrated so that every asserted property is a *contract* of the
runtime (documented in ``configs.py``'s answer classes), not a statistical
tendency — a violation is a bug, never noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

from repro.sem.config import DEFAULT_FALLBACK_MODEL

#: Slack for float comparisons on dollar totals.
COST_EPS = 1e-9
#: Slack for virtual-time comparisons.
TIME_EPS = 1e-6


@dataclass(frozen=True)
class Violation:
    """One oracle failure for one matrix cell."""

    oracle: str
    spec: str
    message: str

    def __str__(self) -> str:
        return f"[{self.oracle}] {self.spec}: {self.message}"


def check_no_errors(run) -> list[Violation]:
    """No configuration may raise out of the runtime."""
    violations = []
    for name, observations in run.observations.items():
        for observation in observations:
            if observation.error is not None:
                violations.append(
                    Violation("no-errors", name, observation.error)
                )
    return violations


def check_determinism(run) -> list[Violation]:
    """Re-running the identical config must reproduce the identical result."""
    violations = []
    for name, observations in run.observations.items():
        if len(observations) < 2:
            continue
        first, second = observations[0], observations[1]
        if first.error or second.error:
            continue  # no-errors already flags these
        if first.records != second.records:
            violations.append(
                Violation("determinism", name, "records differ between reruns")
            )
        if abs(first.total_cost_usd - second.total_cost_usd) > COST_EPS:
            violations.append(
                Violation(
                    "determinism", name,
                    f"cost differs between reruns: "
                    f"{first.total_cost_usd} vs {second.total_cost_usd}",
                )
            )
        if abs(first.total_time_s - second.total_time_s) > TIME_EPS:
            violations.append(
                Violation(
                    "determinism", name,
                    f"time differs between reruns: "
                    f"{first.total_time_s} vs {second.total_time_s}",
                )
            )
    return violations


def _reference(run):
    """The reference observation (None when it is missing or blew up)."""
    reference = run.first("reference")
    return None if reference is None or reference.error else reference


def _against_reference(
    run, answer_class: str, oracle: str, bound_cost: bool = True
) -> list[Violation]:
    """Every ``answer_class`` cell against the reference interpreter's answer.

    Records (uids and fields, in order) must be bit-identical; an uncapped
    run must not truncate; and with ``bound_cost`` the cell may not spend
    more than the reference did — the reference runs every operator over
    its whole input in plan order, and fusion, early exit, pushdown,
    sharding and replay only ever *remove* calls from that.  Virtual time is
    deliberately not compared: batches round up to whole waves, so a fused
    makespan can legally exceed the operator-at-a-time sum (see
    ``QueryProcessorConfig.resolved_batch_size``); cost has no such rounding.
    """
    reference = _reference(run)
    if reference is None:
        return []
    violations = []
    for observation in run.by_class(answer_class):
        name = observation.spec.name
        if observation.error:
            continue  # no-errors already flags these
        if observation.records != reference.records:
            detail = _first_diff(reference.records, observation.records)
            violations.append(
                Violation(oracle, name, f"records differ from the reference: {detail}")
            )
        if observation.truncated:
            violations.append(Violation(oracle, name, "truncated without a cap"))
        if bound_cost and (
            observation.total_cost_usd > reference.total_cost_usd + COST_EPS
        ):
            violations.append(
                Violation(
                    oracle, name,
                    f"cost {observation.total_cost_usd} exceeds the reference's "
                    f"{reference.total_cost_usd}",
                )
            )
    return violations


def check_exec_equivalence(run) -> list[Violation]:
    """Execution mechanics must not change the answer, or add spend.

    Covers the default configuration itself (``baseline``) and the batch /
    parallelism sweep.  The cost bound is also the pushdown contract: the
    reference never pushes a structured prefix down, so a pushed-down run
    costing more than it would mean pushdown *added* calls.
    """
    return _against_reference(run, "exec", "exec-equivalence")


def check_opt_equivalence(run) -> list[Violation]:
    """The max-quality optimizer must preserve the plan's answer.

    Sampling spend is legitimately extra, so cost is not bounded.
    """
    return _against_reference(run, "opt", "opt-equivalence", bound_cost=False)


def check_policy_cost(run) -> list[Violation]:
    """Cost-seeking policies never choose a model pricier than the champion.

    The champion always meets its own agreement floor, so min-cost and
    balanced selection have it as a candidate — the chosen model's sampled
    cost-per-record is bounded by the champion's on every operator.
    """
    violations = []
    for observation in run.by_class("probe"):
        if observation.error or not observation.optimized:
            continue
        for label, chosen, profiles in observation.model_choices:
            champion = profiles.get(DEFAULT_FALLBACK_MODEL)
            picked = profiles.get(chosen)
            if champion is None or picked is None:
                continue
            if picked.cost_per_record > champion.cost_per_record + COST_EPS:
                violations.append(
                    Violation(
                        "policy-cost", observation.spec.name,
                        f"{label}: chose {chosen} at "
                        f"{picked.cost_per_record}/record over champion at "
                        f"{champion.cost_per_record}/record",
                    )
                )
    return violations


def check_estimates(run) -> list[Violation]:
    """Optimizer estimates are finite and non-negative when present."""
    violations = []
    for answer_class in ("opt", "probe"):
        for observation in run.by_class(answer_class):
            if observation.error or observation.estimate_cost_usd is None:
                continue
            name = observation.spec.name
            for attr in ("estimate_cost_usd", "estimate_time_s",
                         "estimate_cardinality"):
                value = getattr(observation, attr)
                if value is None:
                    continue
                if not isfinite(value) or value < 0:
                    violations.append(
                        Violation("estimates", name, f"{attr} = {value}")
                    )
    return violations


def check_budget(run) -> list[Violation]:
    """Spend caps bound actual spend up to one guarded call saga.

    A guarded call may legally overshoot by its own saga — up to
    ``max_attempts`` billed attempts plus a fallback re-ask — so the
    allowance is ``2 * max_attempts * max_event_cost``.  Anything beyond
    that means a budget check was skipped.
    """
    violations = []
    budget_runs = sorted(
        (obs for obs in run.by_class("budget") if not obs.error),
        key=lambda obs: obs.spec.budget_fraction or 0.0,
    )
    for observation in budget_runs:
        cap = observation.max_cost_usd
        if cap is None:
            continue
        allowance = 2 * observation.max_attempts * observation.max_event_cost_usd
        if observation.total_cost_usd > cap + allowance + COST_EPS:
            violations.append(
                Violation(
                    "budget-cap", observation.spec.name,
                    f"spent {observation.total_cost_usd:.6f} against cap "
                    f"{cap:.6f} (allowance {allowance:.6f})",
                )
            )
    # Monotonicity: a tighter cap can never spend more than a looser one.
    for tighter, looser in zip(budget_runs, budget_runs[1:]):
        if tighter.total_cost_usd > looser.total_cost_usd + COST_EPS:
            violations.append(
                Violation(
                    "budget-monotonic", tighter.spec.name,
                    f"cap {tighter.max_cost_usd:.6f} spent "
                    f"{tighter.total_cost_usd:.6f} but looser cap "
                    f"{looser.max_cost_usd:.6f} spent "
                    f"{looser.total_cost_usd:.6f}",
                )
            )
    return violations


def check_reuse_equivalence(run) -> list[Violation]:
    """Warm runs against a primed MaterializationStore change nothing but cost.

    The reuse class runs the same spec cold then warm with a shared store
    and a fresh substrate per pass, so any difference is attributable to
    materialization replay.  Contract: the warm records are bit-identical
    to the cold records and to the reference's, and replaying a
    materialized prefix can only ever save money.
    """
    violations = _against_reference(run, "reuse", "reuse-equivalence")
    for observation in run.by_class("reuse"):
        name = observation.spec.name
        if observation.error or observation.reuse_cold_records is None:
            continue
        if observation.records != observation.reuse_cold_records:
            detail = _first_diff(observation.reuse_cold_records, observation.records)
            violations.append(
                Violation(
                    "reuse-equivalence", name,
                    f"warm records differ from cold: {detail}",
                )
            )
        cold_cost = observation.reuse_cold_cost_usd or 0.0
        if observation.total_cost_usd > cold_cost + COST_EPS:
            violations.append(
                Violation(
                    "reuse-equivalence", name,
                    f"warm cost {observation.total_cost_usd} exceeds cold "
                    f"cost {cold_cost}",
                )
            )
    return violations


def check_serve_equivalence(run) -> list[Violation]:
    """Serving a plan through the multi-tenant layer changes no answer.

    The serve class submits the same plan as two tenant sessions on one
    shared substrate with cross-query batching on.  Contract: the first
    tenant's records are bit-identical to the reference's, and the peer
    tenant's records are bit-identical to the first tenant's — neither the
    cross-query schedule nor tenant-scoped caching may leak into answers.
    """
    violations = _against_reference(run, "serve", "serve-equivalence")
    for observation in run.by_class("serve"):
        if observation.error or observation.serve_peer_records is None:
            continue
        if observation.serve_peer_records != observation.records:
            detail = _first_diff(observation.records, observation.serve_peer_records)
            violations.append(
                Violation(
                    "serve-equivalence", observation.spec.name,
                    f"peer tenant records differ: {detail}",
                )
            )
    return violations


def check_shard_equivalence(run) -> list[Violation]:
    """Scale-out sharding changes makespan, never answers.

    The sharded class re-runs the baseline spec across N simulated
    workers, sweeping shard count and partitioner.  Contract:
    bit-identical records at every point of the sweep.  On limit-bearing
    plans each shard may overfetch up to the limit before the global merge
    truncates (the classic distributed limit-pushdown overfetch), so a
    sharded run may outspend the *unsharded engine* — but never the
    reference, which takes no early exit at all.
    """
    return _against_reference(run, "sharded", "shard-equivalence")


def check_streaming_equivalence(run) -> list[Violation]:
    """Incremental view maintenance converges on the one-shot answer.

    The streaming class registers the plan as a standing query over a
    prefix of the corpus and appends the remainder in chunks, refreshing
    incrementally off the materialization store; one base record is
    rewritten in place (with its own fields) before the second chunk.
    Contract: after the last append the standing view is bit-identical to
    the reference's one-shot run over the full corpus, and the changelog
    folded from empty reproduced the live view at every tick.  Cost is
    deliberately not asserted: plans with incremental-unsafe operators
    (group-by, top-k, limit) legally recompute each tick.  A plan whose
    whole chain *is* incremental-safe owes a delta on every tick after the
    prime, the rewrite's included, though: falling back to a full
    recompute there is a bug the records cannot show.
    """
    violations = _against_reference(
        run, "streaming", "streaming-equivalence", bound_cost=False
    )
    for observation in run.by_class("streaming"):
        name = observation.spec.name
        if observation.error:
            continue
        if observation.streaming_fold_identical is False:
            violations.append(
                Violation(
                    "streaming-equivalence", name,
                    "folded changelog diverged from the live standing view",
                )
            )
        if observation.streaming_ticks < 1:
            violations.append(
                Violation(
                    "streaming-equivalence", name,
                    "standing query never evaluated a refresh tick",
                )
            )
        refreshes = observation.streaming_ticks - 1  # the prime recomputes
        if observation.streaming_delta_owed and observation.streaming_delta_ticks < refreshes:
            violations.append(
                Violation(
                    "streaming-equivalence", name,
                    f"incremental-safe plan recomputed "
                    f"{refreshes - observation.streaming_delta_ticks} of "
                    f"{refreshes} appends or in-place rewrites (no delta tick)",
                )
            )
    return violations


def check_trace(run) -> list[Violation]:
    """The traced baseline run must export a structurally valid span tree."""
    from repro.obs.export import validate_spans

    observations = run.observations.get("baseline", [])
    traced = next((obs for obs in observations if obs.spans is not None), None)
    if traced is None or traced.error:
        return []
    if not traced.spans:
        return [Violation("trace", "baseline", "traced run produced no spans")]
    try:
        validate_spans(traced.spans)
    except ValueError as exc:
        return [Violation("trace", "baseline", str(exc))]
    if not any(span.kind == "query" for span in traced.spans):
        return [Violation("trace", "baseline", "no query span recorded")]
    return []


ORACLES = (
    check_no_errors,
    check_determinism,
    check_exec_equivalence,
    check_opt_equivalence,
    check_policy_cost,
    check_estimates,
    check_budget,
    check_reuse_equivalence,
    check_serve_equivalence,
    check_shard_equivalence,
    check_streaming_equivalence,
    check_trace,
)


def evaluate(run) -> list[Violation]:
    """Run every oracle over one case's observations."""
    violations: list[Violation] = []
    for oracle in ORACLES:
        violations.extend(oracle(run))
    return violations


def _first_diff(expected: list, actual: list) -> str:
    if len(expected) != len(actual):
        return f"{len(expected)} records vs {len(actual)}"
    for index, (left, right) in enumerate(zip(expected, actual)):
        if left != right:
            return f"record {index}: {left!r} vs {right!r}"
    return "unknown difference"
