"""Execute one fuzz case under its configuration matrix.

The runner is the bridge between serializable specs and the live runtime:
it rebuilds the corpus, constructs a fresh simulated substrate per run (so
no cache or usage state leaks between matrix cells), executes the plan,
and captures an :class:`Observation` — everything the oracles need without
holding the live objects.

Run order per case:

1. ``reference`` — the plan through :mod:`repro.qa.reference` — then
   ``baseline`` twice (same-config determinism), the second time traced.
2. Every other non-budget spec once (``fault`` specs twice, for their own
   determinism check).
3. Budget specs, whose spend caps are fractions of the measured baseline
   cost — a two-phase design so caps track plan size automatically.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

from repro.data.records import reset_uid_counter
from repro.obs.tracer import Tracer
from repro.qa.configs import ConfigSpec, config_matrix
from repro.qa.corpus import build_corpus
from repro.qa.fuzzer import FuzzCase
from repro.qa.plans import normalized_records
from repro.qa.reference import ReferenceInterpreter
from repro.sem.config import DEFAULT_FALLBACK_MODEL
from repro.sem.materialize import MaterializationStore, incremental_safe_prefix


@dataclass
class Observation:
    """What one execution of one (case, config) cell produced."""

    spec: ConfigSpec
    #: ``(uid, sorted field items)`` per output record, in output order.
    records: list = field(default_factory=list)
    total_cost_usd: float = 0.0
    total_time_s: float = 0.0
    truncated: bool = False
    retried_calls: int = 0
    failed_records: int = 0
    #: The spend cap this run executed under (budget class only).
    max_cost_usd: float | None = None
    #: Largest single usage-event cost (bounds legal budget overshoot).
    max_event_cost_usd: float = 0.0
    #: Retry attempts allowed per call (bounds legal budget overshoot).
    max_attempts: int = 1
    #: Optimizer report extracts (opt/probe classes).
    optimized: bool = False
    #: Per profiled operator: (label, chosen model, candidate profiles).
    model_choices: list = field(default_factory=list)
    estimate_cost_usd: float | None = None
    estimate_time_s: float | None = None
    estimate_cardinality: float | None = None
    #: Spans captured when the run was traced (baseline only).
    spans: list | None = None
    #: Cold-pass capture for the reuse class: the priming run's normalized
    #: records and cost, against which the warm observation is compared.
    reuse_cold_records: list | None = None
    reuse_cold_cost_usd: float | None = None
    #: Second tenant's normalized records for the serve class (must match
    #: the recorded first tenant's and the baseline's).
    serve_peer_records: list | None = None
    #: Serve class: the jobs' summed ``raw_cost_usd``, the tracker's
    #: delta over both submits, and each job's ``standalone_s``.
    serve_jobs_cost_usd: float = 0.0
    serve_tracker_cost_usd: float = 0.0
    serve_standalone_s: list = field(default_factory=list)
    #: Streaming class: did the changelog folded from empty match the live
    #: standing view at every refresh tick (None = not a streaming run).
    streaming_fold_identical: bool | None = None
    #: Streaming class: refresh ticks evaluated / ticks that took the
    #: delta-reuse path.
    streaming_ticks: int = 0
    streaming_delta_ticks: int = 0
    #: Streaming class: appends were refreshed over a plan whose whole chain
    #: is fingerprinted and incremental-safe, so a delta tick is owed.
    streaming_delta_owed: bool = False
    #: Materialization reuse achieved by the warm run (0 = no reuse).
    reused_prefix: int = 0
    reuse_kind: str = ""
    #: Exception repr when the run blew up (oracles flag it).
    error: str | None = None


@dataclass
class CaseRun:
    """All observations for one fuzz case, keyed for the oracles."""

    case: FuzzCase
    #: Spec name -> list of observations (two entries = determinism pair).
    observations: dict = field(default_factory=dict)

    def first(self, name: str) -> Observation | None:
        runs = self.observations.get(name)
        return runs[0] if runs else None

    def by_class(self, answer_class: str) -> list[Observation]:
        return [
            runs[0]
            for runs in self.observations.values()
            if runs and runs[0].spec.answer_class == answer_class
        ]


def run_spec(
    case: FuzzCase,
    spec: ConfigSpec,
    max_cost_usd: float | None = None,
    traced: bool = False,
    mutation=None,
) -> Observation:
    """Execute ``case.plan`` under ``spec`` with a fresh substrate."""
    reset_uid_counter()
    bundle = build_corpus(case.corpus)
    tracer = Tracer() if traced else None
    llm = spec.make_llm(bundle, tracer=tracer)
    config = spec.build(llm, max_cost_usd=max_cost_usd)
    observation = Observation(spec=spec, max_cost_usd=max_cost_usd)
    try:
        dataset = case.plan.build(bundle)
        guard = mutation.applied() if mutation is not None else contextlib.nullcontext()
        with guard:
            if spec.answer_class == "reference":
                # Same substrate seed, parallelism and champion model as the
                # baseline, none of the engine: no optimizer report to read.
                reference = ReferenceInterpreter(
                    llm,
                    parallelism=spec.parallelism,
                    model=DEFAULT_FALLBACK_MODEL,
                ).run(dataset.plan())
                observation.records = normalized_records(reference.records)
                observation.total_cost_usd = reference.total_cost_usd
                observation.total_time_s = reference.total_time_s
                return observation
            if spec.streaming:
                # Standing query over the first two-thirds of the corpus;
                # the rest arrives as three append chunks, each refreshed
                # incrementally, the second behind an in-place rewrite.
                # Record objects are shared with the full corpus, so derived
                # uids line up with the baseline's.
                from repro.data.sources import MemorySource
                from repro.sem.streaming import RefreshPolicy, StandingQueryManager

                records = bundle.records()
                split = max(1, (2 * len(records)) // 3)
                base, rest = records[:split], records[split:]
                source = MemorySource(
                    base, bundle.schema, source_id=bundle.name
                )
                dataset = case.plan.build(bundle, source=source)
                manager = StandingQueryManager(store=MaterializationStore())
                query = manager.register(
                    f"qa:{spec.name}",
                    dataset,
                    config,
                    policy=RefreshPolicy(trigger="count", count=1),
                )
                fold_identical = normalized_records(
                    query.folded()
                ) == normalized_records(query.records)
                primed = query.last_report.bound
                observation.streaming_delta_owed = bool(rest) and (
                    primed[-1].fingerprint is not None
                    and incremental_safe_prefix(
                        [operator.logical_op for operator in primed]
                    )[-1]
                )
                chunk = max(1, (len(rest) + 2) // 3)
                for start in range(0, len(rest), chunk):
                    if start == chunk:
                        # An in-place rewrite with the record's own fields:
                        # the contents (and so the reference) stay the same,
                        # but the next tick must patch it in.
                        source.update(base[0].uid, dict(base[0].fields))
                    source.append(rest[start : start + chunk])
                    manager.pump()
                    if normalized_records(query.folded()) != (
                        normalized_records(query.records)
                    ):
                        fold_identical = False
                observation.records = normalized_records(query.records)
                observation.total_cost_usd = query.cumulative_cost_usd
                observation.streaming_fold_identical = fold_identical
                observation.streaming_ticks = len(query.ticks)
                observation.streaming_delta_ticks = sum(
                    1 for tick in query.ticks if tick.reuse_kind == "delta"
                )
                last = query.ticks[-1]
                observation.reused_prefix = last.reused_prefix
                observation.reuse_kind = last.reuse_kind
                observation.max_event_cost_usd = max(
                    (event.cost_usd for event in llm.tracker.events),
                    default=0.0,
                )
                observation.max_attempts = llm.retry.max_attempts
                return observation
            if spec.serve:
                # Two tenant sessions submit the same plan through the
                # serving layer (shared substrate, cross-query batching);
                # the first tenant is the recorded observation and the
                # peer's records ride along for the serve oracle.
                from repro.core.runtime import AnalyticsRuntime
                from repro.serve import ServingRuntime, TenantSpec

                runtime = AnalyticsRuntime(llm=llm, seed=spec.llm_seed)
                serving = ServingRuntime(
                    runtime,
                    tenants=[TenantSpec("qa-a"), TenantSpec("qa-b")],
                    batching=True,
                    parallelism=spec.parallelism,
                )
                checkpoint = llm.tracker.checkpoint()
                job_a = serving.submit("qa-a", dataset, arrival_s=0.0)
                job_b = serving.submit("qa-b", dataset, arrival_s=1.0)
                observation.serve_tracker_cost_usd = llm.tracker.since(
                    checkpoint
                ).cost_usd
                serving.drain()
                observation.serve_jobs_cost_usd = (
                    job_a.raw_cost_usd + job_b.raw_cost_usd
                )
                observation.serve_standalone_s = [
                    job_a.standalone_s, job_b.standalone_s
                ]
                observation.records = normalized_records(job_a.records)
                observation.serve_peer_records = normalized_records(
                    job_b.records
                )
                observation.total_cost_usd = job_a.raw_cost_usd
                observation.total_time_s = job_a.latency_s
                observation.max_event_cost_usd = max(
                    (event.cost_usd for event in llm.tracker.events),
                    default=0.0,
                )
                observation.max_attempts = llm.retry.max_attempts
                return observation
            if spec.reuse:
                # Cold pass primes a shared store with a fresh substrate so
                # the warm (recorded) run can only benefit from the store,
                # never from a shared generation cache.
                store = MaterializationStore()
                cold_llm = spec.make_llm(bundle)
                cold_config = spec.build(cold_llm, max_cost_usd=max_cost_usd)
                cold_config.materialization_store = store
                cold_result, _cold_report = dataset.run_with_report(cold_config)
                observation.reuse_cold_records = normalized_records(
                    cold_result.records
                )
                observation.reuse_cold_cost_usd = cold_result.total_cost_usd
                config.materialization_store = store
            result, report = dataset.run_with_report(config)
    except Exception as exc:  # noqa: BLE001 — oracles judge the failure
        observation.error = f"{type(exc).__name__}: {exc}"
        return observation

    observation.records = normalized_records(result.records)
    observation.total_cost_usd = result.total_cost_usd
    observation.total_time_s = result.total_time_s
    observation.truncated = result.truncated
    observation.retried_calls = result.retried_calls
    observation.failed_records = result.failed_records
    observation.max_event_cost_usd = max(
        (event.cost_usd for event in llm.tracker.events), default=0.0
    )
    observation.max_attempts = llm.retry.max_attempts
    observation.optimized = report.optimized
    observation.model_choices = [
        (op.logical_op.label(), op.model, op.estimate.candidates)
        for op in report.planned
        if op.model and op.estimate is not None
    ]
    if report.estimate is not None:
        observation.estimate_cost_usd = report.estimate.cost_usd
        observation.estimate_time_s = report.estimate.time_s
        observation.estimate_cardinality = report.estimate.cardinality
    observation.reused_prefix = report.reused_prefix
    observation.reuse_kind = report.reuse_kind
    if tracer is not None:
        observation.spans = tracer.spans
    return observation


def run_case(case: FuzzCase, mutation=None) -> CaseRun:
    """Run the full configuration matrix for one fuzz case."""
    specs = config_matrix(case.plan, case_seed=case.case_seed)
    run = CaseRun(case=case)

    baseline_cost = 0.0
    for spec in specs:
        if spec.answer_class == "budget":
            continue  # second phase: needs the measured baseline cost
        observations = [run_spec(case, spec, mutation=mutation)]
        if spec.name == "baseline":
            # Same-config determinism + the traced run for the trace oracle.
            observations.append(
                run_spec(case, spec, traced=True, mutation=mutation)
            )
            baseline_cost = observations[0].total_cost_usd
        elif spec.answer_class == "fault":
            observations.append(run_spec(case, spec, mutation=mutation))
        run.observations[spec.name] = observations

    for spec in specs:
        if spec.answer_class != "budget":
            continue
        if baseline_cost <= 0.0:
            continue  # free plan: a fractional cap would be invalid
        cap = spec.budget_fraction * baseline_cost
        run.observations[spec.name] = [
            run_spec(case, spec, max_cost_usd=cap, mutation=mutation)
        ]

    return run
