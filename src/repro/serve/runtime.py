"""Multi-tenant serving on one shared :class:`~repro.core.runtime.AnalyticsRuntime`.

A :class:`ServingRuntime` admits queries from many tenant sessions into a
single shared substrate (LLM + generation cache + materialization store).
The lifecycle per drain window:

1. :meth:`submit` — admission control (a typed, *schedule-independent*
   rejection once a tenant's budget is spent), then eager body
   execution on the shared runtime with a :class:`~repro.serve.timeline.CallTimeline`
   sink installed.  The body runs the engine's own schedule, exactly as a
   direct run; the sink receives the seconds it spends and records its
   call steps, so no time passes on the shared clock.  Spend, cache, and
   materialization deltas are attributed exactly to the submitting tenant
   because execution is serialized in admission order.
2. :meth:`drain` — replay all admitted timelines through the
   :class:`~repro.serve.scheduler.CrossQueryScheduler` (batched shared
   waves, or the serial baseline), advance the shared clock by the
   schedule makespan, emit serving spans and per-tenant metrics.

Isolation: each tenant session runs with ``cache_scope`` set on the LLM
(tenant-namespaced generation-cache keys) and ``scope`` on the query config
(tenant-namespaced sub-plan fingerprints and statistics keys), so tenants
never observe — or get billed against — each other's cached work, while
still sharing one bounded store.  Every other query option is the shared
runtime's: a served query runs ``runtime.program_config(...)``, so a sharded
or re-planning serving layer is ``AnalyticsRuntime(shards=4).serving()``.

Admission decisions depend only on previously admitted spend, never on
the schedule, so the admitted set — and therefore every record — is
bit-identical between batched and serial modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.errors import QuotaExceededError, ServingError
from repro.serve.scheduler import CrossQueryScheduler, QueryJob, ServingReport
from repro.serve.timeline import CallTimeline

if TYPE_CHECKING:
    from repro.core.runtime import AnalyticsRuntime
    from repro.sem.dataset import Dataset

#: Serving spans beyond this count are elided from the trace (wave spans
#: are O(calls); the first screenful is what EXPLAIN-style tooling reads).
MAX_WAVE_SPANS = 200


@dataclass(frozen=True)
class TenantSpec:
    """Admission-control contract for one tenant session."""

    name: str
    #: Cumulative raw-spend quota; admissions stop once reached (None = ∞).
    budget_usd: float | None = None


@dataclass
class TenantState:
    """Mutable per-tenant accounting across the serving runtime's lifetime."""

    spec: TenantSpec
    admitted: int = 0
    rejected: int = 0
    spent_usd: float = 0.0
    rebate_usd: float = 0.0


class ServingRuntime:
    """Admission + cross-query scheduling over one shared runtime."""

    def __init__(
        self,
        runtime: "AnalyticsRuntime",
        tenants: Sequence[TenantSpec] | None = None,
        provider_width: int = 16,
        batching: bool = True,
        parallelism: int = 4,
    ) -> None:
        self.runtime = runtime
        self.llm = runtime.llm
        self.provider_width = provider_width
        self.batching = batching
        self.parallelism = parallelism
        self.tenants: dict[str, TenantState] = {}
        for spec in tenants or ():
            self.tenants[spec.name] = TenantState(spec=spec)
        self._pending: list[QueryJob] = []
        self._next_query_id = 0
        self.reports: list[ServingReport] = []

    # -- admission ------------------------------------------------------

    def tenant(self, name: str) -> TenantState:
        state = self.tenants.get(name)
        if state is None:
            state = TenantState(spec=TenantSpec(name=name))
            self.tenants[name] = state
        return state

    def _admit(self, state: TenantState) -> None:
        """Raise :class:`QuotaExceededError` once the tenant's budget is spent.

        The check depends only on *previously admitted* spend — never on
        the schedule — so serial and batched modes admit the identical
        query set.
        """
        spec = state.spec
        name = spec.name
        if spec.budget_usd is not None and state.spent_usd >= spec.budget_usd:
            state.rejected += 1
            self._count(f"serving.tenant.{name}.rejected")
            raise QuotaExceededError(
                f"tenant {name!r} exhausted its budget "
                f"(${state.spent_usd:.4f} of ${spec.budget_usd:.4f})",
                tenant=name,
            )

    # -- submission -----------------------------------------------------

    def submit(
        self,
        tenant: str,
        dataset: "Dataset",
        arrival_s: float = 0.0,
        tag: str = "",
    ) -> QueryJob:
        """Admit and eagerly execute one query for ``tenant``.

        Returns the admitted :class:`QueryJob` (records already computed;
        latency fields are filled by :meth:`drain`).  Raises
        :class:`~repro.errors.QuotaExceededError` on rejection — rejected
        queries never touch the shared substrate.
        """
        state = self.tenant(tenant)
        self._admit(state)

        llm = self.llm
        query_id = self._next_query_id
        self._next_query_id += 1
        tag = tag or f"serve:{tenant}:q{query_id}"
        store = self.runtime.materialization_store
        config = self.runtime.program_config(
            tag, optimize=False, parallelism=self.parallelism, scope=tenant,
            materialization_store=store,
        )

        timeline = CallTimeline()
        checkpoint = llm.tracker.checkpoint()
        clock_before = llm.clock.elapsed
        cache_hits = llm.cache.hits
        cache_misses = llm.cache.misses
        mat_hits = store.hits
        # The body runs the engine's own schedule; the sink receives the
        # seconds it spends and records its call steps for the replay.
        llm.serve_sink = timeline
        llm.cache_scope = tenant
        try:
            result = dataset.run(config)
        finally:
            llm.serve_sink = None
            llm.cache_scope = ""
        if llm.clock.elapsed != clock_before:
            raise ServingError(
                "serving body execution advanced the shared clock directly; "
                "the call-timeline sink must capture all latency charges"
            )

        usage = llm.tracker.since(checkpoint)
        job = QueryJob(
            tenant=tenant,
            query_id=query_id,
            tag=tag,
            arrival_s=arrival_s,
            timeline=timeline,
            records=result.records,
            total_cost_usd=result.total_cost_usd,
            raw_cost_usd=usage.cost_usd,
            truncated=result.truncated,
            cache_hits=llm.cache.hits - cache_hits,
            cache_misses=llm.cache.misses - cache_misses,
            materialization_hits=store.hits - mat_hits,
        )
        self._pending.append(job)

        state.admitted += 1
        state.spent_usd += job.raw_cost_usd
        if llm.metrics.enabled:
            self._count(f"serving.tenant.{tenant}.queries")
            self._count(f"serving.tenant.{tenant}.cost_usd", job.raw_cost_usd)
            self._count(f"serving.tenant.{tenant}.cache_hits", job.cache_hits)
            self._count(f"serving.tenant.{tenant}.cache_misses", job.cache_misses)
            self._count(
                f"serving.tenant.{tenant}.materialization_hits",
                job.materialization_hits,
            )
        return job

    # -- scheduling -----------------------------------------------------

    def drain(self) -> ServingReport:
        """Schedule everything admitted since the last drain.

        Advances the shared virtual clock by the schedule makespan, emits
        ``serving-query`` / ``serving-wave`` spans (enabled tracer only)
        and per-tenant latency histograms, and returns the report.
        """
        jobs = self._pending
        self._pending = []
        scheduler = CrossQueryScheduler(
            provider_width=self.provider_width, batching=self.batching
        )
        report = scheduler.run(jobs)

        llm = self.llm
        base = llm.clock.elapsed
        tracer = llm.tracer
        if tracer.enabled:
            for job in report.jobs:
                tracer.add_span(
                    job.tag,
                    "serving-query",
                    base + job.arrival_s,
                    base + job.finish_s,
                    track=f"tenant {job.tenant}",
                    tenant=job.tenant,
                    latency_s=round(job.latency_s, 3),
                    cost_usd=round(job.raw_cost_usd, 6),
                    rebate_usd=round(job.rebate_usd, 6),
                    records=len(job.records),
                )
            for index, wave in enumerate(report.waves[:MAX_WAVE_SPANS]):
                tracer.add_span(
                    f"wave {index}",
                    "serving-wave",
                    base + wave.start_s,
                    base + wave.start_s + wave.duration_s,
                    track="serving waves",
                    slots=wave.slots,
                    fill=round(wave.fill, 3),
                    merged_embeds=wave.merged_embeds,
                    rebate_usd=round(wave.rebate_usd, 6),
                )
        llm.clock.advance(report.makespan_s)

        metrics = llm.metrics
        if metrics.enabled:
            metrics.counter("serving.drains").inc()
            metrics.counter("serving.waves").inc(len(report.waves))
            metrics.counter("serving.batched_calls").inc(report.filled_slots)
            metrics.counter("serving.rebate_usd").inc(report.rebate_total_usd())
            for job in report.jobs:
                metrics.histogram("serving.latency_s").observe(job.latency_s)
                metrics.histogram(
                    f"serving.tenant.{job.tenant}.latency_s"
                ).observe(job.latency_s)
        for job in report.jobs:
            self.tenant(job.tenant).rebate_usd += job.rebate_usd

        self.reports.append(report)
        return report

    # -- internals ------------------------------------------------------

    def _count(self, name: str, amount: float = 1) -> None:
        metrics = self.llm.metrics
        if metrics.enabled and amount:
            metrics.counter(name).inc(amount)
