"""Cross-query scheduling of captured call timelines.

The scheduler replays admitted queries' :class:`~repro.serve.timeline.CallTimeline`
structures on the virtual clock in one of two modes:

- **serial** (the no-batching baseline): queries run first-come-first-served,
  one at a time, each at its own client-side parallelism.  Query latency is
  queue wait plus standalone duration — classic head-of-line blocking.
- **batched** (cross-query batching): a discrete-event loop forms *shared
  provider waves* of up to ``provider_width`` call slots, filled from every
  in-flight query's ready calls.  Each query keeps one queue (a
  :class:`StepReplay`): the calls of its ready steps, in the order the
  steps became ready; a step becomes ready once every step it waits for
  (``CallStep.after``) has finished, so a query's cells overlap exactly as
  its dependency graph allows.  Slots are granted by stride scheduling
  (each granted slot adds one to its tenant's virtual pass), so tenants
  share capacity equally regardless of how many queries each has in
  flight; a wave pops its slots off a heap of ``(pass, tenant)``,
  O(log tenants) per slot.

Two provider-level effects make shared waves strictly better than serial
replay, mirroring the batching literature (Sema's cross-request batching,
continuous batching in serving systems):

- **Embedding merges**: embedding calls co-scheduled in one wave collapse
  into a single provider request — one per-call overhead total instead of
  one each (token time is additive).  This is the cross-query
  generalization of ``embed_batch``.
- **Prefix-sharing rebates**: generate calls to the *same model* in the
  same wave share the fixed system-prompt prefill; every call after the
  first in a (wave, model) group is rebated ``SYSTEM_PROMPT_TOKENS`` worth
  of input-token cost.  The raw usage tracker stays truthful — rebates are
  serving-layer billing adjustments, reported separately.

Both modes are pure functions of the admitted job list: no real time, no
randomness.  Bit-identity of per-query records across modes is inherited
from the eager body execution (see :mod:`repro.serve.timeline`).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.llm.models import get_model
from repro.llm.simulated import SYSTEM_PROMPT_TOKENS
from repro.obs.metrics import percentile
from repro.sem.execution import answer_fingerprint
from repro.serve.timeline import CallRequest, CallTimeline


@dataclass
class QueryJob:
    """One admitted query: executed body + captured call structure."""

    tenant: str
    query_id: int
    tag: str
    arrival_s: float
    timeline: CallTimeline
    #: Output records of the eagerly executed body (bit-identical across
    #: scheduling modes by construction).
    records: list = field(default_factory=list)
    #: The run's own ``total_cost_usd`` (what :attr:`fingerprint` digests).
    total_cost_usd: float = 0.0
    #: Raw substrate spend attributed to this query (tracker diff).
    raw_cost_usd: float = 0.0
    #: True when the query's spend cap cut its plan short.
    truncated: bool = False
    #: Per-tenant shared-cache accounting deltas for this query.
    cache_hits: int = 0
    cache_misses: int = 0
    materialization_hits: int = 0
    #: Filled by the scheduler.
    finish_s: float = 0.0
    latency_s: float = 0.0
    standalone_s: float = 0.0
    rebate_usd: float = 0.0

    @property
    def fingerprint(self) -> str:
        """The answer digest of :attr:`records` as held, with the run's dollars
        and truncation flag; computed on each read, never stored
        (:func:`~repro.sem.execution.answer_fingerprint`, the digest the
        run's ``ExecutionResult`` gives for the same records)."""
        return answer_fingerprint(self.records, self.total_cost_usd, self.truncated)

    def effective_cost_usd(self) -> float:
        return max(0.0, self.raw_cost_usd - self.rebate_usd)

    def slowdown(self) -> float:
        """Latency over standalone duration, with a one-second grace term.

        The grace keeps fully-cached queries (standalone ~ 0s) from turning
        any queueing delay into a near-infinite ratio that would swamp the
        max/min fairness metric.
        """
        return (self.latency_s + 1.0) / (self.standalone_s + 1.0)


@dataclass
class WaveRecord:
    """One shared provider wave (batched mode only)."""

    start_s: float
    duration_s: float
    slots: int
    width: int
    merged_embeds: int = 0
    rebate_usd: float = 0.0

    @property
    def fill(self) -> float:
        return self.slots / self.width if self.width else 0.0


@dataclass
class ServingReport:
    """Schedule outcome for one drain of the serving queue."""

    mode: str
    provider_width: int
    makespan_s: float = 0.0
    jobs: list[QueryJob] = field(default_factory=list)
    waves: list[WaveRecord] = field(default_factory=list)
    #: Slots offered vs. filled across all shared waves (batched mode).
    offered_slots: int = 0
    filled_slots: int = 0

    # -- aggregates -----------------------------------------------------

    def latencies(self) -> list[float]:
        return [job.latency_s for job in self.jobs]

    def latency_p50(self) -> float:
        return percentile(self.latencies(), 50.0)

    def latency_p99(self) -> float:
        return percentile(self.latencies(), 99.0)

    def batch_fill(self) -> float:
        """Fraction of offered wave slots actually filled."""
        if not self.offered_slots:
            return 0.0
        return self.filled_slots / self.offered_slots

    def rebate_total_usd(self) -> float:
        return sum(job.rebate_usd for job in self.jobs)

    def cost_per_query_usd(self) -> float:
        if not self.jobs:
            return 0.0
        return sum(job.effective_cost_usd() for job in self.jobs) / len(self.jobs)

    def tenant_summary(self) -> dict[str, dict]:
        """Per-tenant aggregates: queries, latency, spend, slowdown."""
        summary: dict[str, dict] = {}
        for job in self.jobs:
            entry = summary.setdefault(
                job.tenant,
                {
                    "queries": 0,
                    "cost_usd": 0.0,
                    "rebate_usd": 0.0,
                    "latencies": [],
                    "slowdowns": [],
                    "cache_hits": 0,
                    "cache_misses": 0,
                    "materialization_hits": 0,
                },
            )
            entry["queries"] += 1
            entry["cost_usd"] += job.raw_cost_usd
            entry["rebate_usd"] += job.rebate_usd
            entry["latencies"].append(job.latency_s)
            entry["slowdowns"].append(job.slowdown())
            entry["cache_hits"] += job.cache_hits
            entry["cache_misses"] += job.cache_misses
            entry["materialization_hits"] += job.materialization_hits
        for entry in summary.values():
            entry["mean_latency_s"] = sum(entry["latencies"]) / entry["queries"]
            entry["mean_slowdown"] = sum(entry["slowdowns"]) / entry["queries"]
        return summary

    def fairness(self) -> float:
        """Max/min ratio of per-tenant mean slowdowns (1.0 = perfectly fair)."""
        slowdowns = [
            entry["mean_slowdown"] for entry in self.tenant_summary().values()
        ]
        if len(slowdowns) < 2:
            return 1.0
        low = min(slowdowns)
        return max(slowdowns) / max(low, 1e-9)

    def render(self, title: str = "SERVING SCHEDULE") -> str:
        lines = [
            f"=== {title} ({self.mode}, width {self.provider_width}) ===",
            f"queries: {len(self.jobs)}   makespan: {self.makespan_s:.1f}s   "
            f"waves: {len(self.waves)}   fill: {self.batch_fill():.2f}",
            f"latency p50/p99: {self.latency_p50():.1f}s / {self.latency_p99():.1f}s   "
            f"$/query: {self.cost_per_query_usd():.4f}   "
            f"rebate: ${self.rebate_total_usd():.4f}   "
            f"fairness (max/min slowdown): {self.fairness():.2f}",
        ]
        header = (
            f"{'tenant':<12} {'queries':>7} {'mean lat':>9} {'slowdown':>9} "
            f"{'$ raw':>9} {'$ rebate':>9} {'cache h/m':>11} {'mat hits':>8}"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for tenant, entry in sorted(self.tenant_summary().items()):
            lines.append(
                f"{tenant:<12} {entry['queries']:>7} "
                f"{entry['mean_latency_s']:>8.1f}s {entry['mean_slowdown']:>9.2f} "
                f"{entry['cost_usd']:>9.4f} {entry['rebate_usd']:>9.4f} "
                f"{entry['cache_hits']:>5}/{entry['cache_misses']:<5} "
                f"{entry['materialization_hits']:>8}"
            )
        return "\n".join(lines)


class StepReplay:
    """One job's ready queue over its timeline's step graph.

    :attr:`queue` holds ``(step index, call)`` for every call of a ready
    step not yet completed, in the order the steps became ready; waves
    take calls from the front.  :meth:`complete` finishes the first
    ``count`` calls and releases each step whose ``after`` steps have all
    finished.  On a linear timeline the queue is always the current
    step's remaining calls.
    """

    __slots__ = ("steps", "queue", "_left", "_waiting", "_successors")

    def __init__(self, timeline: CallTimeline) -> None:
        self.steps = timeline.steps
        self.queue: list[tuple[int, CallRequest]] = []
        #: Uncompleted calls per step; steps still waited on per step.
        self._left = [len(step.calls) for step in self.steps]
        self._waiting = [len(step.after) for step in self.steps]
        self._successors: list[list[int]] = [[] for _ in self.steps]
        for index, step in enumerate(self.steps):
            for before in step.after:
                self._successors[before].append(index)
        for index, step in enumerate(self.steps):
            if not step.after:
                self._release(index)

    def _release(self, index: int) -> None:
        self.queue.extend((index, call) for call in self.steps[index].calls)

    def _finish(self, index: int) -> None:
        for successor in self._successors[index]:
            self._waiting[successor] -= 1
            if not self._waiting[successor]:
                self._release(successor)

    def complete(self, count: int) -> None:
        """The first ``count`` queued calls have finished."""
        done, self.queue = self.queue[:count], self.queue[count:]
        for index, _call in done:
            self._left[index] -= 1
            if not self._left[index]:
                self._finish(index)


class CrossQueryScheduler:
    """Deterministic discrete-event scheduler over captured timelines."""

    def __init__(self, provider_width: int = 16, batching: bool = True) -> None:
        if provider_width < 1:
            raise ConfigurationError(
                f"provider_width must be >= 1, got {provider_width}"
            )
        self.provider_width = provider_width
        self.batching = batching

    def run(self, jobs: list[QueryJob]) -> ServingReport:
        for job in jobs:
            job.standalone_s = job.timeline.standalone_duration()
        if self.batching:
            return self._run_batched(jobs)
        return self._run_serial(jobs)

    # -- serial baseline ------------------------------------------------

    def _run_serial(self, jobs: list[QueryJob]) -> ServingReport:
        report = ServingReport(mode="serial", provider_width=self.provider_width)
        now = 0.0
        for job in jobs:  # admission order == arrival order
            start = max(now, job.arrival_s)
            job.finish_s = start + job.standalone_s
            job.latency_s = job.finish_s - job.arrival_s
            now = job.finish_s
            for step in job.timeline.steps:
                step_waves = math.ceil(len(step.calls) / step.width)
                report.offered_slots += step_waves * step.width
                report.filled_slots += len(step.calls)
        report.jobs = list(jobs)
        report.makespan_s = now
        return report

    # -- cross-query batching -------------------------------------------

    def _run_batched(self, jobs: list[QueryJob]) -> ServingReport:
        report = ServingReport(mode="batched", provider_width=self.provider_width)
        report.jobs = list(jobs)
        now = 0.0
        pending = sorted(
            (job for job in jobs), key=lambda job: job.arrival_s
        )
        # Per-job ready queue over its step graph.
        replays: dict[int, StepReplay] = {}
        active: list[QueryJob] = []
        passes: dict[str, int] = {}

        def admit() -> None:
            nonlocal pending
            while pending and pending[0].arrival_s <= now + 1e-12:
                job = pending.pop(0)
                replay = StepReplay(job.timeline)
                if not replay.queue:
                    job.finish_s = job.arrival_s
                    job.latency_s = 0.0
                    continue
                replays[id(job)] = replay
                active.append(job)

        admit()
        while active or pending:
            if not active:
                now = pending[0].arrival_s
                admit()
                continue
            # Stride scheduling: refresh passes for currently active tenants
            # (a newly active tenant starts at the active minimum, so idle
            # time never banks into a capacity burst).
            ready_tenants = {job.tenant for job in active}
            floor = min(
                (passes.get(tenant, 0) for tenant in ready_tenants), default=0
            )
            for tenant in ready_tenants:
                passes[tenant] = max(passes.get(tenant, 0), floor)

            queues: dict[str, list[QueryJob]] = {}
            for job in active:  # admission order within each tenant queue
                queues.setdefault(job.tenant, []).append(job)
            selected, taken = self._fill_wave(queues, replays, passes)

            duration, merged_embeds, rebate = self._wave_outcome(selected)
            report.waves.append(
                WaveRecord(
                    start_s=now,
                    duration_s=duration,
                    slots=len(selected),
                    width=self.provider_width,
                    merged_embeds=merged_embeds,
                    rebate_usd=rebate,
                )
            )
            report.offered_slots += self.provider_width
            report.filled_slots += len(selected)
            now += duration

            # Complete the wave: finish the scheduled calls, release the
            # steps that were waiting on them.
            for job in list(active):
                count = taken.get(id(job), 0)
                if not count:
                    continue
                replay = replays[id(job)]
                replay.complete(count)
                if not replay.queue:
                    del replays[id(job)]
                    active.remove(job)
                    job.finish_s = now
                    job.latency_s = now - job.arrival_s
            admit()

        report.makespan_s = now
        return report

    def _fill_wave(
        self,
        queues: dict[str, list[QueryJob]],
        replays: dict[int, StepReplay],
        passes: dict[str, int],
    ) -> tuple[list[tuple[QueryJob, CallRequest]], dict[int, int]]:
        """Grant one wave's slots: (selected calls, calls taken per job id).

        Stride rule: each slot goes to the tenant with the smallest
        ``(pass, name)`` that still offers a call, which takes the next
        call of its first job (admission order) with calls not yet taken
        and adds one to its pass.  The tenants sit in a heap keyed
        ``(pass, name)``, each with a cursor to that job.
        """
        taken: dict[int, int] = {}
        selected: list[tuple[QueryJob, CallRequest]] = []
        # An active job always has queued calls, so every tenant offers
        # some and each cursor starts at the tenant's first job.
        cursors = dict.fromkeys(queues, 0)
        heap = [(passes[tenant], tenant) for tenant in queues]
        heapq.heapify(heap)
        while heap and len(selected) < self.provider_width:
            _pass, tenant = heapq.heappop(heap)
            tenant_jobs = queues[tenant]
            job = tenant_jobs[cursors[tenant]]
            queue = replays[id(job)].queue
            count = taken.get(id(job), 0)
            selected.append((job, queue[count][1]))
            taken[id(job)] = count = count + 1
            passes[tenant] += 1
            if count == len(queue):
                cursors[tenant] += 1
                if cursors[tenant] == len(tenant_jobs):
                    continue
            heapq.heappush(heap, (passes[tenant], tenant))
        return selected, taken

    def _wave_outcome(
        self, selected: list[tuple[QueryJob, CallRequest]]
    ) -> tuple[float, int, float]:
        """(duration, merged embed count, total rebate) of one shared wave.

        Embedding calls to the same model collapse into one provider
        request: one per-call overhead plus the group's summed token time.
        Generate calls to the same model share the fixed system-prompt
        prefill; each call beyond the first earns a rebate credited to its
        owning query.
        """
        durations: list[float] = []
        embed_groups: dict[str, list[float]] = {}
        chat_groups: dict[str, list[QueryJob]] = {}
        for job, call in selected:
            if call.model is None:
                durations.append(call.seconds)
            elif call.is_embedding:
                embed_groups.setdefault(call.model, []).append(call.seconds)
            else:
                durations.append(call.seconds)
                chat_groups.setdefault(call.model, []).append(job)

        merged_embeds = 0
        for model, seconds in embed_groups.items():
            overhead = get_model(model).per_call_overhead_s
            merged = overhead + sum(max(0.0, s - overhead) for s in seconds)
            durations.append(merged)
            merged_embeds += max(0, len(seconds) - 1)

        rebate_total = 0.0
        for model, group_jobs in chat_groups.items():
            if len(group_jobs) < 2:
                continue
            per_call = SYSTEM_PROMPT_TOKENS * get_model(model).usd_per_1m_input / 1e6
            for job in group_jobs[1:]:
                job.rebate_usd += per_call
                rebate_total += per_call

        return (max(durations) if durations else 0.0), merged_embeds, rebate_total
