"""Multi-tenant serving: timelines, batching, fairness, quotas, isolation."""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.runtime import AnalyticsRuntime
from repro.data.schemas import Field
from repro.errors import ConfigurationError, QuotaExceededError, ServingError
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.qa.corpus import CorpusSpec, build_corpus, instruction_for
from repro.qa.plans import normalized_records
from repro.sem import logical as L
from repro.sem.dataset import Dataset
from repro.sem.materialize import prefix_fingerprints
from repro.serve import (
    CallTimeline,
    ServingRuntime,
    TenantSpec,
    build_arrivals,
    submit_workload,
    zipf_rates,
)
from repro.serve import scheduler as scheduler_module
from repro.serve.scheduler import CrossQueryScheduler, QueryJob, StepReplay
from repro.serve.workload import _template_builders


@pytest.fixture(scope="module")
def qa_bundle():
    return build_corpus(CorpusSpec(seed=7, n_records=12))


def make_runtime(qa_bundle, **kwargs):
    return AnalyticsRuntime.for_bundle(qa_bundle, seed=7, **kwargs)


def filter_query(qa_bundle) -> Dataset:
    return Dataset.from_source(qa_bundle.source()).sem_filter(
        instruction_for("qa.flag_urgent")
    )


def run_workload(qa_bundle, batching: bool):
    """The standard two-tenant workload, scheduled in the given mode."""
    runtime = make_runtime(qa_bundle)
    serving = runtime.serving(
        tenants=[TenantSpec("tenant-00"), TenantSpec("tenant-01")],
        provider_width=8,
        batching=batching,
    )
    arrivals = build_arrivals(7, zipf_rates(2, 0.5), duration_s=20.0)
    jobs, rejected = submit_workload(serving, qa_bundle, arrivals)
    assert not rejected
    report = serving.drain()
    return runtime, jobs, report


# ---------------------------------------------------------------------------
# Timeline capture
# ---------------------------------------------------------------------------


def test_submit_captures_timeline_without_advancing_clock(qa_bundle):
    runtime = make_runtime(qa_bundle)
    serving = runtime.serving()
    job = serving.submit("alice", filter_query(qa_bundle))
    assert runtime.llm.clock.elapsed == 0.0
    assert job.timeline.steps
    assert sum(len(step.calls) for step in job.timeline.steps) > 0
    assert job.timeline.standalone_duration() > 0.0
    assert job.raw_cost_usd > 0.0
    assert len(job.records) > 0
    # Call metadata survived positional pairing: model names are present.
    assert any(
        call.model is not None
        for step in job.timeline.steps
        for call in step.calls
    )


def test_served_query_runs_the_engines_schedule(qa_bundle):
    """A served query fuses exactly as the same plan run directly: the
    submit leaves the clock untouched, runs one pipelined section, captures
    the section's last boundary only, and its standalone time is the
    direct run's total time."""
    from repro.data.schemas import Field
    from repro.sem.config import QueryProcessorConfig

    def three_stage():
        return (
            filter_query(qa_bundle)
            .sem_map(Field("amount", float, "amount"), instruction_for("qa.amount"))
            .sem_map(Field("customer", str, "name"), instruction_for("qa.customer"))
        )

    tracer = Tracer()
    runtime = make_runtime(qa_bundle, tracer=tracer)
    job = runtime.serving().submit("alice", three_stage())
    assert runtime.llm.clock.elapsed == 0.0
    assert len(tracer.by_kind("pipeline-section")) == 1
    assert "pipeline" not in tracer.by_kind("query")[0].attributes
    assert len(runtime.materialization_store) == 1

    direct = make_runtime(qa_bundle)
    result = three_stage().run(
        QueryProcessorConfig(
            llm=direct.llm, seed=7, optimize=False, parallelism=4,
            materialization_store=direct.materialization_store,
        )
    )
    assert normalized_records(result.records) == normalized_records(job.records)
    assert job.raw_cost_usd == result.total_cost_usd
    assert result.total_time_s > 0.0
    assert job.timeline.standalone_duration() == result.total_time_s
    assert len(direct.materialization_store) == 1


TEMPLATES = (
    "filter-urgent", "filter-security", "filter-refund",
    "classify-dept", "extract-amount", "triage-heavy",
)


def served_and_direct(template, n_records, **options):
    """``template`` over ``n_records`` run directly and served alone, each
    on a fresh runtime with ``options``: (direct result, its store, job,
    its store)."""
    bundle = build_corpus(CorpusSpec(seed=7171, n_records=n_records))
    direct_runtime = AnalyticsRuntime.for_bundle(bundle, seed=7171, **options)
    direct = _template_builders(bundle)[template]().run(
        direct_runtime.program_config(
            "direct", optimize=False, parallelism=4,
            materialization_store=direct_runtime.materialization_store,
        )
    )
    runtime = AnalyticsRuntime.for_bundle(bundle, seed=7171, **options)
    serving = runtime.serving(tenants=[TenantSpec("solo")], parallelism=4)
    job = serving.submit("solo", _template_builders(bundle)[template]())
    serving.drain()
    return (
        direct, direct_runtime.materialization_store,
        job, runtime.materialization_store,
    )


@pytest.mark.parametrize(
    "n_records, shards", [(10, 1), (10, 4), (24, 1), (24, 4), (64, 3), (64, 4)]
)
@pytest.mark.parametrize("template", TEMPLATES)
def test_served_alone_equals_direct(template, n_records, shards):
    # Served, a query runs the engine's own schedule: same records, same
    # dollars to the bit, standalone time == the direct total time and the
    # same captured boundaries, at every batch count and shard count.
    direct, direct_store, job, store = served_and_direct(
        template, n_records, shards=shards
    )
    assert normalized_records(job.records) == normalized_records(direct.records)
    assert job.raw_cost_usd == direct.total_cost_usd
    assert job.standalone_s == direct.total_time_s
    assert len(store) == len(direct_store)


@pytest.mark.parametrize("cap", [0.004, 0.01, 0.02])
@pytest.mark.parametrize("template", ["classify-dept", "triage-heavy"])
def test_served_query_under_a_spend_cap_matches_direct(template, cap):
    # A cut section salvages the same batches served as direct, and the
    # job says it was cut.
    direct, _, job, _ = served_and_direct(template, 64, max_cost_usd=cap)
    assert direct.truncated and job.truncated
    assert [r.uid for r in job.records] == [r.uid for r in direct.records]
    assert job.raw_cost_usd == direct.total_cost_usd


def test_submit_resets_sink_and_scope(qa_bundle):
    runtime = make_runtime(qa_bundle)
    serving = runtime.serving()
    serving.submit("alice", filter_query(qa_bundle))
    assert runtime.llm.serve_sink is None
    assert runtime.llm.cache_scope == ""


def test_timeline_drops_metadata_on_count_mismatch():
    timeline = CallTimeline()
    timeline.note_call("gpt-4o-mini", False, 10, 5, 1.0)
    timeline.end_step(4, [1.0, 2.0])  # one note, two latencies
    (step,) = timeline.steps
    assert [call.seconds for call in step.calls] == [1.0, 2.0]
    assert all(call.model is None for call in step.calls)


def diamond_timeline() -> CallTimeline:
    """A root step, two branches waiting for it, and a join step."""
    timeline = CallTimeline()
    root = timeline.end_step(2, [1.0, 1.0])
    timeline.end_step(2, [2.0, 2.0, 2.0], root)
    timeline.end_step(1, [5.0], root)
    timeline.end_step(1, [1.0])  # outside a cell: waits for the frontier
    return timeline


def test_timeline_records_what_each_step_waits_for():
    timeline = diamond_timeline()
    assert [step.after for step in timeline.steps] == [(), (0,), (0,), (1, 2)]
    assert timeline.mark() == (3,)


@pytest.mark.parametrize("width", [1, 2, 16])
def test_diamond_step_never_starts_before_its_after_steps(width):
    timeline = diamond_timeline()
    replay = StepReplay(timeline)
    finished = [0] * len(timeline.steps)
    while replay.queue:
        wave = replay.queue[:width]
        for index, _call in wave:
            for before in timeline.steps[index].after:
                assert finished[before] == len(timeline.steps[before].calls)
        replay.complete(len(wave))
        for index, _call in wave:
            finished[index] += 1
    assert finished == [len(step.calls) for step in timeline.steps]


def test_diamond_branches_share_waves():
    # Root wave (1 s), both branches in one wave (5 s), the join (1 s):
    # the linear order of the same steps would take 1 + 2 + 5 + 1 s.
    job = QueryJob(
        tenant="t", query_id=0, tag="q", arrival_s=0.0,
        timeline=diamond_timeline(),
    )
    report = CrossQueryScheduler(provider_width=16).run([job])
    assert job.latency_s == 7.0
    assert [wave.slots for wave in report.waves] == [2, 4, 1]


def test_linear_timeline_replays_as_a_step_cursor():
    # With no cells every step waits for the one before, and the ready
    # queue is always the current step's remaining calls, call for call.
    timeline = CallTimeline()
    for index, size in enumerate([3, 1, 4, 1, 5]):
        timeline.end_step(2, [float(index + 1)] * size)
    steps = timeline.steps
    assert [step.after for step in steps] == [(), (0,), (1,), (2,), (3,)]
    replay = StepReplay(timeline)
    current, remaining = 0, list(steps[0].calls)
    counts = iter([2, 1, 1, 3, 1, 1, 2, 2, 1, 1, 1])
    while remaining:
        assert [call for _index, call in replay.queue] == remaining
        count = min(next(counts), len(remaining))
        replay.complete(count)
        remaining = remaining[count:]
        if not remaining and current + 1 < len(steps):
            current += 1
            remaining = list(steps[current].calls)
    assert replay.queue == []


class ScanStrideScheduler(CrossQueryScheduler):
    """The reference wave fill: rescan every tenant's jobs for each slot."""

    def _fill_wave(self, queues, replays, passes):
        taken: dict[int, int] = {}
        selected = []
        while len(selected) < self.provider_width:
            candidates = [
                tenant
                for tenant, tenant_jobs in queues.items()
                if any(
                    taken.get(id(job), 0) < len(replays[id(job)].queue)
                    for job in tenant_jobs
                )
            ]
            if not candidates:
                break
            tenant = min(candidates, key=lambda t: (passes.get(t, 0.0), t))
            for job in queues[tenant]:
                count = taken.get(id(job), 0)
                queue = replays[id(job)].queue
                if count < len(queue):
                    selected.append((job, queue[count][1]))
                    taken[id(job)] = count + 1
                    break
            passes[tenant] = passes.get(tenant, 0) + 1
        return selected, taken


#: (model, is_embedding) of a generated call; None is an opaque call.
CALL_KINDS = [
    (None, False),
    ("gpt-4o-mini", False),
    ("gpt-4o", False),
    ("text-embedding-3-small", True),
]

step_calls = st.lists(
    st.tuples(
        st.sampled_from(CALL_KINDS), st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.5])
    ),
    min_size=1,
    max_size=5,
)

job_specs = st.lists(
    st.tuples(
        st.integers(0, 11),  # tenant index (mod the tenant count)
        st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 4.0]),  # arrival, with ties
        st.sampled_from(["linear", "diamond", "empty"]),
        st.lists(step_calls, min_size=4, max_size=4),
    ),
    min_size=1,
    max_size=16,
)


def generated_timeline(shape, steps) -> CallTimeline:
    """``steps`` as a chain, a ``diamond_timeline()``-shaped graph, or none."""
    timeline = CallTimeline()
    if shape == "empty":
        return timeline
    afters = [None, None, None, None]
    for index, calls in enumerate(steps):
        for (model, is_embedding), seconds in calls:
            if model is not None:
                timeline.note_call(model, is_embedding, 10, 5, seconds)
        if shape == "diamond" and index in (1, 2):
            afters[index] = (0,)
        timeline.end_step(2, [seconds for _kind, seconds in calls], afters[index])
    return timeline


@settings(max_examples=150, deadline=None)
@given(
    names=st.lists(
        st.text("abcxyz", min_size=1, max_size=3), min_size=1, max_size=12, unique=True
    ),
    specs=job_specs,
    width=st.integers(1, 16),
)
def test_heap_wave_fill_replays_the_stride_scan(names, specs, width):
    # The heap of (pass, tenant) grants every slot the candidate scan
    # grants: same waves, same finish times, same rebates.
    def jobs():
        return [
            QueryJob(
                tenant=names[tenant % len(names)], query_id=index, tag=f"q{index}",
                arrival_s=arrival, timeline=generated_timeline(shape, steps),
            )
            for index, (tenant, arrival, shape, steps) in enumerate(specs)
        ]

    heap_jobs, scan_jobs = jobs(), jobs()
    heap = CrossQueryScheduler(width, True).run(heap_jobs)
    scan = ScanStrideScheduler(width, True).run(scan_jobs)
    assert heap.waves == scan.waves
    assert heap.makespan_s == scan.makespan_s
    for ours, reference in zip(heap_jobs, scan_jobs):
        assert (ours.finish_s, ours.latency_s, ours.rebate_usd) == (
            reference.finish_s, reference.latency_s, reference.rebate_usd
        )


def test_flushed_topk_batch_waits_for_the_whole_topk_stage(qa_bundle):
    # Three input batches score independently; the top-k winners flush
    # only once every batch was scored, so the map over them waits for
    # every step of the top-k stage.
    runtime = make_runtime(qa_bundle, batch_size=4)
    job = runtime.serving().submit(
        "alice",
        Dataset.from_source(qa_bundle.source())
        .sem_topk("urgent billing problems", k=5)
        .sem_map(Field("amount", float, "amount"), instruction_for("qa.amount")),
    )
    steps = job.timeline.steps
    topk = {i for i, step in enumerate(steps) if step.calls[0].is_embedding}
    mapped = [i for i, step in enumerate(steps) if i not in topk]
    assert len([i for i in topk if not steps[i].after]) == 3
    assert mapped and min(mapped) > max(topk)
    waits_for: set[int] = set()
    pending = list(steps[min(mapped)].after)
    while pending:
        index = pending.pop()
        if index not in waits_for:
            waits_for.add(index)
            pending.extend(steps[index].after)
    assert topk <= waits_for


def test_drain_advances_clock_by_makespan(qa_bundle):
    runtime, _jobs, report = run_workload(qa_bundle, batching=True)
    assert runtime.llm.clock.elapsed == pytest.approx(report.makespan_s)


# ---------------------------------------------------------------------------
# Cross-query batching vs. the serial baseline
# ---------------------------------------------------------------------------


def test_batched_records_bit_identical_to_serial(qa_bundle):
    _rt_b, batched_jobs, _rep_b = run_workload(qa_bundle, batching=True)
    _rt_s, serial_jobs, _rep_s = run_workload(qa_bundle, batching=False)
    assert len(batched_jobs) == len(serial_jobs)
    for batched, serial in zip(batched_jobs, serial_jobs):
        assert batched.tag == serial.tag
        assert batched.fingerprint == serial.fingerprint
        assert normalized_records(batched.records) == normalized_records(
            serial.records
        )
        assert batched.raw_cost_usd == pytest.approx(serial.raw_cost_usd)


def test_submit_and_drain_never_digest_the_answer(qa_bundle, monkeypatch):
    from repro.sem import execution

    digests = []
    digest = execution.answer_fingerprint

    def counted(*args):
        digests.append(args)
        return digest(*args)

    monkeypatch.setattr(scheduler_module, "answer_fingerprint", counted)
    monkeypatch.setattr(execution, "answer_fingerprint", counted)
    _runtime, jobs, _report = run_workload(qa_bundle, batching=True)
    assert jobs and digests == []
    # Reading the digest pays for it, on every read (nothing is memoized).
    assert jobs[0].fingerprint == jobs[0].fingerprint
    assert len(digests) == 2


def _live_feed(qa_bundle, n_base: int):
    from repro.data.sources import MemorySource

    records = qa_bundle.records()
    source = MemorySource(
        records[:n_base], qa_bundle.schema, source_id=qa_bundle.name
    )
    dataset = Dataset.from_source(source).sem_filter(
        instruction_for("qa.flag_urgent")
    )
    return records, source, dataset


def _submit_run(serving, dataset):
    """``serving.submit("alice", dataset)`` with the run it made:
    ``(job, result, report)``."""
    runs = []
    run_with_report = Dataset.run_with_report

    def recorded(self, config):
        runs.append(run_with_report(self, config))
        return runs[-1]

    with mock.patch.object(Dataset, "run_with_report", recorded):
        job = serving.submit("alice", dataset)
    ((result, report),) = runs
    return job, result, report


def _digest_miss(qa_bundle):
    serving = make_runtime(qa_bundle).serving()
    job, result, report = _submit_run(serving, filter_query(qa_bundle))
    assert report.reuse_kind == ""
    return job, result


def _digest_exact_replay(qa_bundle):
    serving = make_runtime(qa_bundle).serving()
    serving.submit("alice", filter_query(qa_bundle))
    job, result, report = _submit_run(serving, filter_query(qa_bundle))
    assert report.reuse_kind == "exact"
    return job, result


def _digest_delta_replay(qa_bundle):
    serving = make_runtime(qa_bundle).serving()
    records, source, dataset = _live_feed(qa_bundle, 8)
    serving.submit("alice", dataset)
    source.append(records[8:12])
    job, result, report = _submit_run(serving, dataset)
    assert report.reuse_kind == "delta"
    return job, result


def _digest_spend_capped(_qa_bundle):
    bundle = build_corpus(CorpusSpec(seed=7171, n_records=64))
    runtime = AnalyticsRuntime.for_bundle(bundle, seed=7171, max_cost_usd=0.01)
    serving = runtime.serving()
    dataset = _template_builders(bundle)["classify-dept"]()
    job, result, _report = _submit_run(serving, dataset)
    assert job.truncated
    return job, result


def _digest_sharded(qa_bundle):
    serving = make_runtime(qa_bundle, shards=3).serving()
    job, result, _report = _submit_run(serving, filter_query(qa_bundle))
    return job, result


@pytest.mark.parametrize(
    "served",
    [
        _digest_miss, _digest_exact_replay, _digest_delta_replay,
        _digest_spend_capped, _digest_sharded,
    ],
    ids=["miss", "exact-replay", "delta-replay", "spend-capped", "shards-3"],
)
def test_job_fingerprint_is_the_runs_fingerprint(qa_bundle, served):
    job, result = served(qa_bundle)
    assert job.records
    assert job.fingerprint == result.fingerprint()


def test_batching_improves_latency_and_cost(qa_bundle):
    _rt_b, _jobs_b, batched = run_workload(qa_bundle, batching=True)
    _rt_s, _jobs_s, serial = run_workload(qa_bundle, batching=False)
    assert batched.latency_p99() < serial.latency_p99()
    assert batched.cost_per_query_usd() < serial.cost_per_query_usd()
    assert batched.makespan_s <= serial.makespan_s + 1e-9
    assert batched.rebate_total_usd() > 0.0
    assert 0.0 < batched.batch_fill() <= 1.0
    assert batched.waves and not serial.waves


@pytest.mark.parametrize("width", [0, -1])
def test_provider_width_below_one_is_a_configuration_error(width):
    with pytest.raises(ConfigurationError, match="provider_width"):
        CrossQueryScheduler(provider_width=width)


def test_empty_drain_is_harmless(qa_bundle):
    runtime = make_runtime(qa_bundle)
    serving = runtime.serving()
    report = serving.drain()
    assert report.jobs == [] and report.makespan_s == 0.0
    assert runtime.llm.clock.elapsed == 0.0


# ---------------------------------------------------------------------------
# Fairness under tenant skew
# ---------------------------------------------------------------------------


def _skewed_serving(qa_bundle, batching: bool):
    from repro.serve.workload import _template_builders

    runtime = make_runtime(qa_bundle)
    serving = runtime.serving(
        tenants=[TenantSpec("heavy"), TenantSpec("light")],
        provider_width=4,
        batching=batching,
    )
    # The heavy tenant floods six *distinct* queries (same-plan repeats
    # would collapse via its own scoped caches) before the light tenant's.
    builders = _template_builders(qa_bundle)
    for name in sorted(builders):
        serving.submit("heavy", builders[name](), arrival_s=0.0)
    serving.submit("light", filter_query(qa_bundle), arrival_s=0.0)
    return serving.drain()


def test_stride_scheduling_protects_light_tenant(qa_bundle):
    batched = _skewed_serving(qa_bundle, batching=True)
    serial = _skewed_serving(qa_bundle, batching=False)
    batched_summary = batched.tenant_summary()
    serial_summary = serial.tenant_summary()
    # Serially the light tenant waits behind the whole flood; fair-shared
    # waves let it finish far sooner.
    assert (
        batched_summary["light"]["mean_slowdown"]
        < serial_summary["light"]["mean_slowdown"]
    )
    assert (
        batched_summary["light"]["mean_latency_s"]
        < serial_summary["light"]["mean_latency_s"]
    )
    # Under stride scheduling the flood's cost lands on the flooding
    # tenant, not on the innocent light tenant.
    assert (
        batched_summary["light"]["mean_slowdown"]
        <= batched_summary["heavy"]["mean_slowdown"]
    )


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------


def test_budget_quota_rejects_typed(qa_bundle):
    runtime = make_runtime(qa_bundle)
    serving = runtime.serving(
        tenants=[TenantSpec("capped", budget_usd=1e-6)]
    )
    serving.submit("capped", filter_query(qa_bundle))  # spends past the cap
    events_before = len(runtime.llm.tracker.events)
    with pytest.raises(QuotaExceededError) as excinfo:
        serving.submit("capped", filter_query(qa_bundle))
    assert excinfo.value.tenant == "capped"
    assert isinstance(excinfo.value, ServingError)
    # The rejected query never touched the shared substrate.
    assert len(runtime.llm.tracker.events) == events_before
    state = serving.tenant("capped")
    assert state.admitted == 1 and state.rejected == 1


def test_quota_less_tenant_keeps_no_arrivals(qa_bundle):
    runtime = make_runtime(qa_bundle)
    serving = runtime.serving(tenants=[TenantSpec("steady")])
    dataset = filter_query(qa_bundle)
    for index in range(1000):
        serving.submit("steady", dataset, arrival_s=float(index))
    state = serving.tenant("steady")
    assert state.admitted == 1000
    # A tenant's state is a fixed set of counters: no per-query list grows.
    assert not any(isinstance(value, list) for value in vars(state).values())


def test_unknown_tenant_gets_default_spec(qa_bundle):
    runtime = make_runtime(qa_bundle)
    serving = runtime.serving()
    job = serving.submit("walk-in", filter_query(qa_bundle))
    assert job.tenant == "walk-in"
    assert serving.tenant("walk-in").spec == TenantSpec("walk-in")


# ---------------------------------------------------------------------------
# Tenant isolation on the shared caches
# ---------------------------------------------------------------------------


def test_tenants_never_share_cached_work(qa_bundle):
    runtime = make_runtime(qa_bundle)
    serving = runtime.serving()
    job_a = serving.submit("alice", filter_query(qa_bundle))
    job_b = serving.submit("bob", filter_query(qa_bundle))
    # Bob pays full freight: Alice's generation-cache entries and
    # materialized prefixes are invisible under his scope.
    assert job_b.raw_cost_usd == pytest.approx(job_a.raw_cost_usd)
    assert job_b.materialization_hits == 0
    assert normalized_records(job_b.records) == normalized_records(job_a.records)


def test_same_tenant_reuses_own_work(qa_bundle):
    runtime = make_runtime(qa_bundle)
    serving = runtime.serving()
    first = serving.submit("alice", filter_query(qa_bundle))
    second = serving.submit("alice", filter_query(qa_bundle))
    assert second.materialization_hits >= 1
    assert second.raw_cost_usd < first.raw_cost_usd
    assert normalized_records(second.records) == normalized_records(first.records)


def test_same_tenant_reuse_holds_when_served_queries_are_sharded(qa_bundle):
    runtime = make_runtime(qa_bundle, shards=4)
    serving = runtime.serving()
    first = serving.submit("alice", filter_query(qa_bundle))
    second = serving.submit("alice", filter_query(qa_bundle))
    # One replay decision at every shard count: the optimizer binds the
    # tenant's materialized boundary before the sharding pass.
    assert first.materialization_hits == 0
    assert second.materialization_hits == 1
    assert second.raw_cost_usd == 0.0
    assert runtime.llm.clock.elapsed == 0.0  # submit never moves time
    assert normalized_records(second.records) == normalized_records(first.records)


def test_scoped_fingerprints_are_namespaced(qa_bundle):
    scan = L.ScanOp(child=None, source=qa_bundle.source())
    flt = L.SemFilterOp(
        child=scan, instruction=instruction_for("qa.flag_urgent"), model=None
    )
    chain = [scan, flt]
    models = [None, "mini"]
    alice = prefix_fingerprints(chain, models, 7, scope="alice")
    bob = prefix_fingerprints(chain, models, 7, scope="bob")
    unscoped = prefix_fingerprints(chain, models, 7)
    assert alice[-1] and bob[-1] and unscoped[-1]
    assert len({alice[-1], bob[-1], unscoped[-1]}) == 3
    # The empty scope is the historical digest (persisted stores stay valid).
    assert unscoped == prefix_fingerprints(chain, models, 7, scope="")


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------


def test_per_tenant_metrics_and_serving_spans(qa_bundle):
    metrics = MetricsRegistry()
    tracer = Tracer()
    runtime = make_runtime(qa_bundle, metrics=metrics, tracer=tracer)
    serving = runtime.serving(provider_width=8)
    serving.submit("alice", filter_query(qa_bundle), arrival_s=0.0)
    serving.submit("bob", filter_query(qa_bundle), arrival_s=1.0)
    report = serving.drain()

    counters = metrics.snapshot()["counters"]
    assert counters["serving.tenant.alice.queries"] == 1
    assert counters["serving.tenant.bob.queries"] == 1
    assert counters["serving.tenant.alice.cost_usd"] > 0.0
    assert counters["serving.drains"] == 1
    assert counters["serving.waves"] == len(report.waves)
    latency = metrics.histogram("serving.tenant.alice.latency_s")
    assert latency.count == 1

    kinds = {span.kind for span in tracer.spans}
    assert "serving-query" in kinds and "serving-wave" in kinds
    query_tracks = {
        span.track for span in tracer.spans if span.kind == "serving-query"
    }
    assert query_tracks == {"tenant alice", "tenant bob"}


def test_rejections_counted(qa_bundle):
    metrics = MetricsRegistry()
    runtime = make_runtime(qa_bundle, metrics=metrics)
    serving = runtime.serving(tenants=[TenantSpec("capped", budget_usd=1e-6)])
    serving.submit("capped", filter_query(qa_bundle))
    with pytest.raises(QuotaExceededError):
        serving.submit("capped", filter_query(qa_bundle))
    assert metrics.snapshot()["counters"]["serving.tenant.capped.rejected"] == 1


def test_report_renders(qa_bundle):
    _rt, _jobs, report = run_workload(qa_bundle, batching=True)
    text = report.render()
    assert "SERVING SCHEDULE" in text
    assert "tenant-00" in text and "tenant-01" in text


# ---------------------------------------------------------------------------
# Workload driver
# ---------------------------------------------------------------------------


def test_submit_workload_collects_rejections(qa_bundle):
    runtime = make_runtime(qa_bundle)
    serving = runtime.serving(
        tenants=[
            TenantSpec("tenant-00", budget_usd=1e-6),
            TenantSpec("tenant-01"),
        ]
    )
    arrivals = build_arrivals(7, zipf_rates(2, 0.5), duration_s=20.0)
    jobs, rejected = submit_workload(serving, qa_bundle, arrivals)
    assert rejected, "the budget-capped tenant should spend past its cap"
    assert all(arrival.tenant == "tenant-00" for arrival in rejected)
    assert len(jobs) + len(rejected) == len(arrivals)
    report = serving.drain()
    assert serving.reports == [report]


def test_workload_trace_is_deterministic():
    rates = zipf_rates(3, base_rate=0.4)
    first = build_arrivals(11, rates, duration_s=30.0)
    second = build_arrivals(11, rates, duration_s=30.0)
    assert first == second
    assert first == sorted(first, key=lambda a: (a.arrival_s, a.tenant))
    # Zipf skew: the hottest tenant dominates the trace.
    per_tenant = {name: 0 for name in rates}
    for arrival in first:
        per_tenant[arrival.tenant] += 1
    assert per_tenant["tenant-00"] > per_tenant["tenant-02"]
    # Heavy-tailed template mix: more than one template shows up.
    assert len({arrival.template for arrival in first}) > 1


def test_served_query_runs_under_the_runtimes_options(qa_bundle):
    """A served query is a derivation of the runtime's config: the runtime's
    ``max_cost_usd`` reaches it (a second, from-scratch config ran uncapped)."""
    uncapped = make_runtime(qa_bundle).serving().submit("alice", filter_query(qa_bundle))
    assert not uncapped.truncated
    cap = uncapped.total_cost_usd / 4
    job = make_runtime(qa_bundle, max_cost_usd=cap).serving().submit(
        "alice", filter_query(qa_bundle)
    )
    assert job.truncated
    assert job.total_cost_usd < uncapped.total_cost_usd
