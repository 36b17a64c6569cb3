"""Multi-tenant serving: timelines, batching, fairness, quotas, isolation."""

from __future__ import annotations

import pytest

from repro.core.runtime import AnalyticsRuntime
from repro.data.schemas import Field
from repro.errors import QuotaExceededError, ServingError, TransientLLMError
from repro.llm.faults import FaultConfig, RetryPolicy
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.qa.corpus import CorpusSpec, build_corpus, instruction_for
from repro.qa.plans import normalized_records
from repro.sem import logical as L
from repro.sem.dataset import Dataset
from repro.sem.materialize import prefix_fingerprints
from repro.sem.streaming import RefreshPolicy
from repro.serve import (
    CallTimeline,
    ServingRuntime,
    TenantSpec,
    build_arrivals,
    submit_workload,
    zipf_rates,
)


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
        tenants=[TenantSpec("tenant-00", weight=2.0), TenantSpec("tenant-01")],
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
    assert job.timeline.total_calls() > 0
    assert job.timeline.standalone_duration() > 0.0
    assert job.raw_cost_usd > 0.0
    assert len(job.records) > 0
    # Call metadata survived positional pairing: model names are present.
    assert any(
        call.model is not None
        for step in job.timeline.steps
        for call in step.calls
    )


def test_serve_sink_alone_selects_operator_steps(qa_bundle):
    """The engine's one unfused case is derived, never configured: a
    submit leaves the clock untouched, runs no fused section and captures
    every operator boundary; the same plan off the sink fuses."""
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
    assert tracer.by_kind("pipeline-section") == []
    assert len(tracer.by_kind("operator")) == 4  # scan + three operator steps
    assert tracer.by_kind("query")[0].attributes["pipeline"] is False
    # One store entry per costly boundary: what serve_mix replays from.
    assert len(runtime.materialization_store) == 3

    tracer = Tracer()
    direct = make_runtime(qa_bundle, tracer=tracer)
    result = three_stage().run(
        QueryProcessorConfig(
            llm=direct.llm, seed=7, optimize=False, parallelism=4,
            materialization_store=direct.materialization_store,
        )
    )
    assert normalized_records(result.records) == normalized_records(job.records)
    assert len(tracer.by_kind("pipeline-section")) == 1
    assert tracer.by_kind("query")[0].attributes["pipeline"] is True
    assert direct.llm.clock.elapsed == pytest.approx(result.total_time_s)
    assert result.total_time_s > 0.0
    assert len(direct.materialization_store) == 1  # the section's last boundary


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


def test_batching_improves_latency_and_cost(qa_bundle):
    _rt_b, _jobs_b, batched = run_workload(qa_bundle, batching=True)
    _rt_s, _jobs_s, serial = run_workload(qa_bundle, batching=False)
    assert batched.latency_p99() < serial.latency_p99()
    assert batched.cost_per_query_usd() < serial.cost_per_query_usd()
    assert batched.makespan_s <= serial.makespan_s + 1e-9
    assert batched.rebate_total_usd() > 0.0
    assert 0.0 < batched.batch_fill() <= 1.0
    assert batched.waves and not serial.waves


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


def test_weights_shift_capacity(qa_bundle):
    runtime = make_runtime(qa_bundle)
    serving = runtime.serving(
        tenants=[TenantSpec("a", weight=4.0), TenantSpec("b", weight=1.0)],
        provider_width=2,
        batching=True,
    )
    for _ in range(3):
        serving.submit("a", filter_query(qa_bundle), arrival_s=0.0)
        serving.submit("b", filter_query(qa_bundle), arrival_s=0.0)
    report = serving.drain()
    summary = report.tenant_summary()
    assert summary["a"]["mean_latency_s"] <= summary["b"]["mean_latency_s"]


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
    assert excinfo.value.reason == "budget"
    assert isinstance(excinfo.value, ServingError)
    # The rejected query never touched the shared substrate.
    assert len(runtime.llm.tracker.events) == events_before
    state = serving.tenant("capped")
    assert state.admitted == 1 and state.rejected == 1


def test_rate_quota_rejects_typed_and_recovers(qa_bundle):
    runtime = make_runtime(qa_bundle)
    serving = runtime.serving(
        tenants=[TenantSpec("bursty", max_per_window=2, window_s=10.0)]
    )
    serving.submit("bursty", filter_query(qa_bundle), arrival_s=0.0)
    serving.submit("bursty", filter_query(qa_bundle), arrival_s=1.0)
    with pytest.raises(QuotaExceededError) as excinfo:
        serving.submit("bursty", filter_query(qa_bundle), arrival_s=2.0)
    assert excinfo.value.reason == "rate"
    assert excinfo.value.tenant == "bursty"
    # Once the window slides past the burst, admission resumes.
    job = serving.submit("bursty", filter_query(qa_bundle), arrival_s=15.0)
    assert job.tenant == "bursty"
    assert serving.tenant("bursty").rejected == 1


def test_unknown_tenant_gets_default_spec(qa_bundle):
    runtime = make_runtime(qa_bundle)
    serving = runtime.serving()
    job = serving.submit("walk-in", filter_query(qa_bundle))
    assert job.tenant == "walk-in"
    spec = serving.tenant("walk-in").spec
    assert spec.budget_usd is None and spec.max_per_window is None


def test_tenant_spec_validation():
    with pytest.raises(ValueError):
        TenantSpec("bad", weight=0.0)
    with pytest.raises(ValueError):
        TenantSpec("bad", window_s=0.0)


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
    # One replay decision at every shard count: the optimizer splices the
    # tenant's materialized boundary in before the sharding pass.
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
            TenantSpec("tenant-00", max_per_window=1, window_s=60.0),
            TenantSpec("tenant-01"),
        ]
    )
    arrivals = build_arrivals(7, zipf_rates(2, 0.5), duration_s=20.0)
    jobs, rejected = submit_workload(serving, qa_bundle, arrivals)
    assert rejected, "the rate-capped tenant should overflow its window"
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


# ---------------------------------------------------------------------------
# Standing queries served through admission control
# ---------------------------------------------------------------------------


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


def test_standing_query_refreshes_through_serving_layer(qa_bundle):
    runtime = make_runtime(qa_bundle)
    serving = runtime.serving(tenants=[TenantSpec("live")])
    records, source, dataset = _live_feed(qa_bundle, 8)
    query = serving.register_standing("live", "feed", dataset)
    assert query.name == "live:feed"
    source.append(records[8:12])
    (tick,) = serving.pump_standing()
    assert tick.fired == "count"
    assert not tick.deferred
    # The served standing view matches a from-scratch run over the full set.
    fresh = make_runtime(qa_bundle)
    baseline = fresh.serving(tenants=[TenantSpec("solo")]).submit(
        "solo", _live_feed(qa_bundle, 12)[2], arrival_s=0.0
    )
    assert normalized_records(query.records) == normalized_records(
        baseline.records
    )


def test_served_append_tick_diffs_by_identity(qa_bundle, monkeypatch):
    """An append tick through ``pump_standing`` replays the stored view as
    the same objects, so the changelog costs no record rendering."""
    from repro.sem import streaming

    runtime = make_runtime(qa_bundle)
    serving = runtime.serving(tenants=[TenantSpec("live")])
    records, source, dataset = _live_feed(qa_bundle, 8)
    query = serving.register_standing("live", "feed", dataset)
    assert query.records
    calls = []
    monkeypatch.setattr(
        streaming, "_record_key", lambda record: calls.append(record) or record.uid
    )
    source.append(records[8:12])
    (tick,) = serving.pump_standing()
    assert not tick.deferred
    assert calls == []
    assert query.folded() == query.records


def test_standing_tick_deferred_by_tenant_quota(qa_bundle):
    runtime = make_runtime(qa_bundle)
    serving = runtime.serving(
        tenants=[TenantSpec("broke", max_per_window=1, window_s=100.0)]
    )
    records, source, dataset = _live_feed(qa_bundle, 8)
    query = serving.register_standing("broke", "feed", dataset, prime=False)
    # An interactive query burns the tenant's admission window first.
    serving.submit("broke", _live_feed(qa_bundle, 8)[2], arrival_s=0.0)
    source.append(records[8:10])
    (tick,) = serving.pump_standing()
    assert tick.deferred is True
    # The pending delta survives the rejection for the next pump.
    assert query.pending_appends == 2


def test_served_query_runs_under_the_runtimes_options(qa_bundle):
    """A served query is a derivation of the runtime's config: the runtime's
    ``on_failure`` reaches it (a second, from-scratch config ran ``skip``)."""
    runtime = make_runtime(
        qa_bundle,
        on_failure="raise",
        fault_config=FaultConfig(rate=1.0),
        retry_policy=RetryPolicy(enabled=False),
    )
    with pytest.raises(TransientLLMError):
        runtime.serving().submit("alice", filter_query(qa_bundle))


def _standing_feed(qa_bundle, n_base: int):
    records, source, dataset = _live_feed(qa_bundle, n_base)
    return records, source, dataset.sem_map(
        Field("customer", str, "customer name"), instruction_for("qa.customer")
    )


def test_served_standing_tick_reports_its_reuse(qa_bundle):
    """The served runner hands the optimizer report back, so a served tick
    reads like the same query on ``runtime.standing()``."""
    runtime = make_runtime(qa_bundle)
    serving = runtime.serving()
    records, source, dataset = _standing_feed(qa_bundle, 6)
    query = serving.register_standing("live", "feed", dataset)
    source.append(records[6:11])
    (served,) = serving.pump_standing()

    direct_runtime = make_runtime(qa_bundle)
    manager = direct_runtime.standing()
    _records, direct_source, direct_dataset = _standing_feed(qa_bundle, 6)
    manager.register(
        "feed", direct_dataset, direct_runtime.program_config("feed", optimize=False)
    )
    direct_source.append(records[6:11])
    (direct,) = manager.pump()

    def reuse(tick):
        return tick.reuse_kind, tick.delta_records, tick.reused_prefix

    assert reuse(served) == reuse(direct) == ("delta", 5, 3)
    assert query.last_report is not None
    assert "MaterializedScan" in query.explain()


def test_served_and_direct_standing_ticks_agree(qa_bundle):
    """One standing plan ticked through ``serving.register_standing`` and
    through ``runtime.standing()``: the served query is registered on its
    tenant's derivation of the runtime's config, the direct one on the same
    derivation, and the manager measures both ticks the same way."""

    def served(runtime, dataset):
        serving = runtime.serving()
        query = serving.register_standing("live", "feed", dataset)
        assert query.config.scope == "live" and query.config.llm is runtime.llm
        return query, serving.pump_standing

    def direct(runtime, dataset):
        manager = runtime.standing()
        config = runtime.program_config(
            "feed", optimize=False, parallelism=4, scope="live"
        )
        return manager.register("live:feed", dataset, config), manager.pump

    def ticks(register):
        runtime = make_runtime(qa_bundle)
        records, source, dataset = _standing_feed(qa_bundle, 6)
        query, pump = register(runtime, dataset)
        source.append(records[6:9])
        pump()
        source.update(query.records[0].parent_uids[0], {"priority": 9})
        pump()
        source.append(records[9:11])
        pump()
        return [
            (
                tick.fired,
                tick.cost_usd,
                (tick.reuse_kind, tick.reused_prefix, tick.delta_records),
                [(entry.kind, entry.position, entry.uid) for entry in tick.changelog],
            )
            for tick in query.ticks
        ]

    served_ticks = ticks(served)
    assert [tick[0] for tick in served_ticks] == ["register", "count", "update", "count"]
    assert served_ticks == ticks(direct)


def test_served_standing_query_explains_its_last_served_run(qa_bundle):
    """Under a count trigger a served refresh keeps the served run's report,
    and ``explain()`` renders that run's EXPLAIN ANALYZE above the footer."""
    from repro.sem.explain import explain_analyze

    runtime = make_runtime(qa_bundle)
    serving = runtime.serving()
    records, source, dataset = _standing_feed(qa_bundle, 6)
    query = serving.register_standing(
        "live", "feed", dataset, policy=RefreshPolicy(trigger="count", count=5)
    )
    source.append(records[6:9])
    assert serving.pump_standing() == []  # 3 pending < 5: keep batching
    source.append(records[9:11])
    (tick,) = serving.pump_standing()
    assert tick.fired == "count" and not tick.deferred
    report = query.last_report
    assert (report.reuse_kind, report.reuse_delta_records) == ("delta", 5)
    assert query.last_result.records == query.records
    body = explain_analyze(query.last_result, report)
    assert "MaterializedScan" in body
    assert query.explain() == body + "\n\n" + query.refresh_footer()
    assert "fired by count" in query.explain()
