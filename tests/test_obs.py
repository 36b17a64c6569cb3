"""Tests for the observability layer: tracer, metrics, engine spans."""

import time

import pytest

from repro.data.datasets import enron as en
from repro.llm.faults import FaultConfig, FaultInjector, RetryPolicy
from repro.llm.oracle import SemanticOracle
from repro.llm.simulated import SimulatedLLM
from repro.obs import (
    NOOP_TRACER,
    NULL_METRICS,
    MetricsRegistry,
    Tracer,
    get_default_metrics,
    get_default_tracer,
    set_default_metrics,
    set_default_tracer,
    validate_spans,
    walk,
)
from repro.sem import Dataset, QueryProcessorConfig
from repro.utils.clock import VirtualClock


def _traced_llm(bundle, seed=2):
    tracer = Tracer()
    metrics = MetricsRegistry()
    llm = SimulatedLLM(
        oracle=SemanticOracle(bundle.registry),
        seed=seed,
        tracer=tracer,
        metrics=metrics,
    )
    return llm, tracer, metrics


def _two_filter_query(bundle, llm, **config_kwargs):
    """Two adjacent streamable operators: the engine fuses them."""
    config = QueryProcessorConfig(llm=llm, seed=2, **config_kwargs)
    dataset = (
        Dataset.from_source(bundle.source())
        .sem_filter(en.FILTER_MENTIONS)
        .sem_filter(en.FILTER_FIRSTHAND)
    )
    return dataset.run_with_report(config)


def _one_filter_query(bundle, llm, **config_kwargs):
    """A streamable run of one has nothing to fuse: every step is an
    operator step (a barrier), with per-call spans."""
    config = QueryProcessorConfig(llm=llm, seed=2, **config_kwargs)
    dataset = Dataset.from_source(bundle.source()).sem_filter(en.FILTER_MENTIONS)
    return dataset.run_with_report(config)


# ---------------------------------------------------------------------------
# Tracer fundamentals
# ---------------------------------------------------------------------------


def test_stack_spans_nest_and_read_the_clock():
    clock = VirtualClock()
    tracer = Tracer(clock)
    with tracer.span("outer", kind="query") as outer:
        clock.advance(5.0)
        with tracer.span("inner", kind="operator") as inner:
            clock.advance(2.0)
        clock.advance(1.0)
    assert outer.start_s == 0.0 and outer.end_s == 8.0
    assert inner.start_s == 5.0 and inner.end_s == 7.0
    assert inner.parent_id == outer.span_id
    validate_spans(tracer.spans)


def test_add_span_defaults_parent_to_stack_top():
    clock = VirtualClock()
    tracer = Tracer(clock)
    with tracer.span("outer") as outer:
        clock.advance(10.0)
        placed = tracer.add_span("cell", "cell", 1.0, 4.0, track="stage 0")
    assert placed.parent_id == outer.span_id
    assert placed.track == "stage 0"
    validate_spans(tracer.spans)


def test_exception_unwinding_closes_spans():
    clock = VirtualClock()
    tracer = Tracer(clock)
    with pytest.raises(RuntimeError):
        with tracer.span("outer"):
            with tracer.span("inner"):
                clock.advance(1.0)
                raise RuntimeError("boom")
    assert all(span.end_s is not None for span in tracer.spans)
    validate_spans(tracer.spans)


def test_walk_yields_depth_first():
    clock = VirtualClock()
    tracer = Tracer(clock)
    with tracer.span("a"):
        with tracer.span("b"):
            pass
        with tracer.span("c"):
            pass
    names = [(span.name, depth) for span, depth in walk(tracer.spans)]
    assert names == [("a", 0), ("b", 1), ("c", 1)]


def test_default_tracer_install_and_restore():
    tracer = Tracer()
    previous = set_default_tracer(tracer)
    try:
        assert get_default_tracer() is tracer
    finally:
        set_default_tracer(previous)
    assert get_default_tracer() is previous
    assert set_default_tracer(None) is previous
    assert get_default_tracer() is NOOP_TRACER


# ---------------------------------------------------------------------------
# No-op defaults
# ---------------------------------------------------------------------------


def test_noop_tracer_is_inert_and_allocation_free():
    ctx_a = NOOP_TRACER.span("anything", kind="query", attr=1)
    ctx_b = NOOP_TRACER.span("else")
    assert ctx_a is ctx_b  # shared singleton context: no per-call allocation
    with ctx_a as span:
        span.attributes["discarded"] = True
    assert span.attributes == {}
    assert NOOP_TRACER.enabled is False
    assert NOOP_TRACER.add_span("x", "y", 0.0, 1.0) is span


def test_llm_defaults_to_noop_observability(enron_bundle):
    llm = SimulatedLLM(oracle=SemanticOracle(enron_bundle.registry), seed=0)
    assert llm.tracer is NOOP_TRACER
    assert llm.metrics is NULL_METRICS
    llm.complete("hello", tag="t")
    assert list(llm.tracer.spans) == []


def test_noop_guard_overhead_is_bounded():
    """The disabled path is one attribute check; keep it within a coarse
    absolute budget so an accidental allocation-per-call regression fails."""
    tracer = NOOP_TRACER
    start = time.perf_counter()
    for _ in range(200_000):
        if tracer.enabled:  # pragma: no cover - never taken
            tracer.span("x")
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


def test_counters_and_histograms():
    metrics = MetricsRegistry()
    metrics.counter("llm.calls").inc()
    metrics.counter("llm.calls").inc(2)
    metrics.histogram("latency").observe(1.0)
    metrics.histogram("latency").observe(3.0)
    snapshot = metrics.snapshot()
    assert snapshot["counters"]["llm.calls"] == 3
    hist = snapshot["histograms"]["latency"]
    assert hist["count"] == 2 and hist["mean"] == 2.0
    assert hist["min"] == 1.0 and hist["max"] == 3.0
    rendered = metrics.render(title="M")
    assert "llm.calls" in rendered and "latency" in rendered


def test_null_metrics_is_inert():
    counter = NULL_METRICS.counter("x")
    counter.inc()
    assert NULL_METRICS.snapshot() == {"counters": {}, "histograms": {}}
    assert "disabled" in NULL_METRICS.render(title="M")
    previous = set_default_metrics(MetricsRegistry())
    set_default_metrics(None)
    assert get_default_metrics() is NULL_METRICS
    set_default_metrics(previous if previous is not NULL_METRICS else None)


# ---------------------------------------------------------------------------
# Engine + substrate instrumentation
# ---------------------------------------------------------------------------


def test_barrier_execution_span_tree(enron_bundle):
    llm, tracer, metrics = _traced_llm(enron_bundle)
    result, _report = _one_filter_query(enron_bundle, llm, parallelism=4)
    validate_spans(tracer.spans)
    assert all(span.end_s is not None for span in tracer.spans)
    assert not tracer.by_kind("pipeline-section")

    query = tracer.by_kind("query")[0]
    assert query.end_s == pytest.approx(llm.clock.elapsed)
    operators = tracer.by_kind("operator")
    assert [span.parent_id for span in operators] == [query.span_id] * len(operators)
    labels = [span.name for span in operators]
    assert any("SemFilter" in label for label in labels)

    # Every per-call span sits inside its operator (or optimize) span.
    calls = tracer.by_kind("llm-call")
    assert calls, "operator steps record per-call spans"
    by_id = {span.span_id: span for span in tracer.spans}
    for call in calls:
        parent = by_id[call.parent_id]
        assert call.end_s <= parent.end_s + 1e-6

    counters = metrics.snapshot()["counters"]
    assert counters["llm.calls"] == len(llm.tracker.events)
    assert result.operator_stats


def test_pipelined_sections_agree_with_schedule_makespan(enron_bundle):
    llm, tracer, _metrics = _traced_llm(enron_bundle)
    _two_filter_query(enron_bundle, llm, parallelism=4)
    validate_spans(tracer.spans)

    sections = tracer.by_kind("pipeline-section")
    assert sections
    for section in sections:
        makespan = section.attributes["makespan_s"]
        assert section.duration_s == pytest.approx(makespan)
        cells = [
            span for span in tracer.spans
            if span.kind == "cell" and span.parent_id == section.span_id
        ]
        assert cells
        # Cells are placed on the reconstructed schedule: the last cell's
        # end, relative to the section start, is exactly the makespan.
        assert max(cell.end_s for cell in cells) - section.start_s == pytest.approx(
            makespan
        )
        # Distinct per-stage tracks make the overlap visible.
        assert {cell.track for cell in cells} >= {"stage 0", "stage 1"}


def test_wave_positioned_call_spans_overlap(enron_bundle):
    """With parallelism k>1, calls within one wave share a start time and
    occupy distinct slot tracks."""
    llm, tracer, _metrics = _traced_llm(enron_bundle)
    _one_filter_query(enron_bundle, llm, parallelism=4)
    slot_calls = [
        span for span in tracer.by_kind("llm-call")
        if span.track and span.track.startswith("llm slot")
    ]
    assert slot_calls
    by_start: dict[float, set] = {}
    for span in slot_calls:
        by_start.setdefault(round(span.start_s, 9), set()).add(span.track)
    widths = [len(tracks) for tracks in by_start.values()]
    assert max(widths) > 1  # a genuine wave: overlapping calls, distinct slots


def test_fault_instrumentation(enron_bundle):
    tracer = Tracer()
    metrics = MetricsRegistry()
    llm = SimulatedLLM(
        oracle=SemanticOracle(enron_bundle.registry),
        seed=5,
        faults=FaultInjector(FaultConfig(rate=0.5), seed=5),
        retry=RetryPolicy(max_attempts=6),
        tracer=tracer,
        metrics=metrics,
    )
    from repro.errors import TransientLLMError

    for index in range(20):
        try:
            llm.complete(f"probe {index}", tag="probe")
        except TransientLLMError:
            pass  # a gave-up call still leaves a span + counters behind
    counters = metrics.snapshot()["counters"]
    assert counters.get("llm.retries", 0) > 0
    assert counters.get("llm.failed_attempts", 0) > 0
    assert any(name.startswith("faults.injected.") for name in counters)
    retried = [
        span for span in tracer.by_kind("llm-call")
        if span.attributes.get("retries", 0) > 0
    ]
    assert retried


def test_untagged_calls_inherit_the_current_span_name(enron_bundle):
    llm, tracer, _metrics = _traced_llm(enron_bundle)
    with tracer.span("adhoc-analysis"):
        llm.complete("what is up")
    assert llm.tracker.events[-1].tag == "adhoc-analysis"


def test_real_runs_leave_no_untagged_usage_events(enron_bundle):
    llm, tracer, _metrics = _traced_llm(enron_bundle)
    _two_filter_query(enron_bundle, llm, parallelism=2)
    assert all(event.tag for event in llm.tracker.events)


def test_agent_episode_step_and_tool_spans(legal_bundle):
    from repro.core.runtime import AnalyticsRuntime
    from repro.data.datasets.kramabench import QUERY_RATIO

    tracer = Tracer()
    metrics = MetricsRegistry()
    runtime = AnalyticsRuntime.for_bundle(
        legal_bundle, seed=7, tracer=tracer, metrics=metrics
    )
    context = runtime.make_context(legal_bundle)
    runtime.compute(context, QUERY_RATIO)
    validate_spans(tracer.spans)

    episodes = tracer.by_kind("agent-episode")
    steps = tracer.by_kind("agent-step")
    tools = tracer.by_kind("tool-call")
    assert episodes and steps and tools
    episode_ids = {span.span_id for span in episodes}
    assert all(span.parent_id in episode_ids for span in steps)
    counters = metrics.snapshot()["counters"]
    assert counters["agent.episodes"] >= 1
    assert counters["agent.steps"] == len(steps)
    assert runtime.tracer is tracer
    assert "agent.steps" in runtime.metrics.render()


def test_histogram_percentiles_nearest_rank():
    metrics = MetricsRegistry()
    hist = metrics.histogram("latency")
    for value in range(1, 101):  # 1..100
        hist.observe(float(value))
    assert hist.percentile(50) == 50.0
    assert hist.percentile(95) == 95.0
    assert hist.percentile(99) == 99.0
    assert hist.percentile(0) == 1.0  # nearest-rank floor: first sample
    snapshot = metrics.snapshot()["histograms"]["latency"]
    assert snapshot["p50"] == 50.0
    assert snapshot["p95"] == 95.0
    assert snapshot["p99"] == 99.0


def test_histogram_percentile_of_empty_is_zero():
    hist = MetricsRegistry().histogram("empty")
    assert hist.percentile(50) == 0.0
    assert NULL_METRICS.histogram("x").percentile(50) == 0.0


def test_histogram_decimation_is_deterministic_and_bounded():
    from repro.obs.metrics import SAMPLE_CAP

    def build():
        hist = MetricsRegistry().histogram("h")
        for value in range(3 * SAMPLE_CAP):
            hist.observe(float(value))
        return hist

    first, second = build(), build()
    assert len(first._samples) <= SAMPLE_CAP
    assert first._samples == second._samples
    assert first.percentile(50) == second.percentile(50)
    # The strided sample still tracks the distribution's spread.
    assert first.percentile(99) > first.percentile(50) > first.percentile(1)


def test_metrics_render_includes_percentile_columns():
    metrics = MetricsRegistry()
    metrics.histogram("latency").observe(2.0)
    rendered = metrics.render(title="M")
    assert "p50" in rendered and "p99" in rendered
