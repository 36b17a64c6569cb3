"""Tests for the trace exporters: Chrome trace JSON, JSONL, validation."""

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.data.datasets import enron as en
from repro.errors import ReproError, TraceValidationError
from repro.llm.oracle import SemanticOracle
from repro.llm.simulated import SimulatedLLM
from repro.obs import (
    MetricsRegistry,
    Tracer,
    chrome_trace,
    validate_chrome_trace,
    validate_spans,
    write_chrome_trace,
    write_jsonl,
)
from repro.qa.oracles import check_trace
from repro.sem import Dataset, QueryProcessorConfig
from repro.utils.clock import VirtualClock

from tests.golden_builders import GOLDEN_BUILDERS, hand_built_tracer, render_golden

GOLDEN_DIR = Path(__file__).parent / "goldens"
GOLDEN = GOLDEN_DIR / "chrome_trace_golden.json"

# The deterministic span tree shared with scripts/update_goldens.py.
_hand_built_tracer = hand_built_tracer


def test_chrome_trace_matches_golden_file():
    tracer, metrics = _hand_built_tracer()
    payload = chrome_trace(tracer, metrics=metrics)
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert payload == expected


@pytest.mark.parametrize("filename", sorted(GOLDEN_BUILDERS))
def test_goldens_are_up_to_date(filename):
    # Byte-for-byte: scripts/update_goldens.py must be a no-op on a clean
    # tree.  A parse-level match with different formatting still fails here.
    on_disk = (GOLDEN_DIR / filename).read_text(encoding="utf-8")
    assert on_disk == render_golden(GOLDEN_BUILDERS[filename]()), (
        f"{filename} is stale; run: PYTHONPATH=src python scripts/update_goldens.py"
    )


def test_chrome_trace_structure():
    tracer, metrics = _hand_built_tracer()
    payload = chrome_trace(tracer, metrics=metrics)
    events = payload["traceEvents"]
    x_events = [e for e in events if e["ph"] == "X"]
    meta = [e for e in events if e["ph"] == "M"]
    assert len(x_events) == 8
    track_names = {
        e["args"]["name"] for e in meta if e["name"] == "thread_name"
    }
    assert track_names == {
        "runtime", "llm slot 0", "llm slot 1", "stage 0",
        "shard 0 stage 0", "shard 1 stage 0",
    }
    assert payload["otherData"]["clock_elapsed_s"] == 4.0
    assert payload["otherData"]["metrics"]["counters"]["llm.calls"] == 3
    # Times are microseconds.
    query = next(e for e in x_events if e["name"] == "query:test")
    assert query["ts"] == 0.0 and query["dur"] == pytest.approx(4e6)


def test_write_and_validate_chrome_trace(tmp_path):
    tracer, metrics = _hand_built_tracer()
    path = write_chrome_trace(tmp_path / "trace.json", tracer, metrics=metrics)
    summary = validate_chrome_trace(path)
    assert summary["events"] == 8
    assert summary["tracks"] == 6
    assert summary["trace_end_s"] == pytest.approx(4.0)
    assert summary["drift"] == pytest.approx(0.0)


def test_validate_chrome_trace_rejects_drift(tmp_path):
    tracer, _metrics = _hand_built_tracer()
    path = write_chrome_trace(
        tmp_path / "trace.json", tracer, clock_elapsed_s=30.0
    )
    with pytest.raises(ValueError, match="virtual\\s+clock|clock elapsed"):
        validate_chrome_trace(path)


def test_validate_chrome_trace_rejects_unbalanced_spans(tmp_path):
    payload = {
        "traceEvents": [
            {"name": "a", "cat": "x", "ph": "X", "ts": 0.0, "dur": 10.0,
             "pid": 1, "tid": 0, "args": {}},
            {"name": "b", "cat": "x", "ph": "X", "ts": 5.0, "dur": 10.0,
             "pid": 1, "tid": 0, "args": {}},
        ],
        "otherData": {},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValueError, match="unbalanced"):
        validate_chrome_trace(path)


_EVENT = {"name": "a", "ph": "X", "ts": 0.0, "dur": 10.0, "pid": 1, "tid": 0}
#: A malformed trace file and what it breaks: each is a TraceValidationError.
MALFORMED_TRACES = {
    "truncated": json.dumps({"traceEvents": [_EVENT]})[:30],
    "not-json": "traceEvents: []",
    "not-utf8": b"\xff\xfe{}",
    "array": json.dumps([_EVENT]),
    "string": json.dumps("trace"),
    "events-not-a-list": json.dumps({"traceEvents": {"a": _EVENT}}),
    "event-not-an-object": json.dumps({"traceEvents": [_EVENT, 3]}),
    "otherdata-not-an-object": json.dumps({"traceEvents": [_EVENT], "otherData": []}),
    **{
        f"no-{key}": json.dumps({"traceEvents": [{k: v for k, v in _EVENT.items() if k != key}]})
        for key in ("dur", "ts", "tid", "name")
    },
    "string-dur": json.dumps({"traceEvents": [{**_EVENT, "dur": "10"}]}),
    "string-ts": json.dumps({"traceEvents": [{**_EVENT, "ts": "0"}]}),
    "null-dur": json.dumps({"traceEvents": [{**_EVENT, "dur": None}]}),
    "list-tid": json.dumps({"traceEvents": [{**_EVENT, "tid": [0]}]}),
    "string-clock": json.dumps({"traceEvents": [_EVENT], "otherData": {"clock_elapsed_s": "1"}}),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_TRACES))
def test_malformed_trace_files_raise_trace_validation_error(tmp_path, name):
    content = MALFORMED_TRACES[name]
    path = tmp_path / "trace.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")
    with pytest.raises(TraceValidationError, match=r"trace\.json: "):
        validate_chrome_trace(path)


def test_validate_spans_rejects_escaping_child():
    clock = VirtualClock()
    tracer = Tracer(clock)
    with tracer.span("parent"):
        clock.advance(1.0)
        tracer.add_span("child", "cell", 0.5, 5.0)
    with pytest.raises(ValueError, match="escapes parent"):
        validate_spans(tracer.spans)


def test_trace_violations_are_typed_and_the_qa_oracle_reports_them():
    clock = VirtualClock()
    tracer = Tracer(clock)
    with tracer.span("parent", kind="query"):
        clock.advance(1.0)
        tracer.add_span("child", "cell", 0.5, 5.0)
    with pytest.raises(TraceValidationError) as caught:
        validate_spans(tracer.spans)
    assert isinstance(caught.value, ReproError) and isinstance(caught.value, ValueError)
    baseline = [SimpleNamespace(spans=tracer.spans, error=None)]
    [violation] = check_trace(SimpleNamespace(observations={"baseline": baseline}))
    assert "escapes parent" in str(violation)


def test_write_jsonl_roundtrip(tmp_path):
    tracer, metrics = _hand_built_tracer()
    path = write_jsonl(tmp_path / "events.jsonl", tracer, metrics=metrics)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    spans = [line for line in lines if line["type"] == "span"]
    counters = [line for line in lines if line["type"] == "counter"]
    histograms = [line for line in lines if line["type"] == "histogram"]
    assert len(spans) == len(tracer.spans)
    assert {span["name"] for span in spans} >= {"query:test", "gpt-4o"}
    assert counters[0]["name"] == "llm.calls" and counters[0]["value"] == 3
    assert histograms[0]["count"] == 1


def test_traced_query_exports_a_valid_trace(tmp_path, enron_bundle):
    tracer = Tracer()
    metrics = MetricsRegistry()
    llm = SimulatedLLM(
        oracle=SemanticOracle(enron_bundle.registry),
        seed=2,
        tracer=tracer,
        metrics=metrics,
    )
    config = QueryProcessorConfig(llm=llm, seed=2, parallelism=4)
    (
        Dataset.from_source(enron_bundle.source())
        .sem_filter(en.FILTER_MENTIONS)
        .sem_filter(en.FILTER_FIRSTHAND)
        .run(config)
    )
    path = write_chrome_trace(tmp_path / "query.trace.json", tracer, metrics=metrics)
    summary = validate_chrome_trace(path, tolerance=0.01)
    assert summary["clock_elapsed_s"] == pytest.approx(llm.clock.elapsed)
    assert summary["drift"] <= 0.01
    jsonl = write_jsonl(
        tmp_path / "query.jsonl", tracer, metrics=metrics, tracker=llm.tracker
    )
    lines = [json.loads(line) for line in jsonl.read_text().splitlines()]
    usage = [line for line in lines if line["type"] == "usage_event"]
    assert len(usage) == len(llm.tracker.events)


def test_cli_trace_flag_end_to_end(tmp_path, capsys):
    from repro.cli import main

    trace_path = tmp_path / "cli.trace.json"
    code = main(
        [
            "query",
            "Compute the ratio between the number of identity theft reports "
            "in the year 2024 and the number of identity theft reports in "
            "the year 2001.",
            "--dataset",
            "legal",
            "--trace",
            str(trace_path),
            "--metrics",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert trace_path.exists()
    assert (tmp_path / "cli.trace.jsonl").exists()
    assert "RUNTIME METRICS" in out and "llm.calls" in out
    summary = validate_chrome_trace(trace_path, tolerance=0.01)
    assert summary["drift"] <= 0.01

    # The defaults were restored: a fresh LLM is back to no-op tracing.
    from repro.obs import NOOP_TRACER, get_default_tracer

    assert get_default_tracer() is NOOP_TRACER


# ---------------------------------------------------------------------------
# Span-kind and sibling-overlap validation
# ---------------------------------------------------------------------------


def _closed_tracer():
    clock = VirtualClock()
    tracer = Tracer(clock)
    with tracer.span("query:t", kind="query"):
        clock.advance(4.0)
    return tracer


def test_validate_spans_rejects_unknown_kind():
    clock = VirtualClock()
    tracer = Tracer(clock)
    with tracer.span("mystery", kind="wat"):
        clock.advance(1.0)
    with pytest.raises(ValueError, match="unknown kind 'wat'"):
        validate_spans(tracer.spans)


def test_validate_spans_accepts_replan_and_stats_ingest_kinds():
    clock = VirtualClock()
    tracer = Tracer(clock)
    with tracer.span("query:t", kind="query"):
        with tracer.span("replan", kind="replan", cause="divergence"):
            pass
        clock.advance(1.0)
        with tracer.span("stats.ingest", kind="stats.ingest", observations=3):
            pass
    validate_spans(tracer.spans)  # must not raise


def test_validate_spans_rejects_partially_overlapping_siblings():
    tracer = _closed_tracer()
    parent = tracer.spans[0]
    tracer.add_span("a", "cell", 0.0, 2.0, track="stage 0", parent=parent)
    tracer.add_span("b", "cell", 1.0, 3.0, track="stage 0", parent=parent)
    with pytest.raises(ValueError, match="partially overlaps sibling"):
        validate_spans(tracer.spans)


def test_validate_spans_allows_nested_and_abutting_siblings():
    tracer = _closed_tracer()
    parent = tracer.spans[0]
    tracer.add_span("outer", "cell", 0.0, 3.0, track="stage 0", parent=parent)
    tracer.add_span("inner", "cell", 1.0, 2.0, track="stage 0", parent=parent)
    tracer.add_span("next", "cell", 3.0, 4.0, track="stage 0", parent=parent)
    validate_spans(tracer.spans)  # nest + abut: fine


def test_validate_spans_ignores_zero_duration_markers():
    tracer = _closed_tracer()
    parent = tracer.spans[0]
    tracer.add_span("a", "cell", 0.0, 2.0, track="stage 0", parent=parent)
    tracer.add_span("marker", "cell", 1.0, 1.0, track="stage 0", parent=parent)
    validate_spans(tracer.spans)


def test_validate_spans_allows_overlapping_roots():
    # Concurrent serving queries overlap on a tenant track by design.
    tracer = Tracer(VirtualClock())
    tracer.add_span("q0", "serving-query", 0.0, 2.0, track="tenant a")
    tracer.add_span("q1", "serving-query", 1.0, 3.0, track="tenant a")
    validate_spans(tracer.spans)


def test_jsonl_histograms_carry_percentiles(tmp_path):
    tracer, metrics = _hand_built_tracer()
    path = write_jsonl(tmp_path / "events.jsonl", tracer, metrics=metrics)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    histograms = [line for line in lines if line["type"] == "histogram"]
    assert histograms and all(
        {"p50", "p95", "p99"} <= set(line) for line in histograms
    )
