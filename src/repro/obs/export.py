"""Trace exporters: JSONL event log + Chrome-trace (Perfetto) JSON.

Two consumers, two formats:

- :func:`write_jsonl` — one JSON object per line (spans, then metric
  snapshots, then raw usage events when a tracker is supplied).  Greppable,
  diffable, streamable.
- :func:`chrome_trace` / :func:`write_chrome_trace` — the Chrome trace
  event format (``"X"`` complete events with microsecond ``ts``/``dur``),
  loadable in https://ui.perfetto.dev or ``chrome://tracing``.  Each span
  track becomes a named thread: stack spans land on the ``runtime`` track,
  pipelined (batch, stage) cells on per-stage tracks, and parallel LLM
  calls on per-slot tracks — so pipeline overlap and wave fan-out are
  literally visible as parallel bars.

:func:`validate_chrome_trace` is the acceptance gate used by tests and
``scripts/check.sh``: the file must parse, spans must nest/abut cleanly on
every track, and the trace's end must match the virtual clock's elapsed
time (recorded in ``otherData``) within 1%.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.errors import TraceValidationError
from repro.obs.tracer import Span, Tracer

if TYPE_CHECKING:
    from repro.llm.usage import UsageTracker
    from repro.obs.metrics import MetricsRegistry

#: Process id used for all events (single simulated process).
PID = 1

#: Track (thread) name for stack spans with no explicit track.
DEFAULT_TRACK = "runtime"

#: Nesting slack in microseconds (float rounding across schedule math).
_NEST_EPS_US = 0.5

#: Every span kind the runtime emits.  :func:`validate_spans` rejects
#: anything else — a typo'd kind would otherwise slip past downstream
#: consumers (the stats store dispatches on kind) unnoticed.
KNOWN_SPAN_KINDS = frozenset(
    {
        "span",
        "cli",
        "query",
        "optimize",
        "profile",
        "reuse",
        "replan",
        "exchange",
        "stats.ingest",
        "operator",
        "pipeline-section",
        "cell",
        "llm-call",
        "trial",
        "tool-call",
        "agent-episode",
        "agent-step",
        "serving-query",
        "serving-wave",
        "standing-query",
        "standing-tick",
        "changelog",
    }
)


def _us(seconds: float) -> float:
    return seconds * 1e6


def chrome_trace(
    tracer: Tracer,
    clock_elapsed_s: float | None = None,
    metrics: "MetricsRegistry | None" = None,
) -> dict:
    """Build a Chrome-trace-format dict from ``tracer``'s spans."""
    if clock_elapsed_s is None and tracer.clock is not None:
        clock_elapsed_s = tracer.clock.elapsed
    track_ids: dict[str, int] = {DEFAULT_TRACK: 0}
    events: list[dict] = []
    for span in tracer.spans:
        track = span.track or DEFAULT_TRACK
        tid = track_ids.setdefault(track, len(track_ids))
        end = span.end_s if span.end_s is not None else span.start_s
        event: dict[str, Any] = {
            "name": span.name,
            "cat": span.kind,
            "ph": "X",
            "ts": _us(span.start_s),
            "dur": _us(end - span.start_s),
            "pid": PID,
            "tid": tid,
        }
        args = dict(span.attributes)
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        event["args"] = args
        events.append(event)

    metadata = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": PID,
            "args": {"name": "repro (virtual time)"},
        }
    ]
    for track, tid in track_ids.items():
        metadata.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": PID,
                "tid": tid,
                "args": {"name": track},
            }
        )
        metadata.append(
            {"name": "thread_sort_index", "ph": "M", "pid": PID, "tid": tid,
             "args": {"sort_index": tid}}
        )

    other: dict[str, Any] = {"generator": "repro.obs"}
    if clock_elapsed_s is not None:
        other["clock_elapsed_s"] = clock_elapsed_s
    if metrics is not None:
        other["metrics"] = metrics.snapshot()
    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def write_chrome_trace(
    path: str | Path,
    tracer: Tracer,
    clock_elapsed_s: float | None = None,
    metrics: "MetricsRegistry | None" = None,
) -> Path:
    path = Path(path)
    payload = chrome_trace(tracer, clock_elapsed_s=clock_elapsed_s, metrics=metrics)
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return path


def span_to_dict(span: Span) -> dict:
    return {
        "type": "span",
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "name": span.name,
        "kind": span.kind,
        "start_s": span.start_s,
        "end_s": span.end_s,
        "track": span.track,
        "attributes": span.attributes,
    }


def write_jsonl(
    path: str | Path,
    tracer: Tracer,
    metrics: "MetricsRegistry | None" = None,
    tracker: "UsageTracker | None" = None,
) -> Path:
    """Write spans (+ metrics snapshot, + usage events) as JSON lines."""
    path = Path(path)
    lines = [json.dumps(span_to_dict(span)) for span in tracer.spans]
    if metrics is not None:
        snapshot = metrics.snapshot()
        for name, value in snapshot["counters"].items():
            lines.append(json.dumps({"type": "counter", "name": name, "value": value}))
        for name, stats in snapshot["histograms"].items():
            lines.append(json.dumps({"type": "histogram", "name": name, **stats}))
    if tracker is not None:
        for event in tracker.events:
            lines.append(
                json.dumps(
                    {
                        "type": "usage_event",
                        "model": event.model,
                        "tag": event.tag,
                        "input_tokens": event.input_tokens,
                        "output_tokens": event.output_tokens,
                        "cost_usd": event.cost_usd,
                        "latency_s": event.latency_s,
                        "cached": event.cached,
                        "failed": event.failed,
                        "retries": event.retries,
                        "error": event.error,
                    }
                )
            )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def validate_spans(spans: list[Span]) -> None:
    """Structural checks on a span tree; raises TraceValidationError on violation.

    Every span must be closed, carry a known kind, know its parent (or be
    a root), and lie within its parent's interval (small float slack).
    Siblings (same parent, same track) must nest or abut — a partial
    overlap means the trace would render as garbage in Perfetto and is
    rejected here instead of silently exported.  Root spans are exempt
    from the overlap check: concurrent serving queries legitimately
    overlap on a tenant's track.
    """
    by_id = {span.span_id: span for span in spans}
    eps = 1e-6
    for span in spans:
        if span.end_s is None:
            raise TraceValidationError(f"span {span.span_id} ({span.name!r}) never closed")
        if span.end_s < span.start_s:
            raise TraceValidationError(
                f"span {span.span_id} ({span.name!r}) ends before it starts"
            )
        if span.kind not in KNOWN_SPAN_KINDS:
            raise TraceValidationError(
                f"span {span.span_id} ({span.name!r}) has unknown kind "
                f"{span.kind!r}; known kinds: {sorted(KNOWN_SPAN_KINDS)}"
            )
        if span.parent_id is None:
            continue
        parent = by_id.get(span.parent_id)
        if parent is None:
            raise TraceValidationError(f"span {span.span_id} has unknown parent {span.parent_id}")
        if parent.end_s is None:
            continue
        if span.start_s < parent.start_s - eps or span.end_s > parent.end_s + eps:
            raise TraceValidationError(
                f"span {span.span_id} ({span.name!r}) "
                f"[{span.start_s:.6f}, {span.end_s:.6f}] escapes parent "
                f"{parent.span_id} ({parent.name!r}) "
                f"[{parent.start_s:.6f}, {parent.end_s:.6f}]"
            )

    siblings: dict[tuple, list[Span]] = {}
    for span in spans:
        if span.parent_id is None:
            continue
        siblings.setdefault((span.parent_id, span.track), []).append(span)
    for group in siblings.values():
        group.sort(key=lambda s: (s.start_s, -(s.end_s - s.start_s)))
        stack: list[Span] = []
        for span in group:
            if span.end_s - span.start_s <= eps:
                continue  # instant markers never unbalance
            while stack and span.start_s >= stack[-1].end_s - eps:
                stack.pop()
            if stack and span.end_s > stack[-1].end_s + eps:
                top = stack[-1]
                raise TraceValidationError(
                    f"span {span.span_id} ({span.name!r}) "
                    f"[{span.start_s:.6f}, {span.end_s:.6f}] partially overlaps "
                    f"sibling {top.span_id} ({top.name!r}) "
                    f"[{top.start_s:.6f}, {top.end_s:.6f}] on track {span.track!r}"
                )
            stack.append(span)


def validate_chrome_trace(path: str | Path, tolerance: float = 0.01) -> dict:
    """Parse and check an exported Chrome trace; returns a summary dict.

    Checks: the JSON parses; there is at least one complete (``"X"``)
    event; on every track, events nest or abut without partial overlap
    (balanced spans); and, when ``otherData.clock_elapsed_s`` is present,
    the last event ends within ``tolerance`` of the clock's elapsed time.
    Raises TraceValidationError on any violation.
    """
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    events = [e for e in payload.get("traceEvents", []) if e.get("ph") == "X"]
    if not events:
        raise TraceValidationError(f"{path}: no complete ('X') trace events")

    by_track: dict[int, list[dict]] = {}
    for event in events:
        if event["dur"] < 0:
            raise TraceValidationError(f"{path}: negative duration on {event['name']!r}")
        by_track.setdefault(event["tid"], []).append(event)
    for tid, track_events in by_track.items():
        track_events.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack: list[dict] = []
        for event in track_events:
            if event["dur"] == 0:
                continue  # instant markers (cached calls) never unbalance
            start, end = event["ts"], event["ts"] + event["dur"]
            while stack and start >= stack[-1]["ts"] + stack[-1]["dur"] - _NEST_EPS_US:
                stack.pop()
            if stack:
                parent_end = stack[-1]["ts"] + stack[-1]["dur"]
                if end > parent_end + _NEST_EPS_US:
                    raise TraceValidationError(
                        f"{path}: unbalanced spans on track {tid}: "
                        f"{event['name']!r} ends at {end:.1f}us, past "
                        f"{stack[-1]['name']!r} at {parent_end:.1f}us"
                    )
            stack.append(event)

    trace_end_s = max(e["ts"] + e["dur"] for e in events) / 1e6
    summary = {
        "events": len(events),
        "tracks": len(by_track),
        "trace_end_s": trace_end_s,
    }
    clock_elapsed = payload.get("otherData", {}).get("clock_elapsed_s")
    if clock_elapsed is not None:
        summary["clock_elapsed_s"] = clock_elapsed
        if clock_elapsed > 0:
            drift = abs(trace_end_s - clock_elapsed) / clock_elapsed
            summary["drift"] = drift
            if drift > tolerance:
                raise TraceValidationError(
                    f"{path}: trace ends at {trace_end_s:.3f}s but the virtual "
                    f"clock elapsed {clock_elapsed:.3f}s ({drift:.1%} > {tolerance:.0%})"
                )
    return summary
