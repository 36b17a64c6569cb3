"""Benchmark-owned spans around each layer's public callables.

``SpanRecorder.install()`` replaces every callable in :data:`TARGETS` with a
wrapper that records one in-memory span ``(name, start, end, parent, op_id,
payload, error)`` per call; ``uninstall()`` puts the originals back.  The
table only names boundaries crossed at most once per LLM call or per batch —
never per record — so the wrappers stay a small share of a pass (reported
as ``trace.overhead_pct``).  A target that no longer exists is skipped and
counted in ``trace.missing_targets``: a refactor of ``src/`` degrades the
numbers of the layer it removed, not the benchmark.

Counts are taken at the same boundaries: each target may name a payload
function that reads the call's own arguments/result (a ``UsageEvent``, an
``ExecutionResult``, a list of ``TickResult``s), so ratios are measured
where the work happens and the workloads carry no per-layer plumbing.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import median

#: Index of each field in a span tuple.
NAME, START, END, PARENT, OP, PAYLOAD, ERROR = range(7)

#: Root spans opened by the harness itself (one per timed region / operation).
PASS_SPAN = "bench.pass"
OP_SPAN = "bench.op"


# -- payload functions: (args, result) -> small value kept on the span -----


def _usage_event(args, result):
    return result.event


def _one_text(args, result):
    return 1


def _text_count(args, result):
    return len(result)


def _engine_counts(args, result):
    stats = result.operator_stats
    first = stats[0] if stats else None
    entered = (first.records_scanned or first.records_out) if first else 0
    return entered, len(result.records)


def _shard_counts(args, result):
    segments = args[0].plan.segments
    return (
        sum(segment.moved_records for segment in segments),
        max((segment.straggler_gap_s for segment in segments), default=0.0),
    )


def _scan_counts(args, result):
    return args[0].scanned - len(result)


def _match_kind(args, result):
    return result[0]


def _evicted(args, result):
    return result


def _tick_counts(args, result):
    manager = args[0]
    return (
        sum(1 for tick in result if tick.reuse_kind == "delta"),
        sum(tick.inserts + tick.retracts for tick in result),
        sum(len(query.records) for query in manager.queries.values()),
    )


def _drain_counts(args, result):
    return len(result.waves), result.batch_fill()


def _reused(args, result):
    return bool(result.reused)


def _steps(args, result):
    return result.steps_used


#: (span name, module, attribute path inside the module, payload function).
#: A one-part path is a module-level function; it is rebound in every loaded
#: ``repro`` module that imported it by name.
TARGETS = (
    ("llm.call", "repro.llm.simulated", "SimulatedLLM.judge_filter", _usage_event),
    ("llm.call", "repro.llm.simulated", "SimulatedLLM.judge_join", _usage_event),
    ("llm.call", "repro.llm.simulated", "SimulatedLLM.extract", _usage_event),
    ("llm.call", "repro.llm.simulated", "SimulatedLLM.classify", _usage_event),
    ("llm.call", "repro.llm.simulated", "SimulatedLLM.complete", _usage_event),
    ("llm.embed", "repro.llm.simulated", "SimulatedLLM.embed", _one_text),
    ("llm.embed", "repro.llm.simulated", "SimulatedLLM.embed_batch", _text_count),
    ("sem.optimizer.optimize", "repro.sem.optimizer.optimizer", "Optimizer.optimize", None),
    ("sem.execution.execute", "repro.sem.execution", "Engine.execute", _engine_counts),
    ("sem.shard.execute", "repro.sem.shard", "ShardedExecutor.execute", _shard_counts),
    ("sem.materialize.match", "repro.sem.materialize", "MaterializationStore.match", _match_kind),
    ("sem.materialize.put", "repro.sem.materialize", "MaterializationStore.put", None),
    ("sem.materialize.invalidate", "repro.sem.materialize", "MaterializationStore.invalidate_sources", _evicted),
    ("sem.materialize.fingerprint", "repro.sem.materialize", "prefix_fingerprints", None),
    ("sem.structql.scan", "repro.sem.physical", "PhysSqlScan.execute", _scan_counts),
    ("sql.execute", "repro.sql.database", "Database.execute", None),
    ("sem.streaming.register", "repro.sem.streaming", "StandingQueryManager.register", None),
    ("sem.streaming.pump", "repro.sem.streaming", "StandingQueryManager.pump", _tick_counts),
    ("serve.submit", "repro.serve.runtime", "ServingRuntime.submit", None),
    ("serve.drain", "repro.serve.runtime", "ServingRuntime.drain", _drain_counts),
    ("core.compute", "repro.core.runtime", "AnalyticsRuntime.compute", None),
    ("core.search", "repro.core.runtime", "AnalyticsRuntime.search", None),
    ("core.answer", "repro.core.runtime", "AnalyticsRuntime.answer", _reused),
    ("core.find_similar", "repro.core.context_manager", "ContextManager.find_similar", None),
    ("agents.run", "repro.agents.codeagent", "CodeAgent.run", _steps),
    ("obs.stats.ingest", "repro.obs.stats", "StatisticsStore.ingest_run", None),
)


class SpanRecorder:
    """Installs the wrapper table and holds the spans of the current pass."""

    def __init__(self, targets=TARGETS) -> None:
        self.targets = targets
        self.spans: list = []
        self.op_id = 0
        #: ``module:path`` of every target that could not be resolved.
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        self.missing = []
        for name, module_name, path, payload in self.targets:
            try:
                module = importlib.import_module(module_name)
                *owners, attr = path.split(".")
                owner = module
                for part in owners:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if owners else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}:{path}")
                continue
            wrapper = self._wrap(name, original, payload)
            if owners:
                holders = [owner]
            else:
                holders = [
                    loaded
                    for loaded_name, loaded in list(sys.modules.items())
                    if loaded_name.startswith("repro")
                    and getattr(loaded, "__dict__", {}).get(attr) is original
                ]
            for holder in holders:
                self._restore.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            holder, attr, original = self._restore.pop()
            setattr(holder, attr, original)

    def _wrap(self, name, original, payload):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException as error:
                end = clock()
                stack.pop()
                spans[index] = (
                    name, start, end, parent, self.op_id, None, type(error).__name__
                )
                raise
            end = clock()
            stack.pop()
            spans[index] = (
                name, start, end, parent, self.op_id,
                payload(args, result) if payload is not None else None, None,
            )
            return result

        return wrapper

    # -- harness-side spans ---------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """A root/operation span opened by the harness around program calls."""
        spans, stack = self.spans, self._stack
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = time.perf_counter()
        error = None
        try:
            yield
        except BaseException as raised:
            error = type(raised).__name__
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[index] = (name, start, end, parent, self.op_id, None, error)

    def take(self) -> list:
        """The finished spans of this pass; the recorder starts empty again."""
        taken = list(self.spans)
        self.spans.clear()
        self._stack.clear()
        return taken


# -- analysis -----------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part its direct children cover."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def layer_of(name: str) -> str:
    """``sem.materialize.match`` -> ``sem.materialize``.  The two ``llm`` spans
    stay apart: completions and embeddings stress different workloads."""
    return name if name.startswith("llm.") else name.rsplit(".", 1)[0]


def share_table(spans) -> dict[str, float]:
    """Self-time share of each layer in one pass (shares sum to 1)."""
    own = self_times(spans)
    totals: dict[str, float] = {}
    for span, seconds in zip(spans, own):
        layer = layer_of(span[NAME])
        totals[layer] = totals.get(layer, 0.0) + seconds
    whole = sum(totals.values())
    return {layer: seconds / whole for layer, seconds in sorted(totals.items())} if whole else {}


def _ratio(numerator: float, denominator: float):
    return numerator / denominator if denominator else None


def layer_metrics(spans, slowdown: float = 1.0) -> dict:
    """The span-derived per-layer metrics of one traced pass.

    Times are divided by ``slowdown``, the pass's machine-speed correction.
    ``None`` means the layer was not exercised (or its target is missing), so
    the ratio or percentile has no samples.
    """
    own = [seconds / slowdown for seconds in self_times(spans)]
    total_ms: dict[str, float] = {}
    self_ms: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    payloads: dict[str, list] = {}
    errors: dict[str, int] = {}
    under_optimizer = [False] * len(spans)
    sample_llm_calls = 0
    for index, span in enumerate(spans):
        name = span[NAME]
        millis = (span[END] - span[START]) * 1e3 / slowdown
        total_ms[name] = total_ms.get(name, 0.0) + millis
        self_ms[name] = self_ms.get(name, 0.0) + own[index] * 1e3
        durations.setdefault(name, []).append(millis)
        if span[ERROR] is not None:
            errors[name] = errors.get(name, 0) + 1
        elif span[PAYLOAD] is not None:
            payloads.setdefault(name, []).append(span[PAYLOAD])
        parent = span[PARENT]
        under_optimizer[index] = name == "sem.optimizer.optimize" or (
            parent >= 0 and under_optimizer[parent]
        )
        if name == "llm.call" and under_optimizer[index]:
            sample_llm_calls += 1

    def count(name):
        return len(durations.get(name, ()))

    def p50(name):
        return median(durations[name]) if name in durations else None

    events = payloads.get("llm.call", [])
    llm_calls = count("llm.call")
    engine = payloads.get("sem.execution.execute", [])
    records_in = sum(entered for entered, _ in engine)
    shard = payloads.get("sem.shard.execute", [])
    matches = payloads.get("sem.materialize.match", [])
    ticks = payloads.get("sem.streaming.pump", [])
    view_records = sum(view for _, _, view in ticks)
    drains = payloads.get("serve.drain", [])
    answers = payloads.get("core.answer", [])
    return {
        "llm.calls": llm_calls,
        "llm.tokens": sum(e.input_tokens + e.output_tokens for e in events),
        "llm.cache_hit_ratio": _ratio(sum(1 for e in events if e.cached), len(events)),
        "llm.busy_ms": self_ms.get("llm.call", 0.0),
        "llm.us_per_call": _ratio(self_ms.get("llm.call", 0.0) * 1e3, llm_calls),
        "llm.embed_texts": sum(payloads.get("llm.embed", [])),
        "llm.embed_busy_ms": self_ms.get("llm.embed", 0.0),
        "llm.retried_calls": sum(e.retries for e in events),
        "llm.failed_calls": errors.get("llm.call", 0) + errors.get("llm.embed", 0),
        "sem.optimizer.optimize_ms": total_ms.get("sem.optimizer.optimize", 0.0),
        "sem.optimizer.calls": count("sem.optimizer.optimize"),
        "sem.optimizer.sample_llm_calls": sample_llm_calls,
        "sem.execution.execute_ms": total_ms.get("sem.execution.execute", 0.0),
        "sem.execution.self_ms": self_ms.get("sem.execution.execute", 0.0),
        "sem.execution.us_per_record": _ratio(
            self_ms.get("sem.execution.execute", 0.0) * 1e3, records_in
        ),
        "sem.execution.records_in": records_in,
        "sem.execution.records_out": sum(left for _, left in engine),
        "sem.shard.execute_ms": total_ms.get("sem.shard.execute", 0.0),
        "sem.shard.self_ms": self_ms.get("sem.shard.execute", 0.0),
        "sem.shard.records_moved": sum(moved for moved, _ in shard),
        "sem.shard.straggler_gap_s": max((gap for _, gap in shard), default=0.0),
        "sem.structql.scan_ms": total_ms.get("sem.structql.scan", 0.0),
        "sem.structql.records_pruned": sum(payloads.get("sem.structql.scan", [])),
        "sql.busy_ms": total_ms.get("sql.execute", 0.0),
        "sql.calls": count("sql.execute"),
        "sem.materialize.match_ms": total_ms.get("sem.materialize.match", 0.0),
        "sem.materialize.put_ms": total_ms.get("sem.materialize.put", 0.0),
        "sem.materialize.fingerprint_ms": total_ms.get("sem.materialize.fingerprint", 0.0),
        "sem.materialize.hit_ratio": _ratio(
            sum(1 for kind in matches if kind in ("exact", "delta")), len(matches)
        ),
        "sem.materialize.invalidations": sum(
            payloads.get("sem.materialize.invalidate", [])
        ) + sum(1 for kind in matches if kind in ("update", "stale")),
        "sem.streaming.prime_ms": total_ms.get("sem.streaming.register", 0.0),
        "sem.streaming.tick_ms_p50": p50("sem.streaming.pump"),
        "sem.streaming.tick_self_ms": self_ms.get("sem.streaming.pump", 0.0),
        "sem.streaming.us_per_view_record": _ratio(
            self_ms.get("sem.streaming.pump", 0.0) * 1e3, view_records
        ),
        "sem.streaming.delta_ticks": sum(delta for delta, _, _ in ticks),
        "sem.streaming.changelog_entries": sum(changes for _, changes, _ in ticks),
        "serve.submit_ms_p50": p50("serve.submit"),
        "serve.submit_self_ms": self_ms.get("serve.submit", 0.0),
        "serve.drain_ms": total_ms.get("serve.drain", 0.0),
        "serve.waves": sum(waves for waves, _ in drains),
        "serve.batch_fill": median(fill for _, fill in drains) if drains else None,
        "serve.rejected": errors.get("serve.submit", 0),
        "core.compute_ms_p50": p50("core.compute"),
        "core.search_ms_p50": p50("core.search"),
        "core.answer_hit_ratio": _ratio(sum(answers), len(answers)),
        "core.find_similar_ms": total_ms.get("core.find_similar", 0.0),
        "agents.run_self_ms": self_ms.get("agents.run", 0.0),
        "agents.steps": sum(payloads.get("agents.run", [])),
        "obs.stats.ingest_ms": total_ms.get("obs.stats.ingest", 0.0),
    }


def write_chrome_trace(spans, path: Path) -> None:
    """Dump ``spans`` as Chrome-trace JSON (open in Perfetto / chrome://tracing)."""
    origin = min((span[START] for span in spans), default=0.0)
    events = [
        {
            "name": span[NAME],
            "cat": layer_of(span[NAME]),
            "ph": "X",
            "ts": round((span[START] - origin) * 1e6, 3),
            "dur": round((span[END] - span[START]) * 1e6, 3),
            "pid": 1,
            "tid": 1,
            "args": {
                "op_id": span[OP],
                "parent": span[PARENT],
                **({"error": span[ERROR]} if span[ERROR] else {}),
            },
        }
        for span in spans
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}), encoding="utf-8"
    )
