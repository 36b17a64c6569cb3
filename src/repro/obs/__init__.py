"""Observability: hierarchical tracing, metrics, and trace exporters.

The runtime's execution layers (query → optimize → pipeline section →
operator → cell → LLM call; agent episode → step → tool call) all report
into one shared :class:`~repro.obs.tracer.Tracer` and one
:class:`~repro.obs.metrics.MetricsRegistry`; exporters render the result
as a JSONL event log or a Perfetto-loadable Chrome trace.  Disabled by
default via no-op singletons — see ``docs/observability.md``.
"""

from repro.obs.export import (
    KNOWN_SPAN_KINDS,
    chrome_trace,
    validate_chrome_trace,
    validate_spans,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import (
    NULL_METRICS,
    MetricsRegistry,
    NullMetrics,
    get_default_metrics,
    set_default_metrics,
)
from repro.obs.stats import OperatorPrior, StatisticsStore
from repro.obs.tracer import (
    NOOP_TRACER,
    NoopTracer,
    Span,
    Tracer,
    get_default_tracer,
    set_default_tracer,
)

__all__ = [
    "KNOWN_SPAN_KINDS",
    "NOOP_TRACER",
    "NULL_METRICS",
    "MetricsRegistry",
    "NoopTracer",
    "NullMetrics",
    "OperatorPrior",
    "Span",
    "StatisticsStore",
    "Tracer",
    "chrome_trace",
    "get_default_metrics",
    "get_default_tracer",
    "set_default_metrics",
    "set_default_tracer",
    "validate_chrome_trace",
    "validate_spans",
    "write_chrome_trace",
    "write_jsonl",
]
