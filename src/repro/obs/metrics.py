"""Counters and histograms for the runtime's choke points.

A :class:`MetricsRegistry` is a flat namespace of named counters and
histograms, updated at the same instrumentation points the tracer covers:
LLM calls, cache hits/evictions, retries, failed attempts, wave
widths, cell/section makespans, tokens, and dollars.  Like the tracer, the
default is a null object (:data:`NULL_METRICS`) whose ``enabled`` flag
gates every update site, so disabled-mode cost is one attribute check.
"""

from __future__ import annotations

import math

from repro.utils.formatting import format_table

#: Reservoir bound per histogram; past it, samples are decimated (every
#: other one dropped, keep-stride doubled) so memory stays O(cap) while
#: the kept samples remain an evenly spaced — and deterministic — subset.
SAMPLE_CAP = 2048


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


class Counter:
    """A monotonically increasing named value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """Streaming summary (count/sum/min/max/percentiles) of a distribution.

    Percentiles come from a strided sample: every ``_stride``-th
    observation is kept, and when the kept set exceeds
    :data:`SAMPLE_CAP` every other sample is dropped and the stride
    doubles.  No randomness — the same observation sequence always
    yields the same percentiles, which the replay/QA harness relies on.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_samples", "_stride", "_pending")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._samples: list[float] = []
        self._stride = 1
        self._pending = 0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self._pending += 1
        if self._pending >= self._stride:
            self._pending = 0
            self._samples.append(value)
            if len(self._samples) > SAMPLE_CAP:
                del self._samples[::2]
                self._stride *= 2

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile (``q`` in [0, 100]) over kept samples."""
        return percentile(self._samples, q)


class MetricsRegistry:
    """Create-on-first-use registry of counters and histograms."""

    enabled = True

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter(name)
        return counter

    def histogram(self, name: str) -> Histogram:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(name)
        return histogram

    def snapshot(self) -> dict:
        """Plain-data view of everything recorded (JSON-exportable)."""
        return {
            "counters": {
                name: counter.value for name, counter in sorted(self.counters.items())
            },
            "histograms": {
                name: {
                    "count": histogram.count,
                    "total": histogram.total,
                    "mean": histogram.mean,
                    "min": histogram.min if histogram.count else 0.0,
                    "max": histogram.max if histogram.count else 0.0,
                    "p50": histogram.percentile(50),
                    "p95": histogram.percentile(95),
                    "p99": histogram.percentile(99),
                }
                for name, histogram in sorted(self.histograms.items())
            },
        }

    def render(self, title: str = "Runtime metrics") -> str:
        rows = [
            [name, "counter", f"{counter.value:g}", "-", "-", "-", "-", "-"]
            for name, counter in sorted(self.counters.items())
        ]
        for name, histogram in sorted(self.histograms.items()):
            low = histogram.min if histogram.count else 0.0
            high = histogram.max if histogram.count else 0.0
            rows.append(
                [
                    name,
                    "histogram",
                    str(histogram.count),
                    f"{histogram.mean:.3f}",
                    f"{low:.3f}",
                    f"{high:.3f}",
                    f"{histogram.percentile(50):.3f}",
                    f"{histogram.percentile(99):.3f}",
                ]
            )
        return format_table(
            ["Metric", "Type", "Count/Value", "Mean", "Min", "Max", "p50", "p99"],
            rows,
            title=title,
        )


class _NullCounter:
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        return None


class _NullHistogram:
    __slots__ = ()

    def observe(self, value: float) -> None:
        return None

    def percentile(self, q: float) -> float:
        return 0.0


_NULL_COUNTER = _NullCounter()
_NULL_HISTOGRAM = _NullHistogram()


class NullMetrics:
    """Disabled registry: constant-time no-ops, records nothing."""

    enabled = False

    def counter(self, name: str) -> _NullCounter:
        return _NULL_COUNTER

    def histogram(self, name: str) -> _NullHistogram:
        return _NULL_HISTOGRAM

    def snapshot(self) -> dict:
        return {"counters": {}, "histograms": {}}

    def render(self, title: str = "Runtime metrics") -> str:
        return f"{title}: metrics disabled"


NULL_METRICS = NullMetrics()

_default_metrics: MetricsRegistry | NullMetrics = NULL_METRICS


def get_default_metrics() -> MetricsRegistry | NullMetrics:
    """The registry new :class:`SimulatedLLM` instances adopt."""
    return _default_metrics


def set_default_metrics(
    metrics: MetricsRegistry | NullMetrics | None,
) -> MetricsRegistry | NullMetrics:
    """Install ``metrics`` (None restores the null); returns the previous one."""
    global _default_metrics
    previous = _default_metrics
    _default_metrics = metrics if metrics is not None else NULL_METRICS
    return previous
