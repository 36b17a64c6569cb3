"""Hierarchical spans over the virtual clock.

A :class:`Span` is one timed node in the execution tree: a query, an
optimizer pass, a pipeline section, an operator, a (batch, stage) cell, an
LLM call, an agent episode/step, or a tool call.  Spans nest: the tracer
keeps an explicit stack, so a span opened while another is active becomes
its child.  All times are *virtual* seconds from the
:class:`~repro.utils.clock.VirtualClock` — the same accounting every other
subsystem charges against — so exported traces line up exactly with the
runtime's reported makespans.

Two kinds of spans exist:

- **Stack spans** (:meth:`Tracer.span`): a context manager reads the clock
  on entry and exit.  Right for anything that advances the clock while it
  runs (operators, agent steps, whole queries).
- **Explicitly-timed spans** (:meth:`Tracer.add_span`): the caller supplies
  start/end.  Needed where wall time is *reconstructed* rather than lived —
  pipelined (batch, stage) cells overlap on the schedule even though the
  executor runs them depth-first, and LLM calls inside a parallel wave all
  start at the wave's origin but occupy distinct slots.

The default tracer is the :data:`NOOP_TRACER` singleton: ``enabled`` is
False, ``span()`` hands back one shared null context manager, and nothing
is recorded — instrumented code guards every non-trivial branch with
``if tracer.enabled``, so disabled-mode overhead is a single attribute
check per choke point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

if TYPE_CHECKING:
    from repro.utils.clock import VirtualClock


@dataclass
class Span:
    """One timed node in the execution tree (virtual seconds)."""

    span_id: int
    parent_id: int | None
    name: str
    kind: str
    start_s: float
    end_s: float | None = None
    #: Named export track (Chrome-trace ``tid``); None = the caller's
    #: default track ("runtime" for stack spans).
    track: str | None = None
    attributes: dict[str, Any] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        """Span duration; 0.0 while the span is still open."""
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s


class _SpanContext:
    """Context manager binding one stack span to one tracer."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, *exc_info: object) -> None:
        self._tracer._finish(self.span)


class Tracer:
    """Records a tree of spans against a virtual clock.

    The clock is usually bound lazily: :class:`~repro.llm.simulated.SimulatedLLM`
    adopts an unbound enabled tracer and points it at its own clock, so CLI
    and bench code can construct ``Tracer()`` before any runtime exists.
    """

    enabled = True

    def __init__(self, clock: "VirtualClock | None" = None) -> None:
        self.clock = clock
        #: All spans in start order (the export order).
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 1

    def now(self) -> float:
        return self.clock.elapsed if self.clock is not None else 0.0

    @property
    def current(self) -> Span | None:
        """The innermost open stack span, if any."""
        return self._stack[-1] if self._stack else None

    def span(self, name: str, kind: str = "span", **attributes: Any) -> _SpanContext:
        """Open a stack span; closes (reading the clock) when the block exits."""
        span = Span(
            span_id=self._next_id,
            parent_id=self._stack[-1].span_id if self._stack else None,
            name=name,
            kind=kind,
            start_s=self.now(),
            attributes=dict(attributes),
        )
        self._next_id += 1
        self.spans.append(span)
        self._stack.append(span)
        return _SpanContext(self, span)

    def _finish(self, span: Span) -> None:
        span.end_s = self.now()
        # Tolerate out-of-order exits (an exception unwinding through
        # several spans closes them innermost-first anyway).
        if span in self._stack:
            while self._stack and self._stack[-1] is not span:
                self._stack.pop().end_s = self.now()
            self._stack.pop()

    def add_span(
        self,
        name: str,
        kind: str,
        start_s: float,
        end_s: float,
        track: str | None = None,
        parent: Span | None = None,
        **attributes: Any,
    ) -> Span:
        """Record an explicitly-timed span (reconstructed schedule time)."""
        if parent is None:
            parent = self.current
        span = Span(
            span_id=self._next_id,
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            kind=kind,
            start_s=start_s,
            end_s=end_s,
            track=track,
            attributes=dict(attributes),
        )
        self._next_id += 1
        self.spans.append(span)
        return span

    def by_kind(self, kind: str) -> list[Span]:
        return [span for span in self.spans if span.kind == kind]


class _NullSpan:
    """Inert span stand-in; attribute writes land in a throwaway dict."""

    __slots__ = ()
    span_id = 0
    parent_id = None
    name = ""
    kind = ""
    start_s = 0.0
    end_s = 0.0
    track = None
    duration_s = 0.0

    @property
    def attributes(self) -> dict:
        return {}


class _NullSpanContext:
    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SPAN = _NullSpan()
_NULL_SPAN_CONTEXT = _NullSpanContext()


class NoopTracer:
    """Disabled tracer: every call is a constant-time no-op."""

    enabled = False
    clock = None
    spans: tuple = ()
    current = None

    def now(self) -> float:
        return 0.0

    def span(self, name: str, kind: str = "span", **attributes: Any) -> _NullSpanContext:
        return _NULL_SPAN_CONTEXT

    def add_span(self, *args: Any, **kwargs: Any) -> _NullSpan:
        return _NULL_SPAN

    def by_kind(self, kind: str) -> list:
        return []


NOOP_TRACER = NoopTracer()

_default_tracer: Tracer | NoopTracer = NOOP_TRACER


def get_default_tracer() -> Tracer | NoopTracer:
    """The tracer new :class:`SimulatedLLM` instances adopt."""
    return _default_tracer


def set_default_tracer(tracer: Tracer | NoopTracer | None) -> Tracer | NoopTracer:
    """Install ``tracer`` (None restores the no-op); returns the previous one."""
    global _default_tracer
    previous = _default_tracer
    _default_tracer = tracer if tracer is not None else NOOP_TRACER
    return previous


def walk(spans: list[Span]) -> Iterator[tuple[Span, int]]:
    """Yield ``(span, depth)`` in depth-first start order."""
    by_parent: dict[int | None, list[Span]] = {}
    for span in spans:
        by_parent.setdefault(span.parent_id, []).append(span)

    def _walk(parent_id: int | None, depth: int) -> Iterator[tuple[Span, int]]:
        for span in by_parent.get(parent_id, []):
            yield span, depth
            yield from _walk(span.span_id, depth + 1)

    yield from _walk(None, 0)
