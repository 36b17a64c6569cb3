"""Per-query call-timeline capture for the serving layer.

The serving runtime executes each admitted query's body *eagerly* on the
shared substrate — in strict admission order, so cache evolution is
identical whether or not cross-query batching is later applied — while a
:class:`CallTimeline` installed as ``SimulatedLLM.serve_sink`` intercepts
every outermost latency charge.  No virtual-clock time passes during body
execution; the timeline records the query's *call structure* instead:

- one :class:`CallStep` per outermost ``parallel`` section (its calls are
  mutually independent and may be co-scheduled freely), and
- one single-call step per bare sequential call.

Steps are totally ordered within a query (step *k* must finish before any
call of step *k+1* starts).  The cross-query scheduler then replays these
timelines — serially or as shared provider waves — to produce latencies on
the virtual clock.

Soundness: simulated answers are pure functions of (seed, model,
instruction, record uid), never of call order or wall time, so deferring
the *schedule* cannot change any record.  The structural bit-identity of
batched vs. serial serving follows directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


class CallRequest(NamedTuple):
    """One successful (or exhausted-retry) LLM call saga.

    ``model`` is ``None`` when the call's metadata could not be paired with
    its latency — e.g. composite items from nested parallel sections.  Such
    opaque items still occupy a wave slot for exactly ``seconds``; they are
    simply ineligible for prefix-sharing rebates and embedding merges.
    """

    seconds: float
    model: str | None = None
    is_embedding: bool = False
    input_tokens: int = 0
    output_tokens: int = 0


@dataclass
class CallStep:
    """Calls that may run concurrently, issued at client width ``width``."""

    width: int
    calls: list[CallRequest]

    def standalone_makespan(self) -> float:
        """Seconds this step takes alone, in waves of ``width`` calls."""
        total = 0.0
        seconds = [call.seconds for call in self.calls]
        for start in range(0, len(seconds), self.width):
            total += max(seconds[start : start + self.width])
        return total


class CallTimeline:
    """The ``serve_sink`` protocol: collects a query body's call steps.

    :meth:`note_call` fires once per completed call saga (with metadata);
    :meth:`end_step` fires when an outermost parallel section exits (or a
    bare call charges), carrying the authoritative latency list.  Notes
    are paired with latencies positionally — both sides append in issue
    order and skip zero-latency (cached) calls — and dropped wholesale if
    the counts disagree (nested sections fold inner calls into composite
    items), which costs only rebate eligibility, never schedule accuracy.
    """

    def __init__(self) -> None:
        self.steps: list[CallStep] = []
        self._notes: list[CallRequest] = []

    def note_call(
        self,
        model: str,
        is_embedding: bool,
        input_tokens: int,
        output_tokens: int,
        seconds: float,
    ) -> None:
        if seconds > 0.0:
            self._notes.append(
                CallRequest(
                    seconds=seconds,
                    model=model,
                    is_embedding=is_embedding,
                    input_tokens=input_tokens,
                    output_tokens=output_tokens,
                )
            )

    def end_step(self, width: int, latencies: list[float]) -> None:
        if len(self._notes) == len(latencies):
            calls = list(self._notes)
        else:
            calls = [CallRequest(seconds=seconds) for seconds in latencies]
        self._notes.clear()
        if calls:
            self.steps.append(CallStep(width=width, calls=calls))

    # -- derived --------------------------------------------------------

    def total_calls(self) -> int:
        return sum(len(step.calls) for step in self.steps)

    def standalone_duration(self) -> float:
        """Seconds the query takes executed alone (per-step makespans sum)."""
        return sum(step.standalone_makespan() for step in self.steps)
