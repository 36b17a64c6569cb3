"""Per-query call-timeline capture for the serving layer.

The serving runtime executes each admitted query's body *eagerly* on the
shared substrate — in strict admission order, so cache evolution is
identical whether or not cross-query batching is later applied — with a
:class:`CallTimeline` installed as ``SimulatedLLM.serve_sink``.  The body
runs the engine's own schedule, exactly as a direct run does; the
timeline is that run's clock and a record of its call structure:

- :meth:`CallTimeline.advance` receives every second the body spends
  (``SimulatedLLM.spend``), so :meth:`CallTimeline.standalone_duration` is
  the direct run's ``total_time_s`` by construction, and the shared
  virtual clock never moves during body execution;
- one :class:`CallStep` per wave (or bare call) made while no ``parallel``
  section is open: its calls are mutually independent and may be
  co-scheduled freely.

Each step names the steps it waits for (``after``).  A step made inside a
pipelined or shard cell chains after the cell's previous step, and the
cell's first step waits for what the engine passed the cell (its batch's
previous cell, the section's entry, or a holdback's flush point); any
other step waits for the timeline's *frontier*, every step nothing waits
for yet.  With no cells that is a linear chain.  Only data dependencies
are recorded: the cross-query scheduler then replays the graph — serially
or as shared provider waves — to produce latencies on the virtual clock.

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
    """Calls that may run concurrently, issued at client width ``width``,
    once every step in ``after`` (indices into the timeline) has finished."""

    width: int
    calls: list[CallRequest]
    after: tuple[int, ...] = ()


class CallTimeline:
    """The ``serve_sink`` protocol: a query body's clock and call steps.

    :meth:`note_call` fires once per completed call saga (with metadata);
    :meth:`end_step` fires when a wave ends (or a bare call charges)
    outside any ``parallel`` section, carrying the authoritative latency
    list.  Notes are paired with latencies positionally — both sides
    append in issue order and skip zero-latency (cached) calls — and
    dropped wholesale if the counts disagree (nested sections fold inner
    calls into composite items), which costs only rebate eligibility,
    never schedule accuracy.
    """

    def __init__(self) -> None:
        self.steps: list[CallStep] = []
        #: Seconds the body spent: its standalone duration.
        self.elapsed = 0.0
        self._notes: list[CallRequest] = []
        #: Steps nothing waits for yet, in the order they were recorded.
        self._frontier: dict[int, None] = {}

    def advance(self, seconds: float) -> None:
        """Receive spent seconds (the clock protocol ``spend`` uses)."""
        self.elapsed += seconds

    def mark(self) -> tuple[int, ...]:
        """A token for everything recorded so far: the frontier."""
        return tuple(self._frontier)

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

    def end_step(
        self,
        width: int,
        latencies: list[float],
        after: tuple[int, ...] | None = None,
    ) -> tuple[int, ...]:
        """Record one step waiting for ``after`` (None: the frontier);
        returns the token naming it."""
        if len(self._notes) == len(latencies):
            calls = list(self._notes)
        else:
            calls = [CallRequest(seconds=seconds) for seconds in latencies]
        self._notes.clear()
        if after is None:
            after = self.mark()
        index = len(self.steps)
        self.steps.append(CallStep(width=width, calls=calls, after=after))
        for before in after:
            self._frontier.pop(before, None)
        self._frontier[index] = None
        return (index,)

    # -- derived --------------------------------------------------------

    def standalone_duration(self) -> float:
        """Seconds the query takes executed alone: what its body spent."""
        return self.elapsed
