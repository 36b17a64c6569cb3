"""Virtual time accounting.

The paper reports runtimes dominated by LLM API latency.  Rather than sleep,
every simulated LLM call charges seconds to a :class:`VirtualClock`.  The
clock supports two overlap models:

- *Parallel sections*: semantic operators that issue batched calls with
  ``parallelism=k`` charge ``ceil(n / k)`` waves of the per-call latency,
  mirroring how a real executor overlaps API calls.
- *Pipeline sections*: a streaming executor pushes record batches through a
  chain of operator stages; batch *b* can occupy stage *s* while batch
  *b+1* is still in stage *s-1*.  The charged time is the critical-path
  makespan of the (batch, stage) grid — not the per-stage sum — computed by
  :class:`PipelineSchedule` under the classic recurrence ``finish[b][s] = max(finish[b][s-1], finish[b-1][s]) + t[b][s]``
  (a stage processes one batch at a time, a batch visits stages in order).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ExecutionError


@dataclass
class VirtualClock:
    """Accumulates simulated elapsed seconds."""

    elapsed: float = 0.0

    def advance(self, seconds: float) -> None:
        """Advance the clock by ``seconds`` (sequential work)."""
        if seconds < 0:
            raise ExecutionError(f"cannot advance clock by negative time: {seconds}")
        self.elapsed += seconds


class PipelineSchedule:
    """Online pipelined-makespan accounting for one streaming section.

    The executor measures each (batch, stage) cell as it runs and feeds it
    in with :meth:`record`; :attr:`makespan` is always the critical-path
    finish time of everything recorded so far.  Cells must arrive
    batch-major (all of batch *b*'s stages, in stage order, before batch
    *b+1*) — exactly the order a depth-first streaming executor produces.
    Recording the same stage twice within a batch extends that cell (used
    for wave retries).
    """

    def __init__(self) -> None:
        #: When each stage finishes its most recent batch.
        self._stage_free: list[float] = []
        #: When the current batch left its most recent stage.
        self._batch_ready: float = 0.0
        self.makespan: float = 0.0
        #: Batches started so far (the current batch's 1-based number).
        self.batches: int = 0
        #: Scheduled (start, end) of the most recently recorded cell —
        #: section-relative seconds, read by the tracer to place cell spans.
        self.last_cell: tuple[float, float] = (0.0, 0.0)

    def start_batch(self, ready: float = 0.0) -> None:
        """Begin a new batch, available to its first stage at ``ready``.

        Input batches exist from the start (0.0); a batch of held-back
        records exists only once its holding stage finished
        (:meth:`stage_finish`).
        """
        self._batch_ready = ready
        self.batches += 1

    def stage_finish(self, stage: int) -> float:
        """When ``stage`` finished its most recent cell (0.0 = never ran)."""
        return self._stage_free[stage] if stage < len(self._stage_free) else 0.0

    def record(self, stage: int, seconds: float) -> float:
        """Schedule ``seconds`` of stage work for the current batch.

        Returns the updated section makespan.
        """
        if seconds < 0:
            raise ExecutionError(f"cell duration must be >= 0, got {seconds}")
        if stage < 0:
            raise ExecutionError(f"stage index must be >= 0, got {stage}")
        while len(self._stage_free) <= stage:
            self._stage_free.append(0.0)
        start = max(self._batch_ready, self._stage_free[stage])
        end = start + seconds
        self._stage_free[stage] = end
        self._batch_ready = end
        self.makespan = max(self.makespan, end)
        self.last_cell = (start, end)
        return self.makespan

