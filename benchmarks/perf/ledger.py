"""The record one pass of a workload leaves behind: both ledgers and a digest."""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager, nullcontext

from . import calibrate
from .trace import OP_SPAN, PASS_SPAN


class Pass:
    """What one pass of a workload did: timings, outputs and both ledgers.

    A block that raises leaves its timing unrecorded: the worker marks the
    pass failed and the harness takes no timing from a failed pass.
    """

    def __init__(self, recorder=None) -> None:
        #: The trace's ``SpanRecorder`` on a traced pass, else None.
        self.recorder = recorder
        self.wall_s = 0.0
        self.cpu_s = 0.0
        #: Machine slowdown beside the timed region (see calibrate.py); the
        #: harness divides this pass's raw seconds by it.
        self.slowdown = 1.0
        self.op_ms: list[float] = []
        #: Source records that entered the plan(s) of this pass.
        self.records_in = 0
        self.virtual_cost_usd = 0.0
        self.virtual_time_s = 0.0
        #: Output-check failures found inside the pass (empty = correct).
        self.errors: list[str] = []
        self._digest = hashlib.sha256()

    @contextmanager
    def timed(self):
        """The region whose wall and CPU seconds are the pass's ``wall_s``/``cpu_s``."""
        before = calibrate.sample()
        with self.recorder.span(PASS_SPAN) if self.recorder else nullcontext():
            wall, cpu = time.perf_counter(), time.process_time()
            yield
            self.cpu_s = time.process_time() - cpu
            self.wall_s = time.perf_counter() - wall
        self.slowdown = (before + calibrate.sample()) / 2 / calibrate.REFERENCE_S

    @contextmanager
    def op(self):
        """One operation (query / served query / tick / agent call)."""
        span = nullcontext()
        if self.recorder:
            self.recorder.op_id += 1
            span = self.recorder.span(OP_SPAN)
        with span:
            start = time.perf_counter()
            yield
            self.op_ms.append((time.perf_counter() - start) * 1e3)

    @contextmanager
    def ledger(self, llm):
        """Charge what ``llm`` spends inside the block to the virtual ledger."""
        cost, clock = llm.tracker.spent_usd, llm.clock.elapsed
        yield
        self.virtual_cost_usd += llm.tracker.spent_usd - cost
        self.virtual_time_s += llm.clock.elapsed - clock

    def emit(self, records, **extra) -> None:
        """Fold one result set (order-insensitive) into the pass digest."""
        rows = sorted(
            (record.uid, sorted(record.fields.items())) for record in records
        )
        self._digest.update(
            json.dumps([rows, extra], sort_keys=True, default=_jsonable).encode()
        )

    def digest(self) -> str:
        return self._digest.hexdigest()

    def summary(self) -> dict:
        """What the worker reports to the harness about this pass."""
        return {
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "slowdown": self.slowdown,
            "op_ms": self.op_ms,
            "records_in": self.records_in,
            "virtual_cost_usd": self.virtual_cost_usd,
            "virtual_time_s": self.virtual_time_s,
            "digest": self.digest(),
            "errors": self.errors,
        }


def _jsonable(value):
    """Digest form of a non-JSON field value (numpy scalars read as Python's)."""
    if hasattr(value, "item"):
        return value.item()
    if isinstance(value, (set, frozenset)):
        return sorted(value, key=repr)
    return repr(value)
