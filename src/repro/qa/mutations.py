"""Seeded runtime mutations for the harness's self-test.

A differential harness is only trustworthy if it *fails* when the runtime
is broken.  Each mutation here monkeypatches one guard or invariant out of
the live runtime — inside a context manager, so the patch never leaks —
and the self-test asserts that the oracles catch it and that the shrinker
reduces the failing case to a minimal repro.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Mutation:
    """One deliberate runtime defect, applied for the duration of a block."""

    name: str
    description: str
    #: Which oracle family is expected to catch this defect.
    expected_oracle: str
    _apply: Callable
    #: Oracle families that must *also* fire on the catching case.
    also_killed_by: tuple[str, ...] = ()
    #: Every engine cell shares the defect: the catching case must come
    #: back clean once its ``reference`` observation is withheld.
    only_via_reference: bool = False
    #: Specs whose cells must *each* report ``expected_oracle`` on the
    #: catching case (the defect sits on a path several shapes share).
    killed_in_specs: tuple[str, ...] = ()

    @contextlib.contextmanager
    def applied(self) -> Iterator[None]:
        with self._apply():
            yield


@contextlib.contextmanager
def _drop_budget_check() -> Iterator[None]:
    """Disable the per-call budget guard (engine boundary checks remain)."""
    from repro.sem.physical import ExecutionContext

    original = ExecutionContext.check_budget
    ExecutionContext.check_budget = lambda self: None
    try:
        yield
    finally:
        ExecutionContext.check_budget = original


@contextlib.contextmanager
def _scramble_cell_order() -> Iterator[None]:
    """Reverse each cell's emitted records (an ordering bug).

    Patches the one cell runner, so pipelined sections emit reversed
    batches and shard workers file records under the wrong global
    positions (the positions sidecar is left as emitted).
    """
    from repro.sem.batch import RecordBatch
    from repro.sem.execution import Engine

    original = Engine.run_cell

    def scrambled(self, operator, batch, state, stats, after):
        out, seconds, truncated, tail = original(
            self, operator, batch, state, stats, after
        )
        return RecordBatch(out.records[::-1], out.positions), seconds, truncated, tail

    Engine.run_cell = scrambled
    try:
        yield
    finally:
        Engine.run_cell = original


@contextlib.contextmanager
def _filter_drops_kept() -> Iterator[None]:
    """Silently drop about half of the records a semantic filter keeps.

    The drop is a pure function of the record uid, so every engine mode —
    fused, operator-step, sharded, served, warm, standing — drops the same
    records and agrees with every other: only an oracle that does not run
    ``PhysSemFilter`` (the reference interpreter) can see the defect.
    """
    from repro.sem.physical import PhysSemFilter
    from repro.utils.hashing import stable_hash

    original = PhysSemFilter.process_rows

    def lossy(self, records, ctx, state):
        return [
            [r for r in kept if stable_hash("drop-kept", r.uid) % 2]
            for kept in original(self, records, ctx, state)
        ]

    PhysSemFilter.process_rows = lossy
    try:
        yield
    finally:
        PhysSemFilter.process_rows = original


@contextlib.contextmanager
def _replay_after_delta() -> Iterator[None]:
    """Put a replayed prefix's stored records *after* the delta survivors.

    Only incremental execution can show it: an exact replay has no delta,
    so rotating it is the identity, while a standing tick's view comes out
    in the wrong order — in the compact (unsharded) and the expanded
    (sharded) replay shape alike.
    """
    from repro.sem.physical import PhysMaterializedScan

    original = PhysMaterializedScan.execute

    def misplaced(self, records, ctx):
        output = original(self, records, ctx)
        base = len(self.entry.records)
        return output[base:] + output[:base]

    PhysMaterializedScan.execute = misplaced
    try:
        yield
    finally:
        PhysMaterializedScan.execute = original


@contextlib.contextmanager
def _patch_keeps_stale() -> Iterator[None]:
    """Keep a rewritten record's stored outputs beside its re-derived ones.

    Only a patched replay can show it: the streaming class rewrites a base
    record in place before its second append, and the view then holds that
    record's outputs twice — unsharded and sharded alike.
    """
    from dataclasses import replace

    from repro.sem.materialize import Rewrites

    original = Rewrites.apply

    def stale(self, stored, rederived):
        return original(replace(self, rewritten=frozenset()), stored, rederived)

    Rewrites.apply = stale
    try:
        yield
    finally:
        Rewrites.apply = original


@contextlib.contextmanager
def _sink_drops_section_time() -> Iterator[None]:
    """Under a serving sink, ``spend`` drops a pipelined section's makespan
    growth.

    Records and dollars are untouched and a direct run is unchanged: only
    serving's time conservation (a served job's standalone time is the
    direct run's ``total_time_s``) can see it.
    """
    from repro.sem.execution import Engine

    original = Engine._section_step

    def leaky(self, operators, index, end, records):
        llm = self.ctx.llm
        if llm.serve_sink is None:
            return original(self, operators, index, end, records)
        llm.spend = lambda seconds: None
        try:
            return original(self, operators, index, end, records)
        finally:
            del llm.spend

    Engine._section_step = leaky
    try:
        yield
    finally:
        Engine._section_step = original


MUTATIONS: dict[str, Mutation] = {
    mutation.name: mutation
    for mutation in (
        Mutation(
            name="drop-budget-check",
            description="per-call spend-cap guard removed from ExecutionContext",
            expected_oracle="budget-cap",
            _apply=_drop_budget_check,
        ),
        Mutation(
            name="scramble-cell-order",
            description="cells emit records in reversed order",
            expected_oracle="exec-equivalence",
            _apply=_scramble_cell_order,
            # Shard workers and served queries run the same cell runner, so
            # the sharded and serve classes must see the defect too.
            also_killed_by=("shard-equivalence", "serve-equivalence"),
        ),
        Mutation(
            name="filter-drops-kept",
            description="semantic filter drops half of its kept records in every mode",
            expected_oracle="exec-equivalence",
            _apply=_filter_drops_kept,
            also_killed_by=("shard-equivalence", "serve-equivalence"),
            only_via_reference=True,
        ),
        Mutation(
            name="replay-after-delta",
            description="materialized replay appends its base after the delta",
            expected_oracle="streaming-equivalence",
            _apply=_replay_after_delta,
            killed_in_specs=("standing", "standing-sharded-4"),
        ),
        Mutation(
            name="patch-keeps-stale",
            description="a patched replay keeps the rewritten records' stale outputs",
            expected_oracle="streaming-equivalence",
            _apply=_patch_keeps_stale,
            killed_in_specs=("standing", "standing-sharded-4"),
        ),
        Mutation(
            name="sink-drops-section-time",
            description="a served pipelined section's makespan growth is not spent",
            expected_oracle="serve-equivalence",
            _apply=_sink_drops_section_time,
        ),
    )
}


def mutation_by_name(name: str) -> Mutation:
    try:
        return MUTATIONS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown mutation {name!r}; known: {sorted(MUTATIONS)}"
        ) from None
