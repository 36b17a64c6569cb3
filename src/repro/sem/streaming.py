"""Standing queries: incremental view maintenance over delta execution.

The paper's ContextManager envisions analytics that stay *live* as new
evidence arrives.  This module turns the fingerprinted delta execution of
:mod:`repro.sem.materialize` into continuous *standing queries*: a
registered :class:`~repro.sem.dataset.Dataset` plan re-evaluates
incrementally as its :class:`~repro.data.sources.DataSource`\\ s receive
``append``/``update`` events, so repeated evaluation costs O(delta)
instead of O(stream).

How a tick works:

1. Sources publish :class:`~repro.data.sources.SourceEvent`\\ s to the
   :class:`StandingQueryManager`, which accumulates them as *pending* work
   per standing query (updates additionally cascade an invalidation
   through :meth:`~repro.core.context_manager.ContextManager.invalidate`
   to the Contexts derived from the source, and drop the learned priors
   on it; appends leave the priors as they are).
2. :meth:`StandingQueryManager.pump` refreshes each query that has an
   update pending, or at least its :class:`RefreshPolicy`'s ``count``
   appended records.
3. A refresh re-runs the plan.  The shared
   :class:`~repro.sem.materialize.MaterializationStore` classifies each
   fingerprinted prefix as a delta hit — appends and in-place rewrites
   alike — so only the appended and rewritten records flow through the
   delta-safe prefix, merged into the stored records by source position;
   past unsafe boundaries (group-by, join, top-k, limit) execution falls
   back to a scoped recompute over the merged record set, and an entry
   behind such a boundary is evicted on a rewrite.  Because simulated
   answers and derived uids are pure functions of lineage, the tick's
   result is bit-identical to a from-scratch run.
4. The tick emits a **changelog** of result deltas — insert/retract
   entries carrying the affected records (and through them the lineage
   uids) — computed as a minimal sequence diff against the previous view.
   :func:`fold_changelog` replays a changelog onto any prior state and
   reproduces the current view exactly.

Observability: ``standing-query`` (registration), ``standing-tick`` (one
refresh) and ``changelog`` (the emitted deltas) span kinds, plus
``streaming.*`` counters.  :meth:`StandingQuery.explain` appends a
refresh-provenance footer to the usual EXPLAIN ANALYZE rendering.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field, replace
from itertools import groupby
from typing import TYPE_CHECKING, Any

from repro.data.records import DataRecord
from repro.data.sources import DataSource, SourceEvent
from repro.errors import StreamingError

if TYPE_CHECKING:
    from repro.sem.config import QueryProcessorConfig
    from repro.sem.dataset import Dataset

@dataclass(frozen=True)
class RefreshPolicy:
    """When a standing query's pending events justify a refresh.

    The query refreshes once ``count`` appended records are pending.  An
    update event forces the next pump's refresh regardless — an in-place
    rewrite makes the standing view stale in a way batching cannot excuse.
    ``trigger`` names that rule; ``"count"`` is its only legal value.
    """

    trigger: str = "count"
    count: int = 1

    def __post_init__(self) -> None:
        if self.trigger != "count":
            raise StreamingError(
                f"unknown refresh trigger {self.trigger!r}; "
                "the only trigger is 'count'"
            )
        if self.count < 1:
            raise StreamingError(f"count must be >= 1, got {self.count}")


@dataclass(frozen=True)
class ChangeEntry:
    """One result delta: a record inserted into or retracted from the view.

    ``position`` indexes the *pre-tick* view for retracts and the
    *post-tick* view for inserts, so applying a tick's retracts (by
    descending position) and then its inserts (ascending) reconstructs the
    new view exactly — see :func:`fold_changelog`.
    """

    kind: str  # "insert" | "retract"
    tick: int
    position: int
    record: DataRecord

    @property
    def uid(self) -> str:
        return self.record.uid

    @property
    def lineage(self) -> tuple[str, ...]:
        """Parent uids of the affected record (provenance)."""
        return self.record.parent_uids


@dataclass
class TickResult:
    """What one refresh produced."""

    name: str
    tick: int
    #: What fired: register|count|update.
    fired: str
    #: The query's clock when the refresh started.
    at_s: float
    pending_appends: int = 0
    pending_updates: int = 0
    cost_usd: float = 0.0
    time_s: float = 0.0
    reused_prefix: int = 0
    reuse_kind: str = ""
    delta_records: int = 0
    inserts: int = 0
    retracts: int = 0
    changelog: list[ChangeEntry] = field(default_factory=list)


def _record_key(record: DataRecord) -> tuple[str, str]:
    """Hashable identity for diffing: uid + a stable field rendering."""
    return record.uid, repr(sorted(record.fields.items()))


def diff_records(
    before: list[DataRecord], after: list[DataRecord], tick: int
) -> list[ChangeEntry]:
    """Minimal insert/retract sequence edit turning ``before`` into ``after``.

    A replayed view hands back the same record objects, whose content
    never changes (sources update copy-on-write).  When the common identity
    prefix is one whole side, the other side's tail is what the matcher
    would return — its longest block is that whole side, anchored at (0, 0)
    by the earliest-position tie-break — so nothing is rendered.
    """
    shared = 0
    for old, new in zip(before, after):
        if old is not new:
            break
        shared += 1
    if shared == len(before):
        return [
            ChangeEntry("insert", tick, position, after[position])
            for position in range(shared, len(after))
        ]
    if shared == len(after):
        return [
            ChangeEntry("retract", tick, position, before[position])
            for position in range(shared, len(before))
        ]
    matcher = difflib.SequenceMatcher(
        a=[_record_key(record) for record in before],
        b=[_record_key(record) for record in after],
        autojunk=False,
    )
    entries: list[ChangeEntry] = []
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag in ("delete", "replace"):
            for position in range(i1, i2):
                entries.append(
                    ChangeEntry("retract", tick, position, before[position])
                )
        if tag in ("insert", "replace"):
            for position in range(j1, j2):
                entries.append(
                    ChangeEntry("insert", tick, position, after[position])
                )
    return entries


def fold_changelog(
    base: list[DataRecord], entries: list[ChangeEntry]
) -> list[DataRecord]:
    """Replay a changelog onto ``base``, returning the resulting view.

    Entries must be in emission order (grouped by tick); folding the full
    changelog from an empty base reproduces the standing query's current
    records bit-identically.
    """
    state = list(base)
    for _tick, group in groupby(entries, key=lambda entry: entry.tick):
        batch = list(group)
        retracts = sorted(
            (entry for entry in batch if entry.kind == "retract"),
            key=lambda entry: entry.position,
            reverse=True,
        )
        for entry in retracts:
            if not 0 <= entry.position < len(state) or (
                state[entry.position].uid != entry.record.uid
            ):
                raise StreamingError(
                    f"changelog retract at position {entry.position} does "
                    f"not match the folded state (tick {entry.tick})"
                )
            del state[entry.position]
        inserts = sorted(
            (entry for entry in batch if entry.kind == "insert"),
            key=lambda entry: entry.position,
        )
        for entry in inserts:
            if entry.position > len(state):
                raise StreamingError(
                    f"changelog insert at position {entry.position} is out "
                    f"of range for the folded state (tick {entry.tick})"
                )
            state.insert(entry.position, entry.record)
    return state


class StandingQuery:
    """One registered plan plus its live view and pending-event state."""

    def __init__(
        self,
        name: str,
        dataset: "Dataset",
        config: "QueryProcessorConfig",
        policy: RefreshPolicy,
        sources: list[DataSource],
    ) -> None:
        self.name = name
        self.dataset = dataset
        #: What every refresh runs under; its LLM's clock, tracer and
        #: metrics are the query's.
        self.config = config
        self.policy = policy
        self.sources = sources
        #: The current standing view (last refresh's result records).
        self.records: list[DataRecord] = []
        #: Full changelog across all ticks, in emission order.
        self.changelog: list[ChangeEntry] = []
        #: Every tick, the priming one first.
        self.ticks: list[TickResult] = []
        self.tick_count = 0
        self.cumulative_cost_usd = 0.0
        # Pending-event accounting since the last completed refresh.
        self.pending_appends = 0
        self.pending_updates = 0
        # Last completed run's artifacts (what :meth:`explain` renders).
        self.last_result = None
        self.last_report = None

    def folded(self) -> list[DataRecord]:
        """The changelog folded from empty — must equal :attr:`records`."""
        return fold_changelog([], self.changelog)

    # -- refresh provenance (EXPLAIN footer) ----------------------------

    def refresh_footer(self) -> str:
        """Render the refresh-provenance footer for EXPLAIN output."""
        lines = [
            f"standing query {self.name!r}: {len(self.ticks)} ticks, "
            f"trigger={self.policy.trigger}, "
            f"cumulative cost ${self.cumulative_cost_usd:.4f}"
        ]
        if self.ticks:
            tick = self.ticks[-1]
            reuse = (
                f"{tick.reuse_kind} prefix={tick.reused_prefix} "
                f"({tick.delta_records} delta records)"
                if tick.reused_prefix
                else "full recompute"
            )
            lines.append(
                f"last tick {tick.tick}: fired by {tick.fired} at "
                f"{tick.at_s:.1f}s, {reuse}, changelog "
                f"+{tick.inserts}/-{tick.retracts}, cost ${tick.cost_usd:.4f}"
            )
        return "\n".join(lines)

    def explain(self) -> str:
        """EXPLAIN ANALYZE of the last refresh plus the refresh footer."""
        body = ""
        if self.last_result is not None and self.last_report is not None:
            from repro.sem.explain import explain_analyze

            body = explain_analyze(self.last_result, self.last_report) + "\n\n"
        return body + self.refresh_footer()


class StandingQueryManager:
    """Registers standing queries and drives their incremental refreshes.

    One manager watches many queries, each on its own config: a query's
    clock, tracer and metrics are its config's LLM's.  ``store`` (a shared
    :class:`~repro.sem.materialize.MaterializationStore`) and
    ``stats_store`` fill in for a registered config that lacks one — on a
    derived copy, the caller's object is never written — so delta reuse
    works out of the box; ``context_manager`` receives the invalidation
    cascade on update events, and an update drops the ``stats_store``'s
    priors on the rewritten source, whose content they were learned on.
    """

    def __init__(
        self,
        store: Any = None,
        stats_store: Any = None,
        context_manager: Any = None,
    ) -> None:
        self.store = store
        self.stats_store = stats_store
        self.context_manager = context_manager
        self.queries: dict[str, StandingQuery] = {}
        #: Queries by the ``source_id`` they read, each listed once.
        self._watchers: dict[str, list[StandingQuery]] = {}
        self._subscribed: set[int] = set()

    # -- registration ---------------------------------------------------

    def register(
        self,
        name: str,
        dataset: "Dataset",
        config: "QueryProcessorConfig",
        policy: RefreshPolicy | None = None,
    ) -> StandingQuery:
        """Register ``dataset`` as a standing query named ``name``.

        The plan runs once immediately (tick 0, cause ``register``) to
        establish the base view and warm the materialized prefixes that
        later ticks replay.
        """
        if name in self.queries:
            raise StreamingError(f"standing query {name!r} already registered")
        store, stats_store = config.materialization_store, config.stats_store
        config = replace(
            config,
            materialization_store=self.store if store is None else store,
            stats_store=self.stats_store if stats_store is None else stats_store,
        )
        sources = [
            op.source
            for op in dataset.plan().source_ops()
            if op.source is not None
        ]
        if not sources:
            raise StreamingError(
                f"standing query {name!r} has no subscribable DataSource; "
                "standing queries need an event-publishing source "
                "(e.g. MemorySource)"
            )
        query = StandingQuery(
            name=name,
            dataset=dataset,
            config=config,
            policy=policy or RefreshPolicy(),
            sources=sources,
        )
        self.queries[name] = query
        for source_id in dict.fromkeys(source.source_id for source in sources):
            self._watchers.setdefault(source_id, []).append(query)
        for source in sources:
            if id(source) not in self._subscribed:
                self._subscribed.add(id(source))
                source.subscribe(self._on_event)
        tracer = config.llm.tracer
        if tracer.enabled:
            with tracer.span(
                f"standing:{name}",
                kind="standing-query",
                trigger=query.policy.trigger,
                sources=[source.source_id for source in sources],
            ):
                pass
        self._count(query, "streaming.queries")
        self._refresh(query, "register")
        return query

    # -- event intake ---------------------------------------------------

    def _on_event(self, event: SourceEvent) -> None:
        """Source callback: accumulate pending work, cascade invalidation."""
        watchers = self._watchers.get(event.source_id, [])
        if event.kind == "update":
            # The priors were learned on content that no longer exists; an
            # append leaves them be.
            if self.stats_store is not None:
                self.stats_store.invalidate_dataset(event.source_id)
            # Contexts derived from the source go stale, and take their own
            # store entries with them.  Entries built on the source itself
            # stay: the source records the rewrite, so their next probe
            # patches the rewritten records in (or evicts what cannot
            # absorb them).
            if self.context_manager is not None:
                self.context_manager.invalidate(event.source_id, kind="update")
        for query in watchers:
            if event.kind == "append":
                rows = len(event.uids)
                query.pending_appends += rows
                self._count(query, "streaming.appends")
                self._count(query, "streaming.appended_records", rows)
            else:
                query.pending_updates += len(event.uids)
                self._count(query, "streaming.updates")

    # -- refresh triggers -----------------------------------------------

    def pump(self) -> list[TickResult]:
        """Refresh every query with an update or its ``count`` of appends
        pending; the others keep batching."""
        results = []
        for query in list(self.queries.values()):
            if query.pending_updates:
                results.append(self._refresh(query, "update"))
            elif query.pending_appends >= query.policy.count:
                results.append(self._refresh(query, "count"))
        return results

    # -- refresh execution ----------------------------------------------

    def _refresh(self, query: StandingQuery, cause: str) -> TickResult:
        tick_index = query.tick_count
        pending_appends = query.pending_appends
        pending_updates = query.pending_updates
        tick = TickResult(
            name=query.name,
            tick=tick_index,
            fired=cause,
            at_s=query.config.llm.clock.elapsed,
            pending_appends=pending_appends,
            pending_updates=pending_updates,
        )

        tag = f"standing:{query.name}:t{tick_index}"
        llm = query.config.llm
        with llm.tracer.span(
            f"standing:{query.name}:tick{tick_index}",
            kind="standing-tick",
            fired=cause,
            pending_appends=pending_appends,
            pending_updates=pending_updates,
        ) as tick_span:
            checkpoint = llm.tracker.checkpoint()
            time_before = llm.clock.elapsed
            result, report = query.dataset.run_with_report(
                replace(query.config, tag=tag)
            )
            cost_usd = llm.tracker.since(checkpoint).cost_usd
            tick.time_s = llm.clock.elapsed - time_before
            records = result.records
            changelog = diff_records(query.records, records, tick_index)
            tick.changelog = changelog
            tick.inserts = sum(entry.kind == "insert" for entry in changelog)
            tick.retracts = len(changelog) - tick.inserts
            tick.cost_usd = cost_usd
            tick.reused_prefix = report.reused_prefix
            tick.reuse_kind = report.reuse_kind
            tick.delta_records = report.reuse_delta_records
            query.last_result = result
            query.last_report = report
            query.records = list(records)
            query.changelog.extend(changelog)
            query.cumulative_cost_usd += cost_usd
            query.tick_count += 1
            query.ticks.append(tick)
            query.pending_appends = 0
            query.pending_updates = 0
            tick_span.attributes.update(
                cost_usd=round(cost_usd, 6),
                inserts=tick.inserts,
                retracts=tick.retracts,
                reused_prefix=tick.reused_prefix,
                reuse_kind=tick.reuse_kind,
                records=len(records),
            )
            with llm.tracer.span(
                f"standing:{query.name}:changelog",
                kind="changelog",
                tick=tick_index,
                inserts=tick.inserts,
                retracts=tick.retracts,
            ):
                pass
        self._count(query, "streaming.ticks")
        self._count(query, "streaming.inserts", tick.inserts)
        self._count(query, "streaming.retracts", tick.retracts)
        self._count(query, "streaming.delta_records", pending_appends)
        return tick

    # -- internals ------------------------------------------------------

    def _count(self, query: StandingQuery, name: str, amount: float = 1) -> None:
        metrics = query.config.llm.metrics
        if metrics.enabled and amount:
            metrics.counter(name).inc(amount)
