"""Semantic materialization: sub-plan fingerprints and the reuse store.

The cross-query counterpart of the generation cache.  Where the
:class:`~repro.llm.cache.GenerationCache` reuses single LLM *calls*, the
:class:`MaterializationStore` reuses whole operator-boundary record sets:
every prefix of a linear plan gets a canonical **fingerprint** — a stable
digest of its operators' tokens (each class declares its own:
:meth:`~repro.sem.logical.LogicalOperator.token`), the source lineage and
the substrate seed — and the engine stores the records flowing across each
fingerprintable boundary.  A later query whose
prefix hashes to the same fingerprint replays the stored records instead of
recomputing them; if the source has *appended* records or *rewritten* some
in place since, only that delta runs through the prefix (incremental
execution): the stored records the rewrites invalidate are dropped and the
delta's output is merged in by source position.

Soundness rests on four facts established by earlier PRs:

- simulated answers are a pure function of (seed, model, instruction,
  record uid) — never of call order — so a fingerprint match implies the
  recomputation would produce byte-identical records;
- tokens normalize instructions the way the noise key does, so
  semantically identical whitespace/case variants share entries;
- derived-record uids are lineage-deterministic, so records computed from
  a delta are identical to the ones a full recompute would make;
- :meth:`~repro.data.records.DataRecord.derive` names a child
  ``parent.uid + "." + 6 hex``, so a record's *root* — the source record it
  descends from through a record-local prefix — is the longest
  ``.``-truncation of its uid that is a source uid
  (:func:`root_positions`).  A stored record whose root does not resolve
  cannot be placed, and the probe is a miss.

Commuting filter runs (see :func:`repro.sem.logical.commuting_runs`)
are canonicalized by sorting their tokens: filters only remove records and
preserve order, so any permutation — even a prefix that cuts a run in half
— yields the same record set, and semantically identical reorderings share
fingerprints.
"""

from __future__ import annotations

import heapq
import json
from collections import OrderedDict
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path

from repro.data.records import DataRecord
from repro.errors import ExecutionError
from repro.sem import logical as L
from repro.utils.hashing import stable_digest
from repro.utils.persist import load_json, save_json

#: Bump when the token grammar changes; keeps persisted stores honest.
FINGERPRINT_VERSION = 1


def prefix_fingerprints(
    chain: list[L.LogicalOperator],
    models: list[str | None],
    llm_seed: int,
    scope: str = "",
) -> list[str | None]:
    """Fingerprint of every prefix ``chain[:p]``, indexed by ``p - 1``.

    None marks boundaries not worth (or not safe to) materialize: prefixes
    containing an unfingerprintable operator (and everything above them),
    and prefixes with no costly operator yet.

    ``scope`` namespaces fingerprints (tenant isolation on a shared store):
    scoped queries can only ever match entries captured under the same
    scope.  The empty scope keeps historical digests unchanged.

    Each operator is tokenized through its :meth:`expanded` form — a
    pushed-down leaf as the plain scan followed by its embedded operators —
    so a plan shares every boundary fingerprint at or after the end of the
    scan-adjacent filter run with every plan that pushes a different number
    of the same operators (a hoisted ``where``, a longer structured
    prefix): pushdown composes with reuse instead of fragmenting the store.
    """
    virtual_chain: list[L.LogicalOperator] = []
    virtual_tokens: list[tuple | None] = []
    boundaries: list[int] = []
    for op, model in zip(chain, models):
        for inner in op.expanded():
            virtual_chain.append(inner)
            virtual_tokens.append(inner.token(model if inner is op else None))
        boundaries.append(len(virtual_chain))

    scope_tokens = ("scope", scope) if scope else ()
    fingerprints: list[str | None] = []
    poisoned = False
    costly = False
    consumed = 0
    for boundary in boundaries:
        for position in range(consumed, boundary):
            if virtual_tokens[position] is None:
                poisoned = True
            if virtual_chain[position].costly:
                costly = True
        consumed = boundary
        if poisoned or not costly:
            fingerprints.append(None)
            continue
        # Sort tokens within commuting runs — sound even when the boundary
        # cuts a run: filters preserve record identity and order, so any
        # subset of a run, in any order, produces the same record set.
        canonical = virtual_tokens[:boundary]
        for start, end in L.commuting_runs(virtual_chain[:boundary]):
            canonical[start:end] = sorted(canonical[start:end], key=repr)
        fingerprints.append(
            stable_digest(
                "materialize-fp",
                FINGERPRINT_VERSION,
                llm_seed,
                *scope_tokens,
                *canonical,
            )
        )
    return fingerprints


def stamp_fingerprints(operators: list, llm_seed: int, scope: str = "") -> None:
    """Re-set each bound operator's ``fingerprint`` after a reorder.

    The optimizer stamps every operator as it binds it; the mid-query
    re-planner calls this after it permutes a suffix.  A replay's boundary
    is that of the prefix it ``covers``, whatever its shape
    (:class:`~repro.sem.physical.PhysMaterializedScan`): an exact hit's
    prefix was never bound, a compact delta's rides on the replay, and an
    expanded delta's is bound ahead of it over the delta only, so those
    operators capture nothing.
    """
    chain, models, owners = [], [], []
    for operator in operators:
        operator.fingerprint = None
        if operator.reused:
            chain = [op for op, _ in operator.covers]
            models = [model for _, model in operator.covers]
            owners = [None] * (len(chain) - 1) + [operator]
        else:
            chain.append(operator.logical_op)
            models.append(operator.model)
            owners.append(operator)
    fingerprints = prefix_fingerprints(chain, models, llm_seed, scope=scope)
    for owner, fingerprint in zip(owners, fingerprints):
        if owner is not None:
            owner.fingerprint = fingerprint


def incremental_safe_prefix(chain: list[L.LogicalOperator]) -> list[bool]:
    """Whether ``chain[:p]`` can merge a delta, indexed ``p - 1``.

    Every operator must be record-local and order-preserving
    (``incremental_safe``): a scan trivially is, a pushed-down leaf only
    when every embedded operator is (a pushed limit or aggregation depends
    on the whole input).
    """
    safe: list[bool] = []
    all_safe = True
    for op in chain:
        all_safe = all_safe and all(inner.incremental_safe for inner in op.expanded())
        safe.append(all_safe)
    return safe


def root_positions(
    records: list[DataRecord], positions: dict[str, int]
) -> list[int] | None:
    """Source position of each record's root uid; None if one does not resolve.

    The root is the longest ``.``-truncation of the uid found in
    ``positions`` (source uid -> position): a source record itself, or its
    descendant through :meth:`DataRecord.derive`.
    """
    roots = []
    for record in records:
        uid = record.uid
        while uid not in positions:
            uid, dot, _ = uid.rpartition(".")
            if not dot:
                return None
        roots.append(positions[uid])
    return roots


@dataclass(frozen=True)
class Rewrites:
    """In-place rewrites a delta replay folds into its stored records."""

    #: Source uid -> position in the source's scan order.
    positions: dict[str, int]
    #: Positions inside the stored prefix rewritten since capture.
    rewritten: frozenset[int]
    #: Root position of each stored record, in stored order.
    roots: list[int]

    def apply(
        self, stored: list[DataRecord], rederived: list[DataRecord]
    ) -> list[DataRecord]:
        """``stored`` without the rewritten records' outputs, merged with
        ``rederived`` — the delta's output — by root position.

        Both inputs are in source order (the prefix is order-preserving)
        and their roots are disjoint, so the merge is a full recompute's
        order.
        """
        placed = root_positions(rederived, self.positions)
        if placed is None:
            raise ExecutionError(
                "an incremental-safe operator emitted a record whose uid does "
                "not descend from a source uid; derive records with "
                "DataRecord.derive"
            )
        kept = [
            (root, record)
            for root, record in zip(self.roots, stored)
            if root not in self.rewritten
        ]
        merged = heapq.merge(kept, zip(placed, rederived), key=itemgetter(0))
        return [record for _, record in merged]


def delta_since(
    entry: "MaterializedEntry", source, records: list[DataRecord]
) -> tuple[list[DataRecord], Rewrites | None] | None:
    """The source records a delta hit on ``entry`` runs through its prefix.

    That is every record rewritten in place since the entry's
    ``content_version`` plus the appended tail, in source order
    (``records`` is the source's scan).  Rewrites inside the stored prefix
    come back as :class:`Rewrites` for the replay to fold in; None means
    only the tail changed, so the replay concatenates.  Returns None when
    a stored record's root does not resolve: the replay could not place
    the re-derived records, so the probe is a miss.
    """
    base = len(entry.source_uids)
    tail = records[base:]
    if entry.content_version == source.content_version:
        return tail, None
    positions = {uid: at for at, uid in enumerate(source.uids())}
    since = source.rewritten_since(entry.content_version)
    rewritten = sorted(at for at in map(positions.__getitem__, since) if at < base)
    if not rewritten:
        return tail, None
    roots = root_positions(entry.records, positions)
    if roots is None:
        return None
    delta = [records[at] for at in rewritten] + tail
    return delta, Rewrites(positions, frozenset(rewritten), roots)


@dataclass
class MaterializedEntry:
    """Records captured at one fingerprinted operator boundary."""

    fingerprint: str
    records: list[DataRecord]
    #: Source uids at capture time; delta detection compares prefixes.
    source_uids: tuple[str, ...]
    source_id: str
    #: Source update-generation at capture time.  In-place updates keep
    #: uids, so the prefix check alone would misclassify them as "exact";
    #: a probe at a later content_version is a delta over the rewrites.
    content_version: int = 0
    #: Measured cumulative spend of producing these records (full-recompute
    #: equivalent: delta-merged updates carry the prior entry's cost).
    cost_usd: float = 0.0
    time_s: float = 0.0
    hits: int = 0
    delta_hits: int = 0


@dataclass
class CapturePlan:
    """How the engine should capture this run's boundaries.

    *Where* lives on the bound operators: each carries the ``fingerprint``
    of the boundary after it (None = don't capture), so a re-planned
    reorder moves the fingerprints with the operators.  When
    the run itself replays a materialized prefix, the carried cost is
    folded into re-captures so updated entries keep honest full-recompute
    cost estimates.
    """

    store: "MaterializationStore"
    source_id: str
    source_uids: tuple[str, ...]
    carried_cost_usd: float = 0.0
    carried_time_s: float = 0.0
    #: Source update-generation this run executed against (stamped onto
    #: every captured entry; probes compare it to catch in-place updates).
    content_version: int = 0


class MaterializationStore:
    """LRU-bounded store of materialized sub-plan results.

    Keys are canonical prefix fingerprints; values are the records at that
    operator boundary plus enough provenance (source uids, measured cost)
    for the optimizer to cost reuse against recompute and for the engine to
    run appended and rewritten deltas.  At most :attr:`MAX_ENTRIES` entries
    are kept.  Counters mirror into an attached
    :class:`~repro.obs.metrics.MetricsRegistry` as ``materialization.*``.
    """

    MAX_ENTRIES = 256

    def __init__(self) -> None:
        self._entries: OrderedDict[str, MaterializedEntry] = OrderedDict()
        self.hits = 0
        self.delta_hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.invalidations = 0
        #: Invalidations an in-place source update caused, a subset of
        #: ``invalidations``: an entry stamped with a version its source has
        #: not reached, a rewrite a prefix could not absorb, or an update
        #: cascade through a derived Context (:meth:`invalidate_sources`).
        self.update_invalidations = 0
        self.delta_records = 0
        #: Truncated / non-JSON files :meth:`load` refused (loaded as empty).
        self.load_errors = 0
        #: Optional :class:`repro.obs.metrics.MetricsRegistry` mirror.
        self.metrics = None

    # -- writes ---------------------------------------------------------

    def put(
        self,
        fingerprint: str,
        records: list[DataRecord],
        source_uids: tuple[str, ...],
        source_id: str,
        cost_usd: float,
        time_s: float,
        content_version: int = 0,
    ) -> MaterializedEntry:
        previous = self._entries.pop(fingerprint, None)
        entry = MaterializedEntry(
            fingerprint=fingerprint,
            records=list(records),
            source_uids=tuple(source_uids),
            source_id=source_id,
            content_version=content_version,
            cost_usd=cost_usd,
            time_s=time_s,
            hits=previous.hits if previous else 0,
            delta_hits=previous.delta_hits if previous else 0,
        )
        self._entries[fingerprint] = entry
        self.stores += 1
        self._count("materialization.stores")
        while len(self._entries) > self.MAX_ENTRIES:
            self._entries.popitem(last=False)
            self.evictions += 1
            self._count("materialization.evictions")
        return entry

    # -- reads ----------------------------------------------------------

    def match(
        self,
        fingerprint: str,
        source_uids: tuple[str, ...],
        content_version: int = 0,
        incremental: bool = True,
    ) -> tuple[str, MaterializedEntry | None]:
        """Classify a probe: ``("exact"|"delta"|"update"|"stale"|"miss", entry)``.

        Exact: the source is unchanged.  Delta: the stored uids are a
        prefix of the current ones and the source's ``content_version`` is
        at or past the entry's — it saw appends, in-place rewrites or both
        since capture (:func:`delta_since` says which records).  Update: the
        entry is stamped with a version the source has not reached, or a
        rewrite hit a prefix that cannot absorb it (``incremental=False``)
        — the entry is evicted and counted in ``update_invalidations``.
        Anything else — shrinkage, reordering — invalidates the entry as
        "stale".
        """
        entry = self._entries.get(fingerprint)
        if entry is None:
            return "miss", None
        stored = entry.content_version
        if stored > content_version or (
            stored < content_version and not incremental
        ):
            self._evict(fingerprint, update=True)
            return "update", None
        if stored == content_version and entry.source_uids == source_uids:
            return "exact", entry
        base = len(entry.source_uids)
        if len(source_uids) >= base and source_uids[:base] == entry.source_uids:
            return "delta", entry
        self._evict(fingerprint, update=False)
        return "stale", None

    def _evict(self, fingerprint: str, update: bool) -> None:
        del self._entries[fingerprint]
        self.invalidations += 1
        self._count("materialization.invalidations")
        if update:
            self.update_invalidations += 1
            self._count("materialization.update_invalidations")

    def note_hit(
        self, entry: MaterializedEntry, kind: str, delta_records: int = 0
    ) -> None:
        """Record that the optimizer chose to reuse ``entry``."""
        self._entries.move_to_end(entry.fingerprint)
        entry.hits += 1
        self.hits += 1
        self._count("materialization.hits")
        if kind == "delta":
            entry.delta_hits += 1
            self.delta_hits += 1
            self.delta_records += delta_records
            self._count("materialization.delta_hits")
            self._count("materialization.delta_records", delta_records)

    def note_miss(self) -> None:
        self.misses += 1
        self._count("materialization.misses")

    # -- maintenance ----------------------------------------------------

    def invalidate_sources(self, source_ids, kind: str = "stale") -> int:
        """Evict every entry built on one of ``source_ids``; returns count.

        ``kind="update"`` marks the eviction as caused by an in-place
        source rewrite: the catalog's cascade evicts entries built on
        Contexts derived from the rewritten base, whose own entries the
        lazy check in :meth:`match` patches instead.
        """
        names = set(source_ids)
        doomed = [
            fingerprint
            for fingerprint, entry in self._entries.items()
            if entry.source_id in names
        ]
        for fingerprint in doomed:
            del self._entries[fingerprint]
        self.invalidations += len(doomed)
        self._count("materialization.invalidations", len(doomed))
        if kind == "update":
            self.update_invalidations += len(doomed)
            self._count("materialization.update_invalidations", len(doomed))
        return len(doomed)

    def clear(self) -> None:
        self._entries.clear()

    def entries(self) -> list[MaterializedEntry]:
        return list(self._entries.values())

    def get(self, fingerprint: str) -> MaterializedEntry | None:
        return self._entries.get(fingerprint)

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "delta_hits": self.delta_hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "update_invalidations": self.update_invalidations,
            "delta_records": self.delta_records,
        }

    # -- persistence ----------------------------------------------------

    def save(self, path: str | Path) -> int:
        """Persist JSON-serializable entries; returns how many were saved.

        Entries whose field values don't survive a JSON round-trip (live
        objects, numpy scalars) are skipped — reuse must never replay
        records that differ from what a recompute would produce.

        Atomic and checksummed (:func:`repro.utils.persist.save_json`): a
        crash mid-save leaves the previous file readable.
        """
        payload = []
        for entry in self._entries.values():
            try:
                records = [_record_to_dict(record) for record in entry.records]
                json.dumps(records)
            except (TypeError, ValueError):
                continue
            payload.append(
                {
                    "fingerprint": entry.fingerprint,
                    "records": records,
                    "source_uids": list(entry.source_uids),
                    "source_id": entry.source_id,
                    "content_version": entry.content_version,
                    "cost_usd": entry.cost_usd,
                    "time_s": entry.time_s,
                }
            )
        save_json(path, {"version": FINGERPRINT_VERSION, "entries": payload})
        return len(payload)

    def load(self, path: str | Path) -> int:
        """Load entries saved by :meth:`save`; returns how many were loaded.

        :attr:`MAX_ENTRIES` is enforced *before* materialization: when the
        file holds more entries than the store's capacity, the oldest overflow
        (save order = LRU order, last entry most recent) is dropped on the
        floor and counted as evictions — the bound is never exceeded, even
        transiently, and doomed records are never deserialized.

        Files written before reuse became one optimizer decision also hold
        per-shard entries (marked by an ``emit_counts`` key) that no probe
        can match any more; they are dropped here, counted as evictions.

        A truncated, non-JSON or checksum-failing file loads nothing and is
        counted in ``load_errors`` — a corrupt store file costs the saved
        work, never the query.
        """
        payload = load_json(path)
        if payload is None:
            self.load_errors += 1
            self._count("materialization.load_errors")
            return 0
        if payload.get("version") != FINGERPRINT_VERSION:
            return 0
        saved = payload.get("entries", [])
        entries = [raw for raw in saved if "emit_counts" not in raw]
        entries = entries[max(0, len(entries) - self.MAX_ENTRIES) :]
        dropped = len(saved) - len(entries)
        if dropped:
            self.evictions += dropped
            self._count("materialization.evictions", dropped)
        for raw in entries:
            self.put(
                raw["fingerprint"],
                [_record_from_dict(item) for item in raw["records"]],
                tuple(raw["source_uids"]),
                raw["source_id"],
                cost_usd=raw["cost_usd"],
                time_s=raw["time_s"],
                content_version=raw.get("content_version", 0),
            )
        return len(entries)

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None and amount:
            self.metrics.counter(name).inc(amount)


def _record_to_dict(record: DataRecord) -> dict:
    return {
        "uid": record.uid,
        "fields": dict(record.fields),
        "annotations": dict(record.annotations),
        "source_id": record.source_id,
        "parent_uids": list(record.parent_uids),
    }


def _record_from_dict(payload: dict) -> DataRecord:
    return DataRecord(
        fields=payload["fields"],
        uid=payload["uid"],
        annotations=payload["annotations"],
        source_id=payload["source_id"],
        parent_uids=tuple(payload["parent_uids"]),
    )
