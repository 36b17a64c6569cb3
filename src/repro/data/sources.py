"""Data sources: where plans get their records.

A :class:`DataSource` yields :class:`DataRecord` objects and reports its
cardinality and uids without a scan; the optimizer uses cardinalities for
cost estimates.

Sources are also the *change feed* for standing queries (see
:mod:`repro.sem.streaming`): every mutation — an append of new records or
an in-place update of an existing one — is pushed to any subscribed
listeners as a :class:`SourceEvent`; the source keeps no log of them.
One counter makes the distinction the materialization layer needs:
``content_version`` counts in-place updates.  Appends grow the uid
sequence, so the :class:`~repro.sem.materialize.MaterializationStore`
catches them with its source-uid prefix check; updates keep the uids and
would silently replay stale records — the store compares
``content_version`` to catch exactly that case, and
:meth:`DataSource.rewritten_since` names the uids to re-derive.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from repro.data.records import DataRecord
from repro.data.schemas import Schema
from repro.errors import DataSourceError


@dataclass(frozen=True)
class SourceEvent:
    """One published mutation of a :class:`DataSource`."""

    kind: str  # "append" | "update"
    source_id: str
    uids: tuple[str, ...]
    #: Update-generation after this event (bumped by updates only).
    content_version: int


class DataSource(abc.ABC):
    """Abstract record source with a schema, a cardinality and uids."""

    def __init__(self, source_id: str, schema: Schema) -> None:
        self.source_id = source_id
        self.schema = schema
        #: Monotonic in-place-update counter (see module docstring).
        self.content_version = 0
        #: uid -> the ``content_version`` of its last in-place rewrite (one
        #: entry per rewritten uid, so bounded by the source's size).
        self._rewritten: dict[str, int] = {}
        self._subscribers: list[Callable[[SourceEvent], None]] = []

    @abc.abstractmethod
    def iterate(self) -> Iterator[DataRecord]:
        """Yield the source's records."""

    @abc.abstractmethod
    def cardinality(self) -> int:
        """Number of records."""

    @abc.abstractmethod
    def uids(self) -> tuple[str, ...]:
        """The uids of :meth:`iterate`'s records, in order."""

    def rewritten_since(self, content_version: int) -> list[str]:
        """The uids rewritten in place after ``content_version``."""
        return [
            uid
            for uid, version in self._rewritten.items()
            if version > content_version
        ]

    def subscribe(self, callback: Callable[[SourceEvent], None]) -> None:
        """Register a listener invoked synchronously on every mutation."""
        self._subscribers.append(callback)

    def _publish(self, event: SourceEvent) -> SourceEvent:
        for callback in self._subscribers:
            callback(event)
        return event

    def __iter__(self) -> Iterator[DataRecord]:
        return self.iterate()


class MemorySource(DataSource):
    """A source over an in-memory list of records."""

    def __init__(
        self,
        records: Iterable[DataRecord],
        schema: Schema,
        source_id: str = "memory",
    ) -> None:
        super().__init__(source_id, schema)
        self._records = list(records)
        for record in self._records:
            if not record.source_id:
                record.source_id = source_id
        # Extended by ``append``; ``update`` keeps uids.
        self._uids = tuple(record.uid for record in self._records)

    def iterate(self) -> Iterator[DataRecord]:
        return iter(self._records)

    def cardinality(self) -> int:
        return len(self._records)

    def uids(self) -> tuple[str, ...]:
        return self._uids

    def records(self) -> list[DataRecord]:
        return list(self._records)

    # -- mutations (the standing-query change feed) ---------------------

    def append(self, records: Iterable[DataRecord]) -> SourceEvent:
        """Append records at the end of the source and publish the event.

        Append-only growth preserves the existing uid prefix, so
        materialized prefixes stay delta-reusable.
        """
        appended = list(records)
        for record in appended:
            if not record.source_id:
                record.source_id = self.source_id
        uids = tuple(record.uid for record in appended)
        self._records.extend(appended)
        self._uids += uids
        return self._publish(
            SourceEvent(
                kind="append",
                source_id=self.source_id,
                uids=uids,
                content_version=self.content_version,
            )
        )

    def update(self, uid: str, fields: dict) -> SourceEvent:
        """Replace an existing record's fields and publish the event.

        Copy-on-write: the slot gets a new :class:`DataRecord` (same uid,
        merged fields), so a record already handed out — to a standing view,
        a changelog entry, a materialized entry — never changes content.

        Updates keep the record's uid, so prefix-matching alone cannot see
        them — the bumped ``content_version``, recorded against the uid, is
        what tells a materialized entry built on the old contents which of
        its records to re-derive.
        """
        for index, record in enumerate(self._records):
            if record.uid == uid:
                self._records[index] = DataRecord(
                    {**record.fields, **fields},
                    uid=uid,
                    annotations=record.annotations,
                    source_id=record.source_id,
                    parent_uids=record.parent_uids,
                )
                break
        else:
            raise DataSourceError(
                f"source {self.source_id!r} has no record with uid {uid!r}"
            )
        self.content_version += 1
        self._rewritten[uid] = self.content_version
        return self._publish(
            SourceEvent(
                kind="update",
                source_id=self.source_id,
                uids=(uid,),
                content_version=self.content_version,
            )
        )

