"""The :class:`DataRecord` carried through semantic-operator plans.

A record is a bag of named fields plus two pieces of machinery:

- **annotations** — hidden ground truth written by the synthetic dataset
  generators and read only by the simulated LLM's oracle.  Operator code
  never inspects annotations; doing so would be cheating.
- **lineage** — every derived record remembers its parents, so executors can
  attribute outputs to source records (needed for precision/recall scoring
  and for the paper's materialized-Context provenance).
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Any, Iterable

from repro.errors import FieldNotFoundError
from repro.utils.hashing import (
    PART_SEPARATOR,
    serialize_parts,
    stable_digest,
)
from repro.utils.text import approx_token_count

_UID_COUNTER = itertools.count()

#: (added field names, dropped names) as passed -> (the part of a derived
#: uid's digest payload that follows the parent uid, the dropped names as a
#: set); see :meth:`DataRecord.derive`.  An operator derives every record
#: with one shape, so a plan has a handful; dropped whole when full.
_SHAPES: dict[tuple[tuple[str, ...], tuple[str, ...]], tuple[str, frozenset[str]]] = {}
_SHAPES_CAP = 1024


def reset_uid_counter() -> None:
    """Restart auto-assigned record uids at ``rec-0``.

    Derived records draw uids from a process-global counter, and the
    simulated LLM keys its per-record noise on the uid.  Experiments that
    compare two executions of the same plan (e.g. pipelined vs barrier)
    must reset the counter before each run so derived records line up;
    otherwise the second run sees different uids and different noise.
    """
    global _UID_COUNTER
    _UID_COUNTER = itertools.count()


class DataRecord:
    """A single row flowing through a plan.

    A record is immutable once built: change it with :meth:`derive` (or
    :meth:`merge`), never by writing ``fields``.  Its prompt token count
    (:meth:`text_tokens`) is counted on first use and kept, so a write to
    ``fields`` after pricing would leave the count stale.
    """

    #: ``_text_tokens`` is filled by :meth:`text_tokens` on first use; no
    #: constructor sets it, so a derived or merged record counts its own text.
    __slots__ = ("uid", "fields", "annotations", "source_id", "parent_uids", "_text_tokens")

    def __init__(
        self,
        fields: dict[str, Any],
        uid: str | None = None,
        annotations: dict[str, Any] | None = None,
        source_id: str = "",
        parent_uids: tuple[str, ...] = (),
    ) -> None:
        self.uid = uid if uid is not None else f"rec-{next(_UID_COUNTER)}"
        self.fields = dict(fields)
        self.annotations = dict(annotations or {})
        self.source_id = source_id
        self.parent_uids = tuple(parent_uids)

    @classmethod
    def _owning(
        cls,
        fields: dict[str, Any],
        uid: str,
        annotations: dict[str, Any],
        source_id: str,
        parent_uids: tuple[str, ...],
    ) -> "DataRecord":
        """A record that takes ownership of freshly built dicts (no copies)."""
        record = cls.__new__(cls)
        record.uid = uid
        record.fields = fields
        record.annotations = annotations
        record.source_id = source_id
        record.parent_uids = parent_uids
        return record

    def __getitem__(self, name: str) -> Any:
        try:
            return self.fields[name]
        except KeyError:
            raise FieldNotFoundError(
                f"record {self.uid} has no field {name!r}; "
                f"fields: {sorted(self.fields)}"
            ) from None

    def get(self, name: str, default: Any = None) -> Any:
        return self.fields.get(name, default)

    def __contains__(self, name: str) -> bool:
        return name in self.fields

    def field_names(self) -> list[str]:
        return sorted(self.fields)

    def derive(
        self,
        new_fields: dict[str, Any] | None = None,
        drop: Iterable[str] = (),
    ) -> "DataRecord":
        """Create a child record with updated fields and lineage to ``self``.

        Annotations are inherited so downstream semantic operators can still
        be judged by the oracle after projections and maps.

        The child's uid is a pure function of the parent uid and the shape
        of the change (field names added/dropped), NOT of a global counter.
        The simulated LLM keys its noise on record uids, so counter-drawn
        uids made answers depend on *when* a record was derived — pipelined
        and barrier executions interleave derivations differently and
        silently disagreed on plans with two or more deriving operators.
        Deterministic uids make the cross-mode bit-identical contract hold
        structurally.

        The uid suffix is ``stable_digest(uid, sorted added names, sorted
        dropped names)[:6]``.  The shape's share of that payload is
        serialised once per shape (:data:`_SHAPES`); per record only
        ``repr(uid)`` is put in front of it and the whole hashed, three
        digest bytes read as the six hex digits.
        """
        shape = (tuple(new_fields) if new_fields else (), tuple(drop))
        memo = _SHAPES.get(shape)
        if memo is None:
            if len(_SHAPES) >= _SHAPES_CAP:
                _SHAPES.clear()
            added, dropped = shape[0], frozenset(shape[1])
            memo = _SHAPES[shape] = (
                PART_SEPARATOR
                + serialize_parts(tuple(sorted(added)), tuple(sorted(dropped))),
                dropped,
            )
        tail, dropped = memo
        if dropped:
            fields = {
                name: value
                for name, value in self.fields.items()
                if name not in dropped
            }
        else:
            fields = self.fields.copy()
        if new_fields:
            fields.update(new_fields)
        uid = self.uid
        digest = hashlib.sha256((repr(uid) + tail).encode("utf-8")).digest()
        return DataRecord._owning(
            fields,
            f"{uid}.{digest[:3].hex()}",
            self.annotations.copy(),
            self.source_id,
            (uid,),
        )

    @staticmethod
    def merge(left: "DataRecord", right: "DataRecord") -> "DataRecord":
        """Join two records; right-hand fields win on name collisions.

        As with :meth:`derive`, the merged uid is a pure function of the
        parent uids so join outputs are identical across execution modes.
        """
        fields = dict(left.fields)
        fields.update(right.fields)
        annotations = dict(left.annotations)
        annotations.update(right.annotations)
        return DataRecord._owning(
            fields,
            f"{left.uid}*{stable_digest(left.uid, right.uid)[:6]}",
            annotations,
            left.source_id or right.source_id,
            (left.uid, right.uid),
        )

    def as_text(self) -> str:
        """Render the record as text, as it would be placed in an LLM prompt."""
        parts = []
        for name in sorted(self.fields):
            value = self.fields[name]
            parts.append(f"{name}: {value}")
        return "\n".join(parts)

    def text_tokens(self) -> int:
        """``approx_token_count(self.as_text())``, counted once per record.

        Every LLM call that puts the record in a prompt prices it with this
        count; the rendered text itself is not kept.
        """
        # getattr's default, not try/except: raising on every first read
        # made workloads that price each record once slower than recounting.
        count = getattr(self, "_text_tokens", None)
        if count is None:
            count = self._text_tokens = approx_token_count(self.as_text())
        return count

    def root_uids(self, resolver: "dict[str, DataRecord] | None" = None) -> tuple[str, ...]:
        """Return source-record uids reachable through lineage.

        When ``resolver`` (uid -> record) is provided, lineage is followed
        transitively; otherwise direct parents (or self for source records)
        are returned.
        """
        if not self.parent_uids:
            return (self.uid,)
        if resolver is None:
            # Order-preserving dedup: self-joins can list a parent twice
            # (derived uids are deterministic, so equal derivations of the
            # same parent share a uid).
            seen_parents: set[str] = set()
            return tuple(
                uid
                for uid in self.parent_uids
                if not (uid in seen_parents or seen_parents.add(uid))
            )
        roots: list[str] = []
        for parent_uid in self.parent_uids:
            parent = resolver.get(parent_uid)
            if parent is None:
                roots.append(parent_uid)
            else:
                roots.extend(parent.root_uids(resolver))
        # Preserve order, drop duplicates.
        seen: set[str] = set()
        unique = [uid for uid in roots if not (uid in seen or seen.add(uid))]
        return tuple(unique)

    def __repr__(self) -> str:
        preview = ", ".join(f"{k}={v!r}" for k, v in list(sorted(self.fields.items()))[:3])
        return f"DataRecord({self.uid}, {preview})"
