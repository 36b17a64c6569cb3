"""Generation cache for the simulated LLM service.

Mirrors the reuse-of-previous-results optimization the paper cites (SGLang
[30]): repeated identical requests hit the cache and incur neither cost nor
latency.  The semantic-operator executor relies on this when the optimizer's
sampling phase re-executes operators on already-seen records.

A key is the request itself, as a tuple of strings: the prepared call's
``(model, *scope, kind, normalized instruction)`` followed by the record
uid(s), or by the :func:`~repro.utils.hashing.stable_digest` of an embedded
text (a key never holds a text the size of a prompt).  Two requests share
an entry exactly when their keys are equal; a uid-keyed lookup takes no
digest.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Hashable
from types import MappingProxyType
from typing import Any

#: What :meth:`GenerationCache.get` reads for an absent key (a stored value
#: may be None).
_ABSENT = object()


class GenerationCache:
    """An LRU cache keyed by the request, bounded at :attr:`MAX_ENTRIES`
    entries."""

    MAX_ENTRIES = 100_000

    def __init__(self) -> None:
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        #: The entries, read-only: reading them counts nothing and moves
        #: nothing (:meth:`get` is the counted probe).
        self.entries = MappingProxyType(self._entries)
        self.hits = 0
        self.misses = 0
        #: Entries dropped from the LRU end because the cache was full.
        self.evictions = 0
        #: Puts that overwrote an existing key (previously silent).
        self.updates = 0
        #: Times :meth:`clear` ran, and entries it dropped.  Clearing is not
        #: eviction (no capacity pressure), so it gets its own counters.
        self.clears = 0
        self.cleared_entries = 0
        #: Optional :class:`repro.obs.metrics.MetricsRegistry`; when attached
        #: (by an observability-enabled ``SimulatedLLM``) the counters above
        #: are mirrored into the shared registry.
        self.metrics = None

    def get(self, key: Hashable) -> tuple[bool, Any]:
        """Return ``(hit, value)``; moves the entry to most-recently-used."""
        value = self._entries.get(key, _ABSENT)
        if value is not _ABSENT:
            self._entries.move_to_end(key)
            self.hits += 1
            if self.metrics is not None:
                self.metrics.counter("cache.hits").inc()
            return True, value
        self.misses += 1
        if self.metrics is not None:
            self.metrics.counter("cache.misses").inc()
        return False, None

    def put(self, key: Hashable, value: Any) -> None:
        if key in self._entries:
            self.updates += 1
            if self.metrics is not None:
                self.metrics.counter("cache.updates").inc()
            self._entries.move_to_end(key)  # a new key is appended last
        self._entries[key] = value
        while len(self._entries) > self.MAX_ENTRIES:
            self._entries.popitem(last=False)
            self.evictions += 1
            if self.metrics is not None:
                self.metrics.counter("cache.evictions").inc()

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop all entries.

        Clearing is neither eviction nor a reset: it has its own counters,
        and every other counter keeps its lifetime total, exactly as the
        mirrored ``MetricsRegistry`` counters do.
        """
        self.clears += 1
        self.cleared_entries += len(self._entries)
        if self.metrics is not None:
            self.metrics.counter("cache.clears").inc()
            self.metrics.counter("cache.cleared_entries").inc(len(self._entries))
        self._entries.clear()

    def stats(self) -> dict:
        """Snapshot of the (lifetime) counters."""
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "updates": self.updates,
            "clears": self.clears,
            "cleared_entries": self.cleared_entries,
        }
