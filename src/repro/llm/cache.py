"""Generation cache for the simulated LLM service.

Mirrors the reuse-of-previous-results optimization the paper cites (SGLang
[30]): repeated identical requests hit the cache and incur neither cost nor
latency.  The semantic-operator executor relies on this when the optimizer's
sampling phase re-executes operators on already-seen records.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any

from repro.utils.hashing import StablePrefix, stable_digest


class GenerationCache:
    """An LRU cache keyed by (model, request payload), bounded at
    :attr:`MAX_ENTRIES` entries."""

    MAX_ENTRIES = 100_000

    def __init__(self) -> None:
        self._entries: OrderedDict[str, Any] = OrderedDict()
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

    @staticmethod
    def key(model: str, *payload: Any) -> str:
        return stable_digest("gen-cache", model, *payload)

    @staticmethod
    def key_prefix(model: str, *payload: Any) -> StablePrefix:
        """:meth:`key` with its leading payload hashed once.

        ``key_prefix(model, *head).digest(*tail) == key(model, *head, *tail)``:
        a caller whose keys differ only in their last parts (a record uid, a
        text) keeps the prefix and digests the rest per call.
        """
        return StablePrefix("gen-cache", model, *payload)

    def get(self, key: str) -> tuple[bool, Any]:
        """Return ``(hit, value)``; moves the entry to most-recently-used."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            if self.metrics is not None:
                self.metrics.counter("cache.hits").inc()
            return True, self._entries[key]
        self.misses += 1
        if self.metrics is not None:
            self.metrics.counter("cache.misses").inc()
        return False, None

    def put(self, key: str, value: Any) -> None:
        if key in self._entries:
            self.updates += 1
            if self.metrics is not None:
                self.metrics.counter("cache.updates").inc()
        self._entries[key] = value
        self._entries.move_to_end(key)
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
