"""Context management & maintenance (paper Section 2.4).

The ContextManager embeds and caches the descriptions of materialized
Contexts.  When a new ``compute``/``search`` instruction arrives, the
optimizer asks for a previously materialized Context whose description is
similar to the instruction — the materialized-view reuse the paper frames
as its (experimental) physical optimization.

Description embeddings are computed lazily: ``register`` only indexes the
Context, and the first ``find_similar`` call embeds every pending entry
with a single batched request.  Registration is therefore free, and a
burst of materializations costs one embedding round-trip instead of one
per Context.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.context import Context
from repro.llm.simulated import SimulatedLLM

if TYPE_CHECKING:
    from repro.core.runtime import AnswerCache
    from repro.sem.materialize import MaterializationStore


@dataclass
class CachedContext:
    """One materialized Context plus its description embedding."""

    context: Context
    #: The instruction whose execution materialized this Context.
    instruction: str
    #: Lazily batch-computed on the first ``find_similar`` call.
    embedding: np.ndarray | None = None
    #: How many times reuse served this entry.
    hits: int = 0

    def text(self) -> str:
        """The text that is embedded for similarity matching."""
        return f"{self.instruction}\n{self.context.desc}"


class ContextManager:
    """Embeds and indexes materialized Contexts for cross-query reuse."""

    #: Cosine similarity a cached description must reach to be reused.
    DEFAULT_THRESHOLD = 0.60

    def __init__(self, llm: SimulatedLLM, threshold: float = DEFAULT_THRESHOLD) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {threshold}")
        self.llm = llm
        self.threshold = threshold
        self._entries: list[CachedContext] = []
        #: Optional sub-plan materialization store; ``invalidate`` cascades
        #: into it so plan prefixes built on a refreshed Context are dropped
        #: together with the cached Contexts themselves.
        self.materialization_store: "MaterializationStore | None" = None
        #: Optional whole-query answer cache (``AnalyticsRuntime.answers``);
        #: ``invalidate`` evicts the answers computed over a stale root.
        self.answers: "AnswerCache | None" = None

    def register(self, context: Context, instruction: str) -> CachedContext:
        """Index a freshly materialized Context under its instruction.

        No embedding call happens here; the entry is embedded together with
        all other pending entries on the next :meth:`find_similar`.
        """
        entry = CachedContext(context=context, instruction=instruction)
        self._entries.append(entry)
        return entry

    def _ensure_embeddings(self) -> None:
        """Batch-embed every entry registered since the last lookup."""
        pending = [entry for entry in self._entries if entry.embedding is None]
        if not pending:
            return
        vectors = self.llm.embed_batch(
            [entry.text() for entry in pending], tag="context-manager"
        )
        for entry, vector in zip(pending, vectors):
            entry.embedding = vector

    def find_similar(
        self, instruction: str, threshold: float | None = None
    ) -> tuple[CachedContext | None, float]:
        """Best cached Context for ``instruction`` (None below threshold)."""
        if not self._entries:
            return None, 0.0
        floor = self.threshold if threshold is None else threshold
        self._ensure_embeddings()
        query = self.llm.embed(instruction, tag="context-manager")
        matrix = np.stack([entry.embedding for entry in self._entries])
        norms = np.linalg.norm(matrix, axis=1)
        query_norm = float(np.linalg.norm(query))
        if query_norm == 0.0:
            return None, 0.0
        safe_norms = np.where(norms == 0.0, 1.0, norms)
        scores = (matrix @ query) / (safe_norms * query_norm)
        scores = np.where(norms == 0.0, 0.0, scores)
        index = int(np.argmax(scores))
        best, best_score = self._entries[index], float(scores[index])
        if best_score >= floor:
            best.hits += 1
            return best, best_score
        return None, max(0.0, best_score)

    def entries(self) -> list[CachedContext]:
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()

    def invalidate(self, base: Context | str) -> int:
        """Drop cached Contexts derived from ``base`` (maintenance, §2.4).

        When the records behind a Context change, every materialized view
        built on top of it is stale; callers pass the refreshed Context (or
        its name) and all entries whose lineage includes it are evicted.
        The eviction cascades into the attached
        :class:`~repro.sem.materialize.MaterializationStore` (when one is
        wired up): sub-plan prefixes materialized from the base Context or
        from any evicted derived Context are dropped too — and into the
        attached answer cache, whose entries are keyed by root Context
        name.  Returns the number of evicted ContextManager entries.
        """
        base_name = base if isinstance(base, str) else base.name
        stale_sources = {base_name}
        kept = []
        evicted = 0
        for entry in self._entries:
            lineage_names = [ancestor.name for ancestor in entry.context.lineage()]
            if base_name in lineage_names:
                evicted += 1
                # Everything from the derived Context down to the base is
                # now stale as a materialization source.
                for name in lineage_names:
                    stale_sources.add(name)
                    if name == base_name:
                        break
            else:
                kept.append(entry)
        self._entries = kept
        if self.materialization_store is not None:
            self.materialization_store.invalidate_sources(stale_sources)
        if self.answers is not None:
            self.answers.evict_roots(stale_sources)
        return evicted
