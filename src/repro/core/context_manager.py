"""Context management & maintenance (paper Section 2.4).

The ContextManager is the runtime's one similarity catalog: it embeds the
descriptions of materialized Contexts (lazily, one batched request per
burst of registrations), and :meth:`ContextManager.narrow` decides whether
one of them stands in for the input of a new ``compute``/``search`` or
semantic program — the materialized-view reuse the paper frames as its
(experimental) physical optimization.  An entry whose Context
:meth:`AnalyticsRuntime.answer` computed carries that answer too.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.context import Context
from repro.llm.embeddings import top_k_similar
from repro.llm.simulated import SimulatedLLM

if TYPE_CHECKING:
    from repro.sem.materialize import MaterializationStore


@dataclass
class CachedContext:
    """One materialized Context plus its description embedding."""

    context: Context
    #: The instruction whose execution materialized this Context.
    instruction: str
    #: Names along the Context's lineage, itself first and the root last.
    lineage: tuple[str, ...]
    #: Lazily batch-computed on the first ``find_similar`` call.
    embedding: np.ndarray | None = None
    #: How many times a lookup returned this entry.
    hits: int = 0
    #: ``(instruction embedding, ComputeResult)`` when ``answer()`` computed it.
    answer: tuple[np.ndarray, Any] | None = None

    def text(self) -> str:
        """The text that is embedded for similarity matching."""
        return f"{self.instruction}\n{self.context.desc}"


class ContextManager:
    """Embeds and indexes materialized Contexts for cross-query reuse.

    Entries are FIFO-bounded at :attr:`MAX_ENTRIES`; an answer lives and
    dies with its entry.  ``store`` is the sub-plan materialization store
    :meth:`invalidate` cascades into.  ``counters`` mirror into the LLM's
    metrics registry under their own names (``contexts.hits``, ...).
    """

    #: Entries kept; registering one more evicts the oldest.
    MAX_ENTRIES = 256
    #: Cosine similarity a cached description must reach to be reused.
    THRESHOLD = 0.60
    #: Cosine similarity an answered instruction must reach to be served.
    ANSWER_FLOOR = 0.92

    def __init__(
        self, llm: SimulatedLLM, store: "MaterializationStore | None" = None
    ) -> None:
        self.llm = llm
        self.store = store
        self._entries: "OrderedDict[int, CachedContext]" = OrderedDict()
        self._next_key = 0
        self.counters = {
            kind: dict.fromkeys(("stores", "hits", "misses", "evictions"), 0)
            for kind in ("contexts", "answers")
        }

    def register(self, context: Context, instruction: str) -> CachedContext:
        """Index a freshly materialized Context (embedded on the next lookup)."""
        entry = CachedContext(
            context=context,
            instruction=instruction,
            lineage=tuple(ancestor.name for ancestor in context.lineage()),
        )
        self._entries[self._next_key] = entry
        self._next_key += 1
        self._count("contexts", "stores")
        if len(self._entries) > self.MAX_ENTRIES:
            self._drop([next(iter(self._entries))])
        return entry

    def _ensure_embeddings(self) -> None:
        """Batch-embed every entry registered since the last lookup."""
        pending = [entry for entry in self._entries.values() if entry.embedding is None]
        if not pending:
            return
        vectors = self.llm.embed_batch(
            [entry.text() for entry in pending], tag="context-manager"
        )
        for entry, vector in zip(pending, vectors):
            entry.embedding = vector

    def _lookup(
        self, kind: str, query: np.ndarray, entries: list, vectors: list, floor: float
    ) -> tuple[CachedContext | None, float]:
        """The one lookup rule: the entry closest to ``query``, if over ``floor``."""
        top = top_k_similar(query, np.stack(vectors), 1) if entries else []
        index, score = top[0] if top else (None, 0.0)
        if index is None or score < floor:
            self._count(kind, "misses")
            return None, max(0.0, score)
        entries[index].hits += 1
        self._count(kind, "hits")
        return entries[index], score

    def find_similar(self, instruction: str) -> tuple[CachedContext | None, float]:
        """Best cached Context for ``instruction`` (None below the threshold)."""
        entries, query = list(self._entries.values()), None
        if entries:
            self._ensure_embeddings()
            query = self.llm.embed(instruction, tag="context-manager")
        vectors = [entry.embedding for entry in entries]
        return self._lookup("contexts", query, entries, vectors, self.THRESHOLD)

    def narrow(self, context: Context, instruction: str) -> tuple[Context, str]:
        """The reuse decision (paper §3): a cached Context to read instead.

        A Context materialized for a similar instruction stands in for
        ``context`` only when it is non-empty, derived from the *same* base
        data (root lineage) and strictly narrower; otherwise the caller's
        own input comes back.  The note names the substitution.
        """
        entry, score = self.find_similar(instruction)
        if (
            entry is None
            or len(entry.context) == 0
            or entry.lineage[-1] != context.lineage()[-1].name
            or len(entry.context) >= len(context)
        ):
            return context, ""
        return entry.context, f"context {entry.context.name} at similarity {score:.2f}"

    # -- whole-query answers ---------------------------------------------

    def store_answer(self, context: Context, query: np.ndarray, result: Any) -> None:
        """Attach ``result`` to the entry ``compute`` registered for ``context``."""
        for entry in reversed(self._entries.values()):
            if entry.context is context:
                entry.answer = (query, result)
                self._count("answers", "stores")
                return

    def find_answer(self, root_name: str, query: np.ndarray) -> Any:
        """The closest answer computed over ``root_name`` (None below the floor)."""
        entries = [
            entry
            for entry in self._entries.values()
            if entry.answer is not None and entry.lineage[-1] == root_name
        ]
        vectors = [entry.answer[0] for entry in entries]
        entry, _ = self._lookup("answers", query, entries, vectors, self.ANSWER_FLOOR)
        return entry.answer[1] if entry is not None else None

    def clear_answers(self) -> None:
        """Forget every answer; the Contexts stay."""
        answered = [entry for entry in self._entries.values() if entry.answer is not None]
        for entry in answered:
            entry.answer = None
        self._count("answers", "evictions", len(answered))

    # -- maintenance ------------------------------------------------------

    def entries(self) -> list[CachedContext]:
        return list(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._drop(list(self._entries))

    def invalidate(self, base: Context | str, kind: str = "stale") -> int:
        """Drop cached Contexts derived from ``base`` (maintenance, §2.4).

        When the records behind a Context change, every view built on it is
        stale: entries whose lineage includes ``base`` (a Context or its
        name) are evicted, their answers with them, and so are the store's
        sub-plan prefixes materialized from an evicted view.  The base's own
        prefixes are evicted too, except on ``kind="update"``: an in-place
        rewrite is recorded by the source, so the store's next probe patches
        those entries instead.  Returns the number of evicted entries.
        """
        base_name = base if isinstance(base, str) else base.name
        stale_sources = set() if kind == "update" else {base_name}
        doomed = []
        for key, entry in self._entries.items():
            if base_name in entry.lineage:
                doomed.append(key)
                # The derived Contexts above the base are stale sources too.
                stale_sources.update(entry.lineage[: entry.lineage.index(base_name)])
        self._drop(doomed)
        if self.store is not None:
            self.store.invalidate_sources(stale_sources, kind=kind)
        return len(doomed)

    def stats(self) -> dict:
        contexts, answers = self.counters["contexts"], self.counters["answers"]
        return {"entries": len(self._entries), **contexts, "answers": dict(answers)}

    def _drop(self, keys: list[int]) -> None:
        dropped = [self._entries.pop(key) for key in keys]
        self._count("contexts", "evictions", len(dropped))
        answered = sum(entry.answer is not None for entry in dropped)
        self._count("answers", "evictions", answered)

    def _count(self, kind: str, event: str, amount: int = 1) -> None:
        self.counters[kind][event] += amount
        metrics = self.llm.metrics
        if metrics.enabled and amount:
            metrics.counter(f"{kind}.{event}").inc(amount)
