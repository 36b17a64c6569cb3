"""The Context abstraction (paper Section 2.2).

A Context is a :class:`~repro.sem.dataset.Dataset` over a concrete set of
records that additionally supports:

- **index access methods**: key-based point lookups and vector search, so
  agents can avoid full scans (the paper's fix for iterator semantics);
- **custom tools**: dataset-specific capabilities a programmer registers
  for agents to use;
- **a description** (``desc``): natural language describing the data,
  which agents read to decide access patterns and which the ContextManager
  embeds for reuse.

``search``/``compute`` produce *derived* Contexts whose descriptions are
enriched with (a summary of) the producing execution trace — the
materialized-view analog the paper builds on.
"""

from __future__ import annotations

import itertools
from typing import Any, Sequence

import numpy as np

from repro.agents.tools import Tool, ToolRegistry
from repro.data.records import DataRecord
from repro.data.schemas import Schema
from repro.data.sources import MemorySource
from repro.errors import ContextError
from repro.llm.embeddings import top_k_similar
from repro.llm.simulated import SimulatedLLM
from repro.sem.dataset import Dataset
from repro.sem.logical import ScanOp

_CONTEXT_COUNTER = itertools.count()


class VectorIndex:
    """Embedding index over records (built lazily, cached per Context)."""

    def __init__(self, text_fields: Sequence[str] | None = None) -> None:
        self.text_fields = list(text_fields) if text_fields else None
        self._matrix: np.ndarray | None = None
        self._records: list[DataRecord] = []

    def text_of(self, record: DataRecord) -> str:
        if self.text_fields is None:
            return record.as_text()
        parts = [str(record.get(field, "")) for field in self.text_fields]
        return "\n".join(parts)

    def build(self, records: list[DataRecord], llm: SimulatedLLM, tag: str = "index") -> None:
        self._records = list(records)
        if not records:
            self._matrix = np.zeros((0, llm.embedding_model.dim), dtype=np.float32)
            return
        vectors = [llm.embed(self.text_of(record), tag=tag) for record in records]
        self._matrix = np.stack(vectors)

    @property
    def built(self) -> bool:
        return self._matrix is not None

    def search(self, query: str, k: int, llm: SimulatedLLM, tag: str = "index") -> list[tuple[DataRecord, float]]:
        if not self.built:
            raise ContextError("vector index has not been built")
        query_vec = llm.embed(query, tag=tag)
        hits = top_k_similar(query_vec, self._matrix, k)
        return [(self._records[index], score) for index, score in hits]


class KeyIndex:
    """Exact-match point-lookup index on one record field."""

    def __init__(self, key_field: str) -> None:
        self.key_field = key_field
        self._by_key: dict[Any, DataRecord] = {}

    def build(self, records: list[DataRecord]) -> None:
        key = self.key_field
        self._by_key = {record.fields[key]: record for record in records if key in record.fields}

    def lookup(self, key: Any) -> DataRecord | None:
        return self._by_key.get(key)

    def keys(self) -> list[Any]:
        return list(self._by_key)


class Context(Dataset):
    """A dataset with description, indexes, and tools (paper Fig. 2)."""

    def __init__(
        self,
        records: Sequence[DataRecord],
        schema: Schema,
        desc: str,
        name: str | None = None,
        tools: ToolRegistry | None = None,
        parent: "Context | None" = None,
    ) -> None:
        self.name = name or f"context-{next(_CONTEXT_COUNTER)}"
        self._records = list(records)
        self.schema = schema
        self.desc = desc
        self.tools = tools if tools is not None else ToolRegistry()
        self.parent = parent
        self._source = MemorySource(self._records, schema, source_id=self.name)
        self._vector_index: VectorIndex | None = None
        self._key_indexes: dict[str, KeyIndex] = {}
        super().__init__(ScanOp(child=None, source=self._source))

    # ------------------------------------------------------------------
    # Data access
    # ------------------------------------------------------------------

    def records(self) -> list[DataRecord]:  # type: ignore[override]
        """The materialized records of this Context (no execution needed)."""
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def source(self) -> MemorySource:
        return self._source

    # ------------------------------------------------------------------
    # Index registration (the paper's ``index`` method)
    # ------------------------------------------------------------------

    def index(
        self,
        llm: SimulatedLLM | None = None,
        text_fields: Sequence[str] | None = None,
        key_field: str | None = None,
    ) -> "Context":
        """Register (and, if ``llm`` is given, build) indexes.

        ``text_fields`` configures a vector index over those fields (all
        fields when omitted); ``key_field`` additionally registers an exact
        point-lookup index.  Returns self for chaining.
        """
        self._vector_index = VectorIndex(text_fields)
        if llm is not None:
            self._vector_index.build(self._records, llm, tag=f"{self.name}:index")
        if key_field is not None:
            self.key_index(key_field)
        return self

    def vector_search(
        self, query: str, k: int, llm: SimulatedLLM
    ) -> list[tuple[DataRecord, float]]:
        """Top-k vector search (builds the index on first use)."""
        if self._vector_index is None:
            self._vector_index = VectorIndex()
        if not self._vector_index.built:
            self._vector_index.build(self._records, llm, tag=f"{self.name}:index")
        return self._vector_index.search(query, k, llm, tag=f"{self.name}:index")

    def key_index(self, key_field: str) -> KeyIndex:
        """The point-lookup index on ``key_field`` (built on first use)."""
        key_index = self._key_indexes.get(key_field)
        if key_index is None:
            key_index = self._key_indexes[key_field] = KeyIndex(key_field)
            key_index.build(self._records)
        return key_index

    def lookup(self, key_field: str, key: Any) -> DataRecord | None:
        """Exact point lookup (builds the key index on first use)."""
        return self.key_index(key_field).lookup(key)

    # ------------------------------------------------------------------
    # Tools
    # ------------------------------------------------------------------

    def add_tool(self, tool: Tool) -> "Context":
        """Register a custom tool agents may use against this Context."""
        self.tools.add(tool)
        return self

    # ------------------------------------------------------------------
    # Derivation (materialized views)
    # ------------------------------------------------------------------

    def derived(
        self,
        description: str,
        records: Sequence[DataRecord] | None = None,
        name: str | None = None,
    ) -> "Context":
        """A child Context: same (or narrowed) data, enriched description."""
        child = Context(
            records=self._records if records is None else list(records),
            schema=self.schema,
            desc=description,
            name=name,
            tools=self.tools,
            parent=self,
        )
        return child

    def lineage(self) -> list["Context"]:
        """This Context and its ancestors, newest first."""
        chain: list[Context] = []
        node: Context | None = self
        while node is not None:
            chain.append(node)
            node = node.parent
        return chain

    def __repr__(self) -> str:
        return (
            f"Context({self.name!r}, records={len(self._records)}, "
            f"desc={self.desc[:60]!r})"
        )
