"""Common container for generated datasets."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.data.corpus import FileCorpus
from repro.data.records import DataRecord
from repro.data.schemas import Schema
from repro.data.sources import MemorySource
from repro.llm.oracle import IntentRegistry


@dataclass
class DatasetBundle:
    """A generated corpus plus everything needed to query and score it."""

    name: str
    corpus: FileCorpus
    schema: Schema
    #: Intents the simulated LLM's oracle can resolve on this dataset.
    registry: IntentRegistry
    #: Natural-language description, suitable for a Context's ``desc``.
    description: str
    #: Benchmark ground truth (dataset-specific keys).
    ground_truth: dict[str, Any] = field(default_factory=dict)
    #: Structured records, when the natural record shape is richer than
    #: one-file-one-record (e.g. parsed emails).  Falls back to the corpus.
    record_list: list[DataRecord] | None = None

    def records(self) -> list[DataRecord]:
        if self.record_list is not None:
            return list(self.record_list)
        return self.corpus.to_records()

    def source(self) -> MemorySource:
        return MemorySource(self.records(), self.schema, source_id=self.name)
