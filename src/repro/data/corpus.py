"""In-memory file corpus.

Agents interact with data lakes through file tools (``list_files``,
``read_file``).  A :class:`FileCorpus` backs those tools with an in-memory
mapping, so benchmarks are hermetic: nothing is read from or written to
disk.
"""

from __future__ import annotations

from repro.data.records import DataRecord
from repro.errors import DataSourceError


class FileCorpus:
    """A named set of text files."""

    def __init__(self, name: str, files: dict[str, str] | None = None) -> None:
        self.name = name
        self._files: dict[str, str] = dict(files or {})
        #: Hidden per-file annotations, keyed by filename (set by generators).
        self._annotations: dict[str, dict] = {}

    def add(self, filename: str, contents: str, annotations: dict | None = None) -> None:
        if filename in self._files:
            raise DataSourceError(f"duplicate file in corpus {self.name!r}: {filename}")
        self._files[filename] = contents
        if annotations:
            self._annotations[filename] = dict(annotations)

    def list_files(self) -> list[str]:
        return sorted(self._files)

    def read_file(self, filename: str) -> str:
        try:
            return self._files[filename]
        except KeyError:
            raise DataSourceError(
                f"no file named {filename!r} in corpus {self.name!r}"
            ) from None

    def __contains__(self, filename: str) -> bool:
        return filename in self._files

    def __len__(self) -> int:
        return len(self._files)

    def annotations_for(self, filename: str) -> dict:
        return dict(self._annotations.get(filename, {}))

    def to_records(self) -> list[DataRecord]:
        """Wrap each file as a :class:`DataRecord` (sorted by filename)."""
        records = []
        for filename in self.list_files():
            suffix = filename.rsplit(".", 1)[-1].lower() if "." in filename else "txt"
            records.append(
                DataRecord(
                    fields={
                        "filename": filename,
                        "contents": self._files[filename],
                        "format": suffix,
                    },
                    uid=f"{self.name}:{filename}",
                    annotations=self._annotations.get(filename, {}),
                    source_id=self.name,
                )
            )
        return records

