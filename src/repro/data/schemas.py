"""Lightweight typed schemas for semantic-operator plans.

Palimpzest attaches schemas to datasets so maps can declare the fields they
compute.  We keep the same shape: a :class:`Schema` is an ordered set of
:class:`Field` objects, each with a Python type and a natural-language
description (the description is what gets put in extraction prompts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import SchemaError

#: ``object`` means "any": no coercion is applied (used by synthesized
#: programs whose extraction type is unknown until runtime).
_ALLOWED_TYPES = (str, int, float, bool, list, dict, object)


@dataclass(frozen=True)
class Field:
    """One named, typed, described output column."""

    name: str
    type: type = str
    desc: str = ""

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise SchemaError(f"field name must be an identifier, got {self.name!r}")
        if self.type not in _ALLOWED_TYPES:
            allowed = ", ".join(t.__name__ for t in _ALLOWED_TYPES)
            raise SchemaError(
                f"field {self.name!r} has unsupported type {self.type!r}; "
                f"allowed: {allowed}"
            )

    def coerce(self, value: Any) -> Any:
        """Best-effort coercion of ``value`` to this field's type.

        Simulated extractions can return numerics as strings and vice versa;
        coercion failures surface as ``None`` rather than raising, matching
        how semantic-operator systems tolerate malformed model output.
        """
        if self.type is object or value is None or isinstance(value, self.type):
            return value
        try:
            if self.type is bool and isinstance(value, str):
                return value.strip().lower() in ("true", "yes", "1")
            return self.type(value)
        except (TypeError, ValueError):
            return None


class Schema:
    """An ordered collection of fields."""

    def __init__(self, fields: list[Field], name: str = "Schema", desc: str = "") -> None:
        names = [field.name for field in fields]
        duplicates = {name for name in names if names.count(name) > 1}
        if duplicates:
            raise SchemaError(f"duplicate field names in schema: {sorted(duplicates)}")
        self.fields = list(fields)
        self.name = name
        self.desc = desc
        self._by_name = {field.name: field for field in fields}

    def field_names(self) -> list[str]:
        return [field.name for field in self.fields]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> Field:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(
                f"schema {self.name!r} has no field {name!r}; "
                f"fields: {self.field_names()}"
            ) from None

    def __len__(self) -> int:
        return len(self.fields)

    def __iter__(self):
        return iter(self.fields)

    def __repr__(self) -> str:
        return f"Schema({self.name}, fields={self.field_names()})"


#: Schema for records wrapping whole files (the Kramabench corpus).
TEXT_FILE_SCHEMA = Schema(
    [
        Field("filename", str, "name of the file"),
        Field("contents", str, "full text contents of the file"),
        Field("format", str, "file format, e.g. csv or html"),
    ],
    name="TextFile",
    desc="A file from an unstructured data lake.",
)

#: Schema for email records (the Enron corpus).
EMAIL_SCHEMA = Schema(
    [
        Field("filename", str, "name of the email file"),
        Field("sender", str, "email address of the sender"),
        Field("subject", str, "subject line of the email"),
        Field("body", str, "full text body of the email"),
    ],
    name="Email",
    desc="An email message from a corporate mail archive.",
)
