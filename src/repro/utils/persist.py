"""Crash-safe, checksummed JSON files for the persisted stores."""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

_CHECKSUM = "sha256"


def _digest(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload).encode("utf-8")).hexdigest()


def save_json(path: "str | Path", payload: dict) -> None:
    """Write ``payload`` atomically, stamped with a SHA-256 of its content.

    The text goes to a sibling temp file that then replaces ``path``, so a
    crash mid-save leaves the previous file readable.
    """
    path = Path(path)
    scratch = path.with_name(path.name + ".tmp")
    scratch.write_text(
        json.dumps({**payload, _CHECKSUM: _digest(payload)}), encoding="utf-8"
    )
    os.replace(scratch, path)


def load_json(path: "str | Path") -> "dict | None":
    """The payload :func:`save_json` wrote, or None when the file is damaged.

    Damaged means truncated, not JSON, not an object, or carrying a checksum
    its content no longer matches; a file written before the stamp existed
    (no checksum key) loads as it is.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError:
        return None
    if not isinstance(payload, dict):
        return None
    stamp = payload.pop(_CHECKSUM, None)
    if stamp is not None and stamp != _digest(payload):
        return None
    return payload
