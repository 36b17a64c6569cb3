"""Stable hashing helpers.

Python's built-in :func:`hash` is salted per process, so anything that must
be reproducible across runs (simulated LLM noise, embeddings, trial seeds)
goes through the SHA-256-based helpers in this module instead.

Every helper hashes one *payload*: the parts' :func:`repr`\\ s joined with
:data:`PART_SEPARATOR`.  A call on a per-record path whose leading parts
are per-plan constants uses :class:`StablePrefix`, which hashes those
parts once; it is defined as equal to the plain call on the concatenated
parts (``tests/test_utils_hashing.py`` holds it to that).
"""

from __future__ import annotations

import hashlib
from typing import Any

_MAX_64 = 2**64

#: ``2.0 ** -64``: ``n * _INV_MAX_64 == n / _MAX_64`` bit for bit (both round
#: ``n`` once to a double; scaling by a power of two is exact), without the
#: big-int division.
_INV_MAX_64 = 2.0**-64

#: Joins the parts' reprs, so ``("ab", "c")`` and ``("a", "bc")`` differ.
PART_SEPARATOR = "\x1f"


def serialize_parts(*parts: Any) -> str:
    """The text the ``stable_*`` helpers hash for ``parts``."""
    return PART_SEPARATOR.join([repr(part) for part in parts])


def digest_serialized(payload: str) -> str:
    """:func:`stable_digest` of parts already joined by :func:`serialize_parts`."""
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def stable_hash(*parts: Any) -> int:
    """Return a process-independent 64-bit hash of ``parts``.

    Parts are converted with :func:`repr` and joined with an unlikely
    separator, so ``stable_hash("ab", "c") != stable_hash("a", "bc")``.
    """
    payload = serialize_parts(*parts).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big")


def stable_uniform(*parts: Any) -> float:
    """Return a deterministic pseudo-uniform float in ``[0, 1)`` for ``parts``.

    Used to make simulated model errors a *fixed property* of a
    (model, task, record) triple: the same cheap model is consistently wrong
    on the same hard records, as real model cascades are.
    """
    return stable_hash(*parts) / _MAX_64


def stable_digest(*parts: Any) -> str:
    """Return a short hex digest of ``parts`` for use in cache keys and ids."""
    return digest_serialized(serialize_parts(*parts))


class StablePrefix:
    """The leading parts of a ``stable_*`` call, hashed once.

    ``StablePrefix(*head).hash(*tail) == stable_hash(*head, *tail)``, and
    likewise :meth:`uniform`, for every split of every part tuple — either
    side may be empty.  ``StablePrefix(*head).child(*parts)`` is
    ``StablePrefix(*head, *parts)``, built from the absorbed head.  Per
    call only the tail is serialised: the hasher that already absorbed the
    head is copied, updated once and digested.
    """

    __slots__ = ("_hasher", "_joint")

    def __init__(self, *head: Any) -> None:
        self._hasher = hashlib.sha256(serialize_parts(*head).encode("utf-8"))
        #: What separates the head's payload from the first tail part.
        self._joint = PART_SEPARATOR if head else ""

    def child(self, *parts: Any) -> "StablePrefix":
        """This head extended by ``parts``, absorbed once."""
        child = StablePrefix.__new__(StablePrefix)
        child._hasher = self._hasher.copy()
        child._joint = self._joint
        if parts:
            child._hasher.update((self._joint + serialize_parts(*parts)).encode("utf-8"))
            child._joint = PART_SEPARATOR
        return child

    def hash(self, *tail: Any) -> int:
        hasher = self._hasher.copy()
        if len(tail) == 1:  # a per-record draw: one part, no join
            hasher.update((self._joint + repr(tail[0])).encode("utf-8"))
        elif tail:
            hasher.update((self._joint + PART_SEPARATOR.join(map(repr, tail))).encode("utf-8"))
        return int.from_bytes(hasher.digest()[:8], "big")

    def uniform(self, *tail: Any) -> float:
        hasher = self._hasher.copy()
        if len(tail) == 1:
            hasher.update((self._joint + repr(tail[0])).encode("utf-8"))
        elif tail:
            hasher.update((self._joint + PART_SEPARATOR.join(map(repr, tail))).encode("utf-8"))
        return int.from_bytes(hasher.digest()[:8], "big") * _INV_MAX_64
