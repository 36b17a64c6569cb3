"""Deterministic seed derivation and a thin seeded RNG wrapper.

Every stochastic choice in the library flows from a root seed through
:func:`derive_seed`, which namespaces seeds by string paths.  This guarantees
that adding randomness to one subsystem never perturbs another subsystem's
random stream (unlike sharing a single ``random.Random``).
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.utils.hashing import stable_hash


def derive_seed(root: int, *path: object) -> int:
    """Derive a child seed from ``root`` namespaced by ``path``.

    >>> derive_seed(42, "enron", "trial", 0) != derive_seed(42, "enron", "trial", 1)
    True
    """
    return stable_hash(root, *path) % (2**63)


class SeededRng:
    """A :class:`random.Random` with namespaced child-stream derivation."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._rng = random.Random(seed)

    def child(self, *path: object) -> "SeededRng":
        """Return an independent RNG for the namespace ``path``."""
        return SeededRng(derive_seed(self.seed, *path))

    def uniform(self, low: float, high: float) -> float:
        return self._rng.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        return self._rng.randint(low, high)

    def choice(self, seq: Sequence):
        return self._rng.choice(seq)

    def sample(self, seq: Sequence, k: int) -> list:
        return self._rng.sample(list(seq), k)

    def shuffle(self, seq: list) -> None:
        self._rng.shuffle(seq)

    def chance(self, probability: float) -> bool:
        """Return True with the given probability."""
        return self._rng.random() < probability
