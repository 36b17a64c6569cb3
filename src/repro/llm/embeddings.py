"""Deterministic text embeddings.

Implements feature-hashed bag-of-tokens embeddings (the classic "hashing
trick"): each token hashes to a dimension and a sign, weighted by
``1 + log(count)``, then L2-normalized.  The result behaves like a real
embedding model for the purposes of the paper's prototype — texts sharing
vocabulary land near each other — while being exactly reproducible offline.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from repro.utils.hashing import stable_hash
from repro.utils.text import STOPWORDS, tokenize

DEFAULT_DIM = 256

#: Texts per embedding-API request on the batched path (providers accept
#: arrays of inputs; one request amortizes the per-call overhead).
DEFAULT_EMBED_BATCH = 64

#: Distinct tokens whose hashes are kept; the table is dropped whole when full.
_TOKEN_TABLE_CAP = 1 << 16

#: token -> (bucket hash, sign).  Both are pure functions of the token and the
#: bucket is ``hash % dim`` at use, so one table serves every
#: :class:`EmbeddingModel` in the process whatever its ``dim`` — the runtimes
#: of one process share a vocabulary, and a table per model would store it
#: once each.
_TOKEN_TABLE: dict[str, tuple[int, float]] = {}


def _token_entry(token: str) -> tuple[int, float]:
    """Hash ``token`` (two SHA-256 digests) and remember the result."""
    if len(_TOKEN_TABLE) >= _TOKEN_TABLE_CAP:
        _TOKEN_TABLE.clear()
    entry = _TOKEN_TABLE[token] = (
        stable_hash("emb-bucket", token),
        1.0 if stable_hash("emb-sign", token) % 2 == 0 else -1.0,
    )
    return entry


class EmbeddingModel:
    """Feature-hashing embedding model with a fixed dimensionality."""

    def __init__(self, dim: int = DEFAULT_DIM) -> None:
        if dim < 8:
            raise ValueError(f"embedding dim must be >= 8, got {dim}")
        self.dim = dim

    def embed(self, text: str) -> np.ndarray:
        """Embed ``text`` into a unit-norm float32 vector.

        Empty or all-stopword texts map to the zero vector.  ``bincount``
        adds the weights in list order — first-seen token order, as
        ``Counter`` keeps it — which is the float64 summation order of
        adding them one token at a time, so the bytes are that loop's.
        """
        buckets: list[int] = []
        weights: list[float] = []
        for token, count in Counter(tokenize(text)).items():
            if token in STOPWORDS:
                continue
            bucket_hash, sign = _TOKEN_TABLE.get(token) or _token_entry(token)
            buckets.append(bucket_hash % self.dim)
            weights.append(sign * (1.0 + math.log(count)))
        vector = np.bincount(buckets, weights=weights, minlength=self.dim)
        norm = float(np.linalg.norm(vector))
        if norm > 0:
            vector /= norm
        return vector.astype(np.float32)


def cosine_similarity(vec_a: np.ndarray, vec_b: np.ndarray) -> float:
    """Cosine similarity; zero vectors yield 0.0 rather than NaN."""
    norm_a = float(np.linalg.norm(vec_a))
    norm_b = float(np.linalg.norm(vec_b))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return float(np.dot(vec_a, vec_b) / (norm_a * norm_b))


def top_k_similar(
    query: np.ndarray, matrix: np.ndarray, k: int
) -> list[tuple[int, float]]:
    """Return ``[(row_index, similarity)]`` for the ``k`` most similar rows."""
    if matrix.shape[0] == 0 or k < 1:
        return []
    norms = np.linalg.norm(matrix, axis=1)
    query_norm = float(np.linalg.norm(query))
    if query_norm == 0.0:
        return []
    safe_norms = np.where(norms == 0.0, 1.0, norms)
    sims = (matrix @ query) / (safe_norms * query_norm)
    sims = np.where(norms == 0.0, 0.0, sims)
    k = min(k, matrix.shape[0])
    top = np.argsort(-sims, kind="stable")[:k]
    return [(int(idx), float(sims[idx])) for idx in top]
