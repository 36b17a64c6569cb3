"""Tests for deterministic embeddings."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.llm import embeddings
from repro.llm.embeddings import (
    EmbeddingModel,
    cosine_similarity,
    top_k_similar,
)
from repro.utils.hashing import stable_hash
from repro.utils.text import STOPWORDS, tokenize


@pytest.fixture(scope="module")
def model():
    return EmbeddingModel()


def test_embedding_is_unit_norm(model):
    vector = model.embed("identity theft reports in 2024")
    assert np.linalg.norm(vector) == pytest.approx(1.0, abs=1e-5)


def test_embedding_deterministic(model):
    a = model.embed("hello world data")
    b = model.embed("hello world data")
    assert np.array_equal(a, b)


def test_empty_text_is_zero_vector(model):
    assert np.linalg.norm(model.embed("")) == 0.0


def test_stopword_only_text_is_zero_vector(model):
    assert np.linalg.norm(model.embed("the a an of and")) == 0.0


def test_similar_texts_closer_than_dissimilar(model):
    a = model.embed("identity theft report statistics")
    b = model.embed("statistics on identity theft reports")
    c = model.embed("weekend birdwatching trip photos")
    assert cosine_similarity(a, b) > cosine_similarity(a, c)


def test_cosine_zero_vector_is_zero(model):
    a = model.embed("identity theft")
    zero = np.zeros_like(a)
    assert cosine_similarity(a, zero) == 0.0


def test_cosine_self_similarity_is_one(model):
    a = model.embed("semantic operators")
    assert cosine_similarity(a, a) == pytest.approx(1.0, abs=1e-5)


def test_embed_many_shape(model):
    matrix = model.embed_many(["a b", "c d", "e f"])
    assert matrix.shape == (3, model.dim)


def test_embed_many_empty(model):
    assert model.embed_many([]).shape == (0, model.dim)


def test_top_k_similar_orders_by_similarity(model):
    corpus = ["identity theft statistics", "fraud reports", "lunch plans friday"]
    matrix = model.embed_many(corpus)
    query = model.embed("statistics about identity theft")
    hits = top_k_similar(query, matrix, k=3)
    assert hits[0][0] == 0
    scores = [score for _, score in hits]
    assert scores == sorted(scores, reverse=True)


def test_top_k_caps_at_matrix_size(model):
    matrix = model.embed_many(["a b c"])
    hits = top_k_similar(model.embed("a b c"), matrix, k=10)
    assert len(hits) == 1


def test_top_k_zero_query_returns_empty(model):
    matrix = model.embed_many(["a b c"])
    assert top_k_similar(np.zeros(model.dim, dtype=np.float32), matrix, 3) == []


def test_dim_validation():
    with pytest.raises(ValueError):
        EmbeddingModel(dim=4)


@given(st.text(max_size=200))
def test_norm_at_most_one(text):
    vector = EmbeddingModel().embed(text)
    assert np.linalg.norm(vector) <= 1.0 + 1e-5


@given(st.text(min_size=1, max_size=100), st.text(min_size=1, max_size=100))
def test_cosine_bounded(a, b):
    model = EmbeddingModel()
    similarity = cosine_similarity(model.embed(a), model.embed(b))
    assert -1.0 - 1e-6 <= similarity <= 1.0 + 1e-6


def _reference_embed(text: str, dim: int) -> np.ndarray:
    """The hashing trick written out, hashing every token on the spot."""
    counts: dict[str, int] = {}
    for token in tokenize(text):
        if token not in STOPWORDS:
            counts[token] = counts.get(token, 0) + 1
    vector = np.zeros(dim, dtype=np.float64)
    for token, count in counts.items():
        bucket = stable_hash("emb-bucket", token) % dim
        sign = 1.0 if stable_hash("emb-sign", token) % 2 == 0 else -1.0
        vector[bucket] += sign * (1.0 + math.log(count))
    norm = float(np.linalg.norm(vector))
    if norm > 0:
        vector /= norm
    return vector.astype(np.float32)


@given(st.text(max_size=200), st.sampled_from([8, 64, 256]))
def test_embed_equals_direct_hash_reference(text, dim):
    assert np.array_equal(EmbeddingModel(dim).embed(text), _reference_embed(text, dim))


@given(st.lists(st.text(max_size=60), max_size=8))
def test_models_of_different_dim_share_one_token_table(texts):
    small, large = EmbeddingModel(8), EmbeddingModel(256)
    for text in texts:
        assert np.array_equal(small.embed(text), _reference_embed(text, 8))
        assert np.array_equal(large.embed(text), _reference_embed(text, 256))
        assert np.array_equal(small.embed(text), _reference_embed(text, 8))


def test_token_table_stays_within_cap(monkeypatch):
    monkeypatch.setattr(embeddings, "_TOKEN_TABLE_CAP", 16)
    embeddings._TOKEN_TABLE.clear()
    model = EmbeddingModel(64)
    for start in range(0, 100, 5):
        text = " ".join(f"tok{i}" for i in range(start, start + 5))
        assert np.array_equal(model.embed(text), _reference_embed(text, 64))
        assert 0 < len(embeddings._TOKEN_TABLE) <= 16
