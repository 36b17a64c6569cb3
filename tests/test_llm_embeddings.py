"""Tests for deterministic embeddings."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.llm import embeddings
from repro.llm.embeddings import (
    EmbeddingModel,
    cosine_similarity,
    top_k_similar,
)
from repro.llm.simulated import SimulatedLLM
from repro.qa.corpus import CorpusSpec, build_corpus
from repro.utils.hashing import stable_digest, stable_hash
from repro.utils.text import _WORD_RE, STOPWORDS
from tests.test_utils_text import EVERY_ASCII


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


def _stack(model, texts):
    return np.stack([model.embed(text) for text in texts])


def test_stacked_embeddings_shape(model):
    matrix = _stack(model, ["a b", "c d", "e f"])
    assert matrix.shape == (3, model.dim)
    assert matrix.dtype == np.float32


def test_top_k_empty_matrix_returns_empty(model):
    matrix = np.zeros((0, model.dim), dtype=np.float32)
    assert top_k_similar(model.embed("a b c"), matrix, 3) == []


def test_top_k_similar_orders_by_similarity(model):
    corpus = ["identity theft statistics", "fraud reports", "lunch plans friday"]
    matrix = _stack(model, corpus)
    query = model.embed("statistics about identity theft")
    hits = top_k_similar(query, matrix, k=3)
    assert hits[0][0] == 0
    scores = [score for _, score in hits]
    assert scores == sorted(scores, reverse=True)


def test_top_k_caps_at_matrix_size(model):
    matrix = _stack(model, ["a b c"])
    hits = top_k_similar(model.embed("a b c"), matrix, k=10)
    assert len(hits) == 1


def test_top_k_zero_query_returns_empty(model):
    matrix = _stack(model, ["a b c"])
    assert top_k_similar(np.zeros(model.dim, dtype=np.float32), matrix, 3) == []


def test_dim_validation():
    with pytest.raises(ConfigurationError):
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
    """The hashing trick written out: the tokenizer's defining regex, every
    token hashed on the spot, and one ``+=`` per distinct token."""
    counts: dict[str, int] = {}
    for match in _WORD_RE.finditer(text):
        token = match.group(0).lower()
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


@given(
    st.text(alphabet=st.characters(max_codepoint=127), max_size=3000),
    st.sampled_from([8, 64, 256]),
)
@example(EVERY_ASCII, 8)
@example(EVERY_ASCII, 256)
def test_ascii_embed_is_byte_identical_to_reference(text, dim):
    model = EmbeddingModel(dim)
    assert model.embed(text).tobytes() == _reference_embed(text, dim).tobytes()


#: Token counts whose dim-8 sum rounds differently in reverse order, so the
#: float32 bytes pin first-seen summation order, not just the weights.
ORDER_SENSITIVE = " ".join(
    " ".join([token] * count)
    for token, count in [
        ("w165", 2), ("w124", 2), ("w111", 6), ("w95", 4), ("w204", 1),
        ("w229", 3), ("w248", 4), ("w298", 6), ("w245", 8), ("w113", 5),
    ]
)


def test_summation_order_is_first_seen_token_order():
    model = EmbeddingModel(8)
    forward = model.embed(ORDER_SENSITIVE)
    backward = model.embed(" ".join(reversed(ORDER_SENSITIVE.split())))
    assert forward.tobytes() == _reference_embed(ORDER_SENSITIVE, 8).tobytes()
    assert forward.tobytes() != backward.tobytes()


@pytest.mark.parametrize("corpus", ["legal_bundle", "enron_bundle", "qa-500"])
def test_corpus_records_embed_byte_identically(corpus, model, request):
    if corpus == "qa-500":
        bundle = build_corpus(CorpusSpec(seed=0, n_records=500))
    else:
        bundle = request.getfixturevalue(corpus)
    texts = []
    for record in bundle.records():
        texts.append(record.as_text())
        texts.extend(value for value in record.fields.values() if isinstance(value, str))
    for text in texts:
        assert model.embed(text).tobytes() == _reference_embed(text, model.dim).tobytes()


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


@given(st.text(max_size=200), st.sampled_from([8, 64, 256]))
def test_memoized_vector_is_byte_identical_to_reference(text, dim):
    vector = EmbeddingModel(dim).vector(text, stable_digest(text))
    assert vector.tobytes() == _reference_embed(text, dim).tobytes()


@pytest.fixture
def embed_counter(monkeypatch):
    """An empty vector memo and a count of kernel runs (``calls[0]``)."""
    monkeypatch.setattr(embeddings, "_VECTOR_MEMO", {})
    calls = [0]
    kernel = EmbeddingModel.embed

    def counted(self, text):
        calls[0] += 1
        return kernel(self, text)

    monkeypatch.setattr(EmbeddingModel, "embed", counted)
    return calls


#: 50 distinct texts; :func:`_embed_all` embeds 20 one by one, then batches
#: the rest with duplicates and 10 texts the cache already holds.
MEMO_TEXTS = [f"memo text {i} about fraud case {i * 7}" for i in range(50)]


def _embed_all(llm):
    singles = [llm.embed(text, tag="single") for text in MEMO_TEXTS[:20]]
    singles.append(llm.embed(MEMO_TEXTS[5], tag="single"))
    batch = llm.embed_batch(MEMO_TEXTS[10:] + MEMO_TEXTS[15:30], tag="batch", batch_size=8)
    return singles + batch


def _ledger(llm, vectors):
    return (
        llm.tracker.events,
        llm.clock.elapsed,
        [(key, value.tobytes()) for key, value in llm.cache._entries.items()],
        [vector.tobytes() for vector in vectors],
    )


def test_llms_share_the_computation_not_the_charges(embed_counter, monkeypatch):
    shared = [_ledger(llm, _embed_all(llm)) for llm in (SimulatedLLM(), SimulatedLLM())]
    assert embed_counter[0] == 50

    # The memo-free run: every miss runs the kernel on the spot.
    monkeypatch.setattr(EmbeddingModel, "vector", lambda self, text, digest: self.embed(text))
    alone = [_ledger(llm, _embed_all(llm)) for llm in (SimulatedLLM(), SimulatedLLM())]
    assert embed_counter[0] == 150
    assert shared == alone
    assert shared[0] == shared[1]


def test_cleared_cache_charges_a_miss_without_recomputing(embed_counter):
    llm = SimulatedLLM()
    first = llm.embed("identity theft reports")
    llm.cache.clear()
    again = llm.embed("identity theft reports")
    assert embed_counter[0] == 1
    assert again is first
    assert [event.cached for event in llm.tracker.events] == [False, False]
    assert llm.tracker.events[1].input_tokens == llm.tracker.events[0].input_tokens > 0
    assert llm.embed("identity theft reports") is first
    assert llm.tracker.events[-1].cached


def test_vectors_are_read_only_and_stay_the_reference(embed_counter):
    llm = SimulatedLLM()
    miss = llm.embed("identity theft reports")
    [batched] = llm.embed_batch(["fraud case summary"])
    hit = llm.embed("identity theft reports")
    for vector in (miss, batched, hit):
        with pytest.raises(ValueError):
            vector += 1.0
    fresh = SimulatedLLM()
    for text in ("identity theft reports", "fraud case summary"):
        assert fresh.embed(text).tobytes() == _reference_embed(text, fresh.embedding_model.dim).tobytes()


def test_vector_memo_stays_within_cap(monkeypatch):
    monkeypatch.setattr(embeddings, "_VECTOR_MEMO_CAP", 16)
    monkeypatch.setattr(embeddings, "_VECTOR_MEMO", {})
    model = EmbeddingModel(64)
    for i in range(100):
        text = f"tok{i} tok{i + 1} tok{i + 2}"
        assert model.vector(text, stable_digest(text)).tobytes() == _reference_embed(text, 64).tobytes()
        assert 0 < len(embeddings._VECTOR_MEMO) <= 16
