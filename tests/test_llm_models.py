"""Tests for the model catalog."""

import pytest

from repro.errors import UnknownModelError
from repro.llm.models import (
    DEFAULT_MODEL,
    EMBEDDING_MODEL,
    completion_models_by_cost,
    get_model,
    list_models,
)


def test_default_model_exists():
    card = get_model(DEFAULT_MODEL)
    assert card.name == DEFAULT_MODEL


def test_unknown_model_raises_with_suggestions():
    with pytest.raises(UnknownModelError) as excinfo:
        get_model("gpt-99")
    assert "gpt-4o" in str(excinfo.value)


def test_cost_proportional_to_tokens():
    card = get_model(DEFAULT_MODEL)
    assert card.call_cost(2000, 100) == pytest.approx(2 * card.call_cost(1000, 50))


def test_output_tokens_cost_more_than_input():
    card = get_model(DEFAULT_MODEL)
    assert card.call_cost(0, 1000) > card.call_cost(1000, 0) == card.input_cost(1000)


def test_latency_includes_overhead_prefill_and_decode():
    card = get_model(DEFAULT_MODEL)
    base = card.call_latency(0, 0)
    assert base == pytest.approx(card.per_call_overhead_s)
    assert card.call_latency(1000, 0) > base
    assert card.call_latency(0, 100) > base


def test_cheaper_models_have_higher_error_rates():
    cheap, *_, champion = completion_models_by_cost()
    for task in ("filter", "extract", "generate"):
        assert cheap.error_rate(task) > champion.error_rate(task)


def test_champion_is_most_expensive():
    models = completion_models_by_cost()
    assert models[-1].name == DEFAULT_MODEL


def test_error_rate_falls_back_to_generate():
    card = get_model(DEFAULT_MODEL)
    assert card.error_rate("nonexistent-task") == card.error_rates["generate"]


def test_list_models_chat_only_excludes_embeddings():
    chat_names = {card.name for card in list_models(chat_only=True)}
    assert EMBEDDING_MODEL not in chat_names
    assert DEFAULT_MODEL in chat_names


def test_embedding_model_has_no_output_price():
    card = get_model(EMBEDDING_MODEL)
    assert card.usd_per_1m_output == 0.0
