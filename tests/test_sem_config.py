"""Tests for QueryProcessorConfig validation and helpers."""

import pytest

from repro.errors import ConfigurationError
from repro.llm.models import DEFAULT_MODEL
from repro.sem.config import DEFAULT_FALLBACK_MODEL, QueryProcessorConfig


def test_defaults_are_sane(make_llm):
    config = QueryProcessorConfig(llm=make_llm())
    assert config.optimize and config.reorder_filters
    assert config.available_models is None  # model selection over the catalog
    assert DEFAULT_FALLBACK_MODEL == DEFAULT_MODEL  # the champion is a constant
    assert config.parallelism == 1  # iterator semantics by default
    assert config.join_method == "nested"
    assert config.max_cost_usd is None


def test_sample_size_validated(make_llm):
    with pytest.raises(ConfigurationError):
        QueryProcessorConfig(llm=make_llm(), sample_size=0)


def test_parallelism_validated(make_llm):
    with pytest.raises(ConfigurationError):
        QueryProcessorConfig(llm=make_llm(), parallelism=0)


def test_candidate_models_default_sorted_by_cost(make_llm):
    config = QueryProcessorConfig(llm=make_llm())
    models = config.candidate_models()
    assert models[0] == "gpt-4o-mini"
    assert models[-1] == "gpt-4o"


def test_candidate_models_override(make_llm):
    config = QueryProcessorConfig(llm=make_llm(), available_models=["gpt-4o"])
    assert config.candidate_models() == ["gpt-4o"]


def test_candidate_models_override_returns_copy(make_llm):
    config = QueryProcessorConfig(llm=make_llm(), available_models=["gpt-4o"])
    config.candidate_models().append("mutated")
    assert config.candidate_models() == ["gpt-4o"]
