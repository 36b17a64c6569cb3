"""Tests for the synthetic real-estate corpus."""

import pytest

from repro.data.datasets import generate_realestate_corpus
from repro.data.datasets import realestate as re_mod
from repro.errors import ConfigurationError


def test_default_size(realestate_bundle):
    assert len(realestate_bundle.records()) == 120


def test_custom_size():
    assert len(generate_realestate_corpus(n_listings=50).records()) == 50


def test_minimum_size_enforced():
    with pytest.raises(ConfigurationError):
        generate_realestate_corpus(n_listings=5)


def test_deterministic():
    a = generate_realestate_corpus(seed=23)
    b = generate_realestate_corpus(seed=23)
    assert a.ground_truth == b.ground_truth


def test_modern_share_reasonable(realestate_bundle):
    modern = realestate_bundle.ground_truth["modern_listing_ids"]
    assert 0.15 * 120 <= len(modern) <= 0.45 * 120


def test_annotations_match_ground_truth(realestate_bundle):
    modern = set(realestate_bundle.ground_truth["modern_listing_ids"])
    for record in realestate_bundle.records():
        assert record.annotations[re_mod.INTENT_MODERN] == (
            record["listing_id"] in modern
        )


def test_intents_resolve(realestate_bundle):
    registry = realestate_bundle.registry
    assert registry.resolve(re_mod.FILTER_MODERN).key == re_mod.INTENT_MODERN
    assert registry.resolve(re_mod.MAP_STYLE).key == re_mod.INTENT_STYLE


def test_structured_fields_typed(realestate_bundle):
    for record in realestate_bundle.records()[:10]:
        assert isinstance(record["price"], int)
        assert isinstance(record["bedrooms"], int)
        assert 1 <= record["bedrooms"] <= 6


def test_style_annotation_in_catalog(realestate_bundle):
    for record in realestate_bundle.records():
        assert record.annotations[re_mod.INTENT_STYLE] in re_mod.STYLES
