"""Tests for the synthetic Kramabench legal corpus."""

import csv
import io

import pytest

from repro.data.datasets import generate_legal_corpus
from repro.data.datasets import kramabench as kb
from repro.llm.oracle import SemanticOracle


def test_exactly_132_files(legal_bundle):
    assert len(legal_bundle.corpus) == 132


def test_generation_is_deterministic():
    a = generate_legal_corpus(seed=7)
    b = generate_legal_corpus(seed=7)
    assert a.corpus.list_files() == b.corpus.list_files()
    name = a.corpus.list_files()[10]
    assert a.corpus.read_file(name) == b.corpus.read_file(name)


def test_different_seed_changes_distractors_not_ground_truth():
    a = generate_legal_corpus(seed=1)
    b = generate_legal_corpus(seed=2)
    # National endpoints are pinned across seeds; state-level facts (which
    # state leads) legitimately vary with the seeded weights.
    for key in ("identity_theft_2001", "identity_theft_2024", "ratio", "ground_truth_file"):
        assert a.ground_truth[key] == b.ground_truth[key]


def test_ground_truth_file_contents(legal_bundle):
    text = legal_bundle.corpus.read_file(legal_bundle.ground_truth["ground_truth_file"])
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 24
    by_year = {row["Year"]: row for row in rows}
    assert int(by_year["2001"]["Identity Theft Reports"]) == kb.IT_2001
    assert int(by_year["2024"]["Identity Theft Reports"]) == kb.IT_2024


def test_true_ratio_matches_endpoints(legal_bundle):
    assert legal_bundle.ground_truth["ratio"] == pytest.approx(kb.IT_2024 / kb.IT_2001)


def test_needle_in_haystack_structure(legal_bundle):
    oracle = SemanticOracle(legal_bundle.registry)
    with_both_years = [
        record["filename"]
        for record in legal_bundle.records()
        if oracle.judge_filter(kb.FILTER_STATS_BOTH, record).truth
        and oracle.judge_filter(kb.FILTER_STATS_BOTH, record).resolved
    ]
    assert with_both_years == [legal_bundle.ground_truth["ground_truth_file"]]


def test_ambiguous_files_present_and_hard(legal_bundle):
    records = {record["filename"]: record for record in legal_bundle.records()}
    from repro.llm.oracle import DIFFICULTY_PREFIX

    for name in (
        "identity_theft_report_trends_overview_2024.html",
        "military_consumer_identity_theft_2001_2024.csv",
        "identity_theft_hotline_calls_2001_2024.csv",
    ):
        record = records[name]
        assert record.annotations[kb.INTENT_STATS_BOTH] is False
        assert record.annotations[DIFFICULTY_PREFIX + kb.INTENT_STATS_BOTH] == 1.0


def test_distractor_values_differ_from_truth(legal_bundle):
    records = {record["filename"]: record for record in legal_bundle.records()}
    military = records["military_consumer_identity_theft_2001_2024.csv"]
    assert military.annotations[kb.INTENT_RATIO_VALUE] != pytest.approx(
        legal_bundle.ground_truth["ratio"], rel=0.05
    )


def test_state_files_mention_but_lack_2001(legal_bundle):
    records = {record["filename"]: record for record in legal_bundle.records()}
    texas = records["identity_theft_reports_texas_2020_2024.csv"]
    assert texas.annotations[kb.INTENT_MENTIONS_IT] is True
    assert kb.INTENT_IT_2001_VALUE not in texas.annotations
    assert "2001" not in texas["contents"]


def test_intent_resolution_for_canonical_instructions(legal_bundle):
    registry = legal_bundle.registry
    assert registry.resolve(kb.FILTER_MENTIONS).key == kb.INTENT_MENTIONS_IT
    assert registry.resolve(kb.FILTER_STATS_BOTH).key == kb.INTENT_STATS_BOTH
    assert registry.resolve(kb.FILTER_NATIONAL_2024).key == kb.INTENT_NATIONAL_2024
    assert registry.resolve(kb.EXTRACT_IT_2001).key == kb.INTENT_IT_2001_VALUE
    assert registry.resolve(kb.EXTRACT_IT_2024).key == kb.INTENT_IT_2024_VALUE
    assert registry.resolve(kb.MAP_RATIO).key == kb.INTENT_RATIO_VALUE


def test_every_file_judgeable_on_core_filters(legal_bundle):
    oracle = SemanticOracle(legal_bundle.registry)
    for record in legal_bundle.records():
        result = oracle.judge_filter(kb.FILTER_MENTIONS, record)
        assert result.resolved, record["filename"]


def test_most_files_are_distractors(legal_bundle):
    oracle = SemanticOracle(legal_bundle.registry)
    mentions = sum(
        1
        for record in legal_bundle.records()
        if oracle.judge_filter(kb.FILTER_MENTIONS, record).truth
    )
    # State files + ambiguous + reviews + guidance pages mention identity
    # theft, but they are still a strict subset of the lake.
    assert 55 <= mentions <= 80


def test_annual_review_2024_has_correct_value(legal_bundle):
    records = {record["filename"]: record for record in legal_bundle.records()}
    review = records["consumer_sentinel_annual_review_2024.html"]
    assert review.annotations[kb.INTENT_IT_2024_VALUE] == kb.IT_2024
