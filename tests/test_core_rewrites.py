"""Tests for logical rewrites (split, merge, recovery)."""

from repro.core.rewrites import (
    compute_with_recovery,
    split_instruction,
)
from repro.core.runtime import AnalyticsRuntime
from repro.data.datasets import kramabench as kb


def test_split_on_sentences():
    parts = split_instruction("Do the first thing. Then compute the second.")
    assert len(parts) == 2
    assert all(part.endswith(".") for part in parts)


def test_split_on_markers():
    parts = split_instruction("filter the emails; then extract senders")
    assert parts == ["filter the emails.", "extract senders."]


def test_split_single_directive_unchanged():
    assert split_instruction("Just one directive") == ["Just one directive."]


def test_merge_groups_near_duplicates(legal_bundle):
    # Merging is the similarity catalog's answer floor: a reworded
    # duplicate is served the first answer, a different question is not.
    runtime = AnalyticsRuntime.for_bundle(legal_bundle, seed=3)
    context = runtime.make_context(legal_bundle)
    first, reworded, other = [
        runtime.answer(context, instruction)
        for instruction in (
            kb.QUERY_RATIO, kb.QUERY_RATIO + " Please.", "List romance scams in 2023.",
        )
    ]
    assert not first.reused and not other.reused
    assert reworded.reused and reworded.cost_usd == 0.0
    assert reworded.answer == first.answer


def test_merge_identical_instructions(legal_bundle):
    runtime = AnalyticsRuntime.for_bundle(legal_bundle, seed=3)
    context = runtime.make_context(legal_bundle)
    results = [runtime.answer(context, kb.QUERY_RATIO) for _ in range(4)]
    assert [result.reused for result in results] == [False, True, True, True]
    # One episode ran: the other three are its answer at $0.
    assert all(
        result.cost_usd == 0.0 and result.output_context is results[0].output_context
        for result in results[1:]
    )


def test_compute_batch_shares_results(legal_bundle):
    runtime = AnalyticsRuntime.for_bundle(legal_bundle, seed=3)
    context = runtime.make_context(legal_bundle)
    instructions = [kb.QUERY_RATIO, kb.QUERY_RATIO + " Please."]
    results = [runtime.answer(context, instruction) for instruction in instructions]
    assert len(results) == 2
    assert results[1].reused  # merged: the first episode's answer
    assert results[1].answer == results[0].answer
    assert results[1].output_context is results[0].output_context


def test_compute_with_recovery_not_triggered_when_valid(legal_bundle):
    runtime = AnalyticsRuntime.for_bundle(legal_bundle, seed=3)
    context = runtime.make_context(legal_bundle)
    result, recovered = compute_with_recovery(context, kb.QUERY_RATIO, runtime)
    assert not recovered
    assert result.answer is not None


def test_compute_with_recovery_inserts_search(legal_bundle):
    runtime = AnalyticsRuntime.for_bundle(legal_bundle, seed=3)
    context = runtime.make_context(legal_bundle)
    awkward = (
        "Determine how many times larger the count of identity theft "
        "reports was in 2024 compared to 2001."
    )
    result, recovered = compute_with_recovery(
        context,
        awkward,
        runtime,
        is_valid=lambda answer: isinstance(answer, dict) and "ratio" in answer,
    )
    assert recovered
    assert isinstance(result.answer, dict) and "ratio" in result.answer
    # Recovery accumulates the failed attempt's cost.
    assert result.cost_usd > 0
