"""Tests for the simulated LLM service.

The toy registry/record/LLM setup lives in ``conftest.py`` as the
``toy_registry``, ``toy_record``, and ``make_toy_llm`` fixtures.
"""

import pytest

from repro.data.records import DataRecord
from repro.llm.oracle import DIFFICULTY_PREFIX, SemanticOracle


def test_judge_filter_easy_record_matches_truth(make_toy_llm, toy_record):
    llm = make_toy_llm()
    assert llm.judge_filter("has the special flag", toy_record(flag=True)).answer is True
    assert llm.judge_filter("has the special flag", toy_record(flag=False, uid="n")).answer is False


def test_judge_filter_charges_cost_and_latency(make_toy_llm, toy_record):
    llm = make_toy_llm()
    judgment = llm.judge_filter("special flag", toy_record())
    assert judgment.event.cost_usd > 0
    assert llm.clock.elapsed > 0
    assert llm.tracker.total().calls == 1


def test_judgment_cached_second_call_free(make_toy_llm, toy_record):
    llm = make_toy_llm()
    record = toy_record()
    first = llm.judge_filter("special flag", record)
    elapsed = llm.clock.elapsed
    second = llm.judge_filter("special flag", record)
    assert second.event.cached
    assert second.event.cost_usd == 0.0
    assert llm.clock.elapsed == elapsed
    assert first.answer == second.answer


def test_same_seed_same_answers_across_instances(make_toy_llm, toy_record):
    answers1 = [
        make_toy_llm(seed=5).judge_filter(
            "special flag", toy_record(difficulty=1.0, uid=f"u{i}")
        ).answer
        for i in range(20)
    ]
    answers2 = [
        make_toy_llm(seed=5).judge_filter(
            "special flag", toy_record(difficulty=1.0, uid=f"u{i}")
        ).answer
        for i in range(20)
    ]
    assert answers1 == answers2


def test_different_seeds_can_differ_on_ambiguous_records(make_toy_llm, toy_record):
    outcomes = set()
    for seed in range(12):
        answer = make_toy_llm(seed=seed).judge_filter(
            "special flag", toy_record(flag=False, difficulty=1.0, uid="amb")
        ).answer
        outcomes.add(answer)
    assert outcomes == {True, False}


def test_cheap_model_errs_more_than_champion(make_toy_llm, toy_record):
    def error_count(model):
        errors = 0
        for i in range(60):
            llm = make_toy_llm(seed=i)
            record = toy_record(flag=True, difficulty=0.6, uid=f"r{i}")
            if llm.judge_filter("special flag", record, model=model).answer is not True:
                errors += 1
        return errors

    assert error_count("gpt-3.5-turbo") > error_count("gpt-4o")


def test_extract_returns_truth_on_easy_record(make_toy_llm, toy_record):
    llm = make_toy_llm()
    result = llm.extract("extract the number of widgets", toy_record(count=42))
    assert result.value == 42
    assert result.resolved


def test_extract_unresolved_returns_none(make_toy_llm, toy_record):
    llm = make_toy_llm()
    result = llm.extract("extract the blorbification factor xyzzy", toy_record())
    assert result.value is None
    assert not result.resolved


def test_extract_corruption_on_hard_records_is_plausible(make_toy_llm, toy_record):
    values = set()
    for seed in range(30):
        llm = make_toy_llm(seed=seed)
        record = toy_record(count=100, difficulty=1.0, uid="hard")
        values.add(llm.extract("extract the number of widgets", record).value)
    assert 100 in values  # usually right
    corrupted = values - {100}
    assert corrupted, "difficulty 1.0 should produce some corrupted extractions"
    assert all(isinstance(value, (int, float)) for value in corrupted)


def test_classify_picks_among_options(make_toy_llm, toy_registry):
    llm = make_toy_llm()
    toy_registry.register("t.style", ["architectural", "style"])
    llm.oracle = SemanticOracle(toy_registry)
    record = DataRecord({"body": "x"}, annotations={"t.style": "modern"})
    result = llm.classify("what architectural style", ["modern", "ranch"], record)
    assert result.value in ("modern", "ranch")


def test_classify_requires_options(make_toy_llm, toy_record):
    llm = make_toy_llm()
    with pytest.raises(ValueError):
        llm.classify("anything", [], toy_record())


def test_complete_uses_expected_output_and_charges(make_toy_llm):
    llm = make_toy_llm()
    result = llm.complete("write a plan", expected_output="the plan text")
    assert result.text == "the plan text"
    assert result.event.output_tokens > 0
    assert result.event.cost_usd > 0


def test_complete_without_expected_output_echoes_keywords(make_toy_llm):
    llm = make_toy_llm()
    result = llm.complete("summarize identity theft statistics")
    assert "identity" in result.text


def test_parallel_section_charges_makespan(make_toy_llm, toy_record):
    llm_sequential = make_toy_llm()
    for i in range(4):
        llm_sequential.judge_filter("special flag", toy_record(uid=f"s{i}"))
    sequential_time = llm_sequential.clock.elapsed

    llm_parallel = make_toy_llm()
    with llm_parallel.parallel(4):
        for i in range(4):
            llm_parallel.judge_filter("special flag", toy_record(uid=f"s{i}"))
    parallel_time = llm_parallel.clock.elapsed

    assert parallel_time < sequential_time
    assert parallel_time > 0


def test_parallel_rejects_bad_width(make_toy_llm):
    llm = make_toy_llm()
    with pytest.raises(ValueError):
        with llm.parallel(0):
            pass


def test_embed_charges_and_caches(make_toy_llm):
    llm = make_toy_llm()
    llm.embed("identity theft")
    cost_first = llm.tracker.total().cost_usd
    assert cost_first > 0
    llm.embed("identity theft")
    assert llm.tracker.total().cost_usd == cost_first  # cached


def test_nested_parallel_inner_makespan_is_one_outer_item(make_toy_llm, toy_record):
    """Regression: a nested section's makespan must ride as a single item in
    the enclosing section's waves, not advance the clock directly (which
    double-scheduled nested sections against their parent)."""
    single = make_toy_llm()
    single.judge_filter("special flag", toy_record(uid="a"))
    one_call = single.clock.elapsed

    llm = make_toy_llm()
    with llm.parallel(2):
        llm.judge_filter("special flag", toy_record(uid="a"))
        with llm.parallel(2):
            llm.judge_filter("special flag", toy_record(uid="b"))
            llm.judge_filter("special flag", toy_record(uid="c"))
    # All three calls are identically priced; the inner pair collapses to one
    # makespan L, and the outer wave of [L, L] at width 2 is just L.
    assert llm.clock.elapsed == pytest.approx(one_call)


def test_cached_calls_do_not_occupy_wave_slots(make_toy_llm, toy_record):
    """Regression: zero-latency cache hits must not displace real calls in
    the positional wave chunking of a parallel section."""
    llm = make_toy_llm()
    record = toy_record(uid="warm")
    llm.judge_filter("special flag", record)  # warm the cache
    one_call = llm.clock.elapsed

    with llm.parallel(2):
        llm.judge_filter("special flag", record)  # cache hit: free, instant
        llm.judge_filter("special flag", toy_record(uid="cold1"))
        llm.judge_filter("special flag", toy_record(uid="cold2"))
    # The two cold calls share one wave of width 2; the buggy accounting put
    # the cached call in the first slot and charged a second wave.
    assert llm.clock.elapsed - one_call == pytest.approx(one_call)


def test_distractor_annotation_steers_corruption(make_toy_llm):
    from repro.llm.simulated import DISTRACTOR_PREFIX

    for seed in range(40):
        llm = make_toy_llm(seed=seed)
        record = DataRecord(
            {"body": "widgets"},
            uid="d",
            annotations={
                "t.count": 100,
                DIFFICULTY_PREFIX + "t.count": 1.0,
                DISTRACTOR_PREFIX + "t.count": 777,
            },
        )
        value = llm.extract("extract the number of widgets", record).value
        assert value in (100, 777)


_ENDPOINT_CALLS = {
    "filter": lambda llm, rec: llm.judge_filter("  Has the SPECIAL  flag? ", rec),
    "join": lambda llm, rec: llm.judge_join("same special flag", rec, rec),
    "extract": lambda llm, rec: llm.extract("extract the number of widgets", rec),
    "classify": lambda llm, rec: llm.classify("the number of widgets", ["41", "42"], rec),
}


@pytest.mark.parametrize("cache_scope", ["", "tenant-a"])
@pytest.mark.parametrize("endpoint", sorted(_ENDPOINT_CALLS))
def test_instruction_seen_first_and_nth_time_is_charged_alike(
    make_toy_llm, toy_record, endpoint, cache_scope
):
    call = _ENDPOINT_CALLS[endpoint]

    def observe(llm, uid):
        llm.cache_scope = cache_scope
        result = call(llm, toy_record(difficulty=0.9, uid=uid))
        answer = result.answer if endpoint in ("filter", "join") else result.value
        return answer, result.event.input_tokens, result.event.cost_usd

    uids = [f"u{i}" for i in range(6)]
    # A fresh LLM per record sees the instruction for the first time.
    first = [observe(make_toy_llm(seed=3), uid) for uid in uids]
    shared = make_toy_llm(seed=3)
    nth = [observe(shared, uid) for uid in uids]
    assert nth == first
    assert all(tokens > 0 and cost > 0 for _, tokens, cost in nth)
