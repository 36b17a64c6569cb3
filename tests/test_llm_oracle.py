"""Tests for the intent registry and semantic oracle."""

from repro.data.records import DataRecord
from repro.llm.oracle import DIFFICULTY_PREFIX, IntentRegistry, SemanticOracle


def _record(annotations=None, text="some record text"):
    return DataRecord({"body": text}, annotations=annotations or {})


def test_register_and_resolve_exact():
    registry = IntentRegistry()
    registry.register("x.mentions", ["identity", "theft"])
    intent = registry.resolve("Does this mention identity theft?")
    assert intent is not None and intent.key == "x.mentions"


def test_resolve_below_threshold_returns_none():
    registry = IntentRegistry()
    registry.register("x.a", ["alpha", "beta", "gamma", "delta"])
    assert registry.resolve("only alpha here") is None


def test_resolution_prefers_more_specific_on_tie():
    registry = IntentRegistry()
    registry.register("x.short", ["identity", "theft"])
    registry.register("x.long", ["identity", "theft", "2001", "2024"])
    intent = registry.resolve("identity theft reports for 2001 and 2024")
    assert intent.key == "x.long"


def test_resolution_prefers_higher_score():
    registry = IntentRegistry()
    registry.register("x.partial", ["identity", "theft", "ratio"])
    registry.register("x.full", ["identity", "theft"])
    intent = registry.resolve("identity theft reports")  # no "ratio"
    assert intent.key == "x.full"


def test_merge_registries():
    a, b = IntentRegistry(), IntentRegistry()
    a.register("k.a", ["alpha"])
    b.register("k.b", ["beta"])
    a.merge(b)
    assert set(a.keys()) == {"k.a", "k.b"}


def test_resolve_sees_better_intent_registered_after_first_resolution():
    registry = IntentRegistry()
    registry.register("x.short", ["identity", "theft"])
    instruction = "identity theft reports for 2001 and 2024"
    assert registry.resolve(instruction).key == "x.short"
    registry.register("x.long", ["identity", "theft", "2001", "2024"])
    assert registry.resolve(instruction).key == "x.long"


def test_resolve_sees_intent_merged_after_first_resolution():
    a, b = IntentRegistry(), IntentRegistry()
    a.register("x.short", ["identity", "theft"])
    b.register("x.long", ["identity", "theft", "2001", "2024"])
    instruction = "identity theft reports for 2001 and 2024"
    assert a.resolve(instruction).key == "x.short"
    a.merge(b)
    assert a.resolve(instruction).key == "x.long"


def test_unresolved_instruction_resolves_once_intent_is_registered():
    registry = IntentRegistry()
    registry.register("x.a", ["alpha", "beta", "gamma", "delta"])
    assert registry.resolve("only alpha here") is None
    assert registry.resolve("only alpha here") is None
    registry.register("x.b", ["alpha"])
    assert registry.resolve("only alpha here").key == "x.b"


def test_judge_filter_resolved_truth():
    registry = IntentRegistry()
    registry.register("x.flag", ["special", "flag"])
    oracle = SemanticOracle(registry)
    record = _record({"x.flag": True})
    result = oracle.judge_filter("has the special flag", record)
    assert result.resolved and result.truth is True


def test_judge_filter_difficulty_read_from_annotation():
    registry = IntentRegistry()
    registry.register("x.flag", ["special", "flag"])
    oracle = SemanticOracle(registry)
    record = _record({"x.flag": False, DIFFICULTY_PREFIX + "x.flag": 0.9})
    result = oracle.judge_filter("has the special flag", record)
    assert result.difficulty == 0.9


def test_judge_filter_difficulty_clamped():
    registry = IntentRegistry()
    registry.register("x.flag", ["special", "flag"])
    oracle = SemanticOracle(registry)
    record = _record({"x.flag": True, DIFFICULTY_PREFIX + "x.flag": 7.0})
    assert oracle.judge_filter("special flag", record).difficulty == 1.0


def test_judge_filter_unresolved_uses_lexical_heuristic():
    oracle = SemanticOracle(IntentRegistry())
    overlapping = _record(text="the quarterly merger discussion happened")
    result = oracle.judge_filter("quarterly merger discussion", overlapping)
    assert not result.resolved
    assert result.truth is True  # heavy token overlap

    unrelated = _record(text="lunch plans for friday")
    result = oracle.judge_filter("quarterly merger discussion", unrelated)
    assert result.truth is False


def test_extract_value_resolved():
    registry = IntentRegistry()
    registry.register("x.count", ["number", "widgets"])
    oracle = SemanticOracle(registry)
    record = _record({"x.count": 42})
    result = oracle.extract_value("extract the number of widgets", record)
    assert result.resolved and result.truth == 42


def test_extract_value_unresolved_returns_none():
    oracle = SemanticOracle(IntentRegistry())
    result = oracle.extract_value("extract the number of widgets", _record())
    assert not result.resolved and result.truth is None


def test_intent_missing_annotation_falls_back():
    registry = IntentRegistry()
    registry.register("x.flag", ["special", "flag"])
    oracle = SemanticOracle(registry)
    # Intent resolves, but this record carries no annotation for it.
    result = oracle.judge_filter("special flag", _record({}))
    assert not result.resolved
