"""Tests for usage reporting and dataset bundle self-validation."""

from repro.core.runtime import AnalyticsRuntime
from repro.data.datasets import kramabench as kb


def test_runtime_usage_report_after_compute(legal_bundle):
    runtime = AnalyticsRuntime.for_bundle(legal_bundle, seed=0)
    context = runtime.make_context(legal_bundle)
    runtime.compute(context, kb.QUERY_RATIO)
    usage = runtime.usage()
    assert usage.calls > 0 and usage.cost_usd > 0.0
    assert usage.input_tokens > 0 and usage.output_tokens > 0
    assert runtime.elapsed_s > 0.0


def test_all_builtin_bundles_validate(legal_bundle, enron_bundle, realestate_bundle):
    for bundle in (legal_bundle, enron_bundle, realestate_bundle):
        assert bundle.validate() == [], bundle.name


def test_validate_reports_unregistered_intents(realestate_bundle):
    from repro.data.datasets.base import DatasetBundle
    from repro.data.records import DataRecord
    from repro.data.schemas import Field, Schema
    from repro.data.corpus import FileCorpus
    from repro.llm.oracle import IntentRegistry

    bundle = DatasetBundle(
        name="broken",
        corpus=FileCorpus("broken"),
        schema=Schema([Field("a", int)]),
        registry=IntentRegistry(),
        description="",
        record_list=[DataRecord({"a": 1}, annotations={"x.unregistered": True})],
    )
    problems = bundle.validate()
    assert any("unregistered" in problem for problem in problems)


def test_validate_reports_bad_difficulty():
    from repro.data.datasets.base import DatasetBundle
    from repro.data.records import DataRecord
    from repro.data.schemas import Field, Schema
    from repro.data.corpus import FileCorpus
    from repro.llm.oracle import DIFFICULTY_PREFIX, IntentRegistry

    registry = IntentRegistry()
    registry.register("x.flag", ["flag"])
    bundle = DatasetBundle(
        name="broken",
        corpus=FileCorpus("broken"),
        schema=Schema([Field("a", int)]),
        registry=registry,
        description="",
        record_list=[
            DataRecord(
                {"a": 1},
                annotations={"x.flag": True, DIFFICULTY_PREFIX + "x.flag": 3.0},
            )
        ],
    )
    problems = bundle.validate()
    assert any("out of range" in problem for problem in problems)
