"""Tests for the AnalyticsRuntime facade."""

import pytest

from repro.core.runtime import AnalyticsRuntime
from repro.data.datasets import kramabench as kb
from repro.data.records import DataRecord
from repro.data.schemas import Field, Schema


def test_for_bundle_wires_oracle(legal_bundle):
    runtime = AnalyticsRuntime.for_bundle(legal_bundle, seed=0)
    record = legal_bundle.records()[0]
    judgment = runtime.llm.judge_filter(kb.FILTER_MENTIONS, record)
    assert judgment.intent_key == kb.INTENT_MENTIONS_IT


def test_make_context_from_bundle(legal_bundle):
    runtime = AnalyticsRuntime.for_bundle(legal_bundle, seed=0)
    context = runtime.make_context(legal_bundle)
    assert len(context) == 132
    assert context.desc == legal_bundle.description


def test_make_context_from_records_requires_schema_desc():
    runtime = AnalyticsRuntime(seed=0)
    records = [DataRecord({"a": 1})]
    with pytest.raises(ValueError):
        runtime.make_context(records)
    context = runtime.make_context(
        records, schema=Schema([Field("a", int)]), desc="tiny"
    )
    assert len(context) == 1


def test_make_context_with_index(legal_bundle):
    runtime = AnalyticsRuntime.for_bundle(legal_bundle, seed=0)
    context = runtime.make_context(legal_bundle, build_index=True)
    assert context.has_vector_index


def test_program_config_carries_settings(legal_bundle):
    runtime = AnalyticsRuntime.for_bundle(legal_bundle, seed=5, sample_size=7)
    config = runtime.program_config(tag="custom")
    assert config.sample_size == 7
    assert config.seed == 5
    assert config.tag == "custom"
    assert config.llm is runtime.llm


def test_materialize_rows_and_sql():
    runtime = AnalyticsRuntime(seed=0)
    runtime.materialize_rows("t", [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}])
    assert runtime.sql("SELECT SUM(a) FROM t").scalar() == 3


def test_materialize_records_projected():
    runtime = AnalyticsRuntime(seed=0)
    records = [DataRecord({"a": 1, "b": "x", "c": 9.5})]
    runtime.materialize_records("t", records, fields=["a", "b"])
    rows = runtime.sql("SELECT * FROM t").to_dicts()
    assert rows == [{"a": 1, "b": "x"}]


def test_materialize_replace_semantics():
    runtime = AnalyticsRuntime(seed=0)
    runtime.materialize_rows("t", [{"a": 1}])
    runtime.materialize_rows("t", [{"a": 2}])  # replace=True by default
    assert runtime.sql("SELECT a FROM t").scalar() == 2


def test_usage_and_elapsed_track_llm(legal_bundle):
    runtime = AnalyticsRuntime.for_bundle(legal_bundle, seed=0)
    assert runtime.usage().calls == 0
    runtime.llm.complete("hello")
    assert runtime.usage().calls == 1
    assert runtime.elapsed_s > 0


def test_cheapest_model_is_in_catalog():
    from repro.llm.models import MODEL_CATALOG
    from repro.sem.optimizer.policies import MinCost

    runtime = AnalyticsRuntime(seed=0, policy=MinCost())
    assert runtime.config.policy.agent_model() in MODEL_CATALOG


def test_compute_and_search_methods_delegate(legal_bundle):
    runtime = AnalyticsRuntime.for_bundle(legal_bundle, seed=8)
    context = runtime.make_context(legal_bundle)
    found = runtime.search(context, "identity theft information")
    assert found.output_context is not context
    result = runtime.compute(context, kb.QUERY_RATIO)
    assert result.answer is not None


def test_query_options_are_declared_once():
    """The runtime and the serving layer forward query options, never
    re-declare them: one dataclass owns every name."""
    import inspect
    from dataclasses import fields

    from repro.sem.config import QueryProcessorConfig
    from repro.serve import ServingRuntime

    # ``llm`` is the substrate the config is built around, not an option.
    options = {option.name for option in fields(QueryProcessorConfig)} - {"llm"}

    def declared(cls):
        parameters = inspect.signature(cls.__init__).parameters.values()
        named = {p.name for p in parameters if p.kind is p.POSITIONAL_OR_KEYWORD}
        return named - {"self"}

    assert declared(AnalyticsRuntime) & options == {"seed"}
    assert len(declared(AnalyticsRuntime)) <= 10
    assert declared(ServingRuntime) & options == {"parallelism"}
    assert len(declared(ServingRuntime) - {"runtime"}) == 4


def test_unknown_query_option_is_a_type_error():
    with pytest.raises(TypeError, match="foo"):
        AnalyticsRuntime(foo=1)


def test_program_config_derives_without_touching_the_template(legal_bundle):
    runtime = AnalyticsRuntime.for_bundle(legal_bundle, on_failure="raise", shards=2)
    derived = runtime.program_config("served", parallelism=3, scope="tenant")
    assert (derived.tag, derived.parallelism, derived.scope) == ("served", 3, "tenant")
    assert (derived.on_failure, derived.shards) == ("raise", 2)
    template = runtime.config
    assert (template.tag, template.parallelism, template.scope) == ("query", 1, "")
    assert derived.stats_store is template.stats_store
