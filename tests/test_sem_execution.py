"""Tests for the execution engine and end-to-end Dataset runs."""

import pytest

from repro.data.datasets import enron as en
from repro.data.schemas import Field
from repro.llm.oracle import SemanticOracle
from repro.llm.simulated import SimulatedLLM
from repro.sem import Dataset, MaxQuality, QueryProcessorConfig


def _config(bundle, seed=0, **kwargs):
    llm = SimulatedLLM(oracle=SemanticOracle(bundle.registry), seed=seed)
    defaults = dict(llm=llm, policy=MaxQuality(), seed=seed)
    defaults.update(kwargs)
    return QueryProcessorConfig(**defaults)


def test_end_to_end_filter_map(enron_bundle):
    config = _config(enron_bundle)
    result = (
        Dataset.from_source(enron_bundle.source())
        .sem_filter(en.FILTER_RELEVANT)
        .sem_map(Field("x_sender", str, "sender"), en.MAP_SENDER)
        .run(config)
    )
    assert 30 <= len(result.records) <= 45
    assert all(record.get("x_sender") for record in result.records)


def test_operator_stats_recorded(enron_bundle):
    config = _config(enron_bundle)
    result = (
        Dataset.from_source(enron_bundle.source())
        .sem_filter(en.FILTER_RELEVANT)
        .run(config)
    )
    labels = [stats.label for stats in result.operator_stats]
    assert labels[0].startswith("Scan")
    filter_stats = result.operator_stats[1]
    assert filter_stats.records_in == 250
    assert filter_stats.records_out == len(result.records)
    assert filter_stats.cost_usd > 0
    assert filter_stats.llm_calls >= 250
    assert 0 < filter_stats.records_out < filter_stats.records_in


def test_totals_match_tracker(enron_bundle):
    config = _config(enron_bundle)
    checkpoint_cost = config.llm.tracker.total().cost_usd
    result = (
        Dataset.from_source(enron_bundle.source())
        .sem_filter(en.FILTER_RELEVANT)
        .run(config)
    )
    spent = config.llm.tracker.total().cost_usd - checkpoint_cost
    assert spent == pytest.approx(
        result.total_cost_usd + result.optimization_cost_usd, abs=1e-9
    )


def test_iterator_semantics_process_every_record(enron_bundle):
    """The paper's point: a semantic filter reads all records."""
    config = _config(enron_bundle, optimize=False)
    result = (
        Dataset.from_source(enron_bundle.source())
        .sem_filter(en.FILTER_RELEVANT)
        .run(config)
    )
    assert result.operator_stats[1].llm_calls == 250


def test_parallelism_reduces_time_not_cost(enron_bundle):
    sequential = _config(enron_bundle, parallelism=1, optimize=False)
    result_seq = (
        Dataset.from_source(enron_bundle.source()).sem_filter(en.FILTER_RELEVANT).run(sequential)
    )
    parallel = _config(enron_bundle, parallelism=8, optimize=False)
    result_par = (
        Dataset.from_source(enron_bundle.source()).sem_filter(en.FILTER_RELEVANT).run(parallel)
    )
    assert result_par.total_time_s < 0.5 * result_seq.total_time_s
    assert result_par.total_cost_usd == pytest.approx(result_seq.total_cost_usd)


def test_limit_truncates_output(enron_bundle):
    config = _config(enron_bundle)
    result = (
        Dataset.from_source(enron_bundle.source())
        .sem_filter(en.FILTER_RELEVANT)
        .limit(5)
        .run(config)
    )
    assert len(result.records) == 5


def test_run_with_report_exposes_choices(enron_bundle):
    config = _config(enron_bundle)
    _result, report = (
        Dataset.from_source(enron_bundle.source())
        .sem_filter(en.FILTER_RELEVANT)
        .run_with_report(config)
    )
    assert report.optimized
    assert any("SemFilter" in label for label in report.chosen_models)
    assert report.estimate is not None
    assert report.estimate.cost_usd > 0


def test_deterministic_across_runs(enron_bundle):
    def run():
        config = _config(enron_bundle, seed=99)
        result = (
            Dataset.from_source(enron_bundle.source())
            .sem_filter(en.FILTER_RELEVANT)
            .run(config)
        )
        return (
            [record["filename"] for record in result.records],
            result.total_cost_usd,
        )

    assert run() == run()
