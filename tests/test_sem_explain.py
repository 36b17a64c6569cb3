"""Tests for EXPLAIN ANALYZE rendering."""

import re

from repro.data.datasets import enron as en
from repro.llm.oracle import SemanticOracle
from repro.llm.simulated import SimulatedLLM
from repro.sem import Dataset, QueryProcessorConfig
from repro.sem.explain import explain_analyze


def _run(enron_bundle):
    llm = SimulatedLLM(oracle=SemanticOracle(enron_bundle.registry), seed=2)
    config = QueryProcessorConfig(llm=llm, seed=2)
    return (
        Dataset.from_source(enron_bundle.source())
        .sem_filter(en.FILTER_MENTIONS)
        .sem_filter(en.FILTER_FIRSTHAND)
        .run_with_report(config)
    )


def test_explain_analyze_renders_all_operators(enron_bundle):
    result, report = _run(enron_bundle)
    text = explain_analyze(result, report)
    assert text.count("SemFilter") >= 2
    assert "Scan" in text
    assert "EXPLAIN ANALYZE" in text


def test_explain_analyze_has_estimates_and_actuals(enron_bundle):
    result, report = _run(enron_bundle)
    text = explain_analyze(result, report)
    assert "Est. out" in text and "Actual $" in text
    assert "plan estimate" in text
    assert "optimizer sampling" in text


def test_cost_estimates_are_reliable(enron_bundle):
    """Per-record cost estimates are tight (selectivity, sampled from a
    dozen records, is legitimately noisy — surfacing that is the point of
    EXPLAIN ANALYZE)."""
    result, report = _run(enron_bundle)
    text = explain_analyze(result, report)
    pattern = re.compile(
        r"\| SemFilter.*\|\s*\d+\s*\|\s*\S+\s*\|\s*\d+\s*\|\s*([\d.]+)\s*\|\s*([\d.]+)\s*\|"
    )
    checked = 0
    for line in text.splitlines():
        match = pattern.search(line)
        if match:
            est_cost, actual_cost = float(match.group(1)), float(match.group(2))
            if actual_cost > 0:
                assert 0.5 * actual_cost <= est_cost <= 2.0 * actual_cost
                checked += 1
    assert checked >= 2


def test_truncated_run_flagged(enron_bundle):
    llm = SimulatedLLM(oracle=SemanticOracle(enron_bundle.registry), seed=2)
    config = QueryProcessorConfig(llm=llm, seed=2, optimize=False, max_cost_usd=0.01)
    result, report = (
        Dataset.from_source(enron_bundle.source())
        .sem_filter(en.FILTER_MENTIONS)
        .sem_filter(en.FILTER_FIRSTHAND)
        .run_with_report(config)
    )
    assert "truncated" in explain_analyze(result, report)


def test_colliding_labels_keep_their_own_estimates():
    """Labels truncate filter instructions to 40 characters and name maps
    by output field only, so distinct operators can share one — every
    EXPLAIN row must still show the estimate of the operator it measured."""
    from repro.data.schemas import Field
    from repro.qa.corpus import CorpusSpec, build_corpus

    bundle = build_corpus(CorpusSpec(seed=13, n_records=24))
    prefix = "After reading the whole message closely: "
    assert len(prefix) >= 40
    llm = SimulatedLLM(oracle=SemanticOracle(bundle.registry), seed=13)
    result, report = (
        Dataset.from_source(bundle.source())
        .sem_filter(prefix + "the ticket is marked urgent.")
        .sem_filter(prefix + "it requests a refund of a payment.")
        .sem_map(Field("value", str), "Extract the name of the account holder.")
        .sem_map(Field("value", str), "Extract the total invoice amount in dollars.")
        .run_with_report(QueryProcessorConfig(llm=llm, seed=13))
    )
    measured = [s for s in result.operator_stats if s.llm_calls]
    assert len(measured) == 4
    assert len(report.profiles) == 2  # the label-keyed views do collide
    lines = [
        line
        for line in explain_analyze(result, report).splitlines()
        if line.startswith("| Sem")
    ]
    estimates = set()
    for stats, line in zip(measured, lines, strict=True):
        estimate = stats.estimate
        cells = [cell.strip() for cell in line.split("|")]
        assert cells[3] == f"{stats.records_in * estimate.selectivity:.0f}"
        assert cells[5] == f"{stats.records_in * estimate.cost_per_record:.4f}"
        estimates.add((estimate.selectivity, estimate.cost_per_record))
    assert len(estimates) == 4
