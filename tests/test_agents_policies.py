"""Tests for the scripted baseline policies (behavioural contracts)."""

import statistics

from repro.agents.codeagent import CodeAgent
from repro.agents.filetools import build_file_tools
from repro.agents.policies.deep_research import (
    EnronCodeAgentPolicy,
    KramabenchCodeAgentPolicy,
    filename_tokens,
    find_year_value,
    read_batch_code,
    split_file_sections,
)
from repro.agents.policies.semantic_tools import SemanticToolsCodeAgentPolicy
from repro.agents.semtools import build_semantic_tools
from repro.bench.metrics import set_metrics
from repro.data.datasets import enron as en
from repro.data.datasets import kramabench as kb
from repro.errors import ConfigurationError
from repro.llm.oracle import SemanticOracle
from repro.llm.simulated import SimulatedLLM


# ---------------------------------------------------------------------------
# Helpers used by policies
# ---------------------------------------------------------------------------


def test_filename_tokens_split_underscores():
    assert "identity" in filename_tokens("identity_theft_reports_2024.csv")
    assert "2024" in filename_tokens("identity_theft_reports_2024.csv")


def test_split_file_sections_roundtrip():
    observation = (
        "<<<FILE>>> a.csv\nline one\nline two\n<<<FILE>>> b.csv\nother\n"
    )
    sections = split_file_sections(observation)
    assert sections["a.csv"] == "line one\nline two"
    assert sections["b.csv"] == "other"


def test_read_batch_code_is_valid_python():
    import ast

    ast.parse(read_batch_code(["x.csv", "y.csv"]))


def test_find_year_value_csv_identity_theft_column():
    text = "Year,Fraud Reports,Identity Theft Reports\n2001,100,86250\n2002,1,2\n"
    assert find_year_value(text, 2001) == 86250


def test_find_year_value_prose():
    text = "Consumers filed roughly 86,000 identity theft reports in 2001."
    assert find_year_value(text, 2001) == 86000


def test_find_year_value_absent():
    assert find_year_value("no years here", 2001) is None


# ---------------------------------------------------------------------------
# Kramabench policy behaviour
# ---------------------------------------------------------------------------


def _run_kramabench(bundle, seed):
    llm = SimulatedLLM(oracle=SemanticOracle(bundle.registry), seed=seed)
    agent = CodeAgent(
        llm, build_file_tools(bundle.corpus), KramabenchCodeAgentPolicy(), seed=seed
    )
    return agent.run(kb.QUERY_RATIO)


def test_kramabench_agent_always_answers(legal_bundle):
    for seed in range(6):
        result = _run_kramabench(legal_bundle, seed)
        assert result.finished
        assert isinstance(result.answer, dict)
        assert result.answer.get("ratio") is not None


def test_kramabench_agent_err_in_paper_band(legal_bundle):
    truth = legal_bundle.ground_truth["ratio"]
    errors = []
    for seed in range(8):
        ratio = _run_kramabench(legal_bundle, seed).answer["ratio"]
        errors.append(abs(ratio - truth) / truth * 100)
    mean_error = statistics.mean(errors)
    # Paper: 27.56% average error; we accept a generous band around it.
    assert 10 <= mean_error <= 50


def test_kramabench_agent_reads_bounded_number_of_files(legal_bundle):
    result = _run_kramabench(legal_bundle, 0)
    reads = sum(step.code.count("read_file") for step in result.trace.steps)
    assert reads <= 4  # batched read loops, not per-file calls


# ---------------------------------------------------------------------------
# Enron policies behaviour
# ---------------------------------------------------------------------------


def test_enron_naive_low_recall_high_precision(enron_bundle):
    gold = enron_bundle.ground_truth["relevant_filenames"]
    recalls, precisions = [], []
    for seed in range(4):
        llm = SimulatedLLM(oracle=SemanticOracle(enron_bundle.registry), seed=seed)
        agent = CodeAgent(
            llm, build_file_tools(enron_bundle.corpus), EnronCodeAgentPolicy(), seed=seed
        )
        result = agent.run(en.QUERY_RELEVANT)
        metrics = set_metrics(gold, result.answer or [])
        recalls.append(metrics.recall)
        precisions.append(metrics.precision)
    assert statistics.mean(recalls) < 0.6
    assert statistics.mean(precisions) > 0.7


def test_enron_naive_extracts_deal_names_from_task(enron_bundle):
    policy = EnronCodeAgentPolicy()
    keywords = policy._deal_keywords(en.QUERY_RELEVANT)
    assert "raptor" in keywords and "death star" in keywords


def test_codeagent_plus_runs_filters_over_full_corpus(enron_bundle):
    llm = SimulatedLLM(oracle=SemanticOracle(enron_bundle.registry), seed=0)
    tools = build_file_tools(enron_bundle.corpus)
    semantic = build_semantic_tools(enron_bundle.records(), llm)
    for name in semantic.names():
        tools.add(semantic.get(name))
    policy = SemanticToolsCodeAgentPolicy(
        filters=[en.FILTER_MENTIONS, en.FILTER_FIRSTHAND],
        maps=[("summary", en.MAP_SUMMARY)],
    )
    agent = CodeAgent(llm, tools, policy, seed=0, max_steps=8)
    result = agent.run(en.QUERY_RELEVANT)
    assert result.finished
    # Two full-corpus filters + one full-corpus map = >= 750 LLM judgments.
    semantic_calls = [
        event for event in llm.tracker.events if "codeagent-plus" in event.tag
    ]
    assert len(semantic_calls) >= 750


def test_codeagent_plus_quality_high(enron_bundle):
    gold = enron_bundle.ground_truth["relevant_filenames"]
    llm = SimulatedLLM(oracle=SemanticOracle(enron_bundle.registry), seed=1)
    tools = build_file_tools(enron_bundle.corpus)
    semantic = build_semantic_tools(enron_bundle.records(), llm)
    for name in semantic.names():
        tools.add(semantic.get(name))
    policy = SemanticToolsCodeAgentPolicy(
        filters=[en.FILTER_MENTIONS, en.FILTER_FIRSTHAND],
        maps=[("summary", en.MAP_SUMMARY)],
    )
    result = CodeAgent(llm, tools, policy, seed=1, max_steps=8).run(en.QUERY_RELEVANT)
    returned = [row["key"] for row in result.answer]
    metrics = set_metrics(gold, returned)
    assert metrics.f1 > 0.9


def test_semantic_tools_policy_requires_filters():
    import pytest

    with pytest.raises(ConfigurationError):
        SemanticToolsCodeAgentPolicy(filters=[], maps=[])


def test_sem_filter_subset_tool_limits_scope(enron_bundle):
    llm = SimulatedLLM(oracle=SemanticOracle(enron_bundle.registry), seed=0)
    tools = build_semantic_tools(enron_bundle.records(), llm)
    keys = [record["filename"] for record in enron_bundle.records()[:10]]
    matches = tools.get("sem_filter_subset")(en.FILTER_MENTIONS, keys)
    assert set(matches) <= set(keys)
    assert llm.tracker.total().calls == 10
