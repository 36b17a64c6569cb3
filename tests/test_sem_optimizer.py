"""Tests for the optimizer: rules, sampler, policies, cost model."""

import pytest

from repro.data.datasets import enron as en
from repro.data.records import DataRecord
from repro.data.schemas import Field, Schema
from repro.data.sources import MemorySource
from repro.errors import ConfigurationError
from repro.llm.oracle import SemanticOracle
from repro.llm.simulated import SimulatedLLM
from repro.sem import logical as L
from repro.sem.config import QueryProcessorConfig
from repro.sem.dataset import Dataset
from repro.sem import physical as P
from repro.sem.optimizer.cost_model import (
    OperatorEstimate,
    PlanEstimate,
    estimate_chain_steps,
    filter_rank,
)
from repro.sem.optimizer.optimizer import Optimizer
from repro.sem.optimizer.policies import Balanced, MaxQuality, MinCost
from repro.sem.optimizer.rules import (
    commuting_runs,
    merge_adjacent_limits,
    push_py_filters,
    reorder_filters,
)
from repro.sem.optimizer.sampler import OperatorProfile, Sampler
from repro.utils.seeding import SeededRng
from tests.test_architecture import RULE, violations


def _profile(model="m", agreement=1.0, selectivity=0.5, cost=0.001):
    return OperatorProfile(
        model=model,
        agreement=agreement,
        selectivity=selectivity,
        cost_per_record=cost,
        latency_per_record=0.5,
        sample_size=10,
    )


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------


def test_max_quality_always_champion():
    profiles = {"cheap": _profile("cheap", 1.0, cost=0.0001)}
    assert MaxQuality().choose_model(profiles, "champ") == "champ"


def test_balanced_picks_cheapest_above_floor():
    profiles = {
        "cheap-bad": _profile("cheap-bad", agreement=0.7, cost=0.0001),
        "cheap-good": _profile("cheap-good", agreement=0.95, cost=0.0002),
        "champ": _profile("champ", agreement=1.0, cost=0.01),
    }
    assert Balanced(0.92).choose_model(profiles, "champ") == "cheap-good"


def test_balanced_falls_back_to_champion():
    profiles = {"cheap": _profile("cheap", agreement=0.5)}
    assert Balanced(0.92).choose_model(profiles, "champ") == "champ"


def test_balanced_rejects_bad_floor():
    with pytest.raises(ConfigurationError):
        Balanced(1.5)
    # One implementation behind both names: the validation covers MinCost,
    # each keeps its own default floor, and neither is the other.
    with pytest.raises(ConfigurationError):
        MinCost(-0.1)
    assert (MinCost().quality_floor, Balanced().quality_floor) == (0.5, 0.92)
    assert MinCost.choose_model is Balanced.choose_model
    assert not isinstance(Balanced(), MinCost)


def test_min_cost_picks_cheapest():
    profiles = {
        "a": _profile("a", agreement=0.6, cost=0.001),
        "b": _profile("b", agreement=0.99, cost=0.01),
    }
    assert MinCost().choose_model(profiles, "champ") == "a"


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


def _chain():
    scan = L.ScanOp(child=None, source=None)
    sem1 = L.SemFilterOp(child=None, instruction="sem one")
    py = L.PyFilterOp(child=None, fn=lambda r: True, description="py")
    sem2 = L.SemFilterOp(child=None, instruction="sem two")
    limit = L.LimitOp(child=None, n=3)
    return [scan, sem1, py, sem2, limit]


def test_commuting_runs_found():
    assert commuting_runs(_chain()) == [(1, 4)]


def test_push_py_filters_moves_free_filter_first():
    chain = push_py_filters(_chain())
    assert isinstance(chain[1], L.PyFilterOp)
    assert isinstance(chain[2], L.SemFilterOp)
    # Non-filter operators untouched.
    assert isinstance(chain[0], L.ScanOp) and isinstance(chain[4], L.LimitOp)


def test_reorder_filters_by_rank():
    chain = _chain()
    ranks = {id(chain[1]): 5.0, id(chain[2]): 0.0, id(chain[3]): 1.0}
    reordered = reorder_filters(chain, lambda _pos, op: ranks[id(op)])
    run = reordered[1:4]
    assert [op.label() for op in run] == [
        chain[2].label(), chain[3].label(), chain[1].label()
    ]


def test_merge_adjacent_limits():
    chain = [
        L.ScanOp(child=None, source=None),
        L.LimitOp(child=None, n=5),
        L.LimitOp(child=None, n=2),
    ]
    merged = merge_adjacent_limits(chain)
    assert len(merged) == 2
    assert merged[1].n == 2


# ---------------------------------------------------------------------------
# Cost model
# ---------------------------------------------------------------------------


def _bound_filters(*instructions):
    scan = P.PhysScan(L.ScanOp(child=None, source=None))
    return [scan] + [
        P.PhysSemFilter(L.SemFilterOp(child=None, instruction=text), "m")
        for text in instructions
    ]


def _belief(selectivity, cost):
    return OperatorEstimate(selectivity, cost, 0.5, "sampled")


def test_estimate_chain_shrinks_cardinality():
    estimate, steps = estimate_chain_steps(
        _bound_filters("x"),
        [OperatorEstimate(), _belief(0.25, 0.002)],
        input_cardinality=100,
    )
    assert estimate.cardinality == pytest.approx(25)
    assert estimate.cost_usd == pytest.approx(0.2)
    assert [step.cardinality for step in steps] == pytest.approx([100, 25])


def test_estimate_downstream_charged_on_survivors():
    estimate, _steps = estimate_chain_steps(
        _bound_filters("a", "b"),
        [OperatorEstimate(), _belief(0.1, 0.001), _belief(0.5, 0.001)],
        input_cardinality=100,
    )
    assert estimate.cost_usd == pytest.approx(0.1 + 0.01)


def test_estimate_fuses_what_the_bound_operators_say_streams():
    # Fusion is read off ``operator.streamable`` — no mirrored type table.
    # Two streamable filters pipeline (fill + (B - 1) * bottleneck over
    # 100 / 25 = 4 batches); as one-operator sections they add up.
    beliefs = [OperatorEstimate(), _belief(1.0, 0.0), _belief(1.0, 0.0)]
    operators = _bound_filters("a", "b")
    fused, _ = estimate_chain_steps(
        operators, beliefs, input_cardinality=100, batch_size=25
    )
    summed, _ = estimate_chain_steps(operators, beliefs, input_cardinality=100)
    assert summed.time_s == pytest.approx(100.0)
    assert fused.time_s == pytest.approx(100.0 / 4 + 3 * 50.0 / 4)
    operators[2].streamable = False  # e.g. a whole-input operator
    unfused, _ = estimate_chain_steps(
        operators, beliefs, input_cardinality=100, batch_size=25
    )
    assert unfused.time_s == pytest.approx(summed.time_s)


def test_filter_rank_prefers_cheap_selective():
    cheap_selective = _profile(selectivity=0.1, cost=0.001)
    pricey_unselective = _profile(selectivity=0.9, cost=0.01)
    assert filter_rank(cheap_selective) < filter_rank(pricey_unselective)


def test_plan_estimate_addition():
    total = PlanEstimate(1.0, 2.0, 100) + PlanEstimate(0.5, 1.0, 10)
    assert total.cost_usd == 1.5 and total.cardinality == 10


# ---------------------------------------------------------------------------
# Sampler
# ---------------------------------------------------------------------------


def _profile_filter(llm, instruction, sample, models, champion):
    """Audition ``models`` for a semantic filter the way the optimizer does."""
    op = L.SemFilterOp(child=None, instruction=instruction)
    ctx = P.ExecutionContext(llm=llm, tag="query:optimize", on_failure="raise")
    return Sampler(SeededRng(0)).profile(
        lambda model: P.PhysSemFilter(op, model), models, champion, sample, ctx
    )


def test_sampler_profiles_models(enron_bundle):
    llm = SimulatedLLM(oracle=SemanticOracle(enron_bundle.registry), seed=0)
    sample = Sampler(SeededRng(0)).sample_records(enron_bundle.records(), 12)
    profiles = _profile_filter(
        llm, en.FILTER_RELEVANT, sample, ["gpt-4o", "gpt-4o-mini"], "gpt-4o"
    )
    assert profiles["gpt-4o"].agreement == 1.0  # champion agrees with itself
    assert 0 <= profiles["gpt-4o-mini"].agreement <= 1.0
    assert profiles["gpt-4o"].cost_per_record > profiles["gpt-4o-mini"].cost_per_record
    assert 0.0 <= profiles["gpt-4o"].selectivity <= 1.0


def test_sampler_empty_sample_yields_no_profile():
    # Nothing seen, nothing believed: the cost model's static formula is
    # the only default (there is no "neutral" profile to mistake for data).
    llm = SimulatedLLM(seed=0)
    assert _profile_filter(llm, "anything", [], ["gpt-4o"], "gpt-4o") == {}
    assert llm.tracker.total().calls == 0


def test_sampler_eliminates_bad_models():
    """A model that always disagrees sees only the first bandit round."""
    from repro.llm.oracle import DIFFICULTY_PREFIX, IntentRegistry

    registry = IntentRegistry()
    registry.register("t.flag", ["special", "flag"])
    records = [
        DataRecord(
            {"x": i},
            uid=f"r{i}",
            # Maximum ambiguity so the weak tier errs visibly.
            annotations={"t.flag": True, DIFFICULTY_PREFIX + "t.flag": 1.0},
        )
        for i in range(16)
    ]
    llm = SimulatedLLM(oracle=SemanticOracle(registry), seed=3)
    profiles = _profile_filter(
        llm, "special flag", records, ["gpt-4o", "gpt-3.5-turbo"], "gpt-4o"
    )
    assert profiles["gpt-4o"].sample_size == 16
    assert profiles["gpt-3.5-turbo"].sample_size <= 16


def test_sample_records_deterministic(enron_bundle):
    a = Sampler(SeededRng(1)).sample_records(enron_bundle.records(), 5)
    b = Sampler(SeededRng(1)).sample_records(enron_bundle.records(), 5)
    assert [r.uid for r in a] == [r.uid for r in b]


# ---------------------------------------------------------------------------
# Optimizer end-to-end decisions
# ---------------------------------------------------------------------------


def test_optimizer_reorders_more_selective_filter_first(enron_bundle):
    llm = SimulatedLLM(oracle=SemanticOracle(enron_bundle.registry), seed=0)
    config = QueryProcessorConfig(llm=llm, policy=MaxQuality(), seed=0)
    dataset = (
        Dataset.from_source(enron_bundle.source())
        .sem_filter(en.FILTER_MENTIONS)     # ~34% selective
        .sem_filter(en.FILTER_FIRSTHAND)    # ~16% selective
    )
    _ops, report = Optimizer(config).optimize(dataset.plan())
    labels = [op.logical_op.label() for op in report.bound]
    order = [label for label in labels if "SemFilter" in label]
    assert "firsthand" in order[0]


def test_optimizer_respects_explicit_model(enron_bundle):
    llm = SimulatedLLM(oracle=SemanticOracle(enron_bundle.registry), seed=0)
    config = QueryProcessorConfig(llm=llm, policy=MinCost(), seed=0)
    dataset = Dataset.from_source(enron_bundle.source()).sem_filter(
        en.FILTER_RELEVANT, model="gpt-4o"
    )
    ops, report = Optimizer(config).optimize(dataset.plan())
    chosen = next(iter(report.chosen_models.values()))
    assert chosen == "gpt-4o"


def test_optimizer_disabled_binds_naively(enron_bundle):
    llm = SimulatedLLM(oracle=SemanticOracle(enron_bundle.registry), seed=0)
    config = QueryProcessorConfig(llm=llm, optimize=False, seed=0)
    dataset = Dataset.from_source(enron_bundle.source()).sem_filter(en.FILTER_RELEVANT)
    _ops, report = Optimizer(config).optimize(dataset.plan())
    assert not report.optimized
    assert llm.tracker.total().calls == 0  # no sampling spend


def test_optimizer_sampling_cost_accounted(enron_bundle):
    llm = SimulatedLLM(oracle=SemanticOracle(enron_bundle.registry), seed=0)
    config = QueryProcessorConfig(llm=llm, seed=0)
    dataset = Dataset.from_source(enron_bundle.source()).sem_filter(en.FILTER_RELEVANT)
    _ops, report = Optimizer(config).optimize(dataset.plan())
    assert report.sampling_cost_usd > 0
    assert report.sampling_cost_usd == pytest.approx(llm.tracker.total().cost_usd)


def test_py_filter_profiled_for_selectivity():
    schema = Schema([Field("i", int)])
    records = [DataRecord({"i": index}) for index in range(10)]
    llm = SimulatedLLM(seed=0)
    config = QueryProcessorConfig(llm=llm, seed=0)
    dataset = Dataset.from_records(records, schema).filter(
        lambda record: record["i"] < 3, description="small"
    )
    _ops, report = Optimizer(config).optimize(dataset.plan())
    # A token-free operator is its own only candidate: model None.
    (profile,) = report.profiles["PyFilter(small)"].values()
    assert profile.model is None
    assert profile.selectivity == pytest.approx(0.3)
    assert profile.cost_per_record == 0.0


# ---------------------------------------------------------------------------
# Structural guards: one bound plan, one replay, one driver loop
# ---------------------------------------------------------------------------


def test_report_has_no_position_aligned_side_tables():
    import dataclasses

    from repro.sem.materialize import CapturePlan
    from repro.sem.optimizer.optimizer import OptimizationReport

    # A ratchet: per-position plan facts live on ``report.bound``'s
    # operators, never in parallel lists on the report or the capture plan.
    assert len(dataclasses.fields(OptimizationReport)) <= 21
    assert "fingerprints" not in {f.name for f in dataclasses.fields(CapturePlan)}


def test_driver_loop_takes_no_replayed_prefix_seed():
    import inspect

    from repro.sem.execution import Engine

    # Whole-boundary replay is bound into the operators by the optimizer.
    assert list(inspect.signature(Engine.drive).parameters) == [
        "self", "operators", "step_at",
    ]


def test_replanner_permutes_without_the_optimizer():
    assert violations(RULE["replan-without-optimizer"]) == []
