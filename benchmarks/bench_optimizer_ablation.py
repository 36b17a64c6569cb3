"""Ablation: what each optimizer feature buys on the Enron program.

Runs the two-filter + three-extraction Enron program under four optimizer
configurations and reports quality/cost/time:

- naive: no optimization (written order, champion model everywhere);
- reorder-only: filter reordering by sampled cost/selectivity;
- models-only: policy-driven model selection, written order;
- full: both.

This isolates where ``PZ compute``'s Table-2 savings come from.
"""

from __future__ import annotations

from conftest import save_report

from repro.bench.metrics import set_metrics
from repro.data.datasets import enron as en
from repro.data.schemas import Field
from repro.llm.models import DEFAULT_MODEL
from repro.llm.oracle import SemanticOracle
from repro.llm.simulated import SimulatedLLM
from repro.sem.config import QueryProcessorConfig
from repro.sem.dataset import Dataset
from repro.sem.optimizer.policies import Balanced
from repro.utils.formatting import format_table

SEED = 616161


def _program(bundle) -> Dataset:
    return (
        Dataset.from_source(bundle.source())
        .sem_filter(en.FILTER_MENTIONS)
        .sem_filter(en.FILTER_FIRSTHAND)
        .sem_map(
            [
                (Field("summary", str, "summary"), en.MAP_SUMMARY),
                (Field("x_sender", str, "sender"), en.MAP_SENDER),
            ]
        )
    )


def _run(bundle, optimize: bool, reorder: bool, select_models: bool) -> dict:
    llm = SimulatedLLM(oracle=SemanticOracle(bundle.registry), seed=SEED)
    config = QueryProcessorConfig(
        llm=llm,
        policy=Balanced(quality_floor=0.95),
        optimize=optimize,
        reorder_filters=reorder,
        available_models=None if select_models else [DEFAULT_MODEL],
        seed=SEED,
    )
    result = _program(bundle).run(config)
    metrics = set_metrics(
        bundle.ground_truth["relevant_filenames"],
        [record.get("filename") for record in result.records],
    )
    return {
        "f1": metrics.f1,
        "cost": llm.tracker.total().cost_usd,
        "time": llm.clock.elapsed,
    }


def bench_optimizer_ablation(benchmark, enron_bundle, results_dir):
    def run_all():
        return {
            "naive": _run(enron_bundle, optimize=False, reorder=False, select_models=False),
            "reorder-only": _run(enron_bundle, optimize=True, reorder=True, select_models=False),
            "models-only": _run(enron_bundle, optimize=True, reorder=False, select_models=True),
            "full": _run(enron_bundle, optimize=True, reorder=True, select_models=True),
        }

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [
        [name, f"{r['f1'] * 100:.2f}%", f"{r['cost']:.3f}", f"{r['time']:.1f}"]
        for name, r in results.items()
    ]
    report = format_table(
        ["Configuration", "F1", "Cost ($)", "Time (s)"],
        rows,
        title="Optimizer ablation on the Enron program",
    )
    save_report(results_dir, "optimizer_ablation", report)
    benchmark.extra_info["measured"] = results

    assert results["reorder-only"]["cost"] < results["naive"]["cost"]
    assert results["models-only"]["cost"] < results["naive"]["cost"]
    assert results["full"]["cost"] < results["reorder-only"]["cost"]
    assert results["full"]["f1"] > 0.85
    # Quality stays within a few points of the unoptimized champion plan.
    assert abs(results["full"]["f1"] - results["naive"]["f1"]) < 0.10
