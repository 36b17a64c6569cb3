"""Study: extraction quality per field per model tier.

The Enron query also asks for sender/subject/summary extraction, which the
paper's evaluation simplifies away ("to simplify our evaluation we simply
compute the precision, recall, and F1-score of the emails returned").
This bench measures the part the paper skipped: per-field extraction
accuracy across model tiers on the gold-relevant emails, which is the
signal the optimizer's map-operator model selection trades against cost.
"""

from __future__ import annotations

from conftest import save_report

from repro.data.datasets import enron as en
from repro.llm.models import completion_models_by_cost
from repro.llm.oracle import SemanticOracle
from repro.llm.simulated import SimulatedLLM
from repro.utils.formatting import format_table

SEED = 151515

FIELDS = (
    ("sender", en.MAP_SENDER),
    ("subject", en.MAP_SUBJECT),
    ("summary", en.MAP_SUMMARY),
)


def _run(bundle, model: str) -> dict:
    gold = set(bundle.ground_truth["relevant_filenames"])
    records = [record for record in bundle.records() if record["filename"] in gold]
    oracle = SemanticOracle(bundle.registry)
    llm = SimulatedLLM(oracle=oracle, seed=SEED)
    accuracy = {}
    for field_name, instruction in FIELDS:
        correct = 0
        for record in records:
            extraction = llm.extract(instruction, record, model=model)
            # Gold: the oracle's ground truth for the same instruction.
            if extraction.value == oracle.extract_value(instruction, record).truth:
                correct += 1
        accuracy[field_name] = correct / len(records)
    return {
        "accuracy": accuracy,
        "cost": llm.tracker.total().cost_usd,
    }


def bench_extraction_quality(benchmark, enron_bundle, results_dir):
    models = [card.name for card in completion_models_by_cost()]
    results = benchmark.pedantic(
        lambda: {model: _run(enron_bundle, model) for model in models},
        rounds=1,
        iterations=1,
    )
    rows = [
        [
            model,
            f"{r['accuracy']['sender'] * 100:.1f}%",
            f"{r['accuracy']['subject'] * 100:.1f}%",
            f"{r['accuracy']['summary'] * 100:.1f}%",
            f"{r['cost']:.4f}",
        ]
        for model, r in results.items()
    ]
    report = format_table(
        ["Model", "Sender acc.", "Subject acc.", "Summary acc.", "Cost ($)"],
        rows,
        title="Extraction accuracy on the 39 gold-relevant Enron emails",
    )
    save_report(results_dir, "extraction_quality", report)
    benchmark.extra_info["measured"] = results

    cheap, champion = models[0], models[-1]
    for field_name, _ in FIELDS:
        assert (
            results[champion]["accuracy"][field_name]
            >= results[cheap]["accuracy"][field_name]
        )
    # Trivial fields (sender/subject) are near-perfect even on the cheap
    # tier — which is why downgrading maps is usually safe for the
    # optimizer — while free-form summaries separate the tiers.
    assert results[cheap]["accuracy"]["sender"] > 0.95
    assert results[champion]["accuracy"]["summary"] >= 0.9
    assert results[cheap]["cost"] < results[champion]["cost"]