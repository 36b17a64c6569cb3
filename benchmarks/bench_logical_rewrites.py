"""Ablation: §3 logical optimizations (split, merge, dynamic search).

Three mini-experiments:

1. **Split**: a compound predicate run as a single muddled filter vs.
   split into two sequential filters (DocETL-style rewrite) — the split
   plan recovers precision the compound filter loses.
2. **Merge**: a batch of four compute instructions containing
   near-duplicates executes only the unique ones.
3. **Recovery**: a phrasing the compute planner cannot handle directly
   fails validation, triggering dynamic search insertion + retry.
"""

from __future__ import annotations

from conftest import save_report

from repro.bench.metrics import set_metrics
from repro.core.program_tool import build_program_tool
from repro.core.rewrites import compute_with_recovery, split_instruction
from repro.core.runtime import AnalyticsRuntime
from repro.data.datasets import enron as en
from repro.data.datasets import kramabench as kb
from repro.utils.formatting import format_table

SEED = 818181

#: A compound directive: as one filter it resolves only to the dominant
#: (mentions) predicate; split, it applies both predicates.
COMPOUND = (
    "The email mentions one or more of the specific business transactions. "
    "The email contains firsthand discussion of the business transactions, "
    "not forwarded news or third-party reports."
)


def _split_experiment(enron_bundle) -> dict:
    gold = enron_bundle.ground_truth["relevant_filenames"]

    def run(instructions: list[str]) -> dict:
        runtime = AnalyticsRuntime.for_bundle(enron_bundle, seed=SEED)
        context = runtime.make_context(enron_bundle)
        tool = build_program_tool(context, runtime)
        keys = None
        for instruction in instructions:
            rows = tool(f"Return all emails which satisfy: {instruction}")
            returned = {row["filename"] for row in rows}
            keys = returned if keys is None else keys & returned
        metrics = set_metrics(gold, keys or set())
        return {"f1": metrics.f1, "precision": metrics.precision,
                "recall": metrics.recall, "cost": runtime.usage().cost_usd}

    unsplit = run([COMPOUND])
    split = run(split_instruction(COMPOUND))
    return {"unsplit": unsplit, "split": split}


def _merge_experiment(legal_bundle) -> dict:
    instructions = [
        "Compute the ratio between the number of identity theft reports in "
        "the year 2024 and the number of identity theft reports in the year 2001.",
        "Compute the ratio between the number of identity theft reports in "
        "the year 2024 and the number of identity theft reports in the year "
        "2001, please.",
        "Compute the ratio between the number of identity theft reports in "
        "the year 2024 and the number of identity theft reports in the year 2001.",
    ]

    runtime = AnalyticsRuntime.for_bundle(legal_bundle, seed=SEED)
    context = runtime.make_context(legal_bundle)
    merged_results = [
        runtime.answer(context, instruction) for instruction in instructions
    ]
    merged_cost = runtime.usage().cost_usd

    runtime2 = AnalyticsRuntime.for_bundle(legal_bundle, seed=SEED)
    context2 = runtime2.make_context(legal_bundle)
    for instruction in instructions:
        runtime2.compute(context2, instruction)
    unmerged_cost = runtime2.usage().cost_usd

    answers_agree = len({round((r.answer or {}).get("ratio", -1), 6) for r in merged_results}) == 1
    return {
        "merged_cost": merged_cost,
        "unmerged_cost": unmerged_cost,
        "answers_agree": answers_agree,
    }


def _recovery_experiment(legal_bundle) -> dict:
    runtime = AnalyticsRuntime.for_bundle(legal_bundle, seed=SEED)
    context = runtime.make_context(legal_bundle)
    awkward = (
        "Determine how many times larger the count of identity theft "
        "reports was in 2024 compared to 2001."
    )
    result, recovered = compute_with_recovery(
        context,
        awkward,
        runtime,
        is_valid=lambda answer: isinstance(answer, dict) and "ratio" in answer,
    )
    return {
        "recovered": recovered,
        "has_ratio": isinstance(result.answer, dict) and "ratio" in result.answer,
    }


def bench_logical_rewrites(benchmark, enron_bundle, legal_bundle, results_dir):
    def run_all():
        return (
            _split_experiment(enron_bundle),
            _merge_experiment(legal_bundle),
            _recovery_experiment(legal_bundle),
        )

    split_res, merge_res, recovery_res = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = [
        ["unsplit filter", f"{split_res['unsplit']['f1'] * 100:.2f}%",
         f"{split_res['unsplit']['precision'] * 100:.1f}%",
         f"{split_res['unsplit']['cost']:.3f}"],
        ["split filters", f"{split_res['split']['f1'] * 100:.2f}%",
         f"{split_res['split']['precision'] * 100:.1f}%",
         f"{split_res['split']['cost']:.3f}"],
    ]
    report = format_table(
        ["Plan", "F1", "Precision", "Cost ($)"],
        rows,
        title="Split rewrite on a compound Enron predicate",
    )
    report += (
        f"\n\nMerge: 3 compute calls (2 duplicates) cost "
        f"${merge_res['merged_cost']:.3f} merged vs "
        f"${merge_res['unmerged_cost']:.3f} unmerged; answers agree: "
        f"{merge_res['answers_agree']}"
        f"\nRecovery: dynamic search inserted: {recovery_res['recovered']}; "
        f"retry produced a ratio: {recovery_res['has_ratio']}"
    )
    save_report(results_dir, "logical_rewrites", report)
    benchmark.extra_info["measured"] = {
        "split": split_res, "merge": merge_res, "recovery": recovery_res
    }

    assert split_res["split"]["precision"] > split_res["unsplit"]["precision"]
    assert split_res["split"]["f1"] > split_res["unsplit"]["f1"]
    assert merge_res["merged_cost"] < 0.6 * merge_res["unmerged_cost"]
    assert merge_res["answers_agree"]
    assert recovery_res["recovered"] and recovery_res["has_ratio"]
