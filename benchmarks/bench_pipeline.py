"""Pipelined vs barrier execution: makespan, cost, and quality per seed.

The engine fuses adjacent streamable operators into sections and charges
the critical-path makespan of the (batch, stage) grid, so a record batch
can be in the top-k stage while later batches are still being filtered.
The barrier row is not an engine mode: it is the reference interpreter
(``repro.qa.reference`` — operator-at-a-time, whole input, per-text
embeds).  Because the simulated LLM keys every answer on (seed, model,
intent, record), the two must produce *bit-identical* records at identical
cost — the entire win is virtual wall-clock time.

This bench runs the acceptance plan (filter -> map -> top-k rerank at
parallelism 8) both ways across seeds, asserts >= 1.5x speedup with
identical outputs, and emits ``BENCH_pipeline.json`` so future PRs can
track the perf trajectory.

Run standalone for a quick check::

    PYTHONPATH=src python benchmarks/bench_pipeline.py --smoke
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from conftest import RESULTS_DIR, save_report

from repro.data.datasets import enron as en
from repro.data.records import reset_uid_counter
from repro.data.schemas import Field
from repro.llm.oracle import SemanticOracle
from repro.llm.simulated import SimulatedLLM
from repro.qa.reference import ReferenceInterpreter
from repro.sem.config import QueryProcessorConfig
from repro.sem.dataset import Dataset
from repro.utils.formatting import format_table

SEEDS = (0, 1, 2)
PARALLELISM = 8
TOP_K = 10
MIN_SPEEDUP = 1.5
JSON_NAME = "BENCH_pipeline.json"


def _run(bundle, seed: int, pipeline: bool) -> dict:
    # Derived-record uids seed the simulated noise; reset the global
    # counter so both runs replay the identical uid sequence.
    reset_uid_counter()
    llm = SimulatedLLM(oracle=SemanticOracle(bundle.registry), seed=seed)
    dataset = (
        Dataset.from_source(bundle.source())
        .sem_filter(en.FILTER_MENTIONS)
        .sem_map(Field("summary", str), en.MAP_SUMMARY)
        .sem_topk("most relevant to suspicious deals", k=TOP_K, method="llm")
    )
    if pipeline:
        result = dataset.run(
            QueryProcessorConfig(
                llm=llm, optimize=False, parallelism=PARALLELISM, seed=seed
            )
        )
    else:
        result = ReferenceInterpreter(llm, parallelism=PARALLELISM).run(
            dataset.plan()
        )
    relevant = sum(
        1 for r in result.records if r.annotations.get(en.INTENT_RELEVANT)
    )
    return {
        "time_s": result.total_time_s,
        "cost_usd": result.total_cost_usd,
        "records": [(r.uid, dict(r.fields)) for r in result.records],
        "topk_precision": relevant / max(1, len(result.records)),
    }


def _sweep(bundle, seeds) -> dict:
    """seed -> {barrier, pipelined, speedup, identical}."""
    results = {}
    for seed in seeds:
        barrier = _run(bundle, seed, pipeline=False)
        pipelined = _run(bundle, seed, pipeline=True)
        results[seed] = {
            "barrier": barrier,
            "pipelined": pipelined,
            "speedup": barrier["time_s"] / pipelined["time_s"],
            "identical": barrier["records"] == pipelined["records"],
            "cost_delta_usd": abs(barrier["cost_usd"] - pipelined["cost_usd"]),
        }
    return results


def _render(results) -> str:
    headers = [
        "Seed",
        "Barrier (s)",
        "Pipelined (s)",
        "Speedup",
        "Cost ($)",
        "Top-k prec.",
        "Identical",
    ]
    rows = []
    for seed, entry in sorted(results.items()):
        rows.append(
            [
                str(seed),
                f"{entry['barrier']['time_s']:.1f}",
                f"{entry['pipelined']['time_s']:.1f}",
                f"{entry['speedup']:.2f}x",
                f"{entry['pipelined']['cost_usd']:.3f}",
                f"{entry['pipelined']['topk_precision']:.2f}",
                "yes" if entry["identical"] else "NO",
            ]
        )
    return format_table(
        headers,
        rows,
        title=(
            "Pipelined vs barrier execution "
            f"(filter->map->top-{TOP_K}, parallelism {PARALLELISM})"
        ),
    )


def _check_contract(results) -> None:
    for seed, entry in results.items():
        assert entry["identical"], (
            f"seed {seed}: pipelined records differ from barrier records"
        )
        assert entry["cost_delta_usd"] <= 1e-9, (
            f"seed {seed}: cost diverged by {entry['cost_delta_usd']:.2e}"
        )
        assert entry["speedup"] >= MIN_SPEEDUP, (
            f"seed {seed}: speedup {entry['speedup']:.2f}x "
            f"below the {MIN_SPEEDUP}x floor"
        )


def _save_json(results_dir: Path, results) -> None:
    payload = {
        "plan": f"enron filter->map->top-{TOP_K} (llm rerank)",
        "parallelism": PARALLELISM,
        "min_speedup": MIN_SPEEDUP,
        "seeds": {
            str(seed): {
                "barrier": {
                    "time_s": entry["barrier"]["time_s"],
                    "cost_usd": entry["barrier"]["cost_usd"],
                    "topk_precision": entry["barrier"]["topk_precision"],
                },
                "pipelined": {
                    "time_s": entry["pipelined"]["time_s"],
                    "cost_usd": entry["pipelined"]["cost_usd"],
                    "topk_precision": entry["pipelined"]["topk_precision"],
                },
                "speedup": entry["speedup"],
                "identical_records": entry["identical"],
            }
            for seed, entry in results.items()
        },
    }
    path = results_dir / JSON_NAME
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def bench_pipeline(benchmark, enron_bundle, results_dir):
    results = benchmark.pedantic(
        _sweep, args=(enron_bundle, SEEDS), rounds=1, iterations=1
    )
    report = _render(results)
    save_report(results_dir, "pipeline", report)
    _save_json(results_dir, results)
    benchmark.extra_info["measured"] = {
        str(seed): {
            "speedup": entry["speedup"],
            "barrier_s": entry["barrier"]["time_s"],
            "pipelined_s": entry["pipelined"]["time_s"],
        }
        for seed, entry in results.items()
    }
    _check_contract(results)


def main(argv: list[str]) -> int:
    unknown = [arg for arg in argv if arg != "--smoke"]
    if unknown:
        print(f"usage: bench_pipeline.py [--smoke]  (unknown: {unknown})")
        return 2
    smoke = "--smoke" in argv
    from repro.data.datasets import generate_enron_corpus

    bundle = generate_enron_corpus()
    seeds = SEEDS[:1] if smoke else SEEDS
    results = _sweep(bundle, seeds)
    print(_render(results))
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    _save_json(RESULTS_DIR, results)
    _check_contract(results)
    worst = min(entry["speedup"] for entry in results.values())
    print(
        f"\npipelined execution is >= {worst:.2f}x faster than the barrier "
        f"reference with bit-identical records and cost — contract holds"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
