"""SQL pushdown vs plan order: records pruned before the first LLM call.

The optimizer's pushdown pass hoists structured predicates across
commuting semantic filters, compiles the scan-adjacent structured prefix
to ``repro.sql``, and runs it *before* any LLM operator.  Because the
structured engine is token-free, every record it prunes is an LLM call
(and its simulated latency) that never happens — the paper's argument for
hybrid structured/semantic plans in one sentence.

This bench runs a filter -> where -> map plan over the QA ticket corpus
against the same plan with the predicate written as an opaque Python
``.filter(lambda ...)`` — which the optimizer can neither hoist nor
compile, so it runs in plan order: the ``off`` row, with no flag
involved — and asserts >= 3x fewer records reach the first
LLM operator and a >= 1.5x end-to-end cost *and* latency win with
bit-identical records either way, and emits ``BENCH_pushdown.json``.

Run standalone for a quick check::

    PYTHONPATH=src python benchmarks/bench_pushdown.py --smoke
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from conftest import RESULTS_DIR, save_report

from repro.data.records import reset_uid_counter
from repro.data.schemas import Field
from repro.llm.oracle import SemanticOracle
from repro.llm.simulated import SimulatedLLM
from repro.qa.corpus import CorpusSpec, build_corpus, instruction_for
from repro.sem.config import QueryProcessorConfig
from repro.sem.dataset import Dataset
from repro.utils.formatting import format_table

SEEDS = (0, 1, 2)
N_RECORDS = 60
PARALLELISM = 4
WHERE = "priority = 4"
MIN_PRUNE_RATIO = 3.0
MIN_COST_RATIO = 1.5
MIN_SPEEDUP = 1.5
JSON_NAME = "BENCH_pushdown.json"

#: (variant name, predicate written as a structured ``where``).
VARIANTS = (("off", False), ("on", True))


def _run(bundle, seed: int, structured: bool) -> dict:
    # Derived-record uids seed the simulated noise; reset the global
    # counter so every variant replays the identical uid sequence.
    reset_uid_counter()
    llm = SimulatedLLM(oracle=SemanticOracle(bundle.registry), seed=seed)
    config = QueryProcessorConfig(
        llm=llm, optimize=False, parallelism=PARALLELISM, seed=seed
    )
    # Written order puts the semantic filter first: behind an opaque
    # predicate every record is billed through it; the structured WHERE is
    # hoisted and prunes structurally-irrelevant records for free.
    filtered = Dataset.from_source(bundle.source()).sem_filter(
        instruction_for("qa.flag_urgent")
    )
    if structured:
        filtered = filtered.where(WHERE)
    else:
        filtered = filtered.filter(lambda r: r.fields.get("priority") == 4)
    result = filtered.sem_map(
        Field("amount", float, "extracted amount"), instruction_for("qa.amount")
    ).run(config)
    first_llm_in = next(
        (stats.records_in for stats in result.operator_stats if stats.llm_calls),
        0,
    )
    return {
        "time_s": result.total_time_s,
        "cost_usd": result.total_cost_usd,
        "first_llm_records": first_llm_in,
        "records": [(r.uid, tuple(sorted(r.fields.items()))) for r in result.records],
    }


def _sweep(seeds) -> dict:
    """seed -> {variants, prune_ratio, cost_ratio, speedup, identical}."""
    results = {}
    for seed in seeds:
        bundle = build_corpus(CorpusSpec(seed=seed, n_records=N_RECORDS))
        variants = {
            name: _run(bundle, seed, structured) for name, structured in VARIANTS
        }
        off, on = variants["off"], variants["on"]
        reference = off["records"]
        results[seed] = {
            "variants": variants,
            "prune_ratio": off["first_llm_records"] / max(1, on["first_llm_records"]),
            "cost_ratio": off["cost_usd"] / max(1e-12, on["cost_usd"]),
            "speedup": off["time_s"] / max(1e-12, on["time_s"]),
            "identical": all(
                entry["records"] == reference for entry in variants.values()
            ),
        }
    return results


def _render(results) -> str:
    headers = [
        "Seed",
        "LLM rows off",
        "LLM rows on",
        "Prune",
        "Cost off ($)",
        "Cost on ($)",
        "Cost ratio",
        "Speedup",
        "Identical",
    ]
    rows = []
    for seed, entry in sorted(results.items()):
        off = entry["variants"]["off"]
        on = entry["variants"]["on"]
        rows.append(
            [
                str(seed),
                str(off["first_llm_records"]),
                str(on["first_llm_records"]),
                f"{entry['prune_ratio']:.2f}x",
                f"{off['cost_usd']:.4f}",
                f"{on['cost_usd']:.4f}",
                f"{entry['cost_ratio']:.2f}x",
                f"{entry['speedup']:.2f}x",
                "yes" if entry["identical"] else "NO",
            ]
        )
    return format_table(
        headers,
        rows,
        title=(
            f"SQL pushdown (filter->where[{WHERE}]->map, "
            f"{N_RECORDS} records, parallelism {PARALLELISM})"
        ),
    )


def _check_contract(results) -> None:
    for seed, entry in results.items():
        assert entry["identical"], (
            f"seed {seed}: pushdown variants disagree on records"
        )
        assert entry["prune_ratio"] >= MIN_PRUNE_RATIO, (
            f"seed {seed}: prune ratio {entry['prune_ratio']:.2f}x "
            f"below the {MIN_PRUNE_RATIO}x floor"
        )
        assert entry["cost_ratio"] >= MIN_COST_RATIO, (
            f"seed {seed}: cost ratio {entry['cost_ratio']:.2f}x "
            f"below the {MIN_COST_RATIO}x floor"
        )
        assert entry["speedup"] >= MIN_SPEEDUP, (
            f"seed {seed}: speedup {entry['speedup']:.2f}x "
            f"below the {MIN_SPEEDUP}x floor"
        )


def _save_json(results_dir: Path, results) -> None:
    payload = {
        "plan": f"qa sem_filter->where[{WHERE}]->sem_map(amount)",
        "n_records": N_RECORDS,
        "parallelism": PARALLELISM,
        "min_prune_ratio": MIN_PRUNE_RATIO,
        "min_cost_ratio": MIN_COST_RATIO,
        "min_speedup": MIN_SPEEDUP,
        "seeds": {
            str(seed): {
                "variants": {
                    name: {
                        "time_s": variant["time_s"],
                        "cost_usd": variant["cost_usd"],
                        "first_llm_records": variant["first_llm_records"],
                    }
                    for name, variant in entry["variants"].items()
                },
                "prune_ratio": entry["prune_ratio"],
                "cost_ratio": entry["cost_ratio"],
                "speedup": entry["speedup"],
                "identical_records": entry["identical"],
            }
            for seed, entry in results.items()
        },
    }
    path = results_dir / JSON_NAME
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def bench_pushdown(benchmark, results_dir):
    results = benchmark.pedantic(_sweep, args=(SEEDS,), rounds=1, iterations=1)
    report = _render(results)
    save_report(results_dir, "pushdown", report)
    _save_json(results_dir, results)
    benchmark.extra_info["measured"] = {
        str(seed): {
            "prune_ratio": entry["prune_ratio"],
            "cost_ratio": entry["cost_ratio"],
            "speedup": entry["speedup"],
        }
        for seed, entry in results.items()
    }
    _check_contract(results)


def main(argv: list[str]) -> int:
    unknown = [arg for arg in argv if arg != "--smoke"]
    if unknown:
        print(f"usage: bench_pushdown.py [--smoke]  (unknown: {unknown})")
        return 2
    smoke = "--smoke" in argv
    seeds = SEEDS[:1] if smoke else SEEDS
    results = _sweep(seeds)
    print(_render(results))
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    _save_json(RESULTS_DIR, results)
    _check_contract(results)
    worst = min(entry["prune_ratio"] for entry in results.values())
    print(
        f"\npushdown prunes >= {worst:.2f}x of the records before the first "
        f"LLM operator with bit-identical results either way — contract holds"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
