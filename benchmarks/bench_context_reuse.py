"""Context & sub-plan reuse (paper §2.4 + §3 physical optimization).

Two layers of reuse are measured:

1. **Agent-level Context reuse** (the original ablation): two related
   queries; with the ContextManager enabled the second query's semantic
   program runs over the Context materialized by the first query instead
   of the full lake.
2. **Sub-plan materialization** (the runtime-wide layer): the same plan
   run cold then warm against a shared
   :class:`~repro.sem.materialize.MaterializationStore` (repeated-query
   scenario), and a plan re-run after records were appended to its source
   (incremental-append scenario, where only the delta flows through the
   reused prefix).  Every run uses a *fresh* simulated substrate with the
   same seed, so the generation cache cannot leak answers between runs —
   any saving is attributable to the materialization layer alone.

Emits ``BENCH_context_reuse.json`` with cold/warm/incremental cost and
virtual-latency ratios plus bit-identity flags.  Contract: >= 2x cost
reduction for the repeated query, >= 1.5x for the incremental append,
records bit-identical in both scenarios.

Run standalone for a quick check::

    PYTHONPATH=src python benchmarks/bench_context_reuse.py --smoke
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from conftest import RESULTS_DIR, save_report

from repro.core.program_tool import build_program_tool
from repro.core.runtime import AnalyticsRuntime
from repro.data.datasets import enron as en
from repro.data.schemas import Field
from repro.llm.models import DEFAULT_MODEL
from repro.llm.oracle import SemanticOracle
from repro.llm.simulated import SimulatedLLM
from repro.sem.config import QueryProcessorConfig
from repro.sem.dataset import Dataset
from repro.sem.materialize import MaterializationStore
from repro.utils.formatting import format_table

FIRST = (
    "Find the files which report national identity theft statistics for "
    "the year 2001 and extract the number of identity theft reports in "
    "the year 2001."
)
SECOND = (
    "Find the files which report national identity theft statistics for "
    "the year 2024 and extract the number of identity theft reports in "
    "the year 2024."
)
SEED = 515151

#: Seeds for the materialization sweep (smoke mode runs the first only).
MAT_SEEDS = (7, 8, 9)
#: Records in the v1 source; the rest of the corpus is the appended delta.
APPEND_BASE = 200
MIN_REPEAT_RATIO = 2.0
MIN_APPEND_RATIO = 1.5
JSON_NAME = "BENCH_context_reuse.json"


# ----------------------------------------------------------------------
# Agent-level Context reuse (original ablation)
# ----------------------------------------------------------------------


def _run_agent_ablation(legal_bundle, reuse: bool) -> dict:
    runtime = AnalyticsRuntime.for_bundle(legal_bundle, seed=SEED, reuse_contexts=reuse)
    context = runtime.make_context(legal_bundle)
    tool = build_program_tool(context, runtime)
    tool(FIRST)
    first_cost = runtime.usage().cost_usd
    first_time = runtime.elapsed_s
    second = tool(SECOND)
    return {
        "reuse": reuse,
        "first_cost": first_cost,
        "second_cost": runtime.usage().cost_usd - first_cost,
        "second_time": runtime.elapsed_s - first_time,
        "second_records": len(second),
        "cache_hits": sum(entry.hits for entry in runtime.context_manager.entries()),
    }


# ----------------------------------------------------------------------
# Sub-plan materialization sweep
# ----------------------------------------------------------------------


def _plan(records, schema) -> Dataset:
    return (
        Dataset.from_records(records, schema, source_id="enron")
        .sem_filter(en.FILTER_MENTIONS)
        .sem_filter(en.FILTER_FIRSTHAND)
        .sem_map(Field("summary", str), en.MAP_SUMMARY)
    )


def _run_materialized(bundle, records, store, seed: int) -> dict:
    """One end-to-end run with a fresh substrate against a shared store.

    The optimizer is on (filter reordering exercises fingerprint
    canonicalization; sampling keeps the warm spend non-zero so ratios
    stay finite) but the only candidate model is the champion, pinning every
    operator so cold and warm runs answer identically by construction.
    """
    llm = SimulatedLLM(oracle=SemanticOracle(bundle.registry), seed=seed)
    config = QueryProcessorConfig(
        llm=llm,
        seed=seed,
        optimize=True,
        available_models=[DEFAULT_MODEL],
        materialization_store=store,
        tag="bench-reuse",
    )
    result, report = _plan(records, bundle.schema).run_with_report(config)
    return {
        "cost_usd": llm.tracker.total().cost_usd,
        "time_s": llm.clock.elapsed,
        "records": [(r.uid, tuple(sorted(r.fields.items()))) for r in result.records],
        "reused_prefix": report.reused_prefix,
        "reuse_kind": report.reuse_kind,
    }


def _scenario(cold: dict, warm: dict, floor: float) -> dict:
    return {
        "cold_cost_usd": cold["cost_usd"],
        "warm_cost_usd": warm["cost_usd"],
        "cold_time_s": cold["time_s"],
        "warm_time_s": warm["time_s"],
        "cost_ratio": cold["cost_usd"] / max(warm["cost_usd"], 1e-12),
        "time_ratio": cold["time_s"] / max(warm["time_s"], 1e-12),
        "identical_records": cold["records"] == warm["records"],
        "records": len(warm["records"]),
        "reused_prefix": warm["reused_prefix"],
        "reuse_kind": warm["reuse_kind"],
        "min_cost_ratio": floor,
    }


def _sweep_materialization(bundle, seeds) -> dict:
    """seed -> {repeated_query, incremental_append} scenario dicts."""
    all_records = bundle.records()
    results = {}
    for seed in seeds:
        # Repeated query: identical plan, shared store, fresh substrate.
        store = MaterializationStore()
        cold = _run_materialized(bundle, all_records, store, seed)
        warm = _run_materialized(bundle, all_records, store, seed)
        repeated = _scenario(cold, warm, MIN_REPEAT_RATIO)

        # Incremental append: prime on v1, append, re-run on v2.  The warm
        # run pushes only the appended records through the reused prefix;
        # the cold baseline recomputes v2 against an empty store.
        v1, v2 = all_records[:APPEND_BASE], all_records
        append_store = MaterializationStore()
        _run_materialized(bundle, v1, append_store, seed)
        warm_v2 = _run_materialized(bundle, v2, append_store, seed)
        cold_v2 = _run_materialized(bundle, v2, MaterializationStore(), seed)
        incremental = _scenario(cold_v2, warm_v2, MIN_APPEND_RATIO)
        incremental["delta_records"] = len(v2) - len(v1)

        results[seed] = {
            "repeated_query": repeated,
            "incremental_append": incremental,
            "store": store.stats(),
        }
    return results


def _render_materialization(results) -> str:
    headers = [
        "Seed", "Scenario", "Cold ($)", "Warm ($)", "Cost ratio",
        "Time ratio", "Prefix", "Kind", "Identical",
    ]
    rows = []
    for seed, entry in sorted(results.items()):
        for label in ("repeated_query", "incremental_append"):
            scenario = entry[label]
            rows.append(
                [
                    str(seed),
                    label.replace("_", "-"),
                    f"{scenario['cold_cost_usd']:.4f}",
                    f"{scenario['warm_cost_usd']:.4f}",
                    f"{scenario['cost_ratio']:.2f}x",
                    f"{scenario['time_ratio']:.2f}x",
                    str(scenario["reused_prefix"]),
                    scenario["reuse_kind"] or "-",
                    "yes" if scenario["identical_records"] else "NO",
                ]
            )
    return format_table(
        headers,
        rows,
        title="Sub-plan materialization (cold vs warm vs incremental append)",
    )


def _check_contract(results) -> None:
    for seed, entry in results.items():
        for label in ("repeated_query", "incremental_append"):
            scenario = entry[label]
            assert scenario["identical_records"], (
                f"seed {seed} {label}: warm records differ from cold"
            )
            assert scenario["reused_prefix"] > 0, (
                f"seed {seed} {label}: warm run reused nothing"
            )
            assert scenario["cost_ratio"] >= scenario["min_cost_ratio"], (
                f"seed {seed} {label}: cost ratio {scenario['cost_ratio']:.2f}x "
                f"below the {scenario['min_cost_ratio']}x floor"
            )


def _save_json(results_dir: Path, results, agent: dict | None = None) -> None:
    payload = {
        "plan": "enron filter->filter->map (optimizer on, models pinned)",
        "append_base": APPEND_BASE,
        "min_repeat_ratio": MIN_REPEAT_RATIO,
        "min_append_ratio": MIN_APPEND_RATIO,
        "seeds": {str(seed): entry for seed, entry in results.items()},
    }
    if agent is not None:
        payload["agent_context_reuse"] = agent
    path = results_dir / JSON_NAME
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------


def bench_context_reuse(benchmark, legal_bundle, enron_bundle, results_dir):
    def _full():
        off = _run_agent_ablation(legal_bundle, False)
        on = _run_agent_ablation(legal_bundle, True)
        sweep = _sweep_materialization(enron_bundle, MAT_SEEDS)
        return off, on, sweep

    off, on, sweep = benchmark.pedantic(_full, rounds=1, iterations=1)
    rows = [
        ["off", f"{off['second_cost']:.4f}", f"{off['second_time']:.1f}", off["second_records"], off["cache_hits"]],
        ["on", f"{on['second_cost']:.4f}", f"{on['second_time']:.1f}", on["second_records"], on["cache_hits"]],
    ]
    report = format_table(
        ["Reuse", "2nd-query cost ($)", "2nd-query time (s)", "records", "cache hits"],
        rows,
        title="Context reuse ablation (second of two related queries)",
    )
    saving = 1 - on["second_cost"] / off["second_cost"]
    report += f"\n\nmarginal cost saving from reuse: {saving * 100:.1f}%"
    report += "\n\n" + _render_materialization(sweep)
    save_report(results_dir, "context_reuse", report)
    agent = {"off": off, "on": on, "saving": saving}
    _save_json(results_dir, sweep, agent=agent)
    benchmark.extra_info["measured"] = {"agent": agent, "materialization": sweep}

    assert on["cache_hits"] >= 1, "reuse run must hit the context cache"
    assert on["second_cost"] < 0.5 * off["second_cost"]
    assert on["second_time"] < off["second_time"]
    _check_contract(sweep)


def main(argv: list[str]) -> int:
    unknown = [arg for arg in argv if arg != "--smoke"]
    if unknown:
        print(f"usage: bench_context_reuse.py [--smoke]  (unknown: {unknown})")
        return 2
    smoke = "--smoke" in argv
    from repro.data.datasets import generate_enron_corpus

    bundle = generate_enron_corpus()
    seeds = MAT_SEEDS[:1] if smoke else MAT_SEEDS
    results = _sweep_materialization(bundle, seeds)
    print(_render_materialization(results))
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    _save_json(RESULTS_DIR, results)
    _check_contract(results)
    worst_repeat = min(e["repeated_query"]["cost_ratio"] for e in results.values())
    worst_append = min(e["incremental_append"]["cost_ratio"] for e in results.values())
    print(
        f"\nmaterialization reuse cuts repeated-query cost >= "
        f"{worst_repeat:.2f}x and incremental-append cost >= "
        f"{worst_append:.2f}x with bit-identical records — contract holds"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
