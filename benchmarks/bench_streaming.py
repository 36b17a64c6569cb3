"""Standing queries: incremental view maintenance vs per-tick recompute.

A standing query (``repro.sem.streaming``) keeps a registered plan's result
live as its source receives appends: each refresh tick replays the
fingerprinted delta-safe prefix from the materialization store and runs
only the appended records through it, then emits an insert/retract
changelog against the previous view.  The naive alternative re-runs the
full plan from scratch after every append batch.

One case, swept over seeds: a filter/map-heavy enron plan (two semantic
filters + a summary map, delta-safe end to end) over a base of
``BASE_RECORDS`` emails, then ``N_TICKS`` append batches of
``DELTA_RECORDS`` each.  Contracts:

- **>= 5x cost reduction**: cumulative refresh spend across the append
  ticks at least ``MIN_COST_REDUCTION``x below the cumulative spend of
  per-tick full recomputes (both sides pay the identical initial run).
- **bit-identical at every tick**: the standing view equals a from-scratch
  run over the same records, uid for uid, field for field — and the
  changelog folded from empty reproduces the view exactly, every tick.
- **update convergence**: an in-place source rewrite is a delta too — the
  next tick replays the materialized prefix and re-runs only the rewritten
  record through it (``reuse_kind == "delta"``, ``delta_records == 1``),
  merged back by source position — and the view converges to the
  from-scratch result again, its changelog fold included.

Run standalone for a quick check::

    PYTHONPATH=src python benchmarks/bench_streaming.py --smoke
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from conftest import RESULTS_DIR, save_report

from repro.data.datasets import generate_enron_corpus
from repro.data.datasets import enron as en
from repro.data.schemas import Field
from repro.data.sources import MemorySource
from repro.llm.oracle import SemanticOracle
from repro.llm.simulated import SimulatedLLM
from repro.sem.config import QueryProcessorConfig
from repro.sem.dataset import Dataset
from repro.sem.materialize import MaterializationStore
from repro.sem.streaming import RefreshPolicy, StandingQueryManager, fold_changelog
from repro.utils.formatting import format_table

SEEDS = (0, 1, 2)
BASE_RECORDS = 32
DELTA_RECORDS = 4
N_TICKS = 8
MIN_COST_REDUCTION = 5.0
JSON_NAME = "BENCH_streaming.json"


def _plan(source: MemorySource) -> Dataset:
    return (
        Dataset.from_source(source)
        .sem_filter(en.FILTER_MENTIONS)
        .sem_filter(en.FILTER_FIRSTHAND)
        .sem_map(Field("summary", str, "one-sentence summary"), en.MAP_SUMMARY)
    )


def _normalized(records) -> list:
    return [(r.uid, tuple(sorted(r.fields.items()))) for r in records]


def _full_run(bundle, records, seed: int) -> dict:
    """From-scratch reference: fresh substrate, no store, full plan."""
    source = MemorySource(list(records), schema=bundle.schema, source_id="enron")
    llm = SimulatedLLM(oracle=SemanticOracle(bundle.registry), seed=seed)
    config = QueryProcessorConfig(
        llm=llm, optimize=False, seed=seed, tag="scratch"
    )
    result = _plan(source).run(config)
    return {
        "records": _normalized(result.records),
        "cost_usd": result.total_cost_usd,
        "time_s": result.total_time_s,
    }


def _run_seed(bundle, seed: int) -> dict:
    records = bundle.records()
    needed = BASE_RECORDS + N_TICKS * DELTA_RECORDS
    assert len(records) >= needed, (
        f"enron corpus too small: {len(records)} < {needed}"
    )
    base = records[:BASE_RECORDS]
    deltas = [
        records[BASE_RECORDS + tick * DELTA_RECORDS :
                BASE_RECORDS + (tick + 1) * DELTA_RECORDS]
        for tick in range(N_TICKS)
    ]

    # Standing side: one shared substrate + materialization store; each
    # append batch triggers one incremental refresh tick.
    source = MemorySource(list(base), schema=bundle.schema, source_id="enron")
    llm = SimulatedLLM(oracle=SemanticOracle(bundle.registry), seed=seed)
    store = MaterializationStore()
    config = QueryProcessorConfig(
        llm=llm,
        optimize=False,
        seed=seed,
        materialization_store=store,
    )
    manager = StandingQueryManager(store=store)
    query = manager.register(
        "enron-live",
        _plan(source),
        config,
        policy=RefreshPolicy(trigger="count", count=DELTA_RECORDS),
    )

    ticks = []
    seen = list(base)
    identical = True
    fold_identical = True
    for tick_deltas in deltas:
        source.append(list(tick_deltas))
        seen.extend(tick_deltas)
        fired = manager.pump()
        assert len(fired) == 1, f"expected one tick, got {len(fired)}"
        tick = fired[0]
        scratch = _full_run(bundle, seen, seed)
        view = _normalized(query.records)
        if view != scratch["records"]:
            identical = False
        if _normalized(query.folded()) != view:
            fold_identical = False
        ticks.append(
            {
                "tick": tick.tick,
                "standing_cost_usd": tick.cost_usd,
                "standing_time_s": tick.time_s,
                "scratch_cost_usd": scratch["cost_usd"],
                "scratch_time_s": scratch["time_s"],
                "reuse_kind": tick.reuse_kind,
                "reused_prefix": tick.reused_prefix,
                "delta_records": tick.delta_records,
                "inserts": tick.inserts,
                "retracts": tick.retracts,
            }
        )

    # Update convergence: rewrite one base email in place; the next tick
    # must patch it into the replayed prefix (a one-record delta) and
    # converge on the from-scratch view of the updated source.
    victim = base[0]
    source.update(victim.uid, {"body": victim.fields["body"] + "\n[amended]"})
    update_ticks = manager.pump()
    assert len(update_ticks) == 1 and update_ticks[0].fired == "update"
    update_scratch = _full_run(bundle, source.records(), seed)
    update_identical = _normalized(query.records) == update_scratch["records"]
    update_fold_identical = _normalized(query.folded()) == _normalized(
        query.records
    )

    standing_total = sum(t["standing_cost_usd"] for t in ticks)
    scratch_total = sum(t["scratch_cost_usd"] for t in ticks)
    standing_time = sum(t["standing_time_s"] for t in ticks)
    scratch_time = sum(t["scratch_time_s"] for t in ticks)
    return {
        "ticks": ticks,
        "prime_cost_usd": query.ticks[0].cost_usd,
        "standing_cost_usd": standing_total,
        "scratch_cost_usd": scratch_total,
        "cost_reduction": scratch_total / max(1e-12, standing_total),
        "standing_time_s": standing_time,
        "scratch_time_s": scratch_time,
        "time_reduction": scratch_time / max(1e-12, standing_time),
        "identical": identical,
        "fold_identical": fold_identical,
        "delta_ticks": sum(1 for t in ticks if t["reuse_kind"] == "delta"),
        "update": {
            "fired": update_ticks[0].fired,
            "cost_usd": update_ticks[0].cost_usd,
            "inserts": update_ticks[0].inserts,
            "retracts": update_ticks[0].retracts,
            "identical": update_identical,
            "fold_identical": update_fold_identical,
            "reuse_kind": update_ticks[0].reuse_kind,
            "delta_records": update_ticks[0].delta_records,
        },
    }


def _sweep(seeds) -> dict:
    bundle = generate_enron_corpus(seed=11)
    return {seed: _run_seed(bundle, seed) for seed in seeds}


def _render(results) -> str:
    headers = [
        "Seed",
        "Standing $ (8 ticks)",
        "Scratch $ (8 ticks)",
        "Cost redux",
        "Time redux",
        "Delta ticks",
        "Identical",
        "Fold ==",
        "Update ok",
    ]
    rows = []
    for seed, entry in sorted(results.items()):
        rows.append(
            [
                str(seed),
                f"{entry['standing_cost_usd']:.4f}",
                f"{entry['scratch_cost_usd']:.4f}",
                f"{entry['cost_reduction']:.2f}x",
                f"{entry['time_reduction']:.2f}x",
                f"{entry['delta_ticks']}/{N_TICKS}",
                "yes" if entry["identical"] else "NO",
                "yes" if entry["fold_identical"] else "NO",
                "yes" if entry["update"]["identical"] else "NO",
            ]
        )
    return format_table(
        headers,
        rows,
        title=(
            f"Standing-query maintenance (enron filter/filter/map, "
            f"{BASE_RECORDS} base + {N_TICKS}x{DELTA_RECORDS} appends, "
            f"incremental vs per-tick full recompute)"
        ),
    )


def _check_contract(results) -> None:
    for seed, entry in results.items():
        assert entry["identical"], (
            f"seed {seed}: standing view diverged from from-scratch run"
        )
        assert entry["fold_identical"], (
            f"seed {seed}: folded changelog diverged from the standing view"
        )
        reduction = entry["cost_reduction"]
        assert reduction >= MIN_COST_REDUCTION, (
            f"seed {seed}: {reduction:.2f}x cost reduction below the "
            f"{MIN_COST_REDUCTION}x floor"
        )
        assert entry["delta_ticks"] == N_TICKS, (
            f"seed {seed}: only {entry['delta_ticks']}/{N_TICKS} ticks "
            f"took the delta-reuse path"
        )
        update = entry["update"]
        assert update["fired"] == "update", (
            f"seed {seed}: update event did not force a refresh"
        )
        assert update["identical"], (
            f"seed {seed}: view did not converge after the in-place update"
        )
        assert update["fold_identical"], (
            f"seed {seed}: changelog fold broken after the update tick"
        )
        assert (update["reuse_kind"], update["delta_records"]) == ("delta", 1), (
            f"seed {seed}: the update tick was not a one-record delta "
            f"({update['reuse_kind'] or 'recompute'}, "
            f"{update['delta_records']} delta records)"
        )


def _save_json(results_dir: Path, results) -> None:
    payload = {
        "plan": "enron sem_filter->sem_filter->sem_map(summary)",
        "base_records": BASE_RECORDS,
        "delta_records": DELTA_RECORDS,
        "n_ticks": N_TICKS,
        "min_cost_reduction": MIN_COST_REDUCTION,
        "seeds": {str(seed): entry for seed, entry in results.items()},
    }
    path = results_dir / JSON_NAME
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def bench_streaming(benchmark, results_dir):
    results = benchmark.pedantic(_sweep, args=(SEEDS,), rounds=1, iterations=1)
    report = _render(results)
    save_report(results_dir, "streaming", report)
    _save_json(results_dir, results)
    benchmark.extra_info["measured"] = {
        str(seed): {
            "cost_reduction": entry["cost_reduction"],
            "time_reduction": entry["time_reduction"],
            "standing_cost_usd": entry["standing_cost_usd"],
            "scratch_cost_usd": entry["scratch_cost_usd"],
        }
        for seed, entry in results.items()
    }
    _check_contract(results)


def main(argv: list[str]) -> int:
    unknown = [arg for arg in argv if arg != "--smoke"]
    if unknown:
        print(f"usage: bench_streaming.py [--smoke]  (unknown: {unknown})")
        return 2
    smoke = "--smoke" in argv
    seeds = SEEDS[:1] if smoke else SEEDS
    results = _sweep(seeds)
    print(_render(results))
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    _save_json(RESULTS_DIR, results)
    _check_contract(results)
    worst = min(entry["cost_reduction"] for entry in results.values())
    print(
        f"\nincremental maintenance is >= {worst:.2f}x cheaper than per-tick "
        f"recompute with a bit-identical view at every tick — contract holds"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
