"""Fault-tolerance sweep: fault rate vs. answer quality / cost / time.

The simulated LLM service injects seeded transient faults (429s, timeouts,
5xx) at a configurable per-attempt rate; the retry policy backs off with
seeded jitter, charging every failed attempt and every wait to the usage
tracker and virtual clock.  This bench sweeps the fault rate for the three
Table-1 systems and verifies the resilience contract:

- **Retries on**: headline quality is *bit-identical* to the fault-free run
  (the fault schedule and the answer-noise schedule are independent seeded
  streams), while cost and time rise — the measurable price of resilience —
  and operator stats report ``retried_calls > 0``.
- **Retries off**: the run degrades gracefully (records are skipped and
  flagged, never a crash).

Run standalone for a quick check::

    PYTHONPATH=src python benchmarks/bench_fault_tolerance.py --smoke
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from conftest import save_report

from repro.bench.harness import SystemSummary, run_trials
from repro.bench.systems import (
    kramabench_codeagent_system,
    kramabench_compute_system,
    kramabench_semops_system,
)
from repro.llm.faults import FaultConfig, RetryPolicy
from repro.utils.formatting import format_table

N_TRIALS = 3
BASE_SEED = 20260806
FAULT_RATES = (0.0, 0.1, 0.3)

RETRY = RetryPolicy(max_attempts=5)
NO_RETRY = RetryPolicy(max_attempts=1)


def _systems(bundle, rate: float, retry: RetryPolicy):
    fault = FaultConfig(rate=rate) if rate > 0 else None
    return {
        "Sem. Ops": kramabench_semops_system(bundle, fault, retry),
        "CodeAgent": kramabench_codeagent_system(bundle, fault, retry),
        "PZ compute": kramabench_compute_system(
            bundle, fault_config=fault, retry_policy=retry
        ),
    }


def _sweep(bundle, rates, n_trials: int, systems=("Sem. Ops", "CodeAgent", "PZ compute")):
    """rate -> {system name -> SystemSummary} with retries on."""
    results: dict[float, dict[str, SystemSummary]] = {}
    for rate in rates:
        builders = _systems(bundle, rate, RETRY)
        results[rate] = {
            name: run_trials(name, builders[name], n_trials, BASE_SEED)
            for name in systems
        }
    return results

def _retries(summary: SystemSummary) -> int:
    return sum(
        outcome.detail.get("retried_calls", outcome.detail.get("llm_failures", 0)) or 0
        for outcome in summary.outcomes
    )


def _render(results) -> str:
    headers = ["System", "Fault rate", "Pct. Err.", "Cost ($)", "Time (s)", "Retried"]
    rows = []
    names = list(next(iter(results.values())))
    for name in names:
        for rate, summaries in sorted(results.items()):
            summary = summaries[name]
            rows.append(
                [
                    name,
                    f"{rate:.0%}",
                    f"{summary.quality['pct_err']:.2f}%",
                    f"{summary.cost_usd:.2f}",
                    f"{summary.time_s:.1f}",
                    str(_retries(summary)),
                ]
            )
    return format_table(
        headers, rows, title="Fault tolerance: fault rate vs. quality/cost/time"
    )


def _check_contract(results, baseline_rate=0.0, faulty_rate=0.1) -> None:
    """Assert the resilience contract between two sweep points.

    Quality must be bit-identical for every system.  The strict cost/time/
    retry checks apply to the call-heavy systems; the naive CodeAgent makes
    so few LLM calls that a given seed may legitimately draw zero faults.
    """
    strict = ("Sem. Ops", "PZ compute")
    for name, base in results[baseline_rate].items():
        faulty = results[faulty_rate][name]
        assert faulty.quality == base.quality, (
            f"{name}: quality changed under faults with retries on "
            f"({base.quality} -> {faulty.quality})"
        )
        assert faulty.cost_usd >= base.cost_usd, f"{name}: faults cannot reduce cost"
        assert faulty.time_s >= base.time_s, f"{name}: faults cannot reduce time"
        if name in strict:
            assert faulty.cost_usd > base.cost_usd, f"{name}: faults should cost extra"
            assert faulty.time_s > base.time_s, f"{name}: faults should take longer"
            assert _retries(faulty) > 0, f"{name}: expected retried calls under faults"


def bench_fault_tolerance(benchmark, legal_bundle, results_dir):
    results = benchmark.pedantic(
        _sweep, args=(legal_bundle, FAULT_RATES, N_TRIALS), rounds=1, iterations=1
    )
    report = _render(results)
    save_report(results_dir, "fault_tolerance", report)
    benchmark.extra_info["measured"] = {
        f"{name}@{rate}": {
            "pct_err": s.quality["pct_err"],
            "cost": s.cost_usd,
            "time": s.time_s,
        }
        for rate, summaries in results.items()
        for name, s in summaries.items()
    }

    _check_contract(results)

    # Retries off: the sem-op program degrades gracefully instead of crashing.
    no_retry = run_trials(
        "Sem. Ops (no retry)",
        kramabench_semops_system(legal_bundle, FaultConfig(rate=0.1), NO_RETRY),
        N_TRIALS,
        BASE_SEED,
    )
    failed = sum(o.detail.get("failed_records", 0) for o in no_retry.outcomes)
    assert failed > 0, "retries off at 10% faults should flag degraded records"


def main(argv: list[str]) -> int:
    unknown = [arg for arg in argv if arg != "--smoke"]
    if unknown:
        print(f"usage: bench_fault_tolerance.py [--smoke]  (unknown: {unknown})")
        return 2
    smoke = "--smoke" in argv
    from repro.data.datasets import generate_legal_corpus

    bundle = generate_legal_corpus()
    rates = (0.0, 0.1) if smoke else FAULT_RATES
    n_trials = 1 if smoke else N_TRIALS
    systems = ("Sem. Ops", "CodeAgent") if smoke else (
        "Sem. Ops", "CodeAgent", "PZ compute"
    )
    results = _sweep(bundle, rates, n_trials, systems=systems)
    print(_render(results))
    _check_contract(results)
    no_retry = run_trials(
        "Sem. Ops (no retry)",
        kramabench_semops_system(bundle, FaultConfig(rate=0.1), NO_RETRY),
        n_trials,
        BASE_SEED,
    )
    failed = sum(o.detail.get("failed_records", 0) for o in no_retry.outcomes)
    assert failed > 0, "retries off at 10% faults should flag degraded records"
    print(
        f"\nretries-off degradation: {failed} flagged records across "
        f"{n_trials} trial(s), no crash — contract holds"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
