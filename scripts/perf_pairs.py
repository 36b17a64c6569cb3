#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs for one workload.

    python3 scripts/perf_pairs.py <parent-ref> <workload> [--pairs 10] [--seconds 10]

Unpacks ``<parent-ref>``'s committed files into a temporary directory
(``git archive``: nothing is registered in ``.git``, nothing is left
behind), then for seeds ``0 .. pairs-1`` runs

    python3 -m benchmarks.perf bench --workload W --seed i --seconds S

once in the parent copy and once in the working tree, alternating which side
goes first.  Only the benchmark's result line (the last stdout line) is read.
Per end-to-end metric of ``BENCHMARK.json`` it prints both medians, both
quartile pairs, the change's wins/ties over the pairs, how the medians sit
against the metric's bound and the parent's own quartile distance, and the
failed operations of each side — the table a performance PR reports
(``/opt/skills/guides/choosing-metrics``, section 8: claim a gain only with
>= 9/10 wins and medians further apart than the parent's quartile distance).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bench(cwd: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench`` run in ``cwd``; its result line as a dict."""
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.perf", "bench", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=cwd, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit(f"no result line from {cwd} (exit {done.returncode}):\n{done.stderr[-2000:]}")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), inclusive method; a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_ref")
    parser.add_argument("workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    with tempfile.TemporaryDirectory(prefix="perf-pairs-parent-") as parent_dir:
        archive = subprocess.run(
            ["git", "archive", "--format=tar", args.parent_ref],
            cwd=ROOT, capture_output=True, check=True,
        )
        subprocess.run(["tar", "-x", "-C", parent_dir], input=archive.stdout, check=True)
        sides = {"parent": Path(parent_dir), "change": ROOT}
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for seed in range(args.pairs):
            order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(bench(sides[side], args.workload, seed, args.seconds))
            print(f"pair {seed}: ran {order[0]} then {order[1]}", file=sys.stderr)

    print(f"{args.workload}: {args.pairs} pairs, seeds 0-{args.pairs - 1}, "
          f"{args.seconds:g} s/run, parent = {args.parent_ref}")
    print(f"{'metric':<15}{'parent med [q1, q3]':>36}{'change med [q1, q3]':>36}"
          f"{'change/parent':>15}{'wins/ties':>11}  verdict")
    for metric in contract["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [run["metrics"][name]["value"] for run in runs["parent"]]
        change = [run["metrics"][name]["value"] for run in runs["change"]]
        p_q1, p_med, p_q3 = quartiles(parent)
        c_q1, c_med, c_q3 = quartiles(change)
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        ties = sum(c == p for p, c in zip(parent, change))
        gain = (p_med - c_med) if lower else (c_med - p_med)  # > 0: change better
        if gain > p_q3 - p_q1 and wins >= 0.9 * args.pairs:
            verdict = "better (>= 9/10 wins, medians apart > parent q3-q1)"
        elif -gain > metric["bound"] * p_med:
            verdict = f"WORSE by more than the {metric['bound']:.0%} bound"
        else:
            verdict = f"within the {metric['bound']:.0%} bound"
        print(f"{name:<15}"
              f"{f'{p_med:.6g} [{p_q1:.6g}, {p_q3:.6g}]':>36}"
              f"{f'{c_med:.6g} [{c_q1:.6g}, {c_q3:.6g}]':>36}"
              f"{c_med / p_med if p_med else float('nan'):>15.3f}"
              f"{f'{wins}/{ties}':>11}  {verdict}")
    for side in ("parent", "change"):
        failed = sum(run["failed"] for run in runs[side])
        attempted = sum(run["attempted"] for run in runs[side])
        wrong = sum(not run["correct"] for run in runs[side])
        print(f"{side}: {failed} of {attempted} operations failed; "
              f"{wrong} of {len(runs[side])} runs failed an output check")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
