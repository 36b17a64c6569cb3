"""Command line of the benchmark (run from the repo root).

    python3 -m benchmarks.perf bench --workload W --seed N --seconds S --trace 0|1
        one workload; the last stdout line is the driver's JSON object
    python3 -m benchmarks.perf run [--seed N] [--trace] [--smoke] [--label L]
        all six workloads -> benchmarks/perf/out/perf_<label>.json
    python3 -m benchmarks.perf compare A.json B.json
        regression gate between two ``run`` outputs
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import EXPECTED_JSON, OUT_DIR


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0, help="measured seconds per workload")
    parser.add_argument("--passes", type=int, help="measured passes per worker instead of --seconds")
    parser.add_argument("--smoke", action="store_true", help="sizes / 20, one worker, 2 passes (tests)")
    parser.add_argument("--expected", type=Path, default=EXPECTED_JSON)
    parser.add_argument("--update-expected", action="store_true")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.perf", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)

    bench = commands.add_parser("bench")
    bench.add_argument("--workload", required=True)
    bench.add_argument("--trace", type=int, choices=(0, 1), default=0)
    _add_run_options(bench)

    run = commands.add_parser("run")
    run.add_argument("--trace", action="store_true")
    run.add_argument("--label")
    _add_run_options(run)

    compare = commands.add_parser("compare")
    compare.add_argument("a", type=Path)
    compare.add_argument("b", type=Path)

    worker = commands.add_parser("worker")
    worker.add_argument("--workload", required=True)
    worker.add_argument("--seed", type=int, required=True)
    worker.add_argument("--seconds", type=float, required=True)
    worker.add_argument("--passes", type=int)
    worker.add_argument("--trace", type=int, required=True)
    worker.add_argument("--smoke", action="store_true")
    worker.add_argument("--verify", action="store_true")
    worker.add_argument("--spawned-at", type=float, required=True)

    args = parser.parse_args(argv)
    if args.command == "worker":
        from .worker import run_worker

        print(json.dumps(run_worker(
            args.workload, args.seed, args.seconds, args.passes, bool(args.trace),
            args.smoke, args.spawned_at, args.verify,
        )))
        return 0

    from . import harness

    if args.command == "compare":
        return harness.compare(args.a, args.b)

    names = harness.workload_names()
    if args.command == "bench" and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    results = {}
    for name in [args.workload] if args.command == "bench" else names:
        results[name] = harness.run_workload(
            name, args.seed, args.seconds, trace=bool(args.trace), smoke=args.smoke,
            passes=args.passes, expected_path=args.expected,
            update_expected=args.update_expected,
        )
        harness.print_result(results[name])
    correct = all(result["correct"] for result in results.values())
    if args.command == "run":
        label = args.label or f"seed{args.seed}" + ("_trace" if args.trace else "")
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        path = OUT_DIR / f"perf_{label}.json"
        path.write_text(
            json.dumps({"label": label, "seed": args.seed, "workloads": results}, indent=1) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {path}")
    else:
        print(harness.contract_line(results[args.workload]))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
