"""Command-line entry points for the differential-testing harness.

``python -m repro.qa fuzz``     — run seeded fuzz cases through the matrix.
``python -m repro.qa replay``   — re-execute a saved failure bundle.
``python -m repro.qa selftest`` — prove the harness catches seeded defects.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.qa.bundle import ReplayBundle
from repro.qa.fuzzer import PlanFuzzer
from repro.qa.mutations import MUTATIONS, mutation_by_name
from repro.qa.oracles import evaluate
from repro.qa.runner import run_case
from repro.qa.shrinker import shrink

DEFAULT_BUNDLE_DIR = Path("qa-failures")


def cmd_fuzz(args: argparse.Namespace) -> int:
    fuzzer = PlanFuzzer(seed=args.seed, max_ops=args.max_ops)
    mutation = mutation_by_name(args.mutate) if args.mutate else None
    failures = 0
    started = time.monotonic()
    for index in range(args.n):
        case = fuzzer.case(index)
        violations = evaluate(run_case(case, mutation=mutation))
        if not violations:
            if args.verbose:
                print(f"case {index:3d} ok    {case.plan.describe()}")
            continue
        failures += 1
        print(f"case {index:3d} FAIL  {case.plan.describe()}")
        for violation in violations:
            print(f"    {violation}")
        if args.shrink:
            result = shrink(case, mutation=mutation)
            print(
                f"    shrunk to {result.case.plan.op_count()} ops / "
                f"{result.case.corpus.n_records} records in "
                f"{result.evaluations} evaluations: "
                f"{result.case.plan.describe()}"
            )
            bundle = ReplayBundle.capture(
                result.case, result.violations, mutation=args.mutate
            )
        else:
            bundle = ReplayBundle.capture(case, violations, mutation=args.mutate)
        path = Path(args.out) / f"case-{args.seed}-{index}.json"
        bundle.save(path)
        print(f"    bundle: {path}")
        if args.fail_fast:
            break
    elapsed = time.monotonic() - started
    print(
        f"fuzz: {args.n} cases, {failures} failing, seed {args.seed} "
        f"({elapsed:.1f}s)"
    )
    return 1 if failures else 0


def cmd_replay(args: argparse.Namespace) -> int:
    bundle = ReplayBundle.load(args.bundle)
    print(f"replaying {args.bundle}")
    print(f"  plan:    {bundle.case.plan.describe()}")
    print(f"  corpus:  seed={bundle.case.corpus.seed} "
          f"n={bundle.case.corpus.n_records}")
    if bundle.mutation:
        print(f"  mutation: {bundle.mutation}")
    violations, reproduced = bundle.replay()
    for violation in violations:
        print(f"  {violation}")
    if bundle.expected_oracles:
        status = "reproduced" if reproduced else "NOT reproduced"
        print(f"  expected oracles {bundle.expected_oracles}: {status}")
        return 0 if reproduced else 1
    print(f"  clean capture: {'still clean' if reproduced else 'now failing'}")
    return 0 if reproduced else 1


def cmd_selftest(args: argparse.Namespace) -> int:
    """Prove each seeded defect is caught and shrinks to a tiny repro."""
    fuzzer = PlanFuzzer(seed=args.seed, max_ops=args.max_ops)
    exit_code = 0
    for name, mutation in sorted(MUTATIONS.items()):
        caught = None
        for index in range(args.n):
            case = fuzzer.case(index)
            run = run_case(case, mutation=mutation)
            violations = evaluate(run)
            wanted = {mutation.expected_oracle, *mutation.also_killed_by}
            killed_in = {
                v.spec for v in violations if v.oracle == mutation.expected_oracle
            }
            if wanted <= {v.oracle for v in violations} and (
                set(mutation.killed_in_specs) <= killed_in
            ):
                caught = (case, run)
                break
        if caught is None:
            print(f"{name}: NOT caught in {args.n} cases — harness is blind")
            exit_code = 1
            continue
        case, run = caught
        result = shrink(case, mutation=mutation)
        ops = result.case.plan.op_count()
        oracles = sorted({v.oracle for v in result.violations})
        ok = (
            ops <= args.max_repro_ops
            and mutation.expected_oracle in oracles
        )
        if mutation.only_via_reference:
            # The same observations minus the reference must look healthy:
            # the engine-vs-engine comparisons are blind to this defect.
            del run.observations["reference"]
            ok = ok and not evaluate(run)
        print(
            f"{name}: caught by {oracles} on case {case.index}, "
            f"shrunk to {ops} ops / {result.case.corpus.n_records} records "
            f"({result.evaluations} evaluations)"
            + ("" if ok else "  FAILED self-test criteria")
        )
        if args.out:
            bundle = ReplayBundle.capture(
                result.case, result.violations, mutation=name
            )
            path = Path(args.out) / f"selftest-{name}.json"
            bundle.save(path)
            print(f"    bundle: {path}")
        if not ok:
            exit_code = 1
    return exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.qa",
        description="Plan-space differential testing harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fuzz = sub.add_parser("fuzz", help="run seeded fuzz cases")
    fuzz.add_argument("--n", type=int, default=20, help="number of cases")
    fuzz.add_argument("--seed", type=int, default=0, help="fuzzer seed")
    fuzz.add_argument("--max-ops", type=int, default=5)
    fuzz.add_argument("--mutate", choices=sorted(MUTATIONS),
                      help="apply a seeded runtime defect")
    fuzz.add_argument("--no-shrink", dest="shrink", action="store_false",
                      help="skip delta-debugging failures")
    fuzz.add_argument("--fail-fast", action="store_true")
    fuzz.add_argument("--out", default=str(DEFAULT_BUNDLE_DIR),
                      help="directory for failure bundles")
    fuzz.add_argument("--verbose", action="store_true")
    fuzz.set_defaults(fn=cmd_fuzz)

    replay = sub.add_parser("replay", help="re-execute a failure bundle")
    replay.add_argument("bundle", help="path to a replay bundle JSON")
    replay.set_defaults(fn=cmd_replay)

    selftest = sub.add_parser(
        "selftest", help="verify seeded defects are caught and shrunk"
    )
    selftest.add_argument("--n", type=int, default=25,
                          help="max cases to try per mutation")
    selftest.add_argument("--seed", type=int, default=0)
    selftest.add_argument("--max-ops", type=int, default=5)
    selftest.add_argument("--max-repro-ops", type=int, default=3,
                          help="shrunk repro must be at most this many ops")
    selftest.add_argument("--out", help="directory for selftest bundles")
    selftest.set_defaults(fn=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
