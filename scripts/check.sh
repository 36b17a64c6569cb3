#!/usr/bin/env bash
# Pre-push gate.  The architecture rules are tier-1 tests
# (tests/test_architecture.py); this script runs what tier-1 does not.
#
#   scripts/check.sh          full gate (CI): tier-1, perf harness tests,
#                             smoke sweeps, perf smokes, BENCH_*.json
#                             placement, paper tables, fuzz, a planted
#                             defect's replay, trace smokes, examples and
#                             demo, then the reach report over all of them
#   scripts/check.sh --fast   tier-1 minus slow tests, the slow tests with
#                             a cheap lane, and the perf smokes
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH=src

step() { echo; echo "== $1 =="; shift; "$@"; }  # step "<what it checks>" <command...>

if [[ "${1:-}" == "--fast" ]]; then
    step "fast lane: tier-1 tests (-m 'not slow'), architecture rules included" \
        python -m pytest -x -q -m "not slow"
    step "fast lane: sharded-execution smoke" python benchmarks/bench_sharding.py --smoke
    step "fast lane: standing-query smoke" python benchmarks/bench_streaming.py --smoke
    step "fast lane: patch replay, slow tests (an in-place rewrite re-runs alone through the materialized prefix, merged by source position, at shards 1 and 4)" \
        python -m pytest -q -m slow tests/test_patch_replay.py
    step "fast lane: sqlite differential oracle, slow properties at the smoke count (the full gate runs 2,000 examples per property)" \
        python -m pytest -q -m slow --hypothesis-profile=fast tests/test_sql_differential.py
    step "fast lane: standing-tick perf smoke (fold == view == from-scratch, digest == expected.json smoke seed 0 through two in-place updates)" \
        python3 -m benchmarks.perf bench --workload standing_ticks --smoke
    step "fast lane: hybrid-sharded perf smoke (shard workers run the engine's one section loop: shards=4 digests == shards=1 re-run)" \
        python3 -m benchmarks.perf bench --workload hybrid_sharded --smoke
    step "fast lane: warm re-scan perf smoke (warm digest == cold fill's, \$0 and 0 virtual s per warm pass: the key written on a miss is the key probed on a hit)" \
        python3 -m benchmarks.perf bench --workload rescan_warm --smoke
    step "fast lane: cold scan perf smoke (the miss path: every call a cache miss + put, digest == expected.json smoke seed 0)" \
        python3 -m benchmarks.perf bench --workload scan_cold --smoke
    step "fast lane: agent-queries perf smoke (the paper's search/compute/answer path: digest == expected.json smoke seed 0)" \
        python3 -m benchmarks.perf bench --workload agent_queries --smoke
    step "fast lane: serve-mix perf smoke (every submit crosses the optimizer's reuse decision; digest == expected.json smoke seed 0)" \
        python3 -m benchmarks.perf bench --workload serve_mix --smoke
    echo
    echo "check.sh --fast: all green"
    exit 0
fi

step "tier-1 tests (architecture rules included)" python -m pytest -x -q
step "perf benchmark harness (expected.json digests + harness contract)" \
    python -m pytest benchmarks/perf -q

# Every workload step below runs once, under the reach probe
# (scripts/reach/sitecustomize.py): each Python process it starts, bench
# workers included, records the src/repro functions it ran, and the last
# step fails on any function no step reached (docs/testing.md, "Reach").
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
mkdir "$TMP/reach"
reach() { PYTHONPATH="$PWD/src:$PWD/scripts/reach" REPRO_REACH_DIR="$TMP/reach" "$@"; }

step "fault-tolerance smoke sweep" reach python benchmarks/bench_fault_tolerance.py --smoke
step "pipelined-execution smoke sweep" reach python benchmarks/bench_pipeline.py --smoke
step "materialization-reuse smoke sweep" reach python benchmarks/bench_context_reuse.py --smoke
step "multi-tenant serving smoke sweep (a served query runs the engine's own schedule: BENCH_serving.json must not drift)" \
    reach python benchmarks/bench_serving.py --smoke
git diff --exit-code -- benchmarks/results/BENCH_serving.json
step "sql-pushdown smoke sweep" reach python benchmarks/bench_pushdown.py --smoke
step "mid-query replan smoke sweep (the misestimate is a store warmed without the where: BENCH_replan.json must not drift)" \
    reach python benchmarks/bench_replan.py --smoke
git diff --exit-code -- benchmarks/results/BENCH_replan.json
step "sharded-execution smoke sweep" reach python benchmarks/bench_sharding.py --smoke
step "hybrid-sharded perf smoke (shards=4 digests == shards=1 re-run: global order restored)" \
    reach python3 -m benchmarks.perf bench --workload hybrid_sharded --smoke
step "serve-mix perf smoke (every submit crosses the optimizer's reuse decision on the logical chain + statistics annotation; ~5 in 6 are exact replays that bind only their suffix)" \
    reach python3 -m benchmarks.perf bench --workload serve_mix --smoke
step "standing-tick perf smoke (fold == view == from-scratch through two in-place updates)" \
    reach python3 -m benchmarks.perf bench --workload standing_ticks --smoke
step "agent-queries perf smoke (the paper's search/compute/answer path)" \
    reach python3 -m benchmarks.perf bench --workload agent_queries --smoke
step "standing-query smoke sweep" reach python benchmarks/bench_streaming.py --smoke

echo
echo "== benchmark artifact placement guard =="
stray="$(find . -name 'BENCH_*.json' -not -path './benchmarks/results/*' -not -path './.git/*')"
if [[ -n "$stray" ]]; then
    echo "benchmark artifacts escaped benchmarks/results/:"
    echo "$stray"
    exit 1
fi
echo "all BENCH_*.json artifacts under benchmarks/results/"

# --benchmark-disable: pytest-benchmark pauses every profile hook while it
# times a run, and the gate reads the tables, not the timings.
step "paper tables are generated, not transcribed (regenerate table1/table2, fail on drift)" \
    reach python -m pytest -q -p no:cacheprovider --benchmark-disable \
    benchmarks/bench_table1.py benchmarks/bench_table2.py
git diff --exit-code -- benchmarks/results/table1.txt benchmarks/results/table2.txt
step "paper tables from the CLI (one trial each, table 1's traced)" \
    reach python -m repro table1 --trials 1 --trace-dir "$TMP/tables"
reach python -m repro table2 --trials 1
step "differential-testing fuzz lane (every Dataset operator kind in the first 14 cases)" \
    reach python -m repro qa fuzz --n 15 --seed 0
reach python -m repro qa selftest --n 10

# A planted defect must fail the lane and leave exactly one bundle that
# replays the failure on its own.
planted_defect_replays() {
    local status=0
    reach python -m repro qa fuzz --n 15 --seed 0 --mutate filter-drops-kept --fail-fast \
        --out "$TMP/bundles" > "$TMP/planted.txt" || status=$?
    tail -3 "$TMP/planted.txt"
    local bundles=("$TMP"/bundles/*.json)
    if [[ $status -ne 1 || ${#bundles[@]} -ne 1 || ! -f "${bundles[0]}" ]]; then
        echo "expected exit 1 and one bundle; got exit $status and ${#bundles[@]} file(s)"
        return 1
    fi
    reach python -m repro qa replay "${bundles[0]}" | tee "$TMP/replay.txt"
    grep -q ": reproduced$" "$TMP/replay.txt"
}
step "planted defect (filter-drops-kept) fails the fuzz lane and its bundle replays" \
    planted_defect_replays

echo
echo "== tracing smoke (query --trace + validation) =="
reach python -m repro query "What is the ratio of identity theft reports?" \
    --dataset legal --trace "$TMP/smoke.trace.json" --metrics > /dev/null
reach python - "$TMP/smoke.trace.json" <<'PY'
import sys
from repro.obs import validate_chrome_trace

summary = validate_chrome_trace(sys.argv[1])
print(f"trace ok: {summary['events']} events, "
      f"end={summary['trace_end_s']:.2f}s, drift={summary.get('drift', 0.0):.2%}")
PY

echo
echo "== traced perf smoke (every dotted name benchmarks/perf/trace.py wraps resolves: trace.missing_targets == 0) =="
reach python3 -m benchmarks.perf bench --workload rescan_warm --smoke --trace 1 \
    | tail -1 > "$TMP/rescan_warm.json"
python - "$TMP/rescan_warm.json" <<'PY'
import json
import sys

result = json.load(open(sys.argv[1]))
missing = result["metrics"]["trace.missing_targets"]["value"]
print(f"trace.missing_targets = {missing}")
sys.exit(0 if result["correct"] and missing == 0 else 1)
PY

echo
echo "== traced cold-scan perf smoke (every call a miss, observed: the repo's Tracer + MetricsRegistry are on in the observed pass; llm.calls > 0) =="
reach python3 -m benchmarks.perf bench --workload scan_cold --smoke --trace 1 \
    | tail -1 > "$TMP/scan_cold.json"
python - "$TMP/scan_cold.json" <<'PY'
import json
import sys

result = json.load(open(sys.argv[1]))
missing = result["metrics"]["trace.missing_targets"]["value"]
calls = result["metrics"]["llm.calls"]["value"]
print(f"trace.missing_targets = {missing}, llm.calls = {calls}")
sys.exit(0 if result["correct"] and missing == 0 and calls else 1)
PY

examples_and_demo() {
    local example
    for example in examples/*.py; do
        echo "$example"
        reach python "$example" > /dev/null
    done
    echo "repro demo"
    reach python -m repro demo > /dev/null
}
step "examples and demo (each runs end to end)" examples_and_demo

step "reach: every src/repro function is run by a step above or allow-listed (scripts/reach_allow.txt only shrinks)" \
    python scripts/reach_report.py "$TMP/reach"

echo
echo "check.sh: all green"
