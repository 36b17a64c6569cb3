#!/usr/bin/env bash
# Pre-push gate.  The architecture rules are tier-1 tests
# (tests/test_architecture.py); this script runs what tier-1 does not.
#
#   scripts/check.sh          full gate (CI): tier-1, perf harness tests,
#                             smoke sweeps, perf smokes, BENCH_*.json
#                             placement, paper tables, fuzz, trace smokes
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
step "fault-tolerance smoke sweep" python benchmarks/bench_fault_tolerance.py --smoke
step "pipelined-execution smoke sweep" python benchmarks/bench_pipeline.py --smoke
step "materialization-reuse smoke sweep" python benchmarks/bench_context_reuse.py --smoke
step "multi-tenant serving smoke sweep (a served query runs the engine's own schedule: BENCH_serving.json must not drift)" \
    python benchmarks/bench_serving.py --smoke
git diff --exit-code -- benchmarks/results/BENCH_serving.json
step "sql-pushdown smoke sweep" python benchmarks/bench_pushdown.py --smoke
step "mid-query replan smoke sweep (the misestimate is a store warmed without the where: BENCH_replan.json must not drift)" \
    python benchmarks/bench_replan.py --smoke
git diff --exit-code -- benchmarks/results/BENCH_replan.json
step "sharded-execution smoke sweep" python benchmarks/bench_sharding.py --smoke
step "hybrid-sharded perf smoke (shards=4 digests == shards=1 re-run: global order restored)" \
    python3 -m benchmarks.perf bench --workload hybrid_sharded --smoke
step "serve-mix perf smoke (every submit crosses the optimizer's reuse decision on the logical chain + statistics annotation; ~5 in 6 are exact replays that bind only their suffix)" \
    python3 -m benchmarks.perf bench --workload serve_mix --smoke
step "standing-query smoke sweep" python benchmarks/bench_streaming.py --smoke

echo
echo "== benchmark artifact placement guard =="
stray="$(find . -name 'BENCH_*.json' -not -path './benchmarks/results/*' -not -path './.git/*')"
if [[ -n "$stray" ]]; then
    echo "benchmark artifacts escaped benchmarks/results/:"
    echo "$stray"
    exit 1
fi
echo "all BENCH_*.json artifacts under benchmarks/results/"

step "paper tables are generated, not transcribed (regenerate table1/table2, fail on drift)" \
    python -m pytest -q benchmarks/bench_table1.py benchmarks/bench_table2.py
git diff --exit-code -- benchmarks/results/table1.txt benchmarks/results/table2.txt
step "differential-testing fuzz lane" python -m repro.qa fuzz --n 15 --seed 0
python -m repro.qa selftest --n 10

echo
echo "== tracing smoke (query --trace + validation) =="
TRACE_TMP="$(mktemp -d)"
trap 'rm -rf "$TRACE_TMP"' EXIT
python -m repro query "What is the ratio of identity theft reports?" \
    --dataset legal --trace "$TRACE_TMP/smoke.trace.json" > /dev/null
python - "$TRACE_TMP/smoke.trace.json" <<'PY'
import sys
from repro.obs import validate_chrome_trace

summary = validate_chrome_trace(sys.argv[1])
print(f"trace ok: {summary['events']} events, "
      f"end={summary['trace_end_s']:.2f}s, drift={summary.get('drift', 0.0):.2%}")
PY

echo
echo "== traced perf smoke (every dotted name benchmarks/perf/trace.py wraps resolves: trace.missing_targets == 0) =="
python3 -m benchmarks.perf bench --workload rescan_warm --smoke --trace 1 \
    | tail -1 > "$TRACE_TMP/rescan_warm.json"
python - "$TRACE_TMP/rescan_warm.json" <<'PY'
import json
import sys

result = json.load(open(sys.argv[1]))
missing = result["metrics"]["trace.missing_targets"]["value"]
print(f"trace.missing_targets = {missing}")
sys.exit(0 if result["correct"] and missing == 0 else 1)
PY

echo
echo "== traced cold-scan perf smoke (every call a miss, observed: the repo's Tracer + MetricsRegistry are on in the observed pass; llm.calls > 0) =="
python3 -m benchmarks.perf bench --workload scan_cold --smoke --trace 1 \
    | tail -1 > "$TRACE_TMP/scan_cold.json"
python - "$TRACE_TMP/scan_cold.json" <<'PY'
import json
import sys

result = json.load(open(sys.argv[1]))
missing = result["metrics"]["trace.missing_targets"]["value"]
calls = result["metrics"]["llm.calls"]["value"]
print(f"trace.missing_targets = {missing}, llm.calls = {calls}")
sys.exit(0 if result["correct"] and missing == 0 and calls else 1)
PY

echo
echo "check.sh: all green"
