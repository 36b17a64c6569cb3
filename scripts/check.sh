#!/usr/bin/env bash
# Fast correctness gate: tier-1 test suite + the fault-tolerance smoke sweep.
# Runs in under a minute; use before pushing.
#
#   scripts/check.sh          full gate (all tests + smoke sweeps + fuzz lane)
#   scripts/check.sh --fast   unit tests only, skipping slow property/
#                             integration modules and the smoke sweeps
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH=src

if [[ "${1:-}" == "--fast" ]]; then
    echo "== fast lane: tier-1 tests (-m 'not slow') =="
    python -m pytest -x -q -m "not slow"
    echo
    echo "== fast lane: sharded-execution smoke =="
    python benchmarks/bench_sharding.py --smoke
    echo
    echo "== fast lane: standing-query smoke =="
    python benchmarks/bench_streaming.py --smoke
    echo
    echo "== fast lane: composition tests (replan under shards and behind replays; a served standing tick == a direct one) =="
    python -m pytest -q \
        tests/test_replan.py::TestReplanUnderSharding \
        tests/test_replan.py::TestReplanBehindAReplay \
        tests/test_serving.py::test_served_and_direct_standing_ticks_agree
    echo
    echo "== fast lane: patch replay (an in-place rewrite re-runs alone through the materialized prefix, merged by source position, at shards 1 and 4) =="
    python -m pytest -q tests/test_patch_replay.py tests/test_sem_streaming.py::test_update_event_invalidates_and_converges
    echo
    echo "== fast lane: no eager eviction (sem/streaming.py leaves the store to the lazy probe: no invalidate_sources call) =="
    if grep -n 'invalidate_sources' src/repro/sem/streaming.py; then
        echo "an update is a delta: the next probe patches or evicts exactly"
        exit 1
    fi
    echo "sem/streaming.py calls no invalidate_sources"
    echo
    echo "== fast lane: standing-tick perf smoke (fold == view == from-scratch, digest == expected.json smoke seed 0 through two in-place updates) =="
    python3 -m benchmarks.perf bench --workload standing_ticks --smoke
    echo
    echo "== fast lane: hybrid-sharded perf smoke (shard workers run the engine's one section loop: shards=4 digests == shards=1 re-run) =="
    python3 -m benchmarks.perf bench --workload hybrid_sharded --smoke
    echo
    echo "== fast lane: warm re-scan perf smoke (warm digest == cold fill's, \$0 and 0 virtual s per warm pass: the key written on a miss is the key probed on a hit) =="
    python3 -m benchmarks.perf bench --workload rescan_warm --smoke
    echo
    echo "== fast lane: text-kernel equivalence (ASCII tokenizer pass == the regex; bincount embedding == the per-token loop, byte for byte) =="
    python -m pytest -q \
        tests/test_utils_text.py::test_ascii_tokenize_equals_match_by_match_formula \
        tests/test_utils_text.py::test_ascii_separators_are_exactly_the_non_word_characters \
        tests/test_utils_text.py::test_extract_keywords_equals_first_position_ranking \
        tests/test_llm_embeddings.py::test_ascii_embed_is_byte_identical_to_reference \
        tests/test_llm_embeddings.py::test_summation_order_is_first_seen_token_order \
        tests/test_llm_embeddings.py::test_corpus_records_embed_byte_identically
    echo
    echo "== fast lane: agent-queries perf smoke (the paper's search/compute/answer path: digest == expected.json smoke seed 0) =="
    python3 -m benchmarks.perf bench --workload agent_queries --smoke
    echo
    echo "check.sh --fast: all green"
    exit 0
fi

echo "== tier-1 tests =="
python -m pytest -x -q

echo
echo "== perf benchmark harness (expected.json digests + harness contract) =="
python -m pytest benchmarks/perf -q

echo
echo "== fault-tolerance smoke sweep =="
python benchmarks/bench_fault_tolerance.py --smoke

echo
echo "== pipelined-execution smoke sweep =="
python benchmarks/bench_pipeline.py --smoke

echo
echo "== materialization-reuse smoke sweep =="
python benchmarks/bench_context_reuse.py --smoke

echo
echo "== multi-tenant serving smoke sweep =="
python benchmarks/bench_serving.py --smoke

echo
echo "== sql-pushdown smoke sweep =="
python benchmarks/bench_pushdown.py --smoke

echo
echo "== mid-query replan smoke sweep (the misestimate is a store warmed without the where: BENCH_replan.json must not drift) =="
python benchmarks/bench_replan.py --smoke
git diff --exit-code -- benchmarks/results/BENCH_replan.json

echo
echo "== sharded-execution smoke sweep =="
python benchmarks/bench_sharding.py --smoke

echo
echo "== hybrid-sharded perf smoke (shards=4 digests == shards=1 re-run: global order restored) =="
python3 -m benchmarks.perf bench --workload hybrid_sharded --smoke

echo
echo "== serve-mix perf smoke (every submit crosses statistics annotation + the replay splice; ~5 in 6 replay) =="
python3 -m benchmarks.perf bench --workload serve_mix --smoke

echo
echo "== standing-query smoke sweep =="
python benchmarks/bench_streaming.py --smoke

echo
echo "== benchmark artifact placement guard =="
stray="$(find . -name 'BENCH_*.json' -not -path './benchmarks/results/*' -not -path './.git/*')"
if [[ -n "$stray" ]]; then
    echo "benchmark artifacts escaped benchmarks/results/:"
    echo "$stray"
    exit 1
fi
echo "all BENCH_*.json artifacts under benchmarks/results/"

echo
echo "== retired-option guard (no mechanics / replan-gate / select_models= / materialization_scope= / stats_scope= / answer_cache_size= config keyword; no optimize= / replan= / shards= / partitioner= on serving; no clock= / tracer= / metrics= on StandingQueryManager; no interval/watermark/governor knob on RefreshPolicy, event_time_s= on append/update or now_s= on pump/pump_standing; no use_cache= on SimulatedLLM; no threshold= on the catalog or compute_batch; no stats_estimates= / fallback_model= config keyword; no decay= / min_observations= / max_entries= on a store or the generation cache; no similarity_floor= / max_candidates_per_left= / reset_stats= anywhere) =="
python - <<'PY'
import ast
import pathlib
import sys

CONFIGS = {"QueryProcessorConfig", "AnalyticsRuntime", "ConfigSpec", "for_bundle"}
SERVING = {"serving", "ServingRuntime"}
RETIRED = {
    **dict.fromkeys(CONFIGS, {
        "pipeline", "pushdown", "embed_batch_size", "adaptive_parallelism",
        # Replan gates are constants in sem/optimizer/replan.py.
        "replan_threshold", "replan_min_rows", "replan_limit",
        # Pin with available_models=[DEFAULT_FALLBACK_MODEL]; one scope= names
        # the tenant; the champion is that constant, not an option.
        "select_models", "materialization_scope", "stats_scope", "champion_model",
        # The similarity catalog's bound and floors are ContextManager constants.
        "answer_cache_size",
        # A misestimate is missing evidence in the stats store, not a mode;
        # on_failure="fallback" re-asks the cheapest chat model.
        "stats_estimates", "fallback_model",
    }),
    # Served queries inherit these from the runtime's config.
    **dict.fromkeys(SERVING, {"optimize", "replan", "shards", "partitioner"}),
    # A standing query's clock, tracer and metrics are its config's LLM's.
    "StandingQueryManager": {"clock", "tracer", "metrics"},
    # A standing query refreshes on a count: no clock, event-time or
    # spend-estimate trigger, so nothing carries their knobs.
    "RefreshPolicy": {"interval_s", "lateness_s", "min_batch_usd", "max_staleness_s"},
    **dict.fromkeys(("append", "update"), {"event_time_s"}),
    **dict.fromkeys(("pump", "pump_standing"), {"now_s"}),
    # The generation cache is always on.
    "SimulatedLLM": {"use_cache"},
    "ContextManager": {"threshold"},
    "find_similar": {"threshold"},
    # Merging is the catalog's answer floor.
    "compute_batch": {"threshold"},
    # Every store declares its bound (and the stats store its blend
    # weight) as a class constant; one observation is evidence enough.
    **dict.fromkeys(
        ("StatisticsStore", "MaterializationStore", "GenerationCache"),
        {"decay", "min_observations", "max_entries"},
    ),
}
# Class constants (similarity floors, the blocked join's fan-out) and
# lifetime-only counters: no call takes these.
ANYWHERE = {"similarity_floor", "max_candidates_per_left", "reset_stats"}
files = [
    path
    for root in ("src", "tests", "examples")
    for path in pathlib.Path(root).rglob("*.py")
] + list(pathlib.Path("benchmarks").glob("*.py"))
offenders = []
for path in files:
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        callee = getattr(node.func, "attr", getattr(node.func, "id", None))
        offenders += [
            f"{path}:{node.lineno}: {callee}({keyword.arg}=...)"
            for keyword in node.keywords
            if keyword.arg in RETIRED.get(callee, ()) or keyword.arg in ANYWHERE
        ]
if offenders:
    print("retired options: execution mechanics are derived (a baseline mode "
          "belongs in repro.qa.reference), a query option is declared "
          "once, on QueryProcessorConfig, a standing query runs on its "
          "config's substrate and refreshes on a count, a misestimate is "
          "missing evidence, and floors, bounds and blend weights are class "
          "constants:")
    print("\n".join(offenders))
    sys.exit(1)
print(f"{len(files)} files: no retired keyword on a config, serving or standing constructor")
PY
retired_names='governor|watermark|lateness|event_time|max_staleness|min_batch_usd|now_s|last_refresh_s|use_cache|compile_operator|LogicalAgentOp|CompiledAgentOp|cheapest_model|usable_prior|note_dataset_version|decay_dataset|dataset_decays|_dataset_versions|use_priors|merge_similar_instructions|InstructionGroup'
if grep -rnE "$retired_names" src/; then
    echo "retired triggers, the event-time/staleness/prior-pricing state only they read, the cache switch, the agent-op IR, the stats store's evidence floor and append decay, and the token-Jaccard merge are back under src/ (the policy declares agent_model(); compute_batch merges through the catalog)"
    exit 1
fi
echo "no retired trigger, cache switch, agent-op, evidence-floor, append-decay or merge-group name under src/"

echo
echo "== composition guard (replan arms under shards and behind replays: no exclusion cause under src/) =="
if grep -rnE --include='*.py' 'REPLAN_DISABLED_(SHARDED|REUSED)' src/; then
    echo "replan x shards and replan x reuse are compositions with tests, not exclusions"
    exit 1
fi
echo "no replan exclusion cause under src/"

echo
echo "== one-config-derivation guard (the runtime's template is the only QueryProcessorConfig( under core/, serve/ and sem/streaming.py) =="
python - <<'PY'
import ast
import pathlib
import sys

TEMPLATE = "src/repro/core/runtime.py"
files = sorted(
    [*pathlib.Path("src/repro/core").rglob("*.py"),
     *pathlib.Path("src/repro/serve").rglob("*.py"),
     pathlib.Path("src/repro/sem/streaming.py")]
)
calls = [
    f"{path.as_posix()}:{node.lineno}"
    for path in files
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
    if isinstance(node, ast.Call)
    and getattr(node.func, "attr", getattr(node.func, "id", None)) == "QueryProcessorConfig"
]
if len(calls) != 1 or not calls[0].startswith(TEMPLATE + ":"):
    print("runtime-bound configs are runtime.program_config(...) derivations "
          f"of the one template in {TEMPLATE}; found:")
    print("\n".join(calls) or "(none)")
    sys.exit(1)
print(f"{len(files)} files: one QueryProcessorConfig( call, {calls[0]}")
PY

echo
echo "== one-reuse-decision guard (only the optimizer probes a materialization store, only the engine's capture writes one; only ContextManager.narrow looks a Context up, only AnalyticsRuntime.answer an answer) =="
python - <<'PY'
import ast
import pathlib
import sys

OPTIMIZER = "src/repro/sem/optimizer/optimizer.py"
ALLOWED = {
    "match": {OPTIMIZER},
    "note_hit": {OPTIMIZER},
    "note_miss": {OPTIMIZER},
    # materialize.py: MaterializationStore.load re-puts what it reads.
    "put": {"src/repro/sem/execution.py", "src/repro/sem/materialize.py"},
}
# The similarity catalog: whatever the receiver is called.
CATALOG = {
    "find_similar": "src/repro/core/context_manager.py",
    "find_answer": "src/repro/core/runtime.py",
}
offenders = []
files = sorted(pathlib.Path("src/repro").rglob("*.py"))
for path in files:
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        call = node.func.attr
        if call in CATALOG and path.as_posix() != CATALOG[call]:
            offenders.append(f"{path}:{node.lineno}: {call}(...) outside {CATALOG[call]}")
        if call not in ALLOWED:
            continue
        receiver = node.func.value
        name = getattr(receiver, "attr", getattr(receiver, "id", ""))
        on_store = (
            name.endswith("store")
            or call.startswith("note_")
            or (name == "self" and path.name == "materialize.py")
        )
        if on_store and path.as_posix() not in ALLOWED[call]:
            offenders.append(f"{path}:{node.lineno}: {name}.{call}(...)")
if offenders:
    print("reuse is one optimizer decision and capture one engine step "
          "(executors never probe or write the store); Context reuse is "
          "ContextManager.narrow, answer reuse AnalyticsRuntime.answer:")
    print("\n".join(offenders))
    sys.exit(1)
print(f"{len(files)} files: store probes only in the optimizer, writes only in Engine._maybe_capture")
PY

echo
echo "== one-estimator guard (believe() is the only reader of learned priors under sem/, the sampler asks bound operators for sample_answer and names no operator kind) =="
python - <<'PY'
import ast
import pathlib
import sys

BELIEVE = "src/repro/sem/optimizer/cost_model.py"
SAMPLER = "src/repro/sem/optimizer/sampler.py"
offenders = []
files = sorted(pathlib.Path("src/repro/sem").rglob("*.py"))
for path in files:
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        callee = getattr(node.func, "attr", getattr(node.func, "id", None))
        if callee == "prior" and path.as_posix() != BELIEVE:
            offenders.append(f"{path}:{node.lineno}: .prior(...) outside believe()")
        if callee == "isinstance" and path.as_posix() == SAMPLER:
            offenders.append(f"{path}:{node.lineno}: isinstance(...) in the sampler")
    if path.as_posix() == SAMPLER:
        offenders += [
            f"{path}:{node.lineno}: .{node.attr} in the sampler"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute)
            and node.attr in ("streamable", "classify_partition")
        ]
if offenders:
    print("one belief rule (cost_model.believe) and one sampling path "
          "(the bound operator's own sample_answer):")
    print("\n".join(offenders))
    sys.exit(1)
print(f"{len(files)} files: priors read only in believe(), no per-operator dispatch in the sampler")
PY

echo
echo "== one-operator-declaration guard (per-operator facts live on the classes in sem/logical.py + sem/physical.py; no other sem module names an operator class it does not construct) =="
python - <<'PY'
import ast
import pathlib
import sys

from repro.sem import logical as L

OPS = {cls.__name__ for cls in L.LogicalOperator.__subclasses__()}
SEM = pathlib.Path("src/repro/sem")
# Who may name a concrete operator class: where they are declared, the
# fluent API that writes them, and rewrites for the classes they construct
# or match (everything else reads an attribute or calls a method).
ALLOWED = {
    "logical.py": OPS,
    "physical.py": OPS,
    "dataset.py": OPS,
    "optimizer/optimizer.py": {"ScanOp", "SqlScanOp", "MaterializedScanOp"},
    "optimizer/pushdown.py": {
        "ScanOp", "SqlScanOp",
        # compiled_sql renders these four as SQL clauses.
        "StructFilterOp", "ProjectOp", "LimitOp", "StructAggOp",
    },
    "optimizer/rules.py": {"ProjectOp", "LimitOp"},
}
offenders = []
files = sorted(SEM.rglob("*.py"))
for path in files:
    allowed = ALLOWED.get(path.relative_to(SEM).as_posix(), set())
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        name = getattr(node, "attr", getattr(node, "id", None))
        if name in OPS and name not in allowed:
            offenders.append(f"{path}:{node.lineno}: {name}")
if offenders:
    print("an operator is declared once: read the attribute / call the method "
          "on the logical class instead of naming it:")
    print("\n".join(offenders))
    sys.exit(1)
print(f"{len(files)} files: operator classes named only where declared or constructed")
PY
retired='op_token|estimate_operator\b.*isinstance|COSTLY_OPS|INCREMENTAL_SAFE_OPS|_PROFILED_OPS|_FREE_FILTERS|_PUSHABLE|COMMUTING_FILTERS|champion_model'
if grep -rnE --include='*.py' "$retired" src/; then
    echo "retired per-operator ladders / tuples (see the guard above) are back under src/"
    exit 1
fi
echo "no retired ladder, tuple or champion_model under src/"

echo
echo "== paper tables are generated, not transcribed (regenerate table1/table2, fail on drift) =="
python -m pytest -q benchmarks/bench_table1.py benchmarks/bench_table2.py
git diff --exit-code -- benchmarks/results/table1.txt benchmarks/results/table2.txt

echo
echo "== differential-testing fuzz lane =="
python -m repro.qa fuzz --n 15 --seed 0
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
echo "check.sh: all green"
