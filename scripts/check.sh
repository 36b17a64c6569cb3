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

echo "== per-cell guard (parallel/measure return a section object and measured_step is a class: no generator context manager on the per-cell path) =="
if grep -n 'contextmanager' src/repro/llm/simulated.py src/repro/sem/execution.py; then
    echo "a fused cell pays for its records, not a generator per block: use a class with __enter__/__exit__"
    exit 1
fi
echo "no contextlib.contextmanager in llm/simulated.py or sem/execution.py"
echo
echo "== untraced-engine guard (the step budget is compiled into agent code: no settrace or setprofile under src/repro) =="
if grep -rnE 'settrace|setprofile' src/repro; then
    echo "meter the agent's code, not the engine: a trace or profile hook slows every tool call"
    exit 1
fi
echo "no settrace or setprofile under src/repro"
echo
echo "== priced-once guard (the substrate prices a record with record.text_tokens(): no approx_token_count over an as_text() under src/repro/llm) =="
if grep -rnE 'approx_token_count\([^)]*as_text\(' src/repro/llm; then
    echo "a record's prompt token count is counted once, on the record: call record.text_tokens()"
    exit 1
fi
echo "no approx_token_count(....as_text()) under src/repro/llm"
echo
echo "== digest-on-read guard (a served query's answer digest is QueryJob.fingerprint, computed when read: no .fingerprint() call under src/repro/serve) =="
if grep -rn '\.fingerprint()' src/repro/serve; then
    echo "submit and drain never digest the answer: a reader reads job.fingerprint"
    exit 1
fi
echo "no .fingerprint() under src/repro/serve"
echo
echo "== embed-once guard (every embedding endpoint reads the process-wide vector memo: no embedding_model.embed( under src/repro outside llm/embeddings.py) =="
if grep -rn --include='*.py' 'embedding_model\.embed(' src/repro | grep -v '^src/repro/llm/embeddings\.py:'; then
    echo "a text is embedded once per process: call embedding_model.vector(text, digest)"
    exit 1
fi
echo "no embedding_model.embed( under src/repro outside llm/embeddings.py"
echo

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
    echo "== fast lane: composition tests (replan under shards and behind replays) =="
    python -m pytest -q \
        tests/test_replan.py::TestReplanUnderSharding \
        tests/test_replan.py::TestReplanBehindAReplay
    echo
    echo "== fast lane: served == direct (records, dollars, standalone time and captured boundaries, at 1/3/4 shards and under a spend cap; the step graph replays as recorded; the wave heap grants the stride scan's slots; the answer digest is computed when read, equal to the run's; a tenant is a name and a budget, slots go at unit strides, a standing query always primes) =="
    python -m pytest -q \
        tests/test_serving.py::test_served_query_runs_the_engines_schedule \
        tests/test_serving.py::test_served_alone_equals_direct \
        tests/test_serving.py::test_served_query_under_a_spend_cap_matches_direct \
        tests/test_serving.py::test_diamond_step_never_starts_before_its_after_steps \
        tests/test_serving.py::test_linear_timeline_replays_as_a_step_cursor \
        tests/test_serving.py::test_flushed_topk_batch_waits_for_the_whole_topk_stage \
        tests/test_serving.py::test_heap_wave_fill_replays_the_stride_scan \
        tests/test_serving.py::test_submit_and_drain_never_digest_the_answer \
        tests/test_serving.py::test_job_fingerprint_is_the_runs_fingerprint \
        tests/test_serving.py::test_quota_less_tenant_keeps_no_arrivals \
        tests/test_serving.py::test_budget_quota_rejects_typed \
        tests/test_serving.py::test_provider_width_below_one_is_a_configuration_error \
        tests/test_sem_physical.py::test_serving_option_count_only_ratchets_down
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
    echo "== fast lane: per-cell path (storm accounting pinned and conserved through a mid-batch budget cut; the section-makespan metric is the schedule's; the predicate kernel keeps the bool and 2**53 rules) =="
    python -m pytest -q \
        tests/test_pipeline_execution.py::test_storm_accounting_is_pinned_and_conserved \
        tests/test_pipeline_execution.py::test_section_makespan_metric_is_the_schedules_makespan \
        tests/test_record_batch.py::test_mask_matches_row_semantics \
        tests/test_record_batch.py::TestExactFloatColumn
    echo
    echo "== fast lane: sqlite differential oracle (SELECTs, Dataset.where and struct_agg agree with stdlib sqlite3, NULL logic included; smoke count, the full gate runs 2,000 examples per property) =="
    python -m pytest -q --hypothesis-profile=fast tests/test_sql_differential.py
    echo
    echo "== fast lane: text-kernel equivalence (ASCII tokenizer pass == the regex; bincount embedding == the per-token loop, byte for byte; the vector memo computes a text once per process, charges per LLM and hands out read-only vectors) =="
    python -m pytest -q \
        tests/test_utils_text.py::test_ascii_tokenize_equals_match_by_match_formula \
        tests/test_utils_text.py::test_ascii_separators_are_exactly_the_non_word_characters \
        tests/test_utils_text.py::test_extract_keywords_equals_first_position_ranking \
        tests/test_llm_embeddings.py::test_ascii_embed_is_byte_identical_to_reference \
        tests/test_llm_embeddings.py::test_summation_order_is_first_seen_token_order \
        tests/test_llm_embeddings.py::test_corpus_records_embed_byte_identically \
        tests/test_llm_embeddings.py::test_memoized_vector_is_byte_identical_to_reference \
        tests/test_llm_embeddings.py::test_llms_share_the_computation_not_the_charges \
        tests/test_llm_embeddings.py::test_cleared_cache_charges_a_miss_without_recomputing \
        tests/test_llm_embeddings.py::test_vectors_are_read_only_and_stay_the_reference \
        tests/test_llm_embeddings.py::test_vector_memo_stays_within_cap
    echo
    echo "== fast lane: call keys and records (a cache key is the call's tuple and shares entries exactly as the digest formula; an embed key ends in the text's digest; every per-call record is an immutable tuple; a record's prompt token count is its own text's, computed once per record) =="
    python -m pytest -q \
        "tests/test_llm_prepared_calls.py::test_cache_keys_equal_the_written_out_formula" \
        tests/test_llm_prepared_calls.py::test_scope_flip_between_calls_never_reuses_the_other_scopes_hasher \
        tests/test_llm_prepared_calls.py::test_embed_keys_end_in_the_texts_digest_never_the_text \
        tests/test_llm_records.py \
        tests/test_data_records.py::test_text_tokens_is_the_count_of_the_records_own_text \
        tests/test_data_records.py::test_derived_and_merged_records_count_their_own_text \
        tests/test_record_pricing.py::test_filter_then_map_counts_each_priced_record_once \
        tests/test_record_pricing.py::test_nested_join_counts_each_side_once_not_per_pair
    echo
    echo "== fast lane: cold scan perf smoke (the miss path: every call a cache miss + put, digest == expected.json smoke seed 0) =="
    python3 -m benchmarks.perf bench --workload scan_cold --smoke
    echo
    echo "== fast lane: step budget (agent code metered wherever it runs, a caught budget error cannot resume, tools run untraced under the caller's trace function, a program compiled once is metered on every run, no str.format, tools described once) =="
    python -m pytest -q \
        tests/test_agents_sandbox.py::test_runaway_agent_code_hits_the_budget \
        tests/test_agents_sandbox.py::test_function_defined_in_one_step_is_metered_in_the_next \
        tests/test_agents_sandbox.py::test_caught_budget_error_cannot_resume \
        tests/test_agents_sandbox.py::test_budget_hit_inside_a_traced_tool_is_not_a_tool_error \
        tests/test_agents_sandbox.py::test_a_line_is_one_executed_statement \
        tests/test_agents_sandbox.py::test_every_statement_list_item_and_lambda_call_is_a_line \
        tests/test_agents_sandbox.py::test_trusted_code_is_never_metered \
        tests/test_agents_sandbox.py::test_tools_run_under_the_callers_trace_function \
        tests/test_agents_sandbox.py::test_format_is_rejected_on_every_execution \
        tests/test_agents_sandbox.py::test_f_string_fields_are_checked_like_any_expression \
        tests/test_agents_sandbox.py::test_a_program_is_compiled_once_per_process \
        tests/test_agents_sandbox.py::test_a_memo_hit_is_metered_at_its_own_sandboxs_budget \
        tests/test_agents_sandbox.py::test_a_memo_hit_runs_in_its_own_sandboxs_namespace \
        tests/test_agents_sandbox.py::test_a_rejected_program_is_never_stored \
        tests/test_agents_sandbox.py::test_the_memo_never_holds_more_than_its_cap \
        tests/test_agents_codeagent.py::test_tools_are_described_once_per_episode
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
echo "== multi-tenant serving smoke sweep (a served query runs the engine's own schedule: BENCH_serving.json must not drift) =="
python benchmarks/bench_serving.py --smoke
git diff --exit-code -- benchmarks/results/BENCH_serving.json

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
echo "== retired-option guard (no mechanics / replan-gate / select_models= / materialization_scope= / stats_scope= / answer_cache_size= config keyword; no optimize= / replan= / shards= / partitioner= on serving; no clock= / tracer= / metrics= on StandingQueryManager; no interval/watermark/governor knob on RefreshPolicy, event_time_s= on append/update or now_s= on pump; no weight= / max_per_window= / window_s= on TenantSpec, weights= on CrossQueryScheduler or runner= / prime= on register; no use_cache= / embedding_model= on SimulatedLLM; no threshold= on the catalog; no embed_batch_size= on ExecutionContext, min_width= / widen_after= on AdaptiveParallelism or budget_usd= on UsageTracker; no stats_estimates= / fallback_model= / on_failure= config keyword; no per_model_rates= / include_embeddings= / burst_length= / burst_rate= / retry_after_s= on FaultConfig, no enabled= / backoff / jitter= / timeout_s= / breaker knob on RetryPolicy, no step_timeout_s= / max_llm_failures= / max_consecutive_tool_errors= on CodeAgent; no decay= / min_observations= / max_entries= on a store or the generation cache; no similarity_floor= / max_candidates_per_left= / reset_stats= anywhere) =="
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
        # a record whose call fails after the retries is skipped and flagged.
        "stats_estimates", "fallback_model", "on_failure",
    }),
    # Served queries inherit these from the runtime's config.
    **dict.fromkeys(SERVING, {"optimize", "replan", "shards", "partitioner"}),
    # A standing query's clock, tracer and metrics are its config's LLM's.
    "StandingQueryManager": {"clock", "tracer", "metrics"},
    # A standing query refreshes on a count: no clock, event-time or
    # spend-estimate trigger, so nothing carries their knobs.
    "RefreshPolicy": {"interval_s", "lateness_s", "min_batch_usd", "max_staleness_s"},
    **dict.fromkeys(("append", "update"), {"event_time_s"}),
    "pump": {"now_s"},
    # A tenant is a name and a budget: slots go at unit strides and the
    # budget is the one admission cap.  A standing query registers on its
    # config, runs it on every refresh and primes at registration.
    "TenantSpec": {"weight", "max_per_window", "window_s"},
    "CrossQueryScheduler": {"weights"},
    "register": {"runner", "prime"},
    # The generation cache is always on; the embedding model is the
    # kernel whose outputs the process-wide vector memo keeps.
    "SimulatedLLM": {"use_cache", "embedding_model"},
    "ContextManager": {"threshold"},
    "find_similar": {"threshold"},
    # The execution path runs production's one value of each mechanic:
    # batched embeds, a floor of one wave slot, WIDEN_AFTER clean waves,
    # and no spend cap on the tracker (the run's cap is max_cost_usd).
    "ExecutionContext": {"embed_batch_size"},
    "AdaptiveParallelism": {"min_width", "widen_after"},
    "UsageTracker": {"budget_usd"},
    # The fault layer keeps what a workload runs: embeddings never fault,
    # and the Retry-After hint, backoff curve and agent failure budget are
    # constants in llm/faults.py and agents/codeagent.py.
    "FaultConfig": {
        "per_model_rates", "include_embeddings", "burst_length", "burst_rate",
        "retry_after_s",
    },
    "RetryPolicy": {
        "enabled", "base_backoff_s", "backoff_multiplier", "max_backoff_s",
        "jitter", "timeout_s", "breaker_threshold", "breaker_cooldown_s",
    },
    "CodeAgent": {"step_timeout_s", "max_llm_failures", "max_consecutive_tool_errors"},
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
          "config's substrate, primes and refreshes on a count, a tenant "
          "is a name and a budget, a misestimate is "
          "missing evidence, floors, bounds and blend weights are class "
          "constants, the execution path takes no mechanics option, and "
          "the fault layer keeps one retry knob and no failure mode:")
    print("\n".join(offenders))
    sys.exit(1)
print(f"{len(files)} files: no retired keyword on a config, serving, standing, tenant, scheduler, fault or agent constructor")
PY
retired_names='governor|watermark|lateness|event_time|max_staleness|min_batch_usd|now_s|last_refresh_s|use_cache|compile_operator|LogicalAgentOp|CompiledAgentOp|cheapest_model|usable_prior|note_dataset_version|decay_dataset|dataset_decays|_dataset_versions|use_priors|merge_similar_instructions|InstructionGroup|key_prefix|GenerationCache\.key\(|\.key\.digest\(|sink_owns_time|fused_batch_size|_wire_explicit_llm|CircuitBreaker|CircuitOpenError|resolved_fallback_model|fallback_model|breaker_|CreateTable|InsertInto|DropTable|_execute_insert|_parse_create|register_standing|pump_standing|standing_manager|RefreshRunner|max_per_window|GenericResearchPolicy'
if grep -rnE "$retired_names" src/; then
    echo "retired triggers, the event-time/staleness/prior-pricing state only they read, the cache switch, the agent-op IR, the stats store's evidence floor and append decay, the token-Jaccard merge, digested generation-cache keys, the serving mode split, the explicit-LLM re-wiring, the circuit breaker, the fallback failure mode, SQL write statements, the served standing-query fork, the tenant rate quota or the test-only research policy are back under src/ (the policy declares agent_model(); runtime.answer merges through the catalog; a cache key is the call's tuple; a served query runs the engine's own schedule; an explicit llm= is used as given; an exhausted call is skipped and flagged; SQL text is read-only and tables enter through Database.create_table; a standing query registers on runtime.standing(); a tenant's one cap is its budget)"
    exit 1
fi
echo "no retired trigger, cache switch, agent-op, evidence-floor, append-decay, merge-group, cache-key-digest, serving-mode, explicit-LLM re-wiring, breaker, fallback, SQL-write, served-standing, rate-quota or generic-policy name under src/"

echo
echo "== one-schedule guard (the engine never names the serving sink: time goes through llm.spend, dependencies through llm.mark / measure(after)) =="
if grep -rn 'serve_sink' src/repro/sem/; then
    echo "a served query runs the engine's own schedule: sem/ spends and passes tokens, it never asks for the sink"
    exit 1
fi
echo "no serve_sink under src/repro/sem/"

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
