"""Tests for the plan-space differential-testing harness (``repro.qa``)."""

import inspect
import json

import pytest

from repro.errors import ConfigurationError
from repro.qa.bundle import BUNDLE_VERSION, ReplayBundle
from repro.qa.configs import ConfigSpec, config_matrix
from repro.qa.corpus import CorpusSpec, build_corpus
from repro.qa.fuzzer import KINDS, FuzzCase, PlanFuzzer
from repro.qa.mutations import MUTATIONS, mutation_by_name
from repro.qa.oracles import (
    Violation,
    check_budget,
    check_determinism,
    check_exec_equivalence,
    evaluate,
)
from repro.qa.runner import CaseRun, Observation, run_case, run_spec
from repro.qa.shrinker import shrink
from repro.sem.dataset import Dataset


# ---------------------------------------------------------------------------
# Fuzzer: determinism, serde, structural invariants
# ---------------------------------------------------------------------------


def test_fuzzer_is_a_pure_function_of_seed_and_index():
    first = [PlanFuzzer(seed=7).case(i).to_dict() for i in range(6)]
    second = [PlanFuzzer(seed=7).case(i).to_dict() for i in range(6)]
    assert first == second


def test_fuzzer_seeds_explore_different_plan_spaces():
    plans_a = [PlanFuzzer(seed=0).case(i).plan.to_dict() for i in range(8)]
    plans_b = [PlanFuzzer(seed=1).case(i).plan.to_dict() for i in range(8)]
    assert plans_a != plans_b


def test_the_first_cases_run_every_dataset_operator_kind():
    """Each operator the fluent API exposes is scheduled into one of seed
    0's first 15 cases, so the fuzz lane diffs all of them against the
    reference interpreter."""
    spelled = {"filter": "py_filter", "map": "py_map"}
    exposed = {
        spelled.get(name, name)
        for name, member in vars(Dataset).items()
        if inspect.isfunction(member) and not name.startswith("_")
        and inspect.signature(member, eval_str=True).return_annotation in (Dataset, "Dataset")
    }
    fuzzer = PlanFuzzer(seed=0)
    kinds = set()
    for index in range(15):
        for op in fuzzer.case(index).plan.ops:
            kinds.add(op["op"])
            kinds.update(sub["op"] for sub in op.get("right", ()))
    assert len(exposed) == 14
    assert kinds == exposed == set(KINDS)


def test_case_serde_round_trips_through_json():
    case = PlanFuzzer(seed=3).case(2)
    payload = json.loads(json.dumps(case.to_dict()))
    assert FuzzCase.from_dict(payload) == case


def test_generated_plans_respect_structural_invariants():
    fuzzer = PlanFuzzer(seed=1, max_ops=4)
    for case in [fuzzer.case(i) for i in range(25)]:
        ops = case.plan.ops
        assert ops, "plans are never empty"
        joins = [op for op in ops if op["op"] == "sem_join"]
        assert len(joins) <= 1
        # retrieve prefix + body + terminal decoration; join sub-ops ride
        # inside the one join entry.
        assert case.plan.op_count() <= fuzzer.max_ops + 2 + 2


def test_corpus_generation_is_deterministic():
    spec = CorpusSpec(seed=42, n_records=16)
    first = [(r.uid, dict(r.fields)) for r in build_corpus(spec).source()]
    second = [(r.uid, dict(r.fields)) for r in build_corpus(spec).source()]
    assert first == second
    assert len(first) == 16


# ---------------------------------------------------------------------------
# Config matrix
# ---------------------------------------------------------------------------


def _matrix_for(seed, index=0):
    case = PlanFuzzer(seed=seed).case(index)
    return case, config_matrix(case.plan, case.case_seed)


def test_config_specs_serde_round_trip():
    _, specs = _matrix_for(seed=0)
    for spec in specs:
        payload = json.loads(json.dumps(spec.to_dict()))
        assert ConfigSpec.from_dict(payload) == spec


def test_matrix_always_contains_the_exec_class_core():
    _, specs = _matrix_for(seed=0)
    names = {spec.name for spec in specs}
    assert {"reference", "baseline", "small-batch", "row-batch", "serial"} <= names
    row_batch = next(spec for spec in specs if spec.name == "row-batch")
    assert row_batch.batch_size == 1 and row_batch.answer_class == "exec"
    # The knob-flipped baselines are gone: one reference observation, run
    # by the interpreter, is what every class is diffed against.
    assert not names & {"barrier", "no-pushdown", "tight-embed", "no-adaptive"}
    assert [s.name for s in specs if s.answer_class == "reference"] == ["reference"]
    assert sum(1 for spec in specs if spec.name == "baseline") == 1


def test_matrix_budget_and_fault_cells_require_semantic_ops():
    fuzzer = PlanFuzzer(seed=2)
    for index in range(10):
        case = fuzzer.case(index)
        specs = config_matrix(case.plan, case.case_seed)
        has_budget = any(spec.answer_class == "budget" for spec in specs)
        has_fault = any(spec.answer_class == "fault" for spec in specs)
        semantic = case.plan.semantic_op_count() > 0
        assert has_budget == semantic
        assert has_fault == semantic


def test_matrix_optimizer_cells_skip_join_plans():
    fuzzer = PlanFuzzer(seed=4)
    for index in range(12):
        case = fuzzer.case(index)
        specs = config_matrix(case.plan, case.case_seed)
        opt_names = {s.name for s in specs if s.optimize}
        if case.plan.has_join():
            # Joins are bounded without sampling; only the probe cell runs.
            assert "optimized-maxq" not in opt_names
        else:
            assert "optimized-maxq" in opt_names


# ---------------------------------------------------------------------------
# Runner + oracles on real cases
# ---------------------------------------------------------------------------


def test_run_spec_is_deterministic_for_the_baseline():
    case, specs = _matrix_for(seed=5, index=1)
    baseline = next(spec for spec in specs if spec.name == "baseline")
    first = run_spec(case, baseline)
    second = run_spec(case, baseline)
    assert first.error is None
    assert first.records == second.records
    assert first.total_cost_usd == second.total_cost_usd
    assert first.total_time_s == second.total_time_s


@pytest.mark.parametrize("index", [0, 1, 2])
def test_oracles_pass_on_healthy_cases(index):
    case = PlanFuzzer(seed=0).case(index)
    violations = evaluate(run_case(case))
    assert violations == [], [str(v) for v in violations]


# ---------------------------------------------------------------------------
# Oracle unit behavior on synthetic observations
# ---------------------------------------------------------------------------


def _obs(name, answer_class, **kwargs):
    spec = ConfigSpec(name=name, answer_class=answer_class)
    return Observation(spec=spec, **kwargs)


def test_check_determinism_flags_diverging_reruns():
    run = CaseRun(
        case=None,
        observations={
            "baseline": [
                _obs("baseline", "exec", records=[("a", ())]),
                _obs("baseline", "exec", records=[("b", ())]),
            ]
        },
    )
    assert any(v.oracle == "determinism" for v in check_determinism(run))


def test_check_exec_equivalence_flags_record_mismatch():
    run = CaseRun(
        case=None,
        observations={
            "reference": [_obs("reference", "reference", records=[("a", ())])],
            "baseline": [_obs("baseline", "exec", records=[("z", ())])],
            "row-batch": [_obs("row-batch", "exec", records=[("a", ())])],
        },
    )
    violations = check_exec_equivalence(run)
    assert [(v.oracle, v.spec) for v in violations] == [
        ("exec-equivalence", "baseline")
    ]


def test_check_exec_equivalence_bounds_cost_by_the_reference():
    # The folded-in pushdown contract: no engine cell may outspend the
    # plan-order, no-pushdown reference run.
    run = CaseRun(
        case=None,
        observations={
            "reference": [_obs("reference", "reference", total_cost_usd=1.0)],
            "baseline": [_obs("baseline", "exec", total_cost_usd=0.4)],
            "serial": [_obs("serial", "exec", total_cost_usd=1.5)],
        },
    )
    violations = check_exec_equivalence(run)
    assert [v.spec for v in violations] == ["serial"]
    assert "exceeds the reference" in violations[0].message


def test_check_budget_flags_overshoot_beyond_the_saga_allowance():
    over = _obs(
        "budget-tight",
        "budget",
        total_cost_usd=1.0,
        max_cost_usd=0.1,
        max_event_cost_usd=0.01,
        max_attempts=3,
    )
    run = CaseRun(case=None, observations={"budget-tight": [over]})
    assert any(v.oracle == "budget-cap" for v in check_budget(run))

    # Within cap + allowance: legal.
    within = _obs(
        "budget-tight",
        "budget",
        total_cost_usd=0.12,
        max_cost_usd=0.1,
        max_event_cost_usd=0.01,
        max_attempts=3,
    )
    run = CaseRun(case=None, observations={"budget-tight": [within]})
    assert check_budget(run) == []


# ---------------------------------------------------------------------------
# Mutations, shrinking, replay bundles
# ---------------------------------------------------------------------------


def test_mutation_registry_and_lookup():
    assert set(MUTATIONS) == {
        "drop-budget-check", "scramble-cell-order", "filter-drops-kept",
        "replay-after-delta", "patch-keeps-stale", "sink-drops-section-time",
    }
    assert mutation_by_name("drop-budget-check").expected_oracle == "budget-cap"
    with pytest.raises(ConfigurationError):
        mutation_by_name("no-such-mutation")


def test_scramble_mutation_reaches_shard_cells():
    # One cell runner: the ordering defect must corrupt the sharded run
    # itself, not merely the unsharded baseline it is compared against.
    mutation = mutation_by_name("scramble-cell-order")
    assert "shard-equivalence" in mutation.also_killed_by
    case = PlanFuzzer(seed=0).case(0)
    spec = next(s for s in config_matrix(case.plan) if s.name == "sharded-4")
    clean = run_spec(case, spec)
    broken = run_spec(case, spec, mutation=mutation)
    assert clean.error is None and broken.error is None
    assert broken.records != clean.records


def test_dropped_section_time_is_seen_only_by_serving_conservation():
    # Served records and dollars are untouched; only the job's standalone
    # time stops matching the direct baseline's total time.
    mutation = mutation_by_name("sink-drops-section-time")
    case = PlanFuzzer(seed=0).case(0)
    specs = {s.name: s for s in config_matrix(case.plan)}
    baseline = run_spec(case, specs["baseline"], mutation=mutation)
    clean = run_spec(case, specs["served"])
    broken = run_spec(case, specs["served"], mutation=mutation)
    assert broken.records == clean.records
    assert broken.total_cost_usd == clean.total_cost_usd
    assert clean.serve_standalone_s == [baseline.total_time_s] * 2
    assert broken.serve_standalone_s[0] < baseline.total_time_s


def test_shared_operator_bug_is_killed_only_through_the_reference():
    # Every engine cell runs the one PhysSemFilter body, so a defect in it
    # is invisible to engine-vs-engine comparisons (it survived the whole
    # matrix when the baselines were "same engine, knob flipped").
    mutation = mutation_by_name("filter-drops-kept")
    assert mutation.only_via_reference
    case = next(
        case
        for case in map(PlanFuzzer(seed=0).case, range(10))
        if any(op["op"] == "sem_filter" for op in case.plan.ops)
        and not case.plan.has_join()
    )
    run = run_case(case, mutation=mutation)
    fired = {v.oracle for v in evaluate(run)}
    assert {"exec-equivalence", "shard-equivalence", "serve-equivalence"} <= fired
    assert any(v.spec == "baseline" for v in evaluate(run))
    del run.observations["reference"]
    assert evaluate(run) == []


def test_replay_order_bug_is_killed_in_both_standing_shapes():
    # The compact (unsharded) and the expanded (sharded) delta replay are
    # two shapes of one operator; the standing specs must each see a defect
    # in it, and nothing but incremental execution can (an exact replay has
    # no delta to misplace).
    mutation = mutation_by_name("replay-after-delta")
    assert mutation.killed_in_specs == ("standing", "standing-sharded-4")
    case = PlanFuzzer(seed=0).case(0)
    specs = {s.name: s for s in config_matrix(case.plan)}
    assert specs["standing-sharded-4"].shards == 4
    assert specs["standing-sharded-3-range"].partitioner == "range"
    violations = evaluate(run_case(case, mutation=mutation))
    assert {v.oracle for v in violations} == {"streaming-equivalence"}
    assert {v.spec for v in violations} == {
        "standing", "standing-sharded-4", "standing-sharded-3-range",
    }
    assert evaluate(run_case(case)) == []


def test_stale_patch_is_killed_in_both_standing_shapes():
    # The streaming class rewrites a base record in place with its own
    # fields: the reference is unchanged, but the tick after it must patch,
    # and a patch that keeps the stale outputs doubles the record.
    mutation = mutation_by_name("patch-keeps-stale")
    case = PlanFuzzer(seed=0).case(0)
    violations = evaluate(run_case(case, mutation=mutation))
    assert {v.oracle for v in violations} == {"streaming-equivalence"}
    assert set(mutation.killed_in_specs) <= {v.spec for v in violations}


def test_streaming_oracle_flags_a_silent_full_recompute():
    # Records cannot show a standing query that quietly recomputes every
    # tick; the delta-tick count can.
    from repro.qa.oracles import check_streaming_equivalence

    def observed(delta_ticks, owed):
        spec = ConfigSpec(name="standing", answer_class="streaming", streaming=True)
        observation = Observation(
            spec=spec, streaming_fold_identical=True, streaming_ticks=4,
            streaming_delta_ticks=delta_ticks, streaming_delta_owed=owed,
        )
        return CaseRun(case=None, observations={"standing": [observation]})

    (violation,) = check_streaming_equivalence(observed(0, owed=True))
    assert violation.oracle == "streaming-equivalence"
    assert "no delta tick" in violation.message
    assert check_streaming_equivalence(observed(3, owed=True)) == []
    # The rewrite's tick owes a delta too: one recompute of three is a bug.
    (violation,) = check_streaming_equivalence(observed(2, owed=True))
    assert "1 of 3" in violation.message
    # A plan past an unsafe boundary (group-by, limit) legally recomputes.
    assert check_streaming_equivalence(observed(0, owed=False)) == []


@pytest.mark.slow
def test_seeded_mutation_is_caught_and_shrinks_small():
    # The acceptance bug: a dropped budget check must be caught by the
    # budget oracle and delta-debugged down to a tiny repro.
    mutation = mutation_by_name("drop-budget-check")
    case = PlanFuzzer(seed=0).case(0)
    violations = evaluate(run_case(case, mutation=mutation))
    assert any(v.oracle == mutation.expected_oracle for v in violations)

    result = shrink(case, mutation=mutation)
    assert result.violations, "shrunk case must still fail"
    assert result.case.plan.op_count() <= 3
    assert {v.oracle for v in result.violations} & {mutation.expected_oracle}


@pytest.mark.slow
def test_replay_bundle_round_trips_and_reproduces(tmp_path):
    mutation = mutation_by_name("drop-budget-check")
    case = PlanFuzzer(seed=0).case(0)
    violations = evaluate(run_case(case, mutation=mutation))
    bundle = ReplayBundle.capture(case, violations, mutation=mutation.name)

    path = bundle.save(tmp_path / "bundle.json")
    loaded = ReplayBundle.load(path)
    assert loaded.case == case
    assert loaded.mutation == mutation.name
    assert loaded.expected_oracles == sorted({v.oracle for v in violations})

    replayed, reproduced = loaded.replay()
    assert reproduced
    assert {v.oracle for v in replayed} & set(loaded.expected_oracles)


def test_version_one_bundle_is_a_configuration_error():
    payload = ReplayBundle.capture(PlanFuzzer(seed=0).case(0), []).to_dict()
    assert payload["version"] == BUNDLE_VERSION == 2
    with pytest.raises(ConfigurationError, match="version 1"):
        ReplayBundle.from_dict({**payload, "version": 1})


def test_config_spec_from_dict_names_a_retired_key():
    payload = {**ConfigSpec(name="faulty").to_dict(), "on_failure": "skip"}
    with pytest.raises(ConfigurationError, match="on_failure"):
        ConfigSpec.from_dict(payload)
    assert ConfigSpec.from_dict(ConfigSpec(name="faulty").to_dict()) == ConfigSpec(
        name="faulty"
    )


def test_clean_capture_replays_clean():
    case = PlanFuzzer(seed=0).case(1)
    bundle = ReplayBundle.capture(case, [])
    replayed, reproduced = bundle.replay()
    assert reproduced and replayed == []


def test_violation_formatting_names_oracle_and_cell():
    violation = Violation("budget-cap", "budget-tight", "spent too much")
    assert str(violation) == "[budget-cap] budget-tight: spent too much"


# ---------------------------------------------------------------------------
# CLI: fuzz -> bundle -> replay, in-process
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_cli_fuzz_is_clean_and_deterministic(tmp_path, capsys):
    from repro.qa.cli import main

    argv = ["fuzz", "--n", "3", "--seed", "0", "--out", str(tmp_path)]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert "0 failing" in first
    # Identical modulo the wall-clock timing suffix.
    strip = lambda out: [line.split(" (")[0] for line in out.splitlines()]  # noqa: E731
    assert strip(first) == strip(second)
    assert not list(tmp_path.iterdir()), "clean fuzz writes no bundles"


@pytest.mark.slow
def test_cli_mutated_fuzz_writes_bundle_that_replays(tmp_path, capsys):
    from repro.qa.cli import main

    code = main(
        ["fuzz", "--n", "1", "--seed", "0", "--mutate", "drop-budget-check",
         "--out", str(tmp_path)]
    )
    assert code == 1
    bundles = sorted(tmp_path.glob("*.json"))
    assert bundles, "failing fuzz must capture a replay bundle"
    capsys.readouterr()

    assert main(["replay", str(bundles[0])]) == 0
    out = capsys.readouterr().out
    assert "reproduced" in out


def test_cli_rejects_unknown_mutation(capsys):
    from repro.qa.cli import main

    with pytest.raises(SystemExit):
        main(["fuzz", "--n", "1", "--mutate", "nope"])


def test_main_cli_delegates_qa_subcommand(tmp_path, capsys):
    from repro.cli import main

    assert main(["qa", "fuzz", "--n", "1", "--seed", "0",
                 "--out", str(tmp_path)]) == 0
    assert "fuzz:" in capsys.readouterr().out
