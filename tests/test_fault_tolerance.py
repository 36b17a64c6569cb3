"""Integration tests: fault injection through the LLM substrate, the
semantic-operator executor, and the CodeAgent loop.

The resilience contract under test (see DESIGN.md §5): with retries on,
answers are bit-identical to the fault-free run while cost and virtual
time rise; with retries off, execution degrades gracefully (records are
flagged and skipped, agents burn recovery turns) instead of crashing.

Toy-world setup (registry, record, LLM factories) comes from
``conftest.py``: ``toy_record``, ``make_toy_llm``, ``make_faulty_llm``.
"""

import pytest

from repro.agents.codeagent import MAX_LLM_FAILURES, CodeAgent
from repro.agents.policies.base import ScriptedPolicy
from repro.agents.tools import ToolRegistry
from repro.data.datasets import enron as en
from repro.errors import TransientAPIError, TransientLLMError
from repro.llm import faults
from repro.llm.faults import FaultConfig, FaultInjector, RetryPolicy
from repro.llm.simulated import SimulatedLLM
from repro.sem import Dataset, MaxQuality, QueryProcessorConfig

NO_RETRY = RetryPolicy(max_attempts=1)


# ---------------------------------------------------------------------------
# Substrate: retries, accounting, determinism
# ---------------------------------------------------------------------------


def test_retries_recover_with_identical_answers_at_a_cost(
    make_toy_llm, make_faulty_llm, toy_record
):
    clean = make_toy_llm(seed=3)
    faulty = make_faulty_llm(rate=0.4, seed=3)
    records = [toy_record(difficulty=1.0, uid=f"u{i}") for i in range(20)]

    clean_answers = [clean.judge_filter("special flag", r).answer for r in records]
    faulty_answers = [faulty.judge_filter("special flag", r).answer for r in records]

    # Answer noise and fault schedule are independent seeded streams.
    assert faulty_answers == clean_answers
    assert faulty.faults.injected > 0
    assert faulty.tracker.failed_calls() == faulty.faults.injected
    # Failed attempts and backoff waits are the price of resilience.
    assert faulty.tracker.total().cost_usd > clean.tracker.total().cost_usd
    assert faulty.clock.elapsed > clean.clock.elapsed


def test_success_events_carry_retry_count(make_faulty_llm, toy_record):
    llm = make_faulty_llm(rate=0.5, seed=2)
    for i in range(20):
        llm.judge_filter("special flag", toy_record(uid=f"u{i}"))
    succeeded = [e for e in llm.tracker.events if not e.failed and not e.cached]
    assert sum(e.retries for e in succeeded) == llm.faults.injected
    assert any(e.retries > 0 for e in succeeded)


def test_same_seed_identical_faulty_runs(make_faulty_llm, toy_record):
    def run():
        llm = make_faulty_llm(rate=0.4, seed=11)
        answers = [
            llm.judge_filter("special flag", toy_record(difficulty=1.0, uid=f"u{i}")).answer
            for i in range(25)
        ]
        return (
            answers,
            llm.faults.attempts,
            llm.faults.injected,
            dict(llm.faults.injected_by_kind),
            llm.tracker.total().cost_usd,
            llm.clock.elapsed,
        )

    assert run() == run()


def test_retries_off_raises_first_fault(make_faulty_llm, toy_record):
    llm = make_faulty_llm(rate=1.0, seed=0, retry=NO_RETRY)
    with pytest.raises(TransientLLMError):
        llm.judge_filter("special flag", toy_record())
    # The single failed attempt is charged before the raise.
    assert llm.tracker.failed_calls() == 1
    assert llm.clock.elapsed > 0


def test_exhausted_attempts_raise_and_charge_every_attempt(make_faulty_llm, toy_record):
    llm = make_faulty_llm(rate=1.0, seed=0, retry=RetryPolicy(max_attempts=3))
    with pytest.raises(TransientLLMError):
        llm.judge_filter("special flag", toy_record())
    assert llm.tracker.failed_calls() == 3


def test_backoff_waits_reach_the_virtual_clock(
    make_faulty_llm, toy_record, monkeypatch
):
    def elapsed(base_backoff_s):
        monkeypatch.setattr(faults, "BASE_BACKOFF_S", base_backoff_s)
        monkeypatch.setattr(faults, "MAX_BACKOFF_S", base_backoff_s)
        monkeypatch.setattr(faults, "JITTER", 0.0)
        llm = make_faulty_llm(rate=1.0, seed=0, retry=RetryPolicy(max_attempts=2))
        with pytest.raises(TransientLLMError):
            llm.judge_filter("special flag", toy_record())
        return llm.clock.elapsed

    # Both runs share the fault schedule and attempt latencies; the fast
    # policy still waits the rate-limit's retry_after_s floor, so the delta
    # is the extra backoff (50s minus that floor).
    assert elapsed(50.0) >= elapsed(0.0) + 40.0


def test_embeddings_exempt_from_faults_by_default(make_faulty_llm):
    llm = make_faulty_llm(rate=1.0, seed=0, retry=NO_RETRY)
    llm.embed("identity theft")  # must not raise
    assert llm.tracker.failed_calls() == 0


def test_cache_hits_bypass_the_fault_path(make_faulty_llm, toy_record):
    llm = make_faulty_llm(rate=0.5, seed=4)
    record = toy_record(uid="warm")
    llm.judge_filter("special flag", record)
    attempts_before = llm.faults.attempts
    second = llm.judge_filter("special flag", record)
    assert second.event.cached
    assert llm.faults.attempts == attempts_before


def test_retry_saga_occupies_one_parallel_slot(make_faulty_llm, toy_record):
    # A call that retries inside a parallel section charges its whole saga
    # (failed attempts + backoffs + success) as a single wave item.
    patient = RetryPolicy(max_attempts=12)
    llm = make_faulty_llm(rate=0.5, seed=5, retry=patient)
    with llm.parallel(4):
        for i in range(4):
            llm.judge_filter("special flag", toy_record(uid=f"u{i}"))
    assert llm.faults.injected > 0
    sequential = make_faulty_llm(rate=0.5, seed=5, retry=patient)
    for i in range(4):
        sequential.judge_filter("special flag", toy_record(uid=f"u{i}"))
    assert llm.clock.elapsed < sequential.clock.elapsed


# ---------------------------------------------------------------------------
# Semantic-operator executor: per-record degradation
# ---------------------------------------------------------------------------


@pytest.fixture
def make_config(make_llm):
    def factory(bundle, seed=0, **kwargs):
        fault = kwargs.pop("fault_config", None)
        retry = kwargs.pop("retry", None)
        llm = make_llm(
            bundle,
            seed=seed,
            faults=FaultInjector(fault, seed=seed) if fault else None,
            retry=retry,
        )
        defaults = dict(llm=llm, policy=MaxQuality(), seed=seed)
        defaults.update(kwargs)
        return QueryProcessorConfig(**defaults)

    return factory


def _filter_run(config, bundle):
    return (
        Dataset.from_source(bundle.source())
        .sem_filter(en.FILTER_RELEVANT)
        .run(config)
    )


def test_operators_identical_output_under_faults_with_retries(make_config, enron_bundle):
    clean = make_config(enron_bundle, seed=7)
    faulty = make_config(
        enron_bundle,
        seed=7,
        fault_config=FaultConfig(rate=0.15),
        retry=RetryPolicy(max_attempts=6),
    )
    result_clean = _filter_run(clean, enron_bundle)
    result_faulty = _filter_run(faulty, enron_bundle)

    names = lambda result: [record["filename"] for record in result.records]  # noqa: E731
    assert names(result_faulty) == names(result_clean)
    assert result_faulty.retried_calls > 0
    assert result_faulty.failed_records == 0
    assert result_faulty.total_cost_usd > result_clean.total_cost_usd
    assert result_faulty.total_time_s > result_clean.total_time_s


def test_skip_mode_flags_records_instead_of_crashing(make_config, enron_bundle):
    config = make_config(
        enron_bundle,
        fault_config=FaultConfig(rate=0.3),
        retry=NO_RETRY,
        optimize=False,
    )
    result = _filter_run(config, enron_bundle)
    assert result.failed_records > 0
    assert len(config.llm.tracker.events) > 0
    # Flagged records carry the error type for the report.
    stats = result.operator_stats[1]
    assert stats.failed_records == result.failed_records
    assert result.retried_calls == config.llm.tracker.failed_calls()


def test_raise_mode_propagates(make_config, enron_bundle):
    # "raise" is the optimizer's sampling context's mode: an operator run
    # under it propagates the exhausted call instead of flagging the record.
    from repro.sem.execution import Engine
    from repro.sem.optimizer.optimizer import Optimizer
    from repro.sem.physical import ExecutionContext

    config = make_config(
        enron_bundle,
        fault_config=FaultConfig(rate=1.0),
        retry=NO_RETRY,
        optimize=False,
    )
    operators, _report = Optimizer(config).optimize(
        Dataset.from_source(enron_bundle.source()).sem_filter(en.FILTER_RELEVANT).plan()
    )
    ctx = ExecutionContext(llm=config.llm, tag=config.tag, on_failure="raise")
    with pytest.raises(TransientLLMError):
        Engine(ctx, batch_size=config.resolved_batch_size()).execute(operators)
    assert ctx.failures == []


def test_guarded_passes_the_endpoint_its_arguments_model_and_tag():
    """``guarded(uid, model, kind, call, *args)``: no closure, no tag per record."""
    from repro.sem.physical import ExecutionContext

    calls = []

    def endpoint(*args, model, tag):
        calls.append((args, model, tag))
        if model == "gpt-4o":
            raise TransientAPIError("down")
        return "answer"

    ctx = ExecutionContext(llm=SimulatedLLM(), tag="q")
    assert ctx.guarded("u1", "gpt-4o-mini", "filter", endpoint, "instr", "rec") == "answer"
    assert calls == [(("instr", "rec"), "gpt-4o-mini", "q:filter")]
    assert ctx.failures == []
    # "skip" degrades the record, flagged with its error, and never
    # re-asks; "raise" propagates.
    assert ctx.guarded("u2", "gpt-4o", "map", endpoint) is None
    assert calls[-1] == ((), "gpt-4o", "q:map")
    assert ctx.guarded("u3", "gpt-4o", "filter", endpoint) is None
    assert len(calls) == 3
    assert ctx.failures == [("u2", "TransientAPIError"), ("u3", "TransientAPIError")]
    ctx.on_failure = "raise"
    with pytest.raises(TransientAPIError):
        ctx.guarded("u4", "gpt-4o", "filter", endpoint)


# ---------------------------------------------------------------------------
# CodeAgent: recovery turns and the abort
# ---------------------------------------------------------------------------


class _ScriptedFaults:
    """Duck-typed injector with an explicit per-attempt schedule."""

    def __init__(self, schedule):
        self.schedule = list(schedule)
        self.attempts = 0
        self.injected = 0

    def draw(self, model, is_embedding=False, width=1, now=0.0):
        self.attempts += 1
        if self.schedule and self.schedule.pop(0):
            self.injected += 1
            return TransientAPIError("scripted fault")
        return None


class _TwoStep(ScriptedPolicy):
    def step_0(self, task, trace, tools):
        return "x = 2 + 2\nprint('computed', x)"

    def step_1(self, task, trace, tools):
        assert "computed 4" in trace.last_observation()
        return "final_answer(x)"


def test_agent_recovery_turn_reissues_same_step():
    # First completion attempt dies; the recovery turn must re-run the SAME
    # step (the scripted policy's internal counter must not advance), so the
    # episode still finishes with the right answer.
    llm = SimulatedLLM(seed=0, faults=_ScriptedFaults([True]), retry=NO_RETRY)
    agent = CodeAgent(llm, ToolRegistry(), _TwoStep())
    result = agent.run("compute four")
    assert result.finished and result.answer == 4
    assert result.llm_failures == 1
    assert result.aborted is None
    assert llm.tracker.failed_calls() == 1


def test_agent_aborts_when_llm_stays_down():
    llm = SimulatedLLM(
        seed=0, faults=FaultInjector(FaultConfig(rate=1.0), seed=0), retry=NO_RETRY
    )
    agent = CodeAgent(llm, ToolRegistry(), _TwoStep())
    result = agent.run("compute four")
    assert MAX_LLM_FAILURES == 3
    assert not result.finished
    assert result.aborted == "llm-unavailable"
    assert result.llm_failures == 4  # three tolerated + the one that broke it
    assert result.steps_used == 0  # no step ever completed


def test_agent_faulty_run_is_deterministic():
    def run():
        llm = SimulatedLLM(
            seed=9,
            faults=FaultInjector(FaultConfig(rate=0.3), seed=9),
            retry=RetryPolicy(max_attempts=5),
        )
        result = CodeAgent(llm, ToolRegistry(), _TwoStep()).run("compute four")
        return (result.answer, result.cost_usd, result.time_s, result.llm_failures)

    assert run() == run()


def test_running_counters_are_the_walked_values_on_a_faulty_run(
    make_faulty_llm, toy_record
):
    # CodeAgent.run and Engine._maybe_capture read the tracker's running
    # counters instead of walking every event since the runtime was built;
    # both must stay the left-to-right walks they replaced, bit for bit.
    from repro.data.schemas import Field, Schema
    from repro.sem.materialize import MaterializationStore

    llm = make_faulty_llm(rate=0.4, seed=9)
    tracker = llm.tracker
    for episode in range(2):
        walked_start = tracker.total().cost_usd
        result = CodeAgent(llm, ToolRegistry(), _TwoStep()).run("compute four")
        assert result.cost_usd == tracker.total().cost_usd - walked_start
        assert result.cost_usd > 0
    assert tracker.spent_usd == tracker.total().cost_usd

    checkpoint = tracker.checkpoint()
    failed_before = tracker.failed_attempts
    assert failed_before == tracker.failed_calls() > 0
    store = MaterializationStore()
    dataset = Dataset.from_records(
        [toy_record(difficulty=1.0, uid=f"u{i}") for i in range(20)],
        Schema([Field("body", str)]),
    ).sem_filter("special flag").sem_filter("number of widgets")
    config = QueryProcessorConfig(
        llm=llm, optimize=False, parallelism=4, materialization_store=store
    )
    dataset.run(config)
    assert tracker.failed_attempts - failed_before == tracker.failed_calls(checkpoint) > 0
    assert tracker.failed_attempts == tracker.failed_calls()
    assert tracker.spent_usd == tracker.total().cost_usd
    # A faulted call since the run began vetoes every capture.
    assert store.stores == 0
