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

from repro.agents.codeagent import CodeAgent
from repro.agents.policies.base import ScriptedPolicy
from repro.agents.tools import ToolRegistry
from repro.data.datasets import enron as en
from repro.errors import CircuitOpenError, TransientAPIError, TransientLLMError
from repro.llm.faults import FaultConfig, FaultInjector, RetryPolicy
from repro.llm.simulated import SimulatedLLM
from repro.sem import Dataset, MaxQuality, QueryProcessorConfig

NO_RETRY = RetryPolicy(enabled=False)


# ---------------------------------------------------------------------------
# Substrate: retries, accounting, determinism
# ---------------------------------------------------------------------------


@pytest.mark.smoke
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


@pytest.mark.smoke
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


def test_backoff_waits_reach_the_virtual_clock(make_faulty_llm, toy_record):
    slow = make_faulty_llm(
        rate=1.0,
        seed=0,
        retry=RetryPolicy(
            max_attempts=2, base_backoff_s=50.0, max_backoff_s=50.0, jitter=0.0
        ),
    )
    fast = make_faulty_llm(
        rate=1.0, seed=0, retry=RetryPolicy(max_attempts=2, base_backoff_s=0.0, jitter=0.0)
    )
    for llm in (slow, fast):
        with pytest.raises(TransientLLMError):
            llm.judge_filter("special flag", toy_record())
    # Both runs share the fault schedule and attempt latencies; the fast
    # policy still waits the rate-limit's retry_after_s floor, so the delta
    # is the extra backoff (50s minus that floor).
    assert slow.clock.elapsed >= fast.clock.elapsed + 40.0


def test_per_call_timeout_synthesizes_timeouts(make_toy_llm, toy_record):
    from repro.errors import TimeoutError as LLMTimeoutError

    llm = make_toy_llm(seed=0, retry=RetryPolicy(max_attempts=2, timeout_s=1e-6, jitter=0.0))
    with pytest.raises(LLMTimeoutError):
        llm.judge_filter("special flag", toy_record())


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
# Circuit breaker through the substrate
# ---------------------------------------------------------------------------


def test_breaker_trips_then_recovers_after_cooldown(make_toy_llm, toy_record):
    policy = RetryPolicy(enabled=False, breaker_threshold=2, breaker_cooldown_s=60.0)
    llm = make_toy_llm(
        seed=0,
        faults=FaultInjector(FaultConfig(rate=1.0), seed=0),
        retry=policy,
    )
    for i in range(2):
        with pytest.raises(TransientLLMError):
            llm.judge_filter("special flag", toy_record(uid=f"u{i}"))
    # Breaker is open: fail fast without consuming a fault-schedule draw.
    attempts = llm.faults.attempts
    with pytest.raises(CircuitOpenError):
        llm.judge_filter("special flag", toy_record(uid="u2"))
    assert llm.faults.attempts == attempts

    # The provider recovers; after the cooldown the half-open probe succeeds.
    llm.faults = None
    llm.clock.advance(60.0)
    judgment = llm.judge_filter("special flag", toy_record(uid="u3"))
    assert judgment.event.cost_usd > 0
    breaker = llm._breakers["gpt-4o"]
    assert breaker.state == "closed"
    assert breaker.times_opened == 1


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
        on_failure="skip",
    )
    result = _filter_run(config, enron_bundle)
    assert result.failed_records > 0
    assert len(config.llm.tracker.events) > 0
    # Flagged records carry the error type for the report.
    stats = result.operator_stats[1]
    assert stats.failed_records == result.failed_records
    assert result.retried_calls == config.llm.tracker.failed_calls()


def test_raise_mode_propagates(make_config, enron_bundle):
    config = make_config(
        enron_bundle,
        fault_config=FaultConfig(rate=1.0),
        retry=NO_RETRY,
        optimize=False,
        on_failure="raise",
    )
    with pytest.raises(TransientLLMError):
        _filter_run(config, enron_bundle)


def test_fallback_mode_reroutes_to_healthy_model(make_config, enron_bundle):
    # The champion model always faults; the cheap tier never does.  Every
    # record is answered by the fallback, so nothing is dropped.
    config = make_config(
        enron_bundle,
        fault_config=FaultConfig(rate=0.0, per_model_rates={"gpt-4o": 1.0}),
        retry=NO_RETRY,
        optimize=False,
        on_failure="fallback",
    )
    result = _filter_run(config, enron_bundle)
    assert result.failed_records == 0
    assert len(result.records) > 0
    assert result.retried_calls > 0
    models = {e.model for e in config.llm.tracker.events if not e.failed and not e.cached}
    assert "gpt-4o-mini" in models


def test_config_rejects_unknown_failure_mode(make_config, enron_bundle):
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        make_config(enron_bundle, on_failure="explode")


def test_failure_modes_have_one_definition_the_config_validates_against():
    from repro.errors import ConfigurationError
    from repro.sem import config as sem_config
    from repro.sem import physical

    assert sem_config.FAILURE_MODES == ("skip", "fallback", "raise")
    assert not hasattr(physical, "FAILURE_MODES")
    with pytest.raises(ConfigurationError, match="explode"):
        QueryProcessorConfig(llm=SimulatedLLM(), on_failure="explode")


def test_guarded_passes_the_endpoint_its_arguments_model_and_tag():
    """``guarded(uid, model, kind, call, *args)``: no closure, no tag per record."""
    from repro.sem.physical import ExecutionContext

    calls = []

    def endpoint(*args, model, tag):
        calls.append((args, model, tag))
        if model == "gpt-4o":
            raise TransientAPIError("down")
        return "answer"

    ctx = ExecutionContext(
        llm=SimulatedLLM(), tag="q", on_failure="fallback", fallback_model="gpt-4o-mini"
    )
    assert ctx.guarded("u1", "gpt-4o", "filter", endpoint, "instr", "rec") == "answer"
    assert calls == [
        (("instr", "rec"), "gpt-4o", "q:filter"),
        (("instr", "rec"), "gpt-4o-mini", "q:filter"),
    ]
    assert ctx.failures == []
    # The fallback model failing too degrades the record, flagged with the
    # fallback's error; "skip" never re-asks; "raise" propagates.
    assert ctx.guarded("u2", "gpt-4o", "map", endpoint) == "answer"
    assert calls[-1] == ((), "gpt-4o-mini", "q:map")
    ctx.fallback_model = "gpt-4o"
    assert ctx.guarded("u3", "gpt-4o", "filter", endpoint) is None
    ctx.on_failure = "skip"
    assert ctx.guarded("u4", "gpt-4o", "filter", endpoint) is None
    assert ctx.failures == [("u3", "TransientAPIError"), ("u4", "TransientAPIError")]
    ctx.on_failure = "raise"
    with pytest.raises(TransientAPIError):
        ctx.guarded("u5", "gpt-4o", "filter", endpoint)


def test_fallback_run_degrades_the_records_it_always_did(make_llm, enron_bundle):
    """Pinned from the closure-based ``guarded``: a run where the champion
    *and* the fallback tier fault degrades the same records, in the same
    order, with the same errors, spend and answer."""
    from repro.data.schemas import Field
    from repro.sem.execution import Engine
    from repro.sem.optimizer.optimizer import Optimizer
    from repro.sem.physical import ExecutionContext
    from repro.utils.hashing import stable_digest

    llm = make_llm(
        enron_bundle,
        seed=5,
        faults=FaultInjector(FaultConfig(rate=0.35), seed=5),
        retry=NO_RETRY,
    )
    config = QueryProcessorConfig(
        llm=llm, policy=MaxQuality(), seed=5, optimize=False, parallelism=4,
        on_failure="fallback",
    )
    assert config.resolved_fallback_model() == "gpt-4o-mini"
    plan = (
        Dataset.from_source(enron_bundle.source())
        .sem_filter(en.FILTER_RELEVANT)
        .sem_map(Field("sender_name", str, "who sent it"), "extract the name of the sender")
        .plan()
    )
    operators, _report = Optimizer(config).optimize(plan)
    ctx = ExecutionContext(
        llm=llm, parallelism=4, tag=config.tag,
        on_failure="fallback", fallback_model=config.resolved_fallback_model(),
    )
    result = Engine(ctx, batch_size=config.resolved_batch_size()).execute(operators)

    assert ctx.failures[:3] == [
        ("enron:email_007.txt", "RateLimitError"),
        ("enron:email_009.txt", "TransientAPIError"),
        ("enron:email_010.txt", "TransientAPIError"),
    ]
    assert len(ctx.failures) == result.failed_records == 46
    assert stable_digest(ctx.failures) == "94e4b5184cccb7cd"
    assert (len(result.records), result.retried_calls) == (30, 148)
    assert round(result.total_cost_usd, 9) == 0.2047145
    assert result.fingerprint() == "c668760bbce13394"
    assert {event.tag for event in llm.tracker.events} == {"query:filter", "query:map"}


# ---------------------------------------------------------------------------
# CodeAgent: recovery turns, timeouts, aborts
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
    agent = CodeAgent(llm, ToolRegistry(), _TwoStep(), max_llm_failures=3)
    result = agent.run("compute four")
    assert not result.finished
    assert result.aborted == "llm-unavailable"
    assert result.llm_failures == 4  # three tolerated + the one that broke it
    assert result.steps_used == 0  # no step ever completed


def test_agent_step_timeout_aborts_episode():
    llm = SimulatedLLM(seed=0)
    agent = CodeAgent(llm, ToolRegistry(), _TwoStep(), step_timeout_s=1e-6)
    result = agent.run("compute four")
    assert result.aborted == "step-timeout"
    assert result.steps_used == 1
    assert not result.finished


def test_agent_consecutive_tool_errors_abort():
    class AlwaysErrors(ScriptedPolicy):
        def step_0(self, task, trace, tools):
            return "1 / 0"

        step_1 = step_0
        step_2 = step_0

    agent = CodeAgent(
        SimulatedLLM(seed=0),
        ToolRegistry(),
        AlwaysErrors(),
        max_consecutive_tool_errors=2,
    )
    result = agent.run("fail repeatedly")
    assert result.aborted == "tool-errors"
    assert result.tool_errors == 2
    assert result.steps_used == 2


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
