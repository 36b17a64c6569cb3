"""The batch endpoints against a per-record loop of today's semantics.

``judge_filter_batch``, ``extract_batch`` and ``classify_batch`` run a
whole batch of records under one ``ExecutionContext.guarded_batch`` call.
Their definition is the loop they replace: ``ExecutionContext.guarded``
around one per-call endpoint per record (per instruction, record-major),
each endpoint a cache probe — a hit records the shared zero-cost event —
or the oracle, the noise draw, ``_charge`` and the put.  The per-call
endpoints are written out below from the substrate's primitives,
independent of the batch loop, and every scenario runs that loop, the
batch endpoint and the public per-call endpoints from identical fresh
substrates, comparing everything a call leaves behind: results, tracker
events and spend, cache contents in LRU order, the clock, the section's
latencies, the failure flags, the backoff-jitter sequence, the serve
sink's steps, the tracer's spans and the metrics.  A batch loop that cuts
a corner — one hit event per batch, a spend-cap check before the first
call only — changes at least one of them (the plants below).  A miss goes
through the per-call endpoint, the name a benchmark trace wraps, and a
hit does not."""

from __future__ import annotations

import functools

import pytest

from repro.errors import BudgetExceededError, TransientLLMError
from repro.llm.client import ExtractionResult, FilterJudgment
from repro.llm.faults import FaultConfig, FaultInjector, RetryPolicy
from repro.llm.oracle import SemanticOracle
from repro.llm.simulated import (
    JUDGMENT_OUTPUT_TOKENS,
    SYSTEM_PROMPT_TOKENS,
    SimulatedLLM,
)
from repro.llm.usage import UsageEvent
from repro.obs import MetricsRegistry, Tracer
from repro.qa.corpus import DEPARTMENTS, CorpusSpec, build_corpus, instruction_for
from repro.sem import physical as P
from repro.serve.timeline import CallTimeline
from repro.utils.hashing import stable_hash
from repro.utils.text import approx_token_count

MODEL = "gpt-4o-mini"
FLAG = instruction_for("qa.flag_urgent")
FIELDS = [instruction_for("qa.amount"), instruction_for("qa.customer")]
DEPARTMENT = instruction_for("qa.department")
OPTIONS = list(DEPARTMENTS)


@pytest.fixture(scope="module")
def bundle():
    return build_corpus(CorpusSpec(seed=5, n_records=24))


# -- today's per-call endpoints, from the substrate's primitives --------------


def _prompt(call, record) -> int:
    return SYSTEM_PROMPT_TOKENS + call.instruction_tokens + record.text_tokens()


def _hit(llm, card, tag) -> UsageEvent:
    """A cache hit: a zero-cost event, its metrics and (outside measure
    cells) its zero-length span."""
    tag = tag or llm._span_tag()
    event = UsageEvent(card.name, 0, 0, 0.0, 0.0, tag, cached=True)
    llm.tracker.record(event)
    if llm.metrics.enabled:
        llm.metrics.counter("llm.calls").inc()
        llm.metrics.counter("llm.cached_calls").inc()
    if llm.tracer.enabled and llm._measure_depth == 0:
        now = llm.clock.elapsed
        llm.tracer.add_span(
            f"{card.name} (cached)", "llm-call", now, now, track="llm cached", tag=tag
        )
    return event


def _judge_filter(llm, instruction, record, model, tag):
    call = llm._prepared("filter", instruction, model)
    key = (call.key, record.uid)
    hit, value = llm.cache.get(key)
    if hit:
        return FilterJudgment(*value, _hit(llm, call.card, tag))
    judgment = llm.oracle.judge_filter(instruction, record)
    noise_key = judgment.intent_key or call.normalized
    erred = llm._errs(call, noise_key, record.uid, judgment.difficulty)
    answer = (bool(judgment.truth) != erred, judgment.resolved, judgment.intent_key)
    event = llm._charge(
        call.card, _prompt(call, record), JUDGMENT_OUTPUT_TOKENS, tag
    )
    llm.cache.put(key, answer)
    return FilterJudgment(*answer, event)


def _extract(llm, instruction, record, model, tag):
    call = llm._prepared("extract", instruction, model)
    key = (call.key, record.uid)
    hit, value = llm.cache.get(key)
    if hit:
        return ExtractionResult(*value, _hit(llm, call.card, tag))
    judgment = llm.oracle.extract_value(instruction, record)
    value = judgment.truth
    if judgment.resolved and llm._errs(
        call, judgment.intent_key, record.uid, judgment.difficulty
    ):
        value = llm._corrupt(judgment.truth, judgment.intent_key, record)
    output_tokens = max(8, approx_token_count(str(value)))
    event = llm._charge(
        call.card, _prompt(call, record), output_tokens, tag
    )
    answer = (value, judgment.resolved, judgment.intent_key)
    llm.cache.put(key, answer)
    return ExtractionResult(*answer, event)


def _classify(llm, instruction, options, record, model, tag):
    call = llm._prepared("classify", instruction, model)
    judgment = llm.oracle.extract_value(instruction, record)
    truth = judgment.truth if judgment.truth in options else options[0]
    value = truth
    if (
        judgment.resolved
        and llm._errs(call, judgment.intent_key, record.uid, judgment.difficulty)
        and len(options) > 1
    ):
        alternatives = [option for option in options if option != truth]
        value = alternatives[
            stable_hash(llm.seed, "classify-pick", record.uid) % len(alternatives)
        ]
    input_tokens = _prompt(call, record) + approx_token_count(" ".join(options))
    event = llm._charge(
        call.card, input_tokens, JUDGMENT_OUTPUT_TOKENS, tag
    )
    return ExtractionResult(value, judgment.resolved, judgment.intent_key, event)


def _reference(ctx, kind, records):
    """Today's operator loop: one guarded per-call endpoint per record."""
    llm = ctx.llm
    results = []
    for record in records:
        if kind == "filter":
            calls = [(functools.partial(_judge_filter, llm), FLAG, record)]
        elif kind == "extract":
            calls = [(functools.partial(_extract, llm), text, record) for text in FIELDS]
        else:
            calls = [(functools.partial(_classify, llm), DEPARTMENT, OPTIONS, record)]
        for endpoint, *args in calls:
            results.append(ctx.guarded(record.uid, MODEL, kind, endpoint, *args))
    return results


def _batched(ctx, kind, records):
    llm = ctx.llm
    if kind == "filter":
        return ctx.guarded_batch(records, MODEL, kind, llm.judge_filter_batch, FLAG)
    if kind == "extract":
        return ctx.guarded_batch(records, MODEL, kind, llm.extract_batch, FIELDS)
    return ctx.guarded_batch(
        records, MODEL, kind, llm.classify_batch, DEPARTMENT, OPTIONS
    )


def _per_call(ctx, kind, records):
    """The public per-call endpoints, one guarded call each."""
    llm = ctx.llm
    endpoint = {
        "filter": llm.judge_filter, "extract": llm.extract, "classify": llm.classify
    }[kind]
    results = []
    for record in records:
        if kind == "filter":
            calls = [(FLAG, record)]
        elif kind == "extract":
            calls = [(text, record) for text in FIELDS]
        else:
            calls = [(DEPARTMENT, OPTIONS, record)]
        for args in calls:
            results.append(ctx.guarded(record.uid, MODEL, kind, endpoint, *args))
    return results


# -- scenarios ----------------------------------------------------------------


def _llm(bundle, scenario) -> SimulatedLLM:
    kwargs = {}
    if scenario in ("faults-skip", "faults-raise", "served-faults"):
        # Every fault kind, few enough attempts that some calls give up.
        kwargs["faults"] = FaultInjector(FaultConfig(rate=0.45), seed=3)
        kwargs["retry"] = RetryPolicy(max_attempts=2)
    if scenario == "traced":
        kwargs["tracer"], kwargs["metrics"] = Tracer(), MetricsRegistry()
    return SimulatedLLM(oracle=SemanticOracle(bundle.registry), seed=5, **kwargs)


def _run(bundle, scenario, kind, run):
    """One side of a scenario: warm every third record through the
    reference, then ``run`` the whole input in one parallel section."""
    llm = _llm(bundle, scenario)
    sink = None
    if scenario.startswith("served"):
        sink = llm.serve_sink = CallTimeline()
    records = bundle.records()
    warm = P.ExecutionContext(llm=llm, tag="warm")
    _reference(warm, kind, records[::3])
    ctx = P.ExecutionContext(
        llm=llm,
        tag="q",
        on_failure="raise" if scenario == "faults-raise" else "skip",
        max_cost_usd=1e-4 if scenario == "budget" else None,
        cost_baseline_usd=llm.tracker.spent_usd,
    )
    results, error = None, None
    try:
        if scenario == "served":  # bare calls: one sink step per call
            results = run(ctx, kind, records)
        else:
            with llm.parallel(4) as section:
                results = run(ctx, kind, records)
    except (BudgetExceededError, TransientLLMError) as exc:
        error = type(exc).__name__
    return {
        "results": results,
        "error": error,
        "events": list(llm.tracker.events),
        "spent": llm.tracker.spent_usd,
        "cache": list(llm.cache._entries.items()),
        "cache_stats": (llm.cache.hits, llm.cache.misses, llm.cache.evictions, llm.cache.updates),
        "clock": llm.clock.elapsed,
        "latencies": None if scenario == "served" else section.latencies,
        "failures": list(ctx.failures),
        "sequence": llm._call_sequence,
        "steps": None if sink is None else (sink.steps, sink.elapsed),
        "spans": llm.tracer.spans if scenario == "traced" else None,
        "metrics": llm.metrics.snapshot(),
    }


SCENARIOS = ["faults-skip", "faults-raise", "budget", "served", "served-faults", "traced"]


@pytest.mark.parametrize("kind", ["filter", "extract", "classify"])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_batch_endpoint_equals_the_per_record_loop(bundle, scenario, kind):
    expected = _run(bundle, scenario, kind, _reference)
    assert _run(bundle, scenario, kind, _batched) == expected
    assert _run(bundle, scenario, kind, _per_call) == expected


@pytest.mark.parametrize("kind", ["filter", "extract", "classify"])
def test_scenarios_reach_what_they_exercise(bundle, kind):
    # Each scenario really draws what it is named for, so the equalities
    # above are not vacuous.
    skip = _run(bundle, "faults-skip", kind, _reference)
    assert {event.error for event in skip["events"] if event.failed} == {
        "rate_limit", "timeout", "api"
    }
    assert skip["results"].count(None) == len(skip["failures"]) > 0
    assert _run(bundle, "faults-raise", kind, _reference)["error"] is not None
    budget = _run(bundle, "budget", kind, _reference)
    assert budget["error"] == "BudgetExceededError"
    assert 0 < sum(not event.cached for event in budget["events"][-8:])
    served = _run(bundle, "served", kind, _reference)
    assert len(served["steps"][0]) > 1
    if kind != "classify":  # classifications are never cached
        assert any(event.cached for event in served["events"])
    traced = _run(bundle, "traced", kind, _reference)
    assert any(span.kind == "llm-call" for span in traced["spans"])


# -- plants: a batch loop that cuts a corner is caught ------------------------


def _hits_once_per_batch(original):
    """Plant: a batch records one cache-hit event however many hits it had."""

    def planted(self, *args, **kwargs):
        start = len(self.tracker.events)
        results = original(self, *args, **kwargs)
        hits = [event for event in self.tracker.events[start:] if event.cached]
        for event in hits[1:]:
            self.tracker.events.remove(event)
        return results

    return planted


def _budget_checked_once(original):
    """Plant: the spend cap is checked before a batch's first call only."""

    def planted(self, endpoint, heads, records, model, tag, before, on_error, *rest):
        checked = []

        def first_only():
            if not checked:
                checked.append(True)
                before()

        once = None if before is None else first_only
        return original(self, endpoint, heads, records, model, tag, once, on_error, *rest)

    return planted


@pytest.mark.parametrize(
    "plant, scenario, kind",
    [
        (_hits_once_per_batch, "served", "filter"),
        (_hits_once_per_batch, "served", "extract"),
        (_budget_checked_once, "budget", "filter"),
        (_budget_checked_once, "budget", "classify"),
    ],
)
def test_a_planted_batch_loop_differs_from_the_per_record_loop(
    bundle, monkeypatch, plant, scenario, kind
):
    expected = _run(bundle, scenario, kind, _reference)
    monkeypatch.setattr(SimulatedLLM, "_batch", plant(SimulatedLLM._batch))
    assert _run(bundle, scenario, kind, _batched) != expected


@pytest.mark.parametrize("kind", ["filter", "extract", "classify"])
def test_a_miss_crosses_the_per_call_endpoint_and_a_hit_does_not(
    bundle, monkeypatch, kind
):
    llm = _llm(bundle, "served")
    records = bundle.records()
    _reference(P.ExecutionContext(llm=llm, tag="warm"), kind, records[::3])
    name = {"filter": "judge_filter", "extract": "extract", "classify": "classify"}[kind]
    original = getattr(SimulatedLLM, name)
    crossed = []

    def counted(self, *args, **kwargs):
        crossed.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(SimulatedLLM, name, counted)
    start = len(llm.tracker.events)
    results = _batched(P.ExecutionContext(llm=llm, tag="q"), kind, records)
    events = llm.tracker.events[start:]
    assert len(events) == len(results) == len(crossed) + sum(e.cached for e in events)
    assert len(crossed) == sum(not event.cached for event in events) > 0
    if kind != "classify":  # classifications are never cached
        assert sum(event.cached for event in events) > 0


def test_results_and_events_built_without_the_constructor_are_whole(bundle):
    # Results and miss events are built with ``tuple.__new__``: each must
    # equal its constructor-built twin field for field.
    llm = _llm(bundle, "served")
    records = bundle.records()
    ctx = P.ExecutionContext(llm=llm, tag="q")
    results = _batched(ctx, "filter", records[::2]) + _batched(ctx, "filter", records)
    results += _batched(ctx, "extract", records)
    assert any(result.event.cached for result in results)
    assert any(not result.event.cached for result in results)
    for value in [*results, *llm.tracker.events]:
        kind = type(value)
        assert len(value) == len(kind._fields)
        assert kind(*value) == value
