"""The miss path: an uncached call pays for its record and nothing else.

A miss reads the intent its prepared call resolved (again only after the
intent registry changed), draws its noise, prices itself and records one
event.  The fault/retry saga runs only under a fault injector, and the
observers (spans, metrics, the serve sink's notes and steps) only when one
is on.  So one sequence of misses across every charging endpoint —
``judge_filter`` (resolved and not), ``extract``, ``classify``,
``judge_join``, ``complete`` and ``embed`` — must leave the same events,
spend, seconds, section latencies, cache (in LRU order) and backoff-jitter
sequence whether or not anything observes it, with and without faults.
Two plants show the checks are not vacuous.
"""

from __future__ import annotations

import pytest

from repro.errors import TransientLLMError
from repro.llm.faults import FaultConfig, FaultInjector, RetryPolicy
from repro.llm.oracle import IntentRegistry, SemanticOracle
from repro.llm.simulated import SimulatedLLM
from repro.obs import MetricsRegistry, Tracer
from repro.qa.corpus import DEPARTMENTS, CorpusSpec, build_corpus, instruction_for
from repro.sem import physical as P
from repro.serve.timeline import CallTimeline

MODEL = "gpt-4o-mini"
FLAG = instruction_for("qa.flag_urgent")
UNRESOLVED_FLAG = "Is this a limerick about penguins?"
AMOUNT = instruction_for("qa.amount")
DEPARTMENT = instruction_for("qa.department")
SAME_CUSTOMER = instruction_for("qa.same_customer")
OPTIONS = list(DEPARTMENTS)


@pytest.fixture(scope="module")
def bundle():
    return build_corpus(CorpusSpec(seed=7, n_records=16))


def _llm(bundle, faults: bool, observers: str) -> SimulatedLLM:
    kwargs = {}
    if faults:
        # Every fault kind, few enough attempts that some calls give up.
        kwargs["faults"] = FaultInjector(FaultConfig(rate=0.45), seed=3)
        kwargs["retry"] = RetryPolicy(max_attempts=2)
    if observers == "traced":
        kwargs["tracer"], kwargs["metrics"] = Tracer(), MetricsRegistry()
    llm = SimulatedLLM(oracle=SemanticOracle(bundle.registry), seed=5, **kwargs)
    if observers == "served":
        llm.serve_sink = CallTimeline()
    return llm


def _misses(llm: SimulatedLLM, records, on_failure: str) -> list:
    """One miss per charging endpoint per record, under ``on_failure``."""
    ctx = P.ExecutionContext(llm=llm, tag="q", on_failure=on_failure)
    results = []
    for left, right in zip(records, records[1:]):
        results.append(ctx.guarded(left.uid, MODEL, "filter", llm.judge_filter, FLAG, left))
        results.append(
            ctx.guarded(left.uid, MODEL, "filter", llm.judge_filter, UNRESOLVED_FLAG, left)
        )
        results.append(ctx.guarded(left.uid, MODEL, "map", llm.extract, AMOUNT, left))
        results.append(
            ctx.guarded(left.uid, MODEL, "classify", llm.classify, DEPARTMENT, OPTIONS, left)
        )
        results.append(
            ctx.guarded(left.uid, MODEL, "join", llm.judge_join, SAME_CUSTOMER, left, right)
        )
        results.append(
            ctx.guarded(left.uid, MODEL, "agg", llm.complete, f"Summarise {left.uid}.")
        )
        try:
            results.append(llm.embed(left.as_text(), tag="q:embed").tobytes())
        except TransientLLMError:
            if on_failure == "raise":
                raise
            results.append(None)
    return results


def _run(bundle, faults: bool, observers: str = "", on_failure: str = "skip") -> dict:
    """The sequence, first as bare calls, then in a parallel section, and
    everything it leaves behind."""
    llm = _llm(bundle, faults, observers)
    records = bundle.records()
    error = None
    try:
        results = _misses(llm, records[:5], on_failure)
        with llm.parallel(4) as section:
            results += _misses(llm, records[5:], on_failure)
    except TransientLLMError as exc:
        error = type(exc).__name__
    return {
        "results": None if error else results,
        "error": error,
        "events": list(llm.tracker.events),
        "spent": llm.tracker.spent_usd,
        # The one rule: spent seconds go to the sink when one is installed.
        "seconds": (llm.serve_sink or llm.clock).elapsed,
        "latencies": None if error else section.latencies,
        "cache": list(llm.cache._entries.items()),
        "sequence": llm._call_sequence,
        "observed": {
            "spans": [span.name for span in llm.tracer.spans] if observers == "traced" else [],
            "metrics": llm.metrics.snapshot(),
            "steps": None if llm.serve_sink is None else llm.serve_sink.steps,
        },
    }


def _unobserved(run: dict) -> dict:
    return {key: value for key, value in run.items() if key != "observed"}


SETTINGS = [
    (False, "skip"),  # no faults: "skip" never fires
    (True, "skip"),
    (True, "raise"),
]


@pytest.mark.parametrize("observers", ["traced", "served"])
@pytest.mark.parametrize("faults, on_failure", SETTINGS)
def test_observing_a_miss_adds_only_observations(bundle, faults, on_failure, observers):
    plain = _run(bundle, faults, "", on_failure)
    observed = _run(bundle, faults, observers, on_failure)
    assert _unobserved(observed) == _unobserved(plain)
    assert observed["observed"] != plain["observed"]


def test_the_settings_reach_what_they_exercise(bundle):
    # 4 bare pairs, then 10 pairs in the section; 7 calls per pair.
    bare, calls = 4 * 7, 14 * 7
    plain = _run(bundle, False)
    assert plain["error"] is None and plain["sequence"] == len(plain["events"]) == calls
    assert {event.model for event in plain["events"]} == {MODEL, "text-embedding-3-small"}
    assert not any(event.cached or event.failed for event in plain["events"])
    traced = _run(bundle, False, "traced")["observed"]
    assert traced["metrics"]["counters"]["llm.calls"] == calls
    assert len(traced["spans"]) == calls and traced["spans"].count(MODEL) == 14 * 6
    served = _run(bundle, False, "served")["observed"]
    assert len(served["steps"]) == bare + 1  # a step per bare call, then the wave
    skip = _run(bundle, True, "traced")
    assert {event.error for event in skip["events"] if event.failed} == {
        "rate_limit", "timeout", "api"
    }
    assert None in skip["results"]
    assert any(name.endswith("(gave up)") for name in skip["observed"]["spans"])
    assert _run(bundle, True, "", "raise")["error"] is not None


def test_an_unresolved_instruction_takes_the_heuristic_filter(bundle, monkeypatch):
    seen = []
    heuristic = SemanticOracle._heuristic_filter

    def counted(self, instruction, record):
        seen.append(instruction)
        return heuristic(self, instruction, record)

    monkeypatch.setattr(SemanticOracle, "_heuristic_filter", counted)
    llm = _llm(bundle, False, "")
    record = bundle.records()[0]
    resolved = llm.judge_filter(FLAG, record, model=MODEL)
    unresolved = llm.judge_filter(UNRESOLVED_FLAG, record, model=MODEL)
    assert seen == [UNRESOLVED_FLAG]
    assert resolved.resolved and resolved.intent_key == "qa.flag_urgent"
    assert (unresolved.resolved, unresolved.intent_key) == (False, "")


def _sees_new_intents(bundle) -> bool:
    """A prepared call resolves its next miss against the registry as it is
    now: after a ``register``, a swapped oracle and a ``merge``."""
    registry = IntentRegistry()
    llm = SimulatedLLM(oracle=SemanticOracle(registry), seed=5)
    records = iter(bundle.records())
    resolved = [llm.extract(AMOUNT, next(records)).resolved]
    call = llm._prepared("extract", AMOUNT, "gpt-4o")
    registry.register("qa.amount", ("total", "invoice", "dollars"))
    resolved.append(llm.extract(AMOUNT, next(records)).resolved)
    llm.oracle = SemanticOracle(IntentRegistry())
    resolved.append(llm.extract(AMOUNT, next(records)).resolved)
    llm.oracle.registry.merge(bundle.registry)
    resolved.append(llm.extract(AMOUNT, next(records)).resolved)
    assert llm._prepared("extract", AMOUNT, "gpt-4o") is call
    return resolved == [False, True, False, True]


def test_a_prepared_call_resolves_against_the_current_registry(bundle):
    assert _sees_new_intents(bundle)


# -- plants: each is caught by a check above ----------------------------------


def test_a_stale_prepared_intent_is_caught(bundle, monkeypatch):
    """Plant: a prepared call resolves once and keeps that intent."""
    judge = SimulatedLLM._judge

    def stale(self, call, record):
        if call.version != -1:
            call.version = self.oracle.registry.version
        return judge(self, call, record)

    monkeypatch.setattr(SimulatedLLM, "_judge", stale)
    assert not _sees_new_intents(bundle)


def test_an_unobserved_charge_that_skips_the_call_sequence_is_caught(bundle, monkeypatch):
    """Plant: the unobserved success path leaves ``_call_sequence`` alone."""
    charge = SimulatedLLM._charge

    def planted(self, card, input_tokens, output_tokens, tag):
        sequence = self._call_sequence
        event = charge(self, card, input_tokens, output_tokens, tag)
        if not (self.metrics.enabled or self.tracer.enabled or self.serve_sink):
            self._call_sequence = sequence
        return event

    monkeypatch.setattr(SimulatedLLM, "_charge", planted)
    for observers in ("traced", "served"):
        assert _unobserved(_run(bundle, False, observers)) != _unobserved(_run(bundle, False))
