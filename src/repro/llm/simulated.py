"""Deterministic simulated LLM service.

See the package docstring for the simulation contract.  Three mechanisms
matter for fidelity to the paper:

- **Noise is a property of the input, not the call**: whether a model errs
  on a (task, record) pair is decided by a stable hash of
  ``(trial seed, model, intent, record)``.  Re-asking the same model the same
  question yields the same answer (consistent with temperature-0 APIs), and
  the multi-armed-bandit sampler can therefore measure stable per-operator
  quality.
- **Difficulty scaling**: each record carries a per-intent difficulty; the
  effective error probability is ``base_rate * 2 * difficulty^2`` plus an
  additive ambiguity boost above difficulty 0.7, so hard records are where
  cheap models fail first — exactly the trade-off a cost-based optimizer
  must navigate — while genuinely ambiguous records trip up even strong
  models some of the time.
- **Parallel sections**: callers batching concurrent calls wrap them in
  :meth:`SimulatedLLM.parallel`, which charges the *makespan* of the batch
  rather than the sum.  The pipelined executor instead wraps each (batch,
  stage) cell in :meth:`SimulatedLLM.measure`, which captures the cell's
  duration without spending it so the engine can charge the
  cross-operator critical path
  (:class:`repro.utils.clock.PipelineSchedule`) instead of the stage sum.

Who receives spent seconds is one rule, :meth:`SimulatedLLM.spend`: the
serving sink when one is installed (``repro.serve``), else the clock.  A
sink also records every wave, and every bare call, made while no
``parallel`` section is open as one *call step* of the query's timeline,
waiting for what the engine says it waits for: a cell's step waits for the
cell's ``after`` token (:meth:`SimulatedLLM.measure`), any other step for
everything recorded so far.  The engine runs the same schedule either way.

A miss pays only for its record: its prepared call fixes the resolved
intent, its difficulty key and the noise heads, and :meth:`SimulatedLLM._charge`
is one success path plus, only when needed, the fault/retry saga and the observers.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.errors import TimeoutError as LLMTimeoutError
from repro.errors import ConfigurationError, RateLimitError, TransientLLMError
from repro.llm.cache import GenerationCache
from repro.llm.client import CompletionResult, ExtractionResult, FilterJudgment
from repro.llm.embeddings import DEFAULT_EMBED_BATCH, EmbeddingModel
from repro.llm.faults import FaultInjector, RetryPolicy
from repro.llm.models import DEFAULT_MODEL, EMBEDDING_MODEL, ModelCard, get_model
from repro.llm.oracle import (
    DIFFICULTY_PREFIX, UNRESOLVED, AnnotatedRecord, Intent, JudgeResult, SemanticOracle,
)
from repro.llm.usage import UsageEvent, UsageTracker
from repro.obs.metrics import MetricsRegistry, NullMetrics, get_default_metrics
from repro.obs.tracer import NoopTracer, Tracer, get_default_tracer
from repro.utils.clock import VirtualClock
from repro.utils.hashing import StablePrefix, stable_digest, stable_hash
from repro.utils.text import approx_token_count, extract_keywords, normalize_text

#: Tokens charged for the fixed system/instruction scaffolding of each call.
SYSTEM_PROMPT_TOKENS = 60

#: Output tokens for a terse boolean judgment ("Yes." / "No.").
JUDGMENT_OUTPUT_TOKENS = 5

#: Distractor annotation prefix: datasets may store a plausible wrong answer.
DISTRACTOR_PREFIX = "_distractor:"

#: Entries a :class:`SimulatedLLM` keeps in each of its two per-plan memos
#: (prepared calls, shared cache-hit events); a memo is dropped whole when
#: full (a plan has a handful of either).
_CALL_MEMO_CAP = 1024

#: ``_new(NamedTupleClass, fields)``: the tuple without a Python-level call,
#: every field given in order (a call's result and a miss's usage event).
_new = tuple.__new__

#: Task kind whose error rate and noise stream each endpoint kind draws on
#: (a join judgment errs like a filter judgment; embeddings never err).
_NOISE_KIND = {
    "filter": "filter",
    "join": "filter",
    "extract": "extract",
    "classify": "classify",
}


class _Section:
    """One :meth:`SimulatedLLM.parallel` or :meth:`SimulatedLLM.measure` block:
    calls inside append their latencies to the innermost open section."""

    __slots__ = ("llm", "width", "measuring", "latencies", "seconds", "tail")

    def __init__(
        self, llm: "SimulatedLLM", width: int, measuring: bool, tail: tuple = ()
    ) -> None:
        self.llm = llm
        self.width = width
        self.measuring = measuring
        self.latencies: list[float] = []
        self.seconds = 0.0
        #: A measure cell's token for its last call step (its ``after``
        #: until it records one); what the cell's next step waits for.
        self.tail = tail

    def __enter__(self) -> "_Section":
        self.llm._parallel_stack.append(self)
        if self.measuring:
            self.llm._measure_depth += 1
        return self

    def __exit__(self, *exc_info) -> None:
        llm = self.llm
        llm._parallel_stack.pop()
        latencies = self.latencies
        if self.measuring:
            llm._measure_depth -= 1
            # Width 1: sequential sub-sections within one cell add up, left
            # to right from 0.0 — ``_makespan(latencies, 1)``, bit for bit.
            self.seconds = sum(latencies)
        elif latencies:
            stack = llm._parallel_stack
            if llm.serve_sink is not None and len(stack) == llm._measure_depth:
                # No parallel section is still open: the wave is one step.
                llm._record_step(self.width, latencies)
            # The section's makespan is one unit of work in the enclosing
            # section (if any); only at the outermost level is it spent.
            # Spending directly here would double-schedule nested sections
            # against their parent's waves.
            makespan = _makespan(latencies, self.width)
            if stack:
                stack[-1].latencies.append(makespan)
            else:
                llm.spend(makespan)


class _PreparedCall:
    """What ``(endpoint kind, instruction, model, cache scope, seed)`` fixes.

    An operator sends one instruction to one model with every record, so
    everything here is computed for the first record and read for the
    rest: the model card, the normalised instruction and its token count,
    the head of every generation-cache key — the tuple ``(model, *scope,
    kind, normalized)`` that a call's key extends with its record uid(s)
    or text digest — twice the model's error rate on the task, one noise
    head per noise key with every part but the record's uid hashed, and
    the intent the instruction resolves to with that intent's difficulty
    annotation key.  Nothing here changes an answer, which calls share a
    cache entry, a draw or a charge — each is the value the per-call
    computation would produce.
    """

    __slots__ = (
        "card", "instruction", "normalized", "instruction_tokens", "key", "task_kind",
        "doubled_error_rate", "noise", "noise_heads", "options", "options_tokens",
        "version", "intent", "difficulty_key",
    )

    def __init__(
        self,
        kind: str,
        instruction: str | None,
        model: str,
        scope: str,
        seed: int,
    ) -> None:
        self.card = get_model(model)
        self.instruction = instruction
        payload: tuple[str, ...] = (kind,)
        self.normalized = ""
        self.instruction_tokens = 0
        if instruction is not None:  # None: an embedding, the text is the request
            self.normalized = normalize_text(instruction)
            self.instruction_tokens = approx_token_count(instruction)
            payload = (kind, self.normalized)
        # A scoped key names its tenant between the model and the kind.
        scoped = ("scope", scope) if scope else ()
        #: ``(key, uid, ...)`` is the call's generation-cache key.
        self.key = (model, *scoped, *payload)
        self.task_kind = _NOISE_KIND.get(kind, "")
        #: ``error_rate * 2.0``: the left-to-right head of :meth:`SimulatedLLM._errs`'s product.
        self.doubled_error_rate = self.card.error_rate(self.task_kind) * 2.0
        self.noise = StablePrefix(seed, "llm-noise", self.card.name, self.task_kind)
        #: noise key -> ``noise.child(noise_key)``; ``.uniform(uid)`` is the
        #: call's error draw.  The keys are the intents the instruction
        #: resolves to and ``normalized``.
        self.noise_heads: dict[str, StablePrefix] = {}
        #: ``classify`` only: the last option list seen and its token count.
        self.options: list[str] = []
        self.options_tokens = 0
        #: The resolved intent at registry ``version`` (-1: none yet; ``_judge``).
        self.version = -1
        self.intent: Intent | None = None
        self.difficulty_key = ""


class SimulatedLLM:
    """The simulated chat-completion + embedding service."""

    def __init__(
        self,
        oracle: SemanticOracle | None = None,
        tracker: UsageTracker | None = None,
        clock: VirtualClock | None = None,
        cache: GenerationCache | None = None,
        seed: int = 0,
        faults: FaultInjector | None = None,
        retry: RetryPolicy | None = None,
        tracer: "Tracer | NoopTracer | None" = None,
        metrics: "MetricsRegistry | NullMetrics | None" = None,
    ) -> None:
        self.oracle = oracle or SemanticOracle()
        self.tracker = tracker or UsageTracker()
        self.clock = clock or VirtualClock()
        self.cache = cache if cache is not None else GenerationCache()
        self.embedding_model = EmbeddingModel()
        self.seed = seed
        self.faults = faults
        self.retry = retry or RetryPolicy()
        # Observability: adopt the process defaults (no-op singletons unless
        # the CLI/harness enabled tracing) and bind the tracer to this clock
        # so span times share the virtual-time axis with all accounting.
        self.tracer = tracer if tracer is not None else get_default_tracer()
        if self.tracer.enabled and self.tracer.clock is None:
            self.tracer.clock = self.clock
        self.metrics = metrics if metrics is not None else get_default_metrics()
        if self.metrics.enabled:
            self.cache.metrics = self.metrics
            if self.faults is not None:
                self.faults.metrics = self.metrics
        self._parallel_stack: list[_Section] = []
        #: Serving-layer hook (see ``repro.serve``): when set, spent
        #: seconds go to the sink instead of the clock (:meth:`spend`) and
        #: every wave or bare call made outside a ``parallel`` section is
        #: recorded as a *call step*, which the serving scheduler replays
        #: on its cross-query schedule.  Body execution stays eager and
        #: ordered, so cache evolution is identical with or without a sink.
        self.serve_sink: Any | None = None
        #: Tenant namespace in generation-cache keys.  Empty (the default)
        #: leaves it out; serving sessions set it per tenant so one
        #: tenant's cached generations are invisible to another's accounting.
        self.cache_scope: str = ""
        #: Depth of enclosing ``measure`` sections: cell-level spans replace
        #: per-call spans there (the engine re-times cells on the schedule).
        self._measure_depth = 0
        #: Monotonic per-call counter: namespaces the backoff-jitter stream.
        self._call_sequence = 0
        #: (kind, instruction, model, scope, seed) -> :class:`_PreparedCall`.
        self._prepared_calls: dict[tuple, _PreparedCall] = {}
        #: (model, resolved tag) -> the one zero-cost event its cache hits share.
        self._hit_events: dict[tuple[str, str], UsageEvent] = {}

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def parallel(self, parallelism: int) -> "_Section":
        """Charge calls inside the block as waves of ``parallelism`` calls."""
        if parallelism < 1:
            raise ConfigurationError(f"parallelism must be >= 1, got {parallelism}")
        return _Section(self, parallelism, measuring=False)

    def measure(self, after: tuple = ()) -> "_Section":
        """Capture seconds charged inside the block instead of spending them.

        The pipelined executor wraps each (batch, stage) cell in a measure
        section: inner ``parallel`` waves resolve to their makespans as
        usual, but the cell's total duration lands in the section's
        ``seconds`` rather than being spent (or going to a parent section).
        The engine then spends the *pipeline* critical path those cells
        form — overlapping stages that a direct charge would serialize.

        ``after`` is a :meth:`mark` token: under a serving sink the cell's
        first call step waits for it and each later one for the step
        before; the section's ``tail`` names the cell's last step.
        """
        return _Section(self, 1, measuring=True, tail=after)

    def mark(self) -> tuple:
        """A token for every call step recorded so far (``()`` off serving)."""
        if self.serve_sink is None:
            return ()
        return self.serve_sink.mark()

    def spend(self, seconds: float) -> None:
        """Spend ``seconds``: the serving sink's time when one is installed,
        the clock's otherwise — the one rule for who receives seconds."""
        (self.serve_sink or self.clock).advance(seconds)

    def _advance_latency(self, seconds: float) -> None:
        """One call's latency into the innermost open section, else spent;
        a step of its own when a sink is installed and no ``parallel``
        section is open."""
        stack = self._parallel_stack
        if (
            self.serve_sink is not None
            and seconds > 0.0
            and len(stack) == self._measure_depth
        ):
            self._record_step(1, [seconds])
        if stack:
            # Zero-latency (cached) calls never occupy a wave slot: they
            # return instantly and must not displace real calls in the
            # positional chunking of ``_makespan``.
            if seconds > 0.0:
                stack[-1].latencies.append(seconds)
        else:
            self.spend(seconds)

    def _record_step(self, width: int, latencies: list[float]) -> None:
        """Hand one wave to the sink: inside a measure cell it chains after
        the cell's tail, elsewhere it waits for every step so far."""
        if self._parallel_stack:
            cell = self._parallel_stack[-1]  # a measure: no parallel is open
            cell.tail = self.serve_sink.end_step(width, latencies, cell.tail)
        else:
            self.serve_sink.end_step(width, latencies)

    def _prepared(self, kind: str, instruction: str | None, model: str) -> _PreparedCall:
        """The :class:`_PreparedCall` of this endpoint call, built once.

        :attr:`cache_scope` and :attr:`seed` are part of the memo key, so
        flipping either between calls never reuses the other's hashers.
        """
        memo_key = (kind, instruction, model, self.cache_scope, self.seed)
        call = self._prepared_calls.get(memo_key)
        if call is None:
            if len(self._prepared_calls) >= _CALL_MEMO_CAP:
                self._prepared_calls.clear()
            call = self._prepared_calls[memo_key] = _PreparedCall(*memo_key)
        return call

    def _span_tag(self) -> str:
        """An untagged call's tag: inside an instrumented scope, the
        enclosing span's name, so per-operator cost accounting stays whole."""
        current = self.tracer.current if self.tracer.enabled else None
        return "" if current is None else current.name

    def _hit(self, card: ModelCard, tag: str) -> UsageEvent:
        """Account for one generation-cache hit: no cost, no latency, no
        fault.  Every field of its event is fixed by (model, tag) and the
        event is an immutable tuple, so all such hits record one object."""
        tag = tag or self._span_tag()
        event = self._hit_events.get((card.name, tag))
        if event is None:
            if len(self._hit_events) >= _CALL_MEMO_CAP:
                self._hit_events.clear()
            event = self._hit_events[card.name, tag] = UsageEvent(
                card.name, 0, 0, 0.0, 0.0, tag, True
            )
        self.tracker.record(event)
        if self.metrics.enabled:
            self.metrics.counter("llm.calls").inc()
            self.metrics.counter("llm.cached_calls").inc()
        if self.tracer.enabled and self._measure_depth == 0:
            now = self.clock.elapsed
            self.tracer.add_span(
                f"{card.name} (cached)", "llm-call", now, now,
                track="llm cached", tag=tag,
            )
        return event

    def _charge(
        self, card: ModelCard, input_tokens: int, output_tokens: int, tag: str
    ) -> UsageEvent:
        """Account for one uncached call: price it, record its event, spend
        its latency.  The fault/retry saga (:meth:`_retry`) runs only with a
        fault injector installed, the observers (:meth:`_observe`) only with
        a tracer, a metrics registry or a serve sink on.

        A successful call charges its full latency (plus any failed-attempt
        latencies and backoff waits accrued on the way) as a *single* item in
        the enclosing parallel section — the slot is occupied for the whole
        retry saga.
        """
        if not tag and self.tracer.enabled:
            tag = self._span_tag()
        self._call_sequence += 1
        latency = card.call_latency(input_tokens, output_tokens)
        waited, retries = (
            (0.0, 0) if self.faults is None else self._retry(card, input_tokens, latency, tag)
        )
        # Positional: model, tokens in/out, cost, latency, tag, cached,
        # failed, retries, error.
        event = _new(UsageEvent, (
            card.name, input_tokens, output_tokens,
            card.call_cost(input_tokens, output_tokens), latency, tag,
            False, False, retries, "",
        ))
        self.tracker.record(event)
        if self.metrics.enabled or self.tracer.enabled or self.serve_sink is not None:
            self._observe(card, event, waited + latency)
        self._advance_latency(waited + latency)
        return event

    def _retry(
        self, card: ModelCard, input_tokens: int, latency: float, tag: str
    ) -> tuple[float, int]:
        """The fault/retry saga ahead of a call's successful attempt:
        ``(seconds its failed attempts and backoff waits took, retries)``.
        Each failed attempt records its own event; a call that exhausts its
        attempts is observed, spends what it took and raises its last fault.
        """
        metrics = self.metrics
        is_embedding = card.usd_per_1m_output <= 0.0
        # Innermost section width: storms throttle wide fan-out, and retries
        # stay in their slot, so they keep the width they were issued at.
        width = self._parallel_stack[-1].width if self._parallel_stack else 1
        waited, retries = 0.0, 0
        while True:
            fault = self.faults.draw(
                card.name, is_embedding, width=width,
                # Saga-local time: backoff waits push later attempts
                # forward, so a long enough wait rides out a storm window.
                now=self.clock.elapsed + waited,
            )
            if fault is None:
                return waited, retries
            kind = _fault_kind(fault)
            fail_latency, fail_tokens = self._fault_price(card, fault, input_tokens, latency)
            fail_cost = card.input_cost(fail_tokens)
            self.tracker.record(UsageEvent(
                card.name, fail_tokens, 0, fail_cost, fail_latency, tag, failed=True, error=kind,
            ))
            if metrics.enabled:
                metrics.counter("llm.failed_attempts").inc()
                metrics.counter(f"llm.faults.{kind}").inc()
                metrics.counter("llm.tokens_in").inc(fail_tokens)
                metrics.counter("llm.cost_usd").inc(fail_cost)
            waited += fail_latency
            retries += 1
            if retries >= self.retry.max_attempts:
                # What the observers see of a call that gave up: its prompt,
                # no output, its retries and its last fault.
                self._observe(card, UsageEvent(
                    card.name, input_tokens, 0, 0.0, waited, tag, retries=retries, error=kind,
                ), waited)
                self._advance_latency(waited)
                raise fault
            waited += self.retry.backoff_s(
                retries, fault, self.seed, card.name, self._call_sequence
            )

    def _observe(self, card: ModelCard, call: UsageEvent, seconds: float) -> None:
        """Feed one call that took ``seconds`` (its success event, or with
        ``call.error`` a call that gave up) to the metrics, a call span and
        the serve sink's note.  No span inside ``measure`` cells (the engine
        re-times those on the pipeline schedule and emits cell spans) or
        *nested* parallel sections, where a call's absolute start is only
        known to the outermost section's scheduler."""
        metrics, tracer = self.metrics, self.tracer
        if metrics.enabled and not call.error:
            metrics.counter("llm.calls").inc()
            metrics.counter("llm.tokens_in").inc(call.input_tokens)
            metrics.counter("llm.tokens_out").inc(call.output_tokens)
            metrics.counter("llm.cost_usd").inc(call.cost_usd)
            if call.retries:
                metrics.counter("llm.retries").inc(call.retries)
            metrics.histogram("llm.latency_s").observe(seconds)
        if tracer.enabled and self._measure_depth == 0 and len(self._parallel_stack) <= 1:
            start, track = self._call_span_origin()
            if call.error:
                tracer.add_span(
                    f"{card.name} (gave up)", "llm-call", start, start + seconds,
                    track=track, tag=call.tag, retries=call.retries, error=call.error,
                )
            else:
                tracer.add_span(
                    card.name, "llm-call", start, start + seconds,
                    track=track, tag=call.tag, cost_usd=call.cost_usd,
                    tokens_in=call.input_tokens, tokens_out=call.output_tokens,
                    retries=call.retries,
                )
        if self.serve_sink is not None:
            self.serve_sink.note_call(
                card.name, card.usd_per_1m_output <= 0.0,
                call.input_tokens, call.output_tokens, seconds,
            )

    def _call_span_origin(self) -> tuple[float, str | None]:
        """(start time, export track) for a call issued right now.

        Inside a parallel section the clock is frozen until the section
        exits, but :func:`_makespan` schedules items positionally: item
        ``i`` runs in wave ``i // width``, slot ``i % width``, starting
        when the previous waves' maxima have drained.  Reconstructing that
        start here makes exported call spans tile the per-slot tracks
        exactly as the charged makespan implies.
        """
        if not self._parallel_stack:
            return self.clock.elapsed, None
        section = self._parallel_stack[-1]
        width, latencies = section.width, section.latencies
        index = len(latencies)
        if width <= 1:
            return self.clock.elapsed + sum(latencies), None
        offset = 0.0
        for wave_start in range(0, (index // width) * width, width):
            offset += max(latencies[wave_start : wave_start + width])
        return self.clock.elapsed + offset, f"llm slot {index % width}"

    def _fault_price(
        self,
        card: ModelCard,
        fault: TransientLLMError,
        input_tokens: int,
        latency: float,
    ) -> tuple[float, int]:
        """(latency, billed input tokens) burned by one failed attempt.

        Rate limits bounce at the door: overhead latency, nothing billed.
        Timeouts hang for the full latency with prefill already paid.
        Generic API errors die mid-flight: half the latency, prefill paid.
        """
        if isinstance(fault, RateLimitError):
            return card.per_call_overhead_s, 0
        if isinstance(fault, LLMTimeoutError):
            return latency, input_tokens
        return 0.5 * latency, input_tokens

    # ------------------------------------------------------------------
    # Semantic task endpoints
    # ------------------------------------------------------------------
    #
    # ``judge_filter``, ``extract`` and ``classify`` each make one call;
    # their batch forms make the same calls, in order, through :meth:`_batch`.

    def judge_filter(
        self, instruction: str, record: AnnotatedRecord, model: str = DEFAULT_MODEL,
        tag: str = "",
    ) -> FilterJudgment:
        """Answer "does ``record`` satisfy ``instruction``?" as ``model`` would."""
        call = self._prepared("filter", instruction, model)
        key = (call.key, record.uid)
        hit, value = self.cache.get(key)
        if hit:
            return _new(FilterJudgment, (*value, self._hit(call.card, tag)))
        judgment = self._judge(call, record) or self.oracle._heuristic_filter(instruction, record)
        noise_key = judgment.intent_key or call.normalized
        erred = self._errs(call, noise_key, record.uid, judgment.difficulty)
        answer = (bool(judgment.truth) != erred, judgment.resolved, judgment.intent_key)
        input_tokens = SYSTEM_PROMPT_TOKENS + call.instruction_tokens + record.text_tokens()
        event = self._charge(call.card, input_tokens, JUDGMENT_OUTPUT_TOKENS, tag)
        self.cache.put(key, answer)
        return _new(FilterJudgment, (*answer, event))

    def judge_filter_batch(
        self, instruction: str, records: list[AnnotatedRecord], model: str = DEFAULT_MODEL,
        tag: str = "", before: Callable | None = None, on_error: Callable | None = None,
    ) -> list[FilterJudgment | None]:
        """:meth:`judge_filter` on each of ``records`` (see :meth:`_batch`)."""
        call = self._prepared("filter", instruction, model)
        return self._batch(
            self.judge_filter, [((instruction,), call)], records, model, tag, before,
            on_error, FilterJudgment,
        )

    def judge_join(
        self,
        instruction: str,
        left: AnnotatedRecord,
        right: AnnotatedRecord,
        model: str = DEFAULT_MODEL,
        tag: str = "",
    ) -> FilterJudgment:
        """Answer "do ``left`` and ``right`` jointly satisfy ``instruction``?"."""
        call = self._prepared("join", instruction, model)
        card = call.card
        cache_key = (call.key, left.uid, right.uid)
        hit, value = self.cache.get(cache_key)
        if hit:
            return FilterJudgment(*value, self._hit(card, tag))

        judgment = self.oracle.judge_join(instruction, left, right)
        noise_key = judgment.intent_key or call.normalized
        erred = self._errs(
            call, noise_key, f"{left.uid}|{right.uid}", judgment.difficulty
        )
        answer = bool(judgment.truth) != erred

        input_tokens = (
            SYSTEM_PROMPT_TOKENS
            + call.instruction_tokens
            + left.text_tokens()
            + right.text_tokens()
        )
        event = self._charge(card, input_tokens, JUDGMENT_OUTPUT_TOKENS, tag)
        self.cache.put(cache_key, (answer, judgment.resolved, judgment.intent_key))
        return FilterJudgment(answer, judgment.resolved, judgment.intent_key, event)

    def extract(
        self, instruction: str, record: AnnotatedRecord, model: str = DEFAULT_MODEL,
        tag: str = "",
    ) -> ExtractionResult:
        """Extract the value ``instruction`` asks for from ``record``."""
        call = self._prepared("extract", instruction, model)
        key = (call.key, record.uid)
        hit, value = self.cache.get(key)
        if hit:
            return _new(ExtractionResult, (*value, self._hit(call.card, tag)))
        judgment = self._judge(call, record) or UNRESOLVED
        value = judgment.truth
        if judgment.resolved and self._errs(
            call, judgment.intent_key, record.uid, judgment.difficulty
        ):
            value = self._corrupt(judgment.truth, judgment.intent_key, record)
        input_tokens = SYSTEM_PROMPT_TOKENS + call.instruction_tokens + record.text_tokens()
        output_tokens = max(8, approx_token_count(str(value)))
        event = self._charge(call.card, input_tokens, output_tokens, tag)
        answer = (value, judgment.resolved, judgment.intent_key)
        self.cache.put(key, answer)
        return _new(ExtractionResult, (*answer, event))

    def extract_batch(
        self, instructions: list[str], records: list[AnnotatedRecord],
        model: str = DEFAULT_MODEL, tag: str = "", before: Callable | None = None,
        on_error: Callable | None = None,
    ) -> list[ExtractionResult | None]:
        """:meth:`extract` of each of ``instructions`` from each of ``records``,
        record-major: one record's fields, then the next's (see :meth:`_batch`)."""
        calls = [((text,), self._prepared("extract", text, model)) for text in instructions]
        return self._batch(
            self.extract, calls, records, model, tag, before, on_error, ExtractionResult
        )

    def classify(
        self, instruction: str, options: list[str], record: AnnotatedRecord,
        model: str = DEFAULT_MODEL, tag: str = "",
    ) -> ExtractionResult:
        """Pick one of ``options`` for ``record`` according to ``instruction``."""
        if not options:
            raise ConfigurationError("classify requires at least one option")
        call = self._prepared("classify", instruction, model)
        judgment = self._judge(call, record) or UNRESOLVED
        truth = judgment.truth if judgment.truth in options else options[0]
        erred = judgment.resolved and self._errs(
            call, judgment.intent_key, record.uid, judgment.difficulty
        )
        value = truth
        if erred and len(options) > 1:
            alternatives = [option for option in options if option != truth]
            pick = stable_hash(self.seed, "classify-pick", record.uid) % len(alternatives)
            value = alternatives[pick]
        if call.options != options:
            # An operator passes one option list with every record.
            call.options = list(options)
            call.options_tokens = approx_token_count(" ".join(options))
        input_tokens = (
            SYSTEM_PROMPT_TOKENS + call.instruction_tokens + record.text_tokens()
            + call.options_tokens
        )
        event = self._charge(call.card, input_tokens, JUDGMENT_OUTPUT_TOKENS, tag)
        return _new(ExtractionResult, (value, judgment.resolved, judgment.intent_key, event))

    def classify_batch(
        self, instruction: str, options: list[str], records: list[AnnotatedRecord],
        model: str = DEFAULT_MODEL, tag: str = "", before: Callable | None = None,
        on_error: Callable | None = None,
    ) -> list[ExtractionResult | None]:
        """:meth:`classify` of each of ``records`` (see :meth:`_batch`)."""
        return self._batch(
            self.classify, [((instruction, options), None)], records, model, tag, before,
            on_error,
        )

    def complete(
        self,
        prompt: str,
        model: str = DEFAULT_MODEL,
        max_output_tokens: int = 256,
        tag: str = "",
        expected_output: str | None = None,
    ) -> CompletionResult:
        """Free-text completion (agent reasoning steps, summaries, reports).

        Scripted agent policies supply ``expected_output``; otherwise a
        deterministic keyword-echo summary is produced.  Either way the call
        is priced and timed like a real completion.
        """
        card = get_model(model)
        if expected_output is not None:
            text = expected_output
        else:
            keywords = ", ".join(extract_keywords(prompt, limit=8))
            text = f"[simulated {card.name} response covering: {keywords}]"
        output_tokens = min(max_output_tokens, max(8, approx_token_count(text)))
        input_tokens = SYSTEM_PROMPT_TOKENS + approx_token_count(prompt)
        event = self._charge(card, input_tokens, output_tokens, tag)
        return CompletionResult(text, event)

    def embed(self, text: str, tag: str = "") -> np.ndarray:
        """Embed ``text``, charging the embedding model's price and latency.

        The charge is this LLM's own: a generation-cache hit is a zero-cost
        cached event, a miss is priced and put in this LLM's cache.  Only the
        computation is shared — a miss reads the process-wide vector memo
        (:meth:`EmbeddingModel.vector`) under the digest the cache key
        already holds.  The returned vector is read-only.
        """
        call = self._prepared("embed", None, EMBEDDING_MODEL)
        card = call.card
        cache_key = (call.key, stable_digest(text))
        hit, value = self.cache.get(cache_key)
        if hit:
            self._hit(card, tag)
            return value
        vector = self.embedding_model.vector(text, cache_key[1])
        self._charge(card, approx_token_count(text), 0, tag)
        self.cache.put(cache_key, vector)
        return vector

    def embed_batch(
        self,
        texts: list[str],
        tag: str = "",
        batch_size: int = DEFAULT_EMBED_BATCH,
    ) -> list[np.ndarray]:
        """Embed ``texts`` with chunked batch requests instead of one call each.

        Duplicates are collapsed and already-cached texts are skipped (one
        zero-cost cached event per unique hit, mirroring :meth:`embed`); the
        remaining unique misses go out in batches of ``batch_size``, each
        priced as a single request carrying the chunk's total tokens.  Token
        pricing is linear, so the dollar cost is identical to the per-record
        path — the win is latency: one per-call overhead per chunk instead
        of per text.  A miss reads the vector memo as :meth:`embed` does.
        Returns read-only vectors positionally aligned with ``texts``.
        """
        if batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
        call = self._prepared("embed", None, EMBEDDING_MODEL)
        card = call.card
        vectors: dict[str, np.ndarray] = {}
        # Unique uncached texts in first-seen order -> cache key: one digest
        # per unique text, shared by the probe and the put.
        misses: dict[str, tuple] = {}
        for text in texts:
            if text in vectors or text in misses:
                continue
            cache_key = (call.key, stable_digest(text))
            hit, value = self.cache.get(cache_key)
            if hit:
                self._hit(card, tag)
                vectors[text] = value
                continue
            misses[text] = cache_key
        pending = list(misses)
        for start in range(0, len(pending), batch_size):
            chunk = pending[start : start + batch_size]
            self._charge(card, sum(approx_token_count(text) for text in chunk), 0, tag)
            for text in chunk:
                cache_key = misses[text]
                vector = self.embedding_model.vector(text, cache_key[1])
                vectors[text] = vector
                self.cache.put(cache_key, vector)
        return [vectors[text] for text in texts]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _batch(
        self, endpoint: Callable, calls: list[tuple], records: list[AnnotatedRecord],
        model: str, tag: str, before: Callable | None, on_error: Callable | None,
        result: type | None = None,
    ) -> list:
        """The batch endpoints' one loop: ``endpoint(*head, record, model,
        tag)`` for each ``(head, call)`` of ``calls`` on each of ``records``,
        record-major; ``call`` is the prepared call of a cached endpoint,
        else None.

        ``before()`` runs ahead of every call (a spend-cap check may raise
        there).  A call that exhausts its retries raises, unless
        ``on_error`` is given: then ``on_error((uid, error class name))``
        reports it and its result is None.  A call whose answer is cached
        is served here as the endpoint would serve it (:meth:`_hit`; with
        no metrics or tracer to feed, the first hit's event is recorded for
        the rest).  Every other call goes through ``endpoint`` itself, so
        a wrapper on a per-call endpoint sees every uncached call.
        """
        cache, held = self.cache, self.cache.entries
        hit_event = record_hit = None
        results: list = []
        for record in records:
            for head, call in calls:
                if before is not None:
                    before()
                if call and (call.key, record.uid) in held:
                    value = cache.get((call.key, record.uid))[1]
                    if record_hit is None:
                        hit_event = self._hit(call.card, tag)
                        if not (self.metrics.enabled or self.tracer.enabled):
                            record_hit = self.tracker.record
                    else:
                        record_hit(hit_event)
                    results.append(_new(result, (*value, hit_event)))
                    continue
                try:
                    results.append(endpoint(*head, record, model, tag))
                except TransientLLMError as error:
                    if on_error is None:
                        raise
                    on_error((record.uid, type(error).__name__))
                    results.append(None)
        return results

    def _judge(self, call: _PreparedCall, record: AnnotatedRecord) -> JudgeResult | None:
        """:meth:`SemanticOracle.judge` of ``record`` against ``call``'s intent,
        resolved again whenever the oracle's intent registry has changed."""
        oracle = self.oracle
        if call.version != oracle.registry.version:
            registry = oracle.registry
            call.version, call.intent = registry.version, registry.resolve(call.instruction)
            call.difficulty_key = DIFFICULTY_PREFIX + call.intent.key if call.intent else ""
        return oracle.judge(call.intent, record, call.difficulty_key)

    def _errs(
        self,
        call: _PreparedCall,
        noise_key: str,
        record_uid: str,
        difficulty: float,
    ) -> bool:
        """Deterministically decide whether ``call``'s model errs on this input.

        Error probability scales superlinearly with difficulty
        (``base * 2 * d^2``): easy records (d ~ 0.1) are answered almost
        perfectly by every tier — matching the paper's 100% precision on
        clear negatives — while a median-difficulty record errs at roughly
        the model's base rate.  Genuinely ambiguous records (d > 0.7) add an
        additive boost so even strong models disagree across trials on them,
        reproducing the paper's observation that two of three
        semantic-operator trials admitted an errant file.
        """
        boost = difficulty - 0.7
        # min(0.95, base * 2 * d * d + max(0.0, boost)), without the calls.
        probability = call.doubled_error_rate * difficulty * difficulty + (
            boost if boost > 0.0 else 0.0
        )
        head = call.noise_heads.get(noise_key)
        if head is None:
            head = call.noise_heads[noise_key] = call.noise.child(noise_key)
        # stable_uniform(seed, "llm-noise", model, task kind, noise_key, uid)
        return head.uniform(record_uid) < (probability if probability < 0.95 else 0.95)

    def _corrupt(self, truth: Any, intent_key: str, record: AnnotatedRecord) -> Any:
        """Produce a plausible wrong answer for an extraction error.

        Prefers a dataset-provided distractor (a wrong value that actually
        appears in the corpus); otherwise perturbs numerics deterministically
        and degrades strings to their keywords.
        """
        distractor_key = DISTRACTOR_PREFIX + intent_key
        if distractor_key in record.annotations:
            return record.annotations[distractor_key]
        if isinstance(truth, bool):
            return not truth
        if isinstance(truth, (int, float)):
            factors = (0.1, 0.5, 2.0, 10.0)
            pick = stable_hash(self.seed, "corrupt", intent_key, record.uid) % len(factors)
            corrupted = truth * factors[pick]
            return type(truth)(corrupted)
        if isinstance(truth, str):
            keywords = extract_keywords(truth, limit=3)
            return " ".join(keywords) if keywords else ""
        return None


def _fault_kind(fault: TransientLLMError) -> str:
    """Short kind label for a failed-attempt usage event."""
    if isinstance(fault, RateLimitError):
        return "rate_limit"
    if isinstance(fault, LLMTimeoutError):
        return "timeout"
    return "api"


def _makespan(latencies: list[float], parallelism: int) -> float:
    """Makespan of ``latencies`` scheduled greedily in submission order."""
    total = 0.0
    for start in range(0, len(latencies), parallelism):
        total += max(latencies[start : start + parallelism])
    return total
