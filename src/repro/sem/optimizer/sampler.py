"""Sampling-based operator profiling (Abacus-style bandit).

For each semantic operator the optimizer must estimate, per candidate
model: quality (agreement with the champion), selectivity, and per-record
cost/latency.  A sample *is* the operator, run on the sample: the sampler
is handed a binder (model -> bound physical operator) and asks that
operator's own ``sample_answer`` for each record of a small sample through
the real LLM client, so no operator body is re-implemented here and no
operator kind is named.
Sampling costs real (simulated) dollars, exactly as in Palimpzest/Abacus,
and thanks to the generation cache the sampled judgments are free to reuse
at execution time.

Model elimination uses successive halving: every candidate sees a small
first round; models that clearly disagree with the champion are dropped
before the (larger) second round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.data.records import DataRecord
from repro.errors import TransientLLMError
from repro.utils.seeding import SeededRng

if TYPE_CHECKING:
    from repro.sem.physical import ExecutionContext, PhysicalOperator

#: Sentinel answer for a sampled call that failed even after retries.  It
#: never equals a real answer, so it reads as disagreement with the champion.
FAILED_SAMPLE = object()

#: Sample size of the first bandit round.
FIRST_ROUND = 4

#: Agreement below this after the first round eliminates a candidate.
ELIMINATION_FLOOR = 0.7


@dataclass(frozen=True)
class OperatorProfile:
    """Sampled statistics for (operator, model)."""

    #: None for a token-free operator, which is its own only candidate.
    model: str | None
    #: Fraction of sampled records where this model matched the champion.
    agreement: float
    #: Records the champion emitted per sampled record (a filter's pass rate).
    selectivity: float
    cost_per_record: float
    latency_per_record: float
    sample_size: int


class Sampler:
    """Profiles bound operators on record samples."""

    def __init__(self, rng: SeededRng) -> None:
        self.rng = rng

    def sample_records(self, records: list[DataRecord], n: int) -> list[DataRecord]:
        """Draw a deterministic uniform sample of up to ``n`` records."""
        if len(records) <= n:
            return list(records)
        return self.rng.child("sample").sample(records, n)

    def profile(
        self,
        bind: Callable[[str | None], PhysicalOperator],
        models: list[str | None],
        champion: str | None,
        sample: list[DataRecord],
        ctx: ExecutionContext,
    ) -> dict[str | None, OperatorProfile]:
        """Audition ``models`` for one operator on ``sample``.

        ``bind(model)`` is the operator as the plan would run it under
        ``model``; ``ctx`` is the sampling context (``on_failure="raise"``,
        so a call lost to faults surfaces here).  Agreement is "emitted the
        same fields as the champion", selectivity the champion's mean
        emitted-per-record.  When the champion answered nothing — an empty
        sample, or a free filter that crashed on every raw record because
        it reads a field created upstream — there is nothing to believe
        and no profile is returned.
        """
        if champion not in models:
            models = [champion] + list(models)
        first, rest = sample[:FIRST_ROUND], sample[FIRST_ROUND:]

        bound = {model: bind(model) for model in models}
        answers: dict = {model: [] for model in models}
        costs: dict = {model: 0.0 for model in models}
        latencies: dict = {model: 0.0 for model in models}
        events = ctx.llm.tracker.events

        def run_round(round_models: list, records: list[DataRecord]) -> None:
            for model in round_models:
                operator, model_answers = bound[model], answers[model]
                for record in records:
                    checkpoint = len(events)
                    try:
                        answer = operator.sample_answer(record, ctx)
                    except TransientLLMError:
                        # A sample lost to faults counts as disagreement; the
                        # optimizer must keep profiling, not crash.
                        answer = FAILED_SAMPLE
                    except Exception:
                        # Only user code may crash on a raw record: a free
                        # filter reading a field an upstream operator creates.
                        if model is not None:
                            raise
                        answer = FAILED_SAMPLE
                    model_answers.append(answer)
                    # Profile the *clean* per-call price: failed attempts and
                    # backoff waits are a property of the fault schedule, not
                    # of the model, and including them would let transient
                    # faults flip plan choices (breaking per-seed determinism
                    # of answer quality under fault injection).
                    cost = latency = 0.0
                    for event in events[checkpoint:]:
                        if not event.failed:
                            cost += event.cost_usd
                            latency += event.latency_s
                    costs[model] += cost
                    latencies[model] += latency

        run_round(models, first)
        champion_first = answers[champion]
        survivors = [
            model
            for model in models
            if model == champion
            or _agreement(answers[model], champion_first) >= ELIMINATION_FLOOR
        ]
        run_round(survivors, rest)

        champion_answers = answers[champion]
        emitted = [len(a) for a in champion_answers if a is not FAILED_SAMPLE]
        if not emitted:
            return {}
        selectivity = sum(emitted) / len(emitted)
        profiles: dict = {}
        for model in models:
            n_seen = len(answers[model])
            profiles[model] = OperatorProfile(
                model=model,
                agreement=_agreement(answers[model], champion_answers[:n_seen]),
                selectivity=selectivity,
                cost_per_record=costs[model] / n_seen,
                latency_per_record=latencies[model] / n_seen,
                sample_size=n_seen,
            )
        return profiles


def _agreement(answers: list, reference: list) -> float:
    if not answers:
        return 0.0
    matches = sum(1 for a, b in zip(answers, reference) if a == b)
    return matches / len(answers)
