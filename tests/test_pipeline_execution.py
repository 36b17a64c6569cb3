"""Tests for the pipelined, vectorized executor.

Covers the streaming engine's contract against the barrier reference
(``repro.qa.reference``: operator-at-a-time, whole input, per-text
embeds): bit-identical records and cost at lower makespan, batched
embedding calls, limit early-exit pushdown, and the adaptive wave-width
controller recovering from rate-limit bursts.
"""

import math

import pytest

from repro.data.datasets import enron as en
from repro.data.records import reset_uid_counter
from repro.data.schemas import Field
from repro.llm.faults import FaultConfig, FaultInjector, RetryPolicy
from repro.llm.models import EMBEDDING_MODEL
from repro.llm.simulated import SimulatedLLM
from repro.obs import Tracer
from repro.qa.reference import ReferenceInterpreter
from repro.sem.config import QueryProcessorConfig
from repro.sem.dataset import Dataset
from repro.sem.physical import AdaptiveParallelism

PARALLELISM = 8


def _three_stage(bundle):
    """The acceptance plan: filter -> map -> top-k rerank."""
    return (
        Dataset.from_source(bundle.source())
        .sem_filter(en.FILTER_MENTIONS)
        .sem_map(Field("summary", str), en.MAP_SUMMARY)
        .sem_topk("most relevant to suspicious deals", k=10, method="llm")
    )


def _run_three_stage(make_llm, bundle, pipeline, seed=0, llm=None):
    """The engine (``pipeline=True``) or the barrier reference interpreter."""
    # Source-record uids come from a process-global counter and seed the
    # simulated noise; reset so both runs see identical uid sequences.
    reset_uid_counter()
    llm = llm or make_llm(bundle, seed=seed)
    if not pipeline:
        reference = ReferenceInterpreter(llm, parallelism=PARALLELISM)
        return reference.run(_three_stage(bundle).plan()), llm
    config = QueryProcessorConfig(
        llm=llm, optimize=False, parallelism=PARALLELISM, seed=seed
    )
    return _three_stage(bundle).run(config), llm


# ---------------------------------------------------------------------------
# Pipelined vs barrier: identical answers, lower makespan
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1])
def test_pipelined_matches_barrier_and_is_faster(make_llm, enron_bundle, seed):
    barrier, _ = _run_three_stage(make_llm, enron_bundle, pipeline=False, seed=seed)
    pipelined, _ = _run_three_stage(make_llm, enron_bundle, pipeline=True, seed=seed)

    assert [(r.uid, r.fields) for r in pipelined.records] == [
        (r.uid, r.fields) for r in barrier.records
    ]
    assert pipelined.total_cost_usd == pytest.approx(
        barrier.total_cost_usd, abs=1e-9
    )
    assert barrier.total_time_s >= 1.5 * pipelined.total_time_s


@pytest.mark.parametrize("seed", [0, 1])
def test_operator_stats_exact_across_modes(make_llm, enron_bundle, seed):
    barrier, _ = _run_three_stage(make_llm, enron_bundle, pipeline=False, seed=seed)
    pipelined, _ = _run_three_stage(make_llm, enron_bundle, pipeline=True, seed=seed)

    assert len(barrier.steps) == len(pipelined.operator_stats)
    for (label, records_in, records_out, usage), p in zip(
        barrier.steps, pipelined.operator_stats
    ):
        # Engine labels append the bound model to the logical label.
        assert p.label.startswith(label)
        assert (records_in, records_out) == (p.records_in, p.records_out)
        # llm_calls counts usage events, and batched embeddings merge many
        # per-record embed events into one — so it legitimately shrinks.
        assert usage.calls >= p.llm_calls
        assert usage.cost_usd == pytest.approx(p.cost_usd, abs=1e-9)


def test_escape_hatch_runs_single_parallel_sections(make_llm, enron_bundle):
    # The reference keeps the unbatched call shape: one per-record embed
    # call per topk input instead of batched embeds.
    _, llm = _run_three_stage(make_llm, enron_bundle, pipeline=False)
    embed_events = [e for e in llm.tracker.events if e.model == EMBEDDING_MODEL]
    topk_inputs = 84  # FILTER_MENTIONS survivors at seed 0
    # one per record + one for the query
    assert len([e for e in embed_events if not e.cached]) == topk_inputs + 1


# ---------------------------------------------------------------------------
# Batched embeddings
# ---------------------------------------------------------------------------


def test_embed_batch_issues_at_most_ceil_n_over_batch_calls():
    llm = SimulatedLLM(seed=0)
    texts = [f"document number {i} about topic {i % 7}" for i in range(150)]
    batch = 64
    vectors = llm.embed_batch(texts, tag="t", batch_size=batch)

    charged = [
        e
        for e in llm.tracker.events
        if e.model == EMBEDDING_MODEL and not e.cached
    ]
    assert len(charged) <= math.ceil(len(texts) / batch)
    assert len(vectors) == len(texts)


def test_embed_batch_matches_per_text_embeddings_and_skips_cached():
    llm = SimulatedLLM(seed=0)
    texts = ["alpha beta", "gamma delta", "alpha beta"]
    batched = llm.embed_batch(texts, batch_size=64)
    fresh = SimulatedLLM(seed=0)
    singles = [fresh.embed(t) for t in texts]
    for got, want in zip(batched, singles):
        assert got == pytest.approx(want)

    # Second call: everything is already cached — only zero-cost events.
    before = len(llm.tracker.events)
    llm.embed_batch(texts, batch_size=64)
    new_events = llm.tracker.events[before:]
    assert new_events and all(e.cached and e.cost_usd == 0.0 for e in new_events)


def test_pipelined_topk_batches_embeddings(make_llm, enron_bundle):
    _, barrier_llm = _run_three_stage(make_llm, enron_bundle, pipeline=False)
    _, pipelined_llm = _run_three_stage(make_llm, enron_bundle, pipeline=True)

    def charged_embeds(llm):
        return len(
            [
                e
                for e in llm.tracker.events
                if e.model == EMBEDDING_MODEL and not e.cached
            ]
        )

    config = QueryProcessorConfig(llm=pipelined_llm, parallelism=PARALLELISM)
    # One topk cell (hence at most one embed charge) per streamed source
    # batch, plus one query embedding.  Barrier embeds record-at-a-time.
    n_batches = math.ceil(250 / config.resolved_batch_size())
    assert charged_embeds(barrier_llm) == 84 + 1
    assert charged_embeds(pipelined_llm) <= n_batches + 1


# ---------------------------------------------------------------------------
# Limit early-exit pushdown
# ---------------------------------------------------------------------------


def test_limit_short_circuits_upstream_waves(make_llm, enron_bundle):
    def run(pipeline):
        reset_uid_counter()
        llm = make_llm(enron_bundle)
        dataset = (
            Dataset.from_source(enron_bundle.source())
            .sem_filter(en.FILTER_MENTIONS)
            .limit(12)
        )
        if not pipeline:
            reference = ReferenceInterpreter(llm, parallelism=PARALLELISM)
            return reference.run(dataset.plan()), llm
        config = QueryProcessorConfig(
            llm=llm, optimize=False, parallelism=PARALLELISM
        )
        return dataset.run(config), llm

    barrier, _ = run(False)
    pipelined, pipelined_llm = run(True)

    assert [(r.uid, r.fields) for r in pipelined.records] == [
        (r.uid, r.fields) for r in barrier.records
    ]
    assert len(pipelined.records) == 12

    filter_stats = next(
        s for s in pipelined.operator_stats if "Filter" in s.label
    )
    # The sated limit stopped upstream batches: the filter never judged
    # most of the 250 source records, and spend dropped accordingly.
    assert filter_stats.records_in < 250
    assert pipelined.total_cost_usd < barrier.total_cost_usd
    assert pipelined.total_time_s < barrier.total_time_s


# ---------------------------------------------------------------------------
# Held-back records are causal: ready when their stage finishes
# ---------------------------------------------------------------------------


def test_flushed_topk_winners_are_scheduled_after_the_topk(make_llm, enron_bundle):
    reset_uid_counter()
    tracer = Tracer()
    config = QueryProcessorConfig(
        llm=make_llm(enron_bundle, tracer=tracer), optimize=False, parallelism=4
    )
    result = (
        Dataset.from_records(
            enron_bundle.records()[:64], enron_bundle.schema, source_id="flush"
        )
        .sem_topk("most relevant to suspicious deals", k=16, method="llm")
        .sem_map(Field("summary", str), en.MAP_SUMMARY)
        .run(config)
    )
    (section,) = tracer.by_kind("pipeline-section")
    cells = tracer.by_kind("cell")
    holder_finish = max(c.end_s for c in cells if c.attributes["stage"] == 0)
    # The 16 winners flush as one batch: one downstream cell, which cannot
    # start before the top-k has seen its last input batch.
    (map_cell,) = [c for c in cells if c.attributes["stage"] == 1]
    assert map_cell.attributes["records"] == 16 and map_cell.duration_s > 1.0
    assert map_cell.start_s >= holder_finish - 1e-9
    assert section.attributes["makespan_s"] >= (
        holder_finish - section.start_s + map_cell.duration_s - 1e-9
    )
    assert result.total_time_s == pytest.approx(section.attributes["makespan_s"])


# ---------------------------------------------------------------------------
# Adaptive parallelism under rate-limit bursts
# ---------------------------------------------------------------------------

#: Two 100%-throttle bursts; waves wider than 4 are bounced inside them.
STORMS = ((0.0, 2.5), (8.0, 10.0))


def _run_bursty(make_llm, bundle, storms, run_static_width=None, seed=0):
    """Storm run; ``run_static_width`` (the fixture) drops the controller."""
    reset_uid_counter()
    faults = None
    if storms:
        faults = FaultInjector(
            FaultConfig(
                rate_limit_storms=storms, storm_rate=1.0, storm_safe_parallelism=4
            ),
            seed=seed,
        )
    llm = make_llm(
        bundle,
        seed=seed,
        faults=faults,
        retry=RetryPolicy(max_attempts=1, base_backoff_s=0.5),
    )
    config = QueryProcessorConfig(
        llm=llm, optimize=False, parallelism=PARALLELISM, seed=seed
    )
    plan = (
        Dataset.from_source(bundle.source())
        .sem_filter(en.FILTER_MENTIONS)
        .sem_map(
            [
                (Field("sender", str), en.MAP_SENDER),
                (Field("subject_line", str), en.MAP_SUBJECT),
                (Field("summary", str), en.MAP_SUMMARY),
            ]
        )
    )
    if run_static_width is None:
        return plan.run(config), llm
    return run_static_width(plan, config), llm


def test_adaptive_parallelism_recovers_within_ten_percent(make_llm, enron_bundle):
    fault_free, _ = _run_bursty(make_llm, enron_bundle, ())
    stormy, _ = _run_bursty(make_llm, enron_bundle, STORMS)

    # Backing off rescued every record: output is bit-identical to the
    # fault-free run, and the makespan lands within 10% of it.
    assert [(r.uid, r.fields) for r in stormy.records] == [
        (r.uid, r.fields) for r in fault_free.records
    ]
    assert stormy.total_time_s <= 1.1 * fault_free.total_time_s


def test_static_width_degrades_under_bursts(make_llm, enron_bundle, run_static_width):
    fault_free, _ = _run_bursty(make_llm, enron_bundle, (), run_static_width)
    stormy, _ = _run_bursty(make_llm, enron_bundle, STORMS, run_static_width)

    # Without the controller, waves stay at the cap, keep drawing 429s,
    # and records are dropped after retry exhaustion.
    assert sum(s.failed_records for s in stormy.operator_stats) > 0
    assert len(stormy.records) < len(fault_free.records)


def test_adaptive_controller_fast_recovery_dynamics():
    controller = AdaptiveParallelism(cap=8, widen_after=3)
    assert controller.width == 8

    controller.observe(rate_limited=True)
    assert controller.width == 4
    # Fast recovery: one clean wave doubles back toward the pre-fault level.
    controller.observe(rate_limited=False)
    assert controller.width == 7
    # Beyond the recovery ceiling, probing is additive every widen_after.
    for _ in range(3):
        controller.observe(rate_limited=False)
    assert controller.width == 8

    # Repeated faults shrink the recovery ceiling toward the safe width.
    controller.observe(rate_limited=True)
    controller.observe(rate_limited=False)
    assert controller.width == 7
    controller.observe(rate_limited=True)
    assert controller.width == 3


def test_adaptive_controller_floor_and_cap():
    controller = AdaptiveParallelism(cap=2, min_width=1, widen_after=1)
    for _ in range(5):
        controller.observe(rate_limited=True)
    assert controller.width == 1
    for _ in range(10):
        controller.observe(rate_limited=False)
    assert controller.width == 2
