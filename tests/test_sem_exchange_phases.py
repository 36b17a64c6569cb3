"""Exchange behaviour lives on the operator: k partitions == one partition.

``repro.sem.shard`` only places records on workers, measures them and
charges the clock; what a worker hands back, how partials combine, and the
per-partition phases of the whole-input operators are methods of the
operators themselves.  Their *definition* is the operator's own
whole-input ``execute`` — so for every split of the input into partitions,
running the methods per partition and combining must reproduce ``execute``
over the concatenated input, record for record.
"""

from __future__ import annotations

import pytest

from repro.data.records import DataRecord
from repro.data.sources import MemorySource
from repro.errors import RateLimitError
from repro.llm.oracle import SemanticOracle
from repro.llm.simulated import SimulatedLLM
from repro.qa.corpus import DEPARTMENTS, CorpusSpec, build_corpus, instruction_for
from repro.sem import logical as L
from repro.sem import physical as P
from repro.sem.batch import RecordBatch

#: Ways to deal input positions out to workers (empty partitions included).
SPLITS = {
    "one": lambda n: [list(range(n))],
    "round-robin-3": lambda n: [list(range(i, n, 3)) for i in range(3)],
    "chunks-4": lambda n: [list(range(i * n // 4, (i + 1) * n // 4)) for i in range(4)],
    "lopsided": lambda n: [[], list(range(1, n)), [0]],
}


@pytest.fixture(scope="module")
def bundle():
    return build_corpus(CorpusSpec(seed=9, n_records=20))


def _ctx(bundle, degraded=(), **kwargs) -> P.ExecutionContext:
    """Fresh substrate; ``degraded`` uids fail their relevance judgment.

    The failure is a pure function of the record (injected faults are not:
    their draws depend on attempt order), so a partitioned and a
    whole-input run degrade the same records.
    """
    llm = SimulatedLLM(oracle=SemanticOracle(bundle.registry), seed=9)
    judge = llm.judge_filter

    def flaky(instruction, record, **call):
        if record.uid in degraded:
            raise RateLimitError("throttled")
        return judge(instruction, record, **call)

    llm.judge_filter = flaky
    return P.ExecutionContext(llm=llm, parallelism=4, **kwargs)


def _uids(records) -> list[str]:
    return [record.uid for record in records]


def _with_score_ties(records) -> list[DataRecord]:
    """Interleave clones sharing a record's text (and so its embedding)."""
    out = []
    for index, record in enumerate(records):
        out.append(record)
        if index % 3 == 0:
            out.append(
                DataRecord(
                    dict(record.fields), uid=f"{record.uid}-twin",
                    annotations=dict(record.annotations),
                )
            )
    return out


def _merged_workers(operator, records, parts, ctx, batch_size=4):
    """Each partition through one worker's stream, partials merged."""
    partials = []
    for part in parts:
        state = operator.new_state(ctx)
        emitted = [
            operator.process_batch(
                RecordBatch(
                    [records[at] for at in part[start : start + batch_size]],
                    part[start : start + batch_size],
                ),
                ctx, state,
            )
            for start in range(0, len(part), batch_size)
        ]
        held = operator.finalize(ctx, state)
        if held:  # a holdback's flush is untracked: it carries no positions
            emitted.append(RecordBatch(held))
        for batch in emitted:
            partials.extend(operator.partial(batch, state))
    return operator.merge(partials)


@pytest.mark.parametrize("split", sorted(SPLITS))
@pytest.mark.parametrize("method", ["embedding", "llm"])
def test_topk_merge_of_partials_matches_finalize(bundle, split, method):
    records = _with_score_ties(bundle.records())
    degraded = {records[2].uid, records[7].uid, records[11].uid}

    def operator():
        return P.PhysSemTopK(
            L.SemTopKOp(
                child=None, query="invoice outage for acme", k=6, method=method
            ),
            "gpt-4o",
        )

    whole_ctx = _ctx(bundle, degraded)
    expected = operator().execute(records, whole_ctx)
    assert len(expected) == 6
    ctx = _ctx(bundle, degraded)
    got = _merged_workers(operator(), records, SPLITS[split](len(records)), ctx)
    assert _uids(got) == _uids(expected)
    if method == "llm":
        # The degraded judgments really happened, identically on both sides.
        assert sorted(ctx.failures) == sorted(whole_ctx.failures)
        assert {uid for uid, _ in ctx.failures} == degraded


def test_topk_ties_rank_by_position_across_workers(bundle):
    # Twins share a score; the earlier input position must win wherever
    # the two land — same worker or different ones.
    record = bundle.records()[0]
    twins = [
        DataRecord(dict(record.fields), uid=f"twin-{index}") for index in range(4)
    ]
    operator = P.PhysSemTopK(
        L.SemTopKOp(child=None, query="anything", k=3, method="embedding")
    )
    for parts in ([[3, 1], [2, 0]], [[0, 1, 2, 3]], [[2], [3], [0], [1]]):
        got = _merged_workers(operator, twins, parts, _ctx(bundle))
        assert _uids(got) == ["twin-0", "twin-1", "twin-2"], parts


@pytest.mark.parametrize("split", sorted(SPLITS))
def test_limit_merge_of_partials_is_head_n_by_position(bundle, split):
    records = bundle.records()
    operator = P.PhysLimit(L.LimitOp(child=None, n=7))
    ctx = _ctx(bundle)
    got = _merged_workers(operator, records, SPLITS[split](len(records)), ctx)
    assert _uids(got) == _uids(operator.execute(records, ctx)) == _uids(records[:7])


def test_scatter_partials_merge_back_into_input_order(bundle):
    # The default protocol of record-local operators: key by position.
    records = bundle.records()
    operator = P.PhysStructFilter(
        L.StructFilterOp(child=None, condition="priority >= 2")
    )
    ctx = _ctx(bundle)
    for split in SPLITS.values():
        got = _merged_workers(operator, records, split(len(records)), ctx)
        assert _uids(got) == _uids(operator.execute(records, ctx))


@pytest.mark.parametrize("split", sorted(SPLITS))
@pytest.mark.parametrize("summarize", [False, True])
def test_groupby_partitions_match_one_partition(bundle, split, summarize):
    records = bundle.records()
    operator = P.PhysSemGroupBy(
        L.SemGroupByOp(
            child=None, groups=DEPARTMENTS, summarize=summarize,
            instruction=instruction_for("qa.department"),
        ),
        "gpt-4o",
    )
    whole_ctx = _ctx(bundle)
    expected = operator.execute(records, whole_ctx)
    assert len(expected) > 1  # groups actually formed

    # Phase 1 on any partition of the input, stitched back by position.
    ctx = _ctx(bundle)
    labels = [None] * len(records)
    for part in SPLITS[split](len(records)):
        part_labels = operator.classify_partition([records[at] for at in part], ctx)
        for at, label in zip(part, part_labels):
            labels[at] = label
    assert labels == operator.classify_partition(records, _ctx(bundle))

    # Phase 2 per owner of a subset of the labels, members in input order.
    members: dict = {}
    for label, record in zip(labels, records):
        members.setdefault(label, []).append(record)
    built: dict = {}
    for owner in (0, 1):
        owned = {
            label: rows
            for index, (label, rows) in enumerate(sorted(members.items()))
            if index % 2 == owner
        }
        built.update(operator.build_groups(owned, ctx))
    got = [built[group] for group in DEPARTMENTS if group in built]
    assert [(r.uid, r.fields) for r in got] == [(r.uid, r.fields) for r in expected]
    assert ctx.llm.tracker.spent_usd == pytest.approx(whole_ctx.llm.tracker.spent_usd)


@pytest.mark.parametrize("split", sorted(SPLITS))
@pytest.mark.parametrize(
    "join, embed_batch_size",
    [(P.PhysSemJoin, 1), (P.PhysSemJoinBlocked, 1), (P.PhysSemJoinBlocked, 8)],
)
def test_join_partitions_match_one_partition(bundle, split, join, embed_batch_size):
    records = bundle.records()
    left = [r for r in records if r.fields["priority"] >= 3]
    right = [r for r in records if r.fields["priority"] <= 1]
    assert left and right
    right_scan = P.PhysScan(
        L.ScanOp(child=None, source=MemorySource(right, bundle.schema, "right"))
    )
    operator = join(
        L.SemJoinOp(
            child=None, right=None,
            instruction=instruction_for("qa.same_customer"),
        ),
        [right_scan],
        "gpt-4o",
    )
    whole_ctx = _ctx(bundle, embed_batch_size=embed_batch_size)
    expected = operator.execute(left, whole_ctx)
    assert expected  # some pairs join

    ctx = _ctx(bundle, embed_batch_size=embed_batch_size)
    right_state = operator.prepare_right(ctx)
    joined = [None] * len(left)
    for part in SPLITS[split](len(left)):
        rows = operator.probe_partition([left[at] for at in part], ctx, right_state)
        assert len(rows) == len(part)
        for at, emitted in zip(part, rows):
            joined[at] = emitted
    got = [record for emitted in joined for record in emitted]
    assert [(r.uid, r.fields) for r in got] == [(r.uid, r.fields) for r in expected]
    assert ctx.llm.tracker.spent_usd == pytest.approx(whole_ctx.llm.tracker.spent_usd)


def test_blocked_join_probe_handles_empty_sides(bundle):
    records = bundle.records()
    operator = P.PhysSemJoinBlocked(
        L.SemJoinOp(child=None, right=None, instruction="same customer"),
        [
            P.PhysScan(
                L.ScanOp(child=None, source=MemorySource([], bundle.schema, "none"))
            )
        ],
        "gpt-4o",
    )
    ctx = _ctx(bundle)
    right_state = operator.prepare_right(ctx)
    assert operator.probe_partition(records[:3], ctx, right_state) == [[], [], []]
    assert operator.probe_partition([], ctx, right_state) == []
    assert operator.execute(records[:3], ctx) == []
    assert ctx.llm.tracker.events == []

