"""Deterministic builders for the files under ``tests/goldens/``.

Shared between the golden-comparison tests (``test_obs_export.py``) and
``scripts/update_goldens.py`` so that regeneration and verification can
never drift apart: both sides call the same builder and the same
serializer.  Every builder must be a pure function of nothing — no seeds
taken from the environment, no wall-clock reads — so the goldens are
byte-reproducible on any machine.
"""

from __future__ import annotations

import json

from repro.obs import MetricsRegistry, Tracer, chrome_trace
from repro.utils.clock import VirtualClock


def hand_built_tracer() -> tuple[Tracer, MetricsRegistry]:
    """A small deterministic span tree: query > operator > 2 wave calls,
    plus a pipelined cell on its own track and a sharded exchange with
    per-shard cells (the scale-out executor's span shape)."""
    clock = VirtualClock()
    tracer = Tracer(clock)
    metrics = MetricsRegistry()
    metrics.counter("llm.calls").inc(3)
    metrics.histogram("llm.latency_s").observe(2.0)
    with tracer.span("query:test", kind="query", pipeline=False):
        with tracer.span("SemFilter('x')", kind="operator"):
            tracer.add_span(
                "gpt-4o", "llm-call", 0.0, 2.0, track="llm slot 0", tag="t"
            )
            tracer.add_span(
                "gpt-4o", "llm-call", 0.0, 1.5, track="llm slot 1", tag="t"
            )
            clock.advance(2.0)
        tracer.add_span("SemFilter('x') b0", "cell", 2.0, 3.0, track="stage 0")
        clock.advance(1.0)
        with tracer.span(
            "exchange[SemMap('y')]", kind="exchange",
            strategy="scatter", shards=2, partitioner="hash",
        ) as exchange_span:
            tracer.add_span(
                "SemMap('y') s0b1", "cell", 3.0, 4.0,
                track="shard 0 stage 0", parent=exchange_span, shard=0,
            )
            tracer.add_span(
                "SemMap('y') s1b1", "cell", 3.0, 3.5,
                track="shard 1 stage 0", parent=exchange_span, shard=1,
            )
            clock.advance(1.0)
    return tracer, metrics


def build_chrome_trace_golden() -> dict:
    """The payload stored in ``goldens/chrome_trace_golden.json``."""
    tracer, metrics = hand_built_tracer()
    return chrome_trace(tracer, metrics=metrics)


def build_explain_pushdown_golden() -> str:
    """The EXPLAIN ANALYZE text in ``goldens/explain_pushdown_golden.txt``.

    A pushdown-eligible plan (sem_filter -> where -> sem_map) over the
    seeded QA corpus, executed on two shards: the rendering must tag the
    ``SqlScan`` row in the SQL column, emit both pushdown footers
    (records pruned before the first LLM operator, and the compiled SQL
    text), fill the ``Shards`` column for shard-parallel operators, and
    emit the exchange footer with its makespan/straggler diagnostics.
    """
    from repro.data.records import reset_uid_counter
    from repro.data.schemas import Field
    from repro.llm.oracle import SemanticOracle
    from repro.llm.simulated import SimulatedLLM
    from repro.qa.corpus import CorpusSpec, build_corpus, instruction_for
    from repro.sem.config import QueryProcessorConfig
    from repro.sem.dataset import Dataset

    reset_uid_counter()
    bundle = build_corpus(CorpusSpec(seed=5, n_records=18))
    llm = SimulatedLLM(oracle=SemanticOracle(bundle.registry), seed=5)
    config = QueryProcessorConfig(llm=llm, optimize=False, seed=5, shards=2)
    dataset = (
        Dataset.from_source(bundle.source())
        .sem_filter(instruction_for("qa.flag_urgent"))
        .where("priority >= 3")
        .sem_map(
            Field("amount", float, "extracted amount"),
            instruction_for("qa.amount"),
        )
    )
    return dataset.explain(analyze=True, config=config)


def operator_digest_plans() -> dict:
    """name -> leaves-first logical chain; together they use every logical
    operator class (``SqlScanOp`` through the pushed variants)."""
    from repro.data.records import DataRecord
    from repro.data.schemas import Field, Schema
    from repro.sem import logical as L
    from repro.sem.dataset import Dataset

    schema = Schema([Field("text", str), Field("priority", int), Field("region", str)])

    def scan(source_id: str = "golden-src") -> Dataset:
        records = [
            DataRecord(
                {"text": f"text {i}", "priority": i % 4, "region": "ab"[i % 2]},
                uid=f"g{i}",
            )
            for i in range(6)
        ]
        return Dataset.from_records(records, schema, source_id=source_id)

    urgent = "The text   describes an URGENT matter."
    firsthand = "The text is a firsthand account."
    datasets = {
        "filters": scan()
        .sem_filter(urgent)
        .filter(lambda record: len(record["text"]) < 9, description="short text")
        .where("priority>=2")
        .sem_filter(firsthand, model="gpt-4o"),
        "record_local": scan()
        .sem_map(Field("summary", str, "one line"), "Summarize the text.")
        .sem_classify("label", ["x", "y"], "Pick the better label.")
        .map(lambda record: {"n": len(record["text"])}, description="text length")
        .project(["text", "label", "n"])
        .limit(3),
        "groupby": scan().sem_filter(urgent).sem_groupby(
            "Group the text by topic.", ["alpha", "beta"], summarize=True
        ),
        "topk_agg": scan().sem_topk("urgent matters", 3, method="llm").sem_agg(
            "Summarize everything.", output_field="digest"
        ),
        "retrieve": scan().retrieve("urgent matters", 4).sem_filter(urgent),
        "structured": scan()
        .where("priority >= 2")
        .project(["text", "region"])
        .limit(5)
        .sem_filter(urgent)
        .struct_agg([("n", "count(*)")], group_by=["region"]),
        "hoisted": scan()
        .sem_filter(urgent)
        .where("priority >= 1")
        .struct_agg([("worst", "max(priority)")])
        .sem_map(Field("note", str, "a note"), "Explain the number."),
        "terminal_agg": scan()
        .where("priority >= 1")
        .struct_agg([("n", "count(*)")], group_by=["region"])
        .limit(1)
        .sem_map(Field("note", str, "a note"), "Explain the number."),
        "join": scan()
        .sem_join(scan("golden-right").sem_filter(firsthand), "The texts match.")
        .sem_filter(urgent),
        "undescribed": scan()
        .filter(lambda record: True)
        .sem_filter(urgent)
        .map(lambda record: {}),
    }
    chains = {}
    for name, dataset in datasets.items():
        # The left spine: what the binder walks (a join's right input is
        # bound inside the join).
        spine, node = [], dataset.plan().root
        while node is not None:
            spine.append(node)
            node = node.child
        chains[name] = spine[::-1]
    chains["materialized"] = [
        L.MaterializedScanOp(child=None, source_id="golden-src", fingerprint="ab" * 8),
        L.SemFilterOp(child=None, instruction=urgent),
    ]
    return chains


def saved_store_dataset():
    """The plan ``goldens/materialization_store_pr22.json`` was captured from
    (by the code of the commit before operators declared their own tokens:
    ``_config`` below, one run, ``store.save``).  Not in
    :data:`GOLDEN_BUILDERS` on purpose — it must stay what *that* code wrote."""
    from repro.data.records import DataRecord
    from repro.data.schemas import Field, Schema
    from repro.sem.dataset import Dataset

    schema = Schema([Field("text", str), Field("priority", int)])
    records = [
        DataRecord({"text": f"memo {i}", "priority": i % 3}, uid=f"s{i}")
        for i in range(8)
    ]
    return (
        Dataset.from_records(records, schema, source_id="saved-src")
        .where("priority >= 1")
        .sem_filter("The memo is urgent.")
        .sem_map(Field("gist", str, "the gist"), "State the gist.")
    )


def saved_store_config(store):
    from repro.llm.simulated import SimulatedLLM
    from repro.sem.config import QueryProcessorConfig

    return QueryProcessorConfig(
        llm=SimulatedLLM(seed=3), seed=3, optimize=False, materialization_store=store
    )


def build_operator_digests_golden() -> dict:
    """Boundary fingerprints and statistics keys of :func:`operator_digest_plans`.

    Per plan: as written and with the structured prefix pushed into a
    SqlScan leaf, unscoped and under a tenant scope.  None marks what is
    not keyable (joins, replay leaves, undescribed Python operators, and —
    for fingerprints — every boundary before the first costly operator).
    The persisted stores are only as good as these digests are stable.
    """
    from repro.sem.materialize import prefix_fingerprints
    from repro.sem.optimizer.pushdown import push_structured_prefix
    from repro.sem.optimizer.replan import stats_key

    payload = {}
    for name, chain in operator_digest_plans().items():
        pushed, sql_scan = push_structured_prefix(chain)
        variants = {"written": chain}
        if sql_scan is not None:
            variants["pushed"] = pushed
        for variant, ops in variants.items():
            models = ["gpt-4o-mini" if hasattr(op, "model") else None for op in ops]
            for scope in ("", "tenant-a"):
                payload[f"{name}/{variant}/{scope or 'unscoped'}"] = {
                    "operators": [type(op).__name__ for op in ops],
                    "fingerprints": prefix_fingerprints(ops, models, 7, scope=scope),
                    "stats_keys": [
                        stats_key(op, model, "golden-src", scope, 7)
                        for op, model in zip(ops, models)
                    ],
                }
    return payload


def render_golden(payload) -> str:
    """Serialize a golden payload exactly as stored on disk.

    Dict payloads become pretty-printed JSON; string payloads (rendered
    reports) are stored verbatim with a trailing newline.
    """
    if isinstance(payload, str):
        return payload if payload.endswith("\n") else payload + "\n"
    return json.dumps(payload, indent=1) + "\n"


#: filename -> builder; ``scripts/update_goldens.py`` and the up-to-date
#: test iterate this table, so adding a golden means adding one entry.
GOLDEN_BUILDERS = {
    "chrome_trace_golden.json": build_chrome_trace_golden,
    "explain_pushdown_golden.txt": build_explain_pushdown_golden,
    "operator_digests_golden.json": build_operator_digests_golden,
}
