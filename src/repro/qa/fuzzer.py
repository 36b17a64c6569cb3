"""Seeded random generation of logical plans over QA corpora.

The fuzzer samples the plan space the paper's optimizer and executor must
agree on: chains of semantic filters/maps/classifies, top-k, group-by,
aggregation, joins, limits, projections, and free Python operators, over
corpora of varying size.  Generation is a pure function of the fuzzer seed
and case index, so ``fuzz --seed 0`` explores the identical plan space on
every machine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.qa.corpus import CorpusSpec, DEPARTMENTS, REGIONS
from repro.qa.plans import (
    MAP_FIELDS,
    PY_MAPPERS,
    PY_PREDICATES,
    STRUCT_AGGREGATES,
    PlanSpec,
    TOPK_QUERIES,
    WHERE_CONDITIONS,
)

_FILTER_INTENTS = ("qa.flag_urgent", "qa.flag_security", "qa.flag_refund")

#: Base fields always present on source records.
_BASE_FIELDS = ("title", "body", "priority")

#: Every operator kind a plan spec can hold, one per ``Dataset`` operator:
#: case ``i`` of any seed holds ``KINDS[i]``, so the first cases run every
#: operator against the reference interpreter.  The order is the kinds
#: seed 0's cases already held, so its cases 0-8 and 13 are unchanged.
KINDS = (
    "sem_map", "retrieve", "sem_join", "py_filter", "where", "py_map",
    "sem_topk", "sem_classify", "sem_filter", "limit", "sem_groupby",
    "sem_agg", "struct_agg", "project",
)
#: Kinds that end a plan (at most one per plan) and the access path.
_TERMINAL = ("sem_groupby", "sem_agg", "struct_agg", "project")


@dataclass(frozen=True)
class FuzzCase:
    """One fuzzed (corpus, plan) pair plus the seed its matrix derives from."""

    index: int
    corpus: CorpusSpec
    plan: PlanSpec
    case_seed: int

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "corpus": self.corpus.to_dict(),
            "plan": self.plan.to_dict(),
            "case_seed": self.case_seed,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FuzzCase":
        return cls(
            index=int(payload.get("index", 0)),
            corpus=CorpusSpec.from_dict(payload["corpus"]),
            plan=PlanSpec.from_dict(payload["plan"]),
            case_seed=int(payload["case_seed"]),
        )


class PlanFuzzer:
    """Generates random-but-reproducible plans and corpora."""

    def __init__(self, seed: int = 0, max_ops: int = 5, min_records: int = 12,
                 max_records: int = 32) -> None:
        self.seed = seed
        self.max_ops = max_ops
        self.min_records = min_records
        self.max_records = max_records

    def case(self, index: int) -> FuzzCase:
        rng = random.Random((self.seed, "qa-case", index).__repr__())
        corpus = CorpusSpec(
            seed=rng.randrange(1_000_000),
            n_records=rng.randint(self.min_records, self.max_records),
        )
        plan = self.generate_plan(rng, corpus)
        if index < len(KINDS):
            scheduler = random.Random((self.seed, "qa-kind", index).__repr__())
            plan = _scheduled(plan, KINDS[index], scheduler, corpus)
        return FuzzCase(
            index=index, corpus=corpus, plan=plan,
            case_seed=rng.randrange(1_000_000),
        )

    # ------------------------------------------------------------------
    # Plan generation
    # ------------------------------------------------------------------

    def generate_plan(self, rng: random.Random, corpus: CorpusSpec) -> PlanSpec:
        ops: list[dict] = []
        fields = list(_BASE_FIELDS)
        length = rng.randint(1, self.max_ops)

        # Access path: occasionally replace the full scan with retrieval.
        if rng.random() < 0.15:
            ops.append(_op("retrieve", rng, corpus, fields))

        while len(ops) < length:
            kind = rng.choices(
                ("sem_filter", "sem_map", "sem_classify", "sem_topk",
                 "limit", "py_filter", "py_map", "sem_join", "where"),
                weights=(30, 18, 12, 10, 8, 8, 6, 8, 10),
            )[0]
            if kind == "sem_join" and any(op["op"] == "sem_join" for op in ops):
                continue  # at most one join per plan
            ops.append(_op(kind, rng, corpus, fields))

        # Terminal decoration: group-by / aggregate / projection.
        tail = rng.random()
        if tail < 0.12:
            ops.append(_op("sem_groupby", rng, corpus, fields))
        elif tail < 0.20:
            ops.append(_op("sem_agg", rng, corpus, fields))
        elif tail < 0.30:
            ops.append(_op("project", rng, corpus, fields))

        return PlanSpec(ops=tuple(ops))


def _op(kind: str, rng: random.Random, corpus: CorpusSpec, fields: list[str]) -> dict:
    """One operator spec of ``kind``; ``fields`` gains what it derives."""
    if kind == "sem_filter":
        return {"op": "sem_filter", "intent": rng.choice(_FILTER_INTENTS)}
    if kind == "sem_map":
        name = rng.choice(sorted(MAP_FIELDS))
        if name not in fields:
            fields.append(name)
        return {"op": "sem_map", "field": name}
    if kind == "sem_classify":
        intent, options = rng.choice((("qa.department", DEPARTMENTS), ("qa.region", REGIONS)))
        field = "dept" if intent == "qa.department" else "region_label"
        if field not in fields:
            fields.append(field)
        return {"op": "sem_classify", "field": field, "intent": intent, "options": list(options)}
    if kind == "sem_topk":
        return {
            "op": "sem_topk",
            "query": rng.choice(TOPK_QUERIES),
            "k": rng.randint(2, 10),
            "method": rng.choice(("embedding", "llm")),
        }
    if kind == "limit":
        return {"op": "limit", "n": rng.randint(3, corpus.n_records)}
    if kind == "py_filter":
        return {"op": "py_filter", "name": rng.choice(sorted(PY_PREDICATES))}
    if kind == "where":
        return {"op": "where", "name": rng.choice(sorted(WHERE_CONDITIONS))}
    if kind == "py_map":
        return {"op": "py_map", "name": rng.choice(sorted(PY_MAPPERS))}
    if kind == "sem_join":
        right: list[dict] = []
        if rng.random() < 0.5:
            right.append({"op": "py_filter", "name": rng.choice(sorted(PY_PREDICATES))})
        right.append({"op": "limit", "n": rng.randint(2, 5)})
        return {"op": "sem_join", "intent": "qa.same_customer", "right": right}
    if kind == "retrieve":
        return {
            "op": "retrieve",
            "query": rng.choice(TOPK_QUERIES),
            "k": rng.randint(6, max(8, corpus.n_records - 2)),
        }
    if kind == "sem_groupby":
        return {
            "op": "sem_groupby", "intent": "qa.region",
            "groups": list(REGIONS), "summarize": rng.random() < 0.5,
        }
    if kind == "sem_agg":
        return {"op": "sem_agg",
                "instruction": "Summarize the overall ticket workload.", "field": "answer"}
    if kind == "struct_agg":
        return {"op": "struct_agg", "name": rng.choice(sorted(STRUCT_AGGREGATES))}
    keep = [name for name in fields if rng.random() < 0.7] or ["title"]
    return {"op": "project", "fields": keep}


def _scheduled(plan: PlanSpec, kind: str, rng: random.Random, corpus: CorpusSpec) -> PlanSpec:
    """``plan`` holding an operator of ``kind``: the access path goes first,
    a terminal replaces the plan's terminal, anything else goes before it."""
    ops = list(plan.ops)
    if any(op["op"] == kind for op in ops):
        return plan
    fields = list(_BASE_FIELDS)
    for op in ops:
        if op["op"] in ("sem_map", "sem_classify"):
            fields.append(op["field"])
    new = _op(kind, rng, corpus, fields)
    if kind == "retrieve":
        ops.insert(0, new)
    elif ops and ops[-1]["op"] in _TERMINAL:
        if kind in _TERMINAL:
            ops[-1] = new
        else:
            ops.insert(len(ops) - 1, new)
    else:
        ops.append(new)
    return PlanSpec(ops=tuple(ops))
