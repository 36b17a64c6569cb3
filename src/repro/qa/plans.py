"""Serializable logical-plan specifications for the fuzz harness.

A :class:`PlanSpec` is a JSON-friendly description of a plan — a list of
operator specs (dicts), with a join operator carrying its right-hand
sub-chain inline.  Specs build real :class:`~repro.sem.dataset.Dataset`
plans against any QA corpus bundle, so a replay bundle can rebuild the
exact failing plan from a few lines of JSON.

Python operators (``py_filter`` / ``py_map``) come from a named catalog:
lambdas are not serializable, named catalog entries are.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from repro.data.records import DataRecord
from repro.data.schemas import Field
from repro.errors import PlanError
from repro.sem.dataset import Dataset
from repro.qa.corpus import instruction_for

#: Named, deterministic Python predicates available to fuzzed plans.
PY_PREDICATES = {
    "priority_ge_2": lambda record: record.get("priority", 0) >= 2,
    "priority_le_3": lambda record: record.get("priority", 0) <= 3,
    "odd_priority": lambda record: record.get("priority", 0) % 2 == 1,
}

#: Named, deterministic Python field derivations available to fuzzed plans.
PY_MAPPERS = {
    "priority_bucket": lambda record: {
        "bucket": "high" if record.get("priority", 0) >= 3 else "low"
    },
    "title_len": lambda record: {"title_len": len(str(record.get("title", "")))},
}

#: Named structured SQL predicates available to fuzzed ``where`` ops.
#: Every condition reads only corpus-provided fields so it is pushdown-
#: eligible when adjacent to the scan.
WHERE_CONDITIONS = {
    "priority_top": "priority = 4",
    "priority_mid": "priority BETWEEN 2 AND 3",
    "priority_set": "priority IN (1, 3)",
    "priority_or_low": "priority >= 3 OR priority <= 1",
}

#: Named structured aggregations available to fuzzed ``struct_agg`` ops:
#: name -> ((alias, SQL expression) pairs, group-by fields).
STRUCT_AGGREGATES = {
    "count_all": ((("n", "count(*)"), ("top", "max(priority)")), ()),
    "by_priority": ((("n", "count(*)"),), ("priority",)),
}

#: Fixed query pool for top-k / retrieve operators (embedding relevance).
TOPK_QUERIES = (
    "tickets about a service outage",
    "billing and invoice disputes",
    "contract renewals and audits",
    "login and latency problems",
)

#: Field specs a sem_map can produce: name -> (python type, intent key).
MAP_FIELDS = {
    "amount": (float, "qa.amount"),
    "customer": (str, "qa.customer"),
}

_TYPES = {"str": str, "int": int, "float": float, "bool": bool}
_TYPE_NAMES = {v: k for k, v in _TYPES.items()}


@dataclass(frozen=True)
class PlanSpec:
    """A serializable linear plan (joins carry their right chain inline)."""

    ops: tuple = ()
    metadata: dict = dataclass_field(default_factory=dict, compare=False)

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict:
        return {"ops": [dict(op) for op in self.ops]}

    @classmethod
    def from_dict(cls, payload: dict) -> "PlanSpec":
        return cls(ops=tuple(dict(op) for op in payload["ops"]))

    # -- structure ------------------------------------------------------

    def op_count(self) -> int:
        """Operators in the plan, join right-chains included."""
        total = 0
        for op in self.ops:
            total += 1
            if op["op"] == "sem_join":
                total += len(op.get("right", []))
        return total

    def without_op(self, index: int) -> "PlanSpec":
        """A copy with the ``index``-th top-level operator removed."""
        ops = list(self.ops)
        del ops[index]
        return PlanSpec(ops=tuple(ops))

    def describe(self) -> str:
        parts = []
        for op in self.ops:
            name = op["op"]
            if name == "sem_join":
                name += f"[{'+'.join(sub['op'] for sub in op.get('right', []))}]"
            parts.append(name)
        return " -> ".join(parts) or "(scan only)"

    def has_join(self) -> bool:
        return any(op["op"] == "sem_join" for op in self.ops)

    def semantic_op_count(self) -> int:
        names = ("sem_filter", "sem_map", "sem_classify", "sem_groupby",
                 "sem_topk", "sem_agg", "sem_join")
        return sum(1 for op in self.ops if op["op"] in names)

    # -- building -------------------------------------------------------

    def build(self, bundle, source=None) -> Dataset:
        """Materialize this spec as a Dataset over ``bundle``'s source.

        ``source`` overrides the scan's data source (the streaming class
        builds the plan over a live :class:`~repro.data.sources.MemorySource`
        it appends to); join right-chains still read the full bundle.
        """
        dataset = Dataset.from_source(
            source if source is not None else bundle.source()
        )
        for op in self.ops:
            dataset = _apply(dataset, op, bundle)
        return dataset


def _apply(dataset: Dataset, op: dict, bundle) -> Dataset:
    kind = op["op"]
    if kind == "sem_filter":
        return dataset.sem_filter(instruction_for(op["intent"]))
    if kind == "sem_map":
        field_type, intent = MAP_FIELDS[op["field"]]
        return dataset.sem_map(
            Field(op["field"], field_type, f"extracted {op['field']}"),
            instruction_for(intent),
        )
    if kind == "sem_classify":
        options = list(op["options"])
        return dataset.sem_classify(
            op["field"], options, instruction_for(op["intent"])
        )
    if kind == "sem_groupby":
        return dataset.sem_groupby(
            instruction_for(op["intent"]),
            list(op["groups"]),
            summarize=bool(op.get("summarize", False)),
        )
    if kind == "sem_topk":
        return dataset.sem_topk(op["query"], op["k"], method=op.get("method", "embedding"))
    if kind == "sem_agg":
        return dataset.sem_agg(op["instruction"], output_field=op.get("field", "answer"))
    if kind == "struct_agg":
        aggregates, group_by = STRUCT_AGGREGATES[op["name"]]
        return dataset.struct_agg(aggregates, group_by=group_by)
    if kind == "sem_join":
        right = Dataset.from_source(bundle.source())
        for sub in op.get("right", []):
            right = _apply(right, sub, bundle)
        return dataset.sem_join(right, instruction_for(op["intent"]))
    if kind == "limit":
        return dataset.limit(op["n"])
    if kind == "project":
        return dataset.project(list(op["fields"]))
    if kind == "retrieve":
        return dataset.retrieve(op["query"], op["k"])
    if kind == "where":
        return dataset.where(WHERE_CONDITIONS[op["name"]])
    if kind == "py_filter":
        return dataset.filter(PY_PREDICATES[op["name"]], description=op["name"])
    if kind == "py_map":
        return dataset.map(PY_MAPPERS[op["name"]], description=op["name"])
    raise PlanError(f"unknown plan-spec operator {kind!r}")


def normalized_records(records: list[DataRecord]) -> list[tuple]:
    """Canonical comparable form of an output record list.

    ``(uid, sorted field items)`` per record, order-preserving — the shape
    the bit-identical equivalence oracle compares across execution modes.
    """
    return [
        (record.uid, tuple(sorted(record.fields.items(), key=lambda kv: kv[0])))
        for record in records
    ]
