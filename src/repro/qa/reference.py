"""The reference interpreter: each operator by its simplest algorithm.

As LOTUS defines every semantic operator by a reference algorithm and
states its optimized variants' guarantees relative to it, this is what
every answer class of :mod:`repro.qa.oracles` is diffed against.  It is
independent of ``sem.physical/execution/shard/batch/optimizer``, so a bug
in an operator body cannot hide by being present in every engine mode; it
*shares* the logical plan, the LLM substrate and :mod:`repro.sem.structql`
(predicates, aggregation), so a bug there is invisible here.  Whole input,
one operator at a time, in the order the plan was *written*: no pushdown,
no fusion, no early exit, one worker, one call per embedded text.  An
operator's per-record calls form one ``llm.parallel(parallelism)``
section; its whole-input calls (embeddings, a group summary, the
aggregate) are sequential — call for call the engine's operator step, so
the time is the classic barrier time and the dollars bound any engine
run: fusion, pushdown and early exit only ever remove calls.  Fault-free
substrates only: no failure policy here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.records import DataRecord
from repro.errors import PlanError
from repro.llm.embeddings import cosine_similarity, top_k_similar
from repro.llm.models import DEFAULT_MODEL
from repro.llm.simulated import SimulatedLLM
from repro.sem import logical as L
from repro.sem.structql import compile_predicate, predicate_mask, run_aggregation
from repro.utils.hashing import stable_digest


@dataclass
class ReferenceResult:
    """What the reference run produced and what it charged."""

    records: list[DataRecord]
    total_cost_usd: float = 0.0
    total_time_s: float = 0.0
    #: ``(operator label, records in, records out, usage charged)`` in
    #: evaluation order; the usage is a :class:`repro.llm.usage.Usage`.
    steps: list[tuple] = field(default_factory=list)


def _minted(kind: str, inputs: list[DataRecord], fields: dict, *key) -> DataRecord:
    """A fresh record whose uid is a pure function of its input lineage."""
    uids = tuple(r.uid for r in inputs)
    uid = f"{kind}:{stable_digest(uids, *key)[:6]}"
    return DataRecord(fields, uid=uid, parent_uids=uids)


@dataclass
class ReferenceInterpreter:
    """Evaluates :mod:`repro.sem.logical` plans on ``llm``."""

    llm: SimulatedLLM
    parallelism: int = 1
    #: Model for operators that pin none (the engine's champion default).
    model: str = DEFAULT_MODEL

    def run(self, plan: L.LogicalPlan) -> ReferenceResult:
        L.validate_plan(plan)
        result = ReferenceResult(records=[])
        cost, time = self.llm.tracker.spent_usd, self.llm.clock.elapsed
        result.records = self._evaluate(plan.root, result.steps)
        result.total_cost_usd = self.llm.tracker.spent_usd - cost
        result.total_time_s = self.llm.clock.elapsed - time
        return result

    def _evaluate(self, op: L.LogicalOperator, steps: list) -> list[DataRecord]:
        records = [] if op.child is None else self._evaluate(op.child, steps)
        right = self._evaluate(op.right, steps) if isinstance(op, L.SemJoinOp) else ()
        mark = self.llm.tracker.checkpoint()
        output = self.apply(op, records, right)
        usage = self.llm.tracker.since(mark)
        steps.append((op.label(), len(records), len(output), usage))
        return output

    def _each(self, records: list[DataRecord], call) -> list:
        """``call`` per record, charged as one parallel section."""
        with self.llm.parallel(self.parallelism):
            return [call(r) for r in records]

    def apply(self, op: L.LogicalOperator, records: list[DataRecord], right=()):
        """``op`` over its whole input (``right``: a join's evaluated right side)."""
        llm = self.llm
        model = getattr(op, "model", None) or self.model
        if isinstance(op, L.ScanOp):
            return list(op.source.iterate())
        if isinstance(op, L.RetrieveOp):
            source = op.child.source if isinstance(op.child, L.ScanOp) else None
            if hasattr(source, "vector_search"):
                return [hit for hit, _ in source.vector_search(op.query, op.k, llm=llm)]
            if not records:
                return []
            query = llm.embed(op.query)
            matrix = np.stack([llm.embed(r.as_text()) for r in records])
            return [records[i] for i, _ in top_k_similar(query, matrix, op.k)]
        if isinstance(op, L.SemFilterOp):
            keep = self._each(records, lambda r: self._judge(op.instruction, r, model))
            return [r for r, kept in zip(records, keep) if kept]
        if isinstance(op, L.SemMapOp):

            def extracted(r: DataRecord) -> dict:
                return {
                    out.name: out.coerce(llm.extract(instruction, r, model=model).value)
                    for out, instruction in op.outputs
                }

            return self._each(records, lambda r: r.derive(extracted(r)))
        if isinstance(op, L.SemClassifyOp):
            labels = self._each(records, self._labeler(op, op.options, model))
            return [r.derive({op.output_field: v}) for r, v in zip(records, labels)]
        if isinstance(op, L.SemGroupByOp):
            return self._group_by(op, records, model)
        if isinstance(op, L.SemJoinOp):
            pairs = [(left, other) for left in records for other in right]
            matched = self._each(
                pairs, lambda p: llm.judge_join(op.instruction, *p, model=model).answer
            )
            return [DataRecord.merge(*p) for p, hit in zip(pairs, matched) if hit]
        if isinstance(op, L.SemAggOp):
            chunks, used = [], 0
            for text in (r.as_text() for r in records):
                if used + len(text) > L.AGG_TEXT_BUDGET:
                    break
                chunks.append(text)
                used += len(text)
            prompt = op.instruction + "\n\n" + "\n---\n".join(chunks)
            answer = llm.complete(prompt, model=model).text
            return [_minted("agg", records, {op.output_field: answer})]
        if isinstance(op, L.SemTopKOp):
            return self._top_k(op, records, model)
        if isinstance(op, L.PyFilterOp):
            return [r for r in records if op.fn(r)]
        if isinstance(op, L.PyMapOp):
            return [r.derive(op.fn(r)) for r in records]
        if isinstance(op, L.StructFilterOp):
            keep = predicate_mask(compile_predicate(op.condition), [r.fields for r in records])
            return [r for r, kept in zip(records, keep) if kept]
        if isinstance(op, L.StructAggOp):
            fields, output = [r.fields for r in records], []
            for row in run_aggregation(fields, op.group_by, op.aggregates):
                key = tuple(row[name] for name in op.group_by)
                output.append(_minted("structagg", records, dict(row), key))
            return output
        if isinstance(op, L.ProjectOp):
            return [
                r.derive(drop=[name for name in r.fields if name not in op.fields])
                for r in records
            ]
        if isinstance(op, L.LimitOp):
            return records[: op.n]
        raise PlanError(f"the reference interpreter does not define {op.label()}")

    def _judge(self, ask: str, r: DataRecord, model: str) -> bool:
        return self.llm.judge_filter(ask, r, model=model).answer

    def _labeler(self, op, options, model: str):
        """The per-record classification call of a classify or a group-by."""
        return lambda r: self.llm.classify(
            op.instruction, list(options), r, model=model
        ).value

    def _group_by(self, op: L.SemGroupByOp, records, model: str) -> list[DataRecord]:
        labels = self._each(records, self._labeler(op, op.groups, model))
        output = []
        for group in op.groups:
            rows = [r for r, label in zip(records, labels) if str(label) == group]
            if not rows:
                continue
            fields = {"group": group, "count": len(rows)}
            if op.summarize:
                text = "\n---\n".join(r.as_text() for r in rows)[: L.AGG_TEXT_BUDGET]
                fields["summary"] = self.llm.complete(
                    f"Summarize the records in group {group!r}: "
                    f"{op.instruction}\n\n{text}",
                    model=model,
                ).text
            output.append(_minted(f"group:{group}", rows, fields))
        return output

    def _top_k(self, op: L.SemTopKOp, records, model: str) -> list[DataRecord]:
        """Rank by (LLM relevance, embedding similarity, arrival); keep ``k``."""
        if not records:
            return []
        llm = self.llm
        query = llm.embed(op.query)
        vectors = [llm.embed(r.as_text()) for r in records]
        sims = [cosine_similarity(query, vector) for vector in vectors]
        relevant = [True] * len(records)
        if op.method == "llm":
            ask = f"The record is relevant to: {op.query}"
            relevant = self._each(records, lambda r: self._judge(ask, r, model))
        order = sorted(range(len(records)), key=lambda i: (not relevant[i], -sims[i], i))
        return [records[i] for i in order[: op.k]]
