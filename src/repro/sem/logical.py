"""Logical operators and plans.

A logical plan is a tree of :class:`LogicalOperator` nodes (linear chains
except for joins).  Plans are immutable: rewrites produce new trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.data.schemas import Field as SchemaField
from repro.data.sources import DataSource
from repro.errors import PlanError


@dataclass(frozen=True)
class LogicalOperator:
    """Base logical operator; ``child`` is None only for scans."""

    child: "LogicalOperator | None"

    def label(self) -> str:
        return type(self).__name__

    def with_child(self, child: "LogicalOperator | None") -> "LogicalOperator":
        return replace(self, child=child)


@dataclass(frozen=True)
class ScanOp(LogicalOperator):
    """Leaf: iterate a data source."""

    source: DataSource = None  # type: ignore[assignment]

    def label(self) -> str:
        return f"Scan({self.source.source_id})"


@dataclass(frozen=True)
class SemFilterOp(LogicalOperator):
    """Keep records satisfying a natural-language predicate."""

    instruction: str = ""
    #: Optional per-operator model override (None lets the optimizer pick).
    model: str | None = None

    def label(self) -> str:
        return f"SemFilter({self.instruction[:40]!r})"


@dataclass(frozen=True)
class SemMapOp(LogicalOperator):
    """Compute new fields from each record via NL instructions."""

    #: (output field, extraction instruction) pairs.
    outputs: tuple[tuple[SchemaField, str], ...] = ()
    model: str | None = None

    def label(self) -> str:
        names = ", ".join(field_.name for field_, _ in self.outputs)
        return f"SemMap({names})"


@dataclass(frozen=True)
class SemClassifyOp(LogicalOperator):
    """Assign each record one of a fixed set of labels."""

    output_field: str = "label"
    options: tuple[str, ...] = ()
    instruction: str = ""
    model: str | None = None

    def label(self) -> str:
        return f"SemClassify({self.output_field})"


@dataclass(frozen=True)
class SemGroupByOp(LogicalOperator):
    """Partition records into semantic groups (LOTUS-style group-by).

    Each record is classified into one of ``groups``; the output has one
    record per non-empty group with the group label, member count, and
    (optionally) an LLM-written summary of the group's members.
    """

    groups: tuple[str, ...] = ()
    instruction: str = ""
    summarize: bool = False
    model: str | None = None

    def label(self) -> str:
        return f"SemGroupBy({', '.join(self.groups)})"


@dataclass(frozen=True)
class SemJoinOp(LogicalOperator):
    """Join two plans on a natural-language pair predicate."""

    right: "LogicalOperator" = None  # type: ignore[assignment]
    instruction: str = ""
    model: str | None = None

    def label(self) -> str:
        return f"SemJoin({self.instruction[:40]!r})"


#: Character budget for the concatenated record text a semantic
#: aggregation (or a group summary) places in one prompt.
AGG_TEXT_BUDGET = 24_000


@dataclass(frozen=True)
class SemAggOp(LogicalOperator):
    """Aggregate all records into a single synthesized answer.

    Record texts are concatenated in input order until the next one would
    overflow :data:`AGG_TEXT_BUDGET`.
    """

    instruction: str = ""
    output_field: str = "answer"
    model: str | None = None

    def label(self) -> str:
        return f"SemAgg({self.output_field})"


@dataclass(frozen=True)
class SemTopKOp(LogicalOperator):
    """Keep the k records most relevant to a natural-language query."""

    query: str = ""
    k: int = 10
    #: "embedding" ranks by vector similarity; "llm" asks a model to rerank.
    method: str = "embedding"
    model: str | None = None

    def label(self) -> str:
        return f"SemTopK(k={self.k})"


@dataclass(frozen=True)
class PyFilterOp(LogicalOperator):
    """Keep records passing a plain Python predicate (free to run)."""

    fn: Callable[[Any], bool] = None  # type: ignore[assignment]
    description: str = ""

    def label(self) -> str:
        return f"PyFilter({self.description or 'fn'})"


@dataclass(frozen=True)
class PyMapOp(LogicalOperator):
    """Derive new fields with a plain Python function (free to run)."""

    fn: Callable[[Any], dict] = None  # type: ignore[assignment]
    description: str = ""

    def label(self) -> str:
        return f"PyMap({self.description or 'fn'})"


@dataclass(frozen=True)
class StructFilterOp(LogicalOperator):
    """Keep records where a SQL predicate over typed fields is TRUE.

    ``condition`` is the ``repro.sql`` WHERE grammar (three-valued NULL
    logic; a missing field reads as NULL).  Free to run — no LLM calls —
    and the pushdown pass compiles runs of these adjacent to the scan into
    a :class:`SqlScanOp` so the SQL engine prunes records before any LLM
    operator sees them.
    """

    condition: str = ""

    def label(self) -> str:
        return f"StructFilter({self.condition!r})"


#: The record filters: adjacent runs of these commute with each other
#: (each only selects records, so any order keeps the same set) — what
#: filter reordering, hoisting to the scan, fingerprint canonicalization
#: and the mid-query re-planner are all allowed to permute.
COMMUTING_FILTERS = (SemFilterOp, PyFilterOp, StructFilterOp)


@dataclass(frozen=True)
class StructAggOp(LogicalOperator):
    """Structured (non-semantic) aggregation via the SQL engine.

    Groups by the named fields and computes SQL aggregate expressions
    (``("total", "sum(amount)")``), emitting one fresh record per group
    with lineage-deterministic uids.  Like :class:`StructFilterOp` it is
    token-free and pushdown-eligible.
    """

    group_by: tuple[str, ...] = ()
    #: (output field, SQL aggregate expression) pairs.
    aggregates: tuple[tuple[str, str], ...] = ()

    def label(self) -> str:
        parts = list(self.group_by) + [alias for alias, _ in self.aggregates]
        return f"StructAgg({', '.join(parts)})"


@dataclass(frozen=True)
class SqlScanOp(LogicalOperator):
    """Leaf: scan a source with a pushed-down structured prefix.

    Never written by users — the pushdown pass replaces
    ``Scan → (StructFilter|Project|Limit|StructAgg)*`` with one of these.
    ``pushed`` holds the replaced operators in execution order (children
    severed); ``sql`` is the display-form SELECT the prefix compiles to.
    Surviving records are bit-identical to running the pushed operators
    row-at-a-time, because both paths share ``repro.sql`` evaluation.
    """

    source: DataSource = None  # type: ignore[assignment]
    pushed: tuple[LogicalOperator, ...] = ()
    sql: str = ""

    def label(self) -> str:
        return f"SqlScan({self.source.source_id}, {len(self.pushed)} ops)"


@dataclass(frozen=True)
class ProjectOp(LogicalOperator):
    """Keep only the named fields."""

    fields: tuple[str, ...] = ()

    def label(self) -> str:
        return f"Project({', '.join(self.fields)})"


@dataclass(frozen=True)
class LimitOp(LogicalOperator):
    """Stop after n records."""

    n: int = 0

    def label(self) -> str:
        return f"Limit({self.n})"


@dataclass(frozen=True)
class MaterializedScanOp(LogicalOperator):
    """Leaf: replay a materialized sub-plan prefix from the store.

    Never written by users — the reuse-aware optimizer substitutes one for
    a fingerprint-matched prefix (see :mod:`repro.sem.materialize`).  When
    the source grew by an appended delta, ``delta_records`` counts the new
    source records the physical operator runs through the reused prefix.
    """

    source_id: str = ""
    fingerprint: str = ""
    base_records: int = 0
    delta_records: int = 0

    def label(self) -> str:
        suffix = f", delta={self.delta_records}" if self.delta_records else ""
        return f"MaterializedScan({self.source_id}, fp={self.fingerprint[:8]}{suffix})"


@dataclass(frozen=True)
class RetrieveOp(LogicalOperator):
    """Access-path operator: top-k vector retrieval instead of a full scan.

    Only valid directly above a scan whose source supports search (a
    Context with a registered index); the optimizer and the Context layer
    insert these.
    """

    query: str = ""
    k: int = 10

    def label(self) -> str:
        return f"Retrieve(k={self.k}, {self.query[:30]!r})"


@dataclass(frozen=True)
class LogicalPlan:
    """An immutable logical plan (a pointer to the root operator)."""

    root: LogicalOperator
    metadata: dict = field(default_factory=dict, compare=False)

    def operators(self) -> list[LogicalOperator]:
        """All operators, leaves first (left-deep order)."""
        ordered: list[LogicalOperator] = []

        def visit(op: LogicalOperator | None) -> None:
            if op is None:
                return
            visit(op.child)
            if isinstance(op, SemJoinOp):
                visit(op.right)
            ordered.append(op)

        visit(self.root)
        return ordered

    def source_ops(self) -> list[ScanOp]:
        return [op for op in self.operators() if isinstance(op, ScanOp)]

    def explain(self) -> str:
        """Readable indented plan rendering (root at top)."""
        lines: list[str] = []

        def visit(op: LogicalOperator | None, depth: int) -> None:
            if op is None:
                return
            lines.append("  " * depth + op.label())
            if isinstance(op, SemJoinOp):
                visit(op.child, depth + 1)
                visit(op.right, depth + 1)
            else:
                visit(op.child, depth + 1)

        visit(self.root, 0)
        return "\n".join(lines)

    def replace_chain(self, new_chain: list[LogicalOperator]) -> "LogicalPlan":
        """Rebuild a linear plan from a leaves-first operator list."""
        if not new_chain:
            raise PlanError("cannot build a plan from an empty chain")
        current: LogicalOperator | None = None
        for op in new_chain:
            current = op.with_child(current)
        return LogicalPlan(root=current, metadata=dict(self.metadata))

    def is_linear(self) -> bool:
        return not any(isinstance(op, SemJoinOp) for op in self.operators())


def validate_plan(plan: LogicalPlan) -> None:
    """Raise :class:`PlanError` on structurally invalid plans."""
    ops = plan.operators()
    if not ops:
        raise PlanError("empty plan")
    for op in ops:
        if isinstance(op, ScanOp):
            if op.child is not None:
                raise PlanError("ScanOp must be a leaf")
            if op.source is None:
                raise PlanError("ScanOp requires a source")
        elif isinstance(op, SemJoinOp):
            if op.child is None or op.right is None:
                raise PlanError("SemJoinOp requires two inputs")
        elif isinstance(op, MaterializedScanOp):
            if op.child is not None:
                raise PlanError("MaterializedScanOp must be a leaf")
        elif isinstance(op, SqlScanOp):
            if op.child is not None:
                raise PlanError("SqlScanOp must be a leaf")
            if op.source is None:
                raise PlanError("SqlScanOp requires a source")
            if not op.pushed:
                raise PlanError("SqlScanOp requires at least one pushed operator")
        elif op.child is None:
            raise PlanError(f"{op.label()} is missing its input")
        if isinstance(op, StructFilterOp):
            from repro.sem.structql import compile_predicate

            compile_predicate(op.condition)
        if isinstance(op, StructAggOp):
            from repro.sem.structql import validate_aggregation

            validate_aggregation(op.group_by, op.aggregates)
        if isinstance(op, LimitOp) and op.n < 0:
            raise PlanError(f"Limit must be >= 0, got {op.n}")
        if isinstance(op, SemTopKOp) and op.k < 1:
            raise PlanError(f"TopK requires k >= 1, got {op.k}")
        if isinstance(op, RetrieveOp) and not isinstance(op.child, ScanOp):
            raise PlanError("RetrieveOp must sit directly above a scan")
