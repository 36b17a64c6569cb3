"""Logical operators and plans.

A logical plan is a tree of :class:`LogicalOperator` nodes (linear chains
except for joins).  Plans are immutable: rewrites produce new trees.

Every per-operator-class fact is declared here, once, on the class (see
:class:`LogicalOperator`); other modules read it and name no class.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, ClassVar

from repro.data.schemas import Field as SchemaField
from repro.data.sources import DataSource
from repro.errors import PlanError
from repro.sem.structql import (
    compile_predicate,
    normalized_condition,
    validate_aggregation,
)
from repro.utils.text import normalize_text

#: Selectivity believed of a filter nothing is known about: half its input.
STATIC_SELECTIVITY = 0.5

#: Legal ``charges`` declarations: believed per-record charges per input.
CHARGES = ("per_record", "once", "free")


@dataclass(frozen=True)
class LogicalOperator:
    """Base logical operator; ``child`` is None only for leaves.

    A subclass must declare ``charges`` and :meth:`token` (omitting either
    raises :class:`PlanError` when the class is defined) and overrides a
    flag wherever its conservative default is wrong.
    """

    child: "LogicalOperator | None"

    #: Believed per-record charges: one per input record, one per
    #: execution (an aggregate), or none (token-free).
    charges: ClassVar[str]
    #: Spends LLM calls or embeddings: worth materializing behind.
    costly: ClassVar[bool] = False
    #: Record-local and order-preserving: its output on a delta (appended
    #: or rewritten records) merges into a full recompute's by source
    #: position (else exact-reuse only).
    incremental_safe: ClassVar[bool] = False
    #: A record filter: adjacent runs commute (each only selects records),
    #: so reordering, hoisting, fingerprints and the re-planner may permute.
    commuting: ClassVar[bool] = False
    #: How it is sampled: "model" auditions candidate models, "selectivity"
    #: runs the free operator as its own only candidate, None not at all.
    profiled: ClassVar[str | None] = None
    #: Whether a SqlScan may absorb it: "prefix", or "terminal" when it
    #: re-keys the stream so nothing after it can join the scan.
    pushable: ClassVar[str | None] = None
    #: Takes no input: ``child`` must be None.
    leaf: ClassVar[bool] = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if getattr(cls, "charges", None) not in CHARGES:
            raise PlanError(f"{cls.__name__} must declare `charges` as one of {CHARGES}")
        if cls.token is LogicalOperator.token:
            raise PlanError(f"{cls.__name__} must declare `token(model)`")

    def label(self) -> str:
        return type(self).__name__

    def with_child(self, child: "LogicalOperator | None") -> "LogicalOperator":
        return replace(self, child=child)

    def token(self, model: str | None) -> tuple | None:
        """Canonical token for fingerprints and statistics keys.

        ``model`` is the *resolved* physical model (reuse matching happens
        after the optimizer's model choice).  None means unkeyable: never
        reused or learned about (a Python op is keyable only via its
        declared ``description`` — bare lambdas are not process-stable).
        """
        raise NotImplementedError

    def expanded(self) -> "tuple[LogicalOperator, ...]":
        """The operators this one stands for (fingerprints, delta safety)."""
        return (self,)

    def rows_out(self, rows_in: float, selectivity: float) -> float:
        """Estimated output cardinality: a commuting filter keeps
        ``selectivity`` of its input, a record-local operator all of it."""
        return rows_in * selectivity if self.commuting else rows_in

    def charged(self, rows_in: float) -> float:
        """Believed per-record charges incurred on ``rows_in`` records."""
        return {"per_record": rows_in, "once": 1.0, "free": 0.0}[self.charges]

    def validate(self) -> None:
        """Raise :class:`PlanError` if this node is structurally invalid."""
        if self.leaf:
            if self.child is not None:
                raise PlanError(f"{type(self).__name__} must be a leaf")
        elif self.child is None:
            raise PlanError(f"{self.label()} is missing its input")


def _source_rows(source: DataSource | None, rows_in: float) -> float:
    return float(source.cardinality()) if source is not None else rows_in


@dataclass(frozen=True)
class ScanOp(LogicalOperator):
    """Leaf: iterate a data source."""

    source: DataSource = None  # type: ignore[assignment]
    charges = "free"
    leaf = True
    incremental_safe = True

    def label(self) -> str:
        return f"Scan({self.source.source_id})"

    def token(self, model: str | None) -> tuple | None:
        return ("scan", self.source.source_id)

    def rows_out(self, rows_in: float, selectivity: float) -> float:
        return _source_rows(self.source, rows_in)

    def validate(self) -> None:
        super().validate()
        if self.source is None:
            raise PlanError("ScanOp requires a source")


@dataclass(frozen=True)
class SemFilterOp(LogicalOperator):
    """Keep records satisfying a natural-language predicate."""

    instruction: str = ""
    #: Optional per-operator model override (None lets the optimizer pick).
    model: str | None = None
    charges = "per_record"
    costly = incremental_safe = commuting = True
    profiled = "model"

    def label(self) -> str:
        return f"SemFilter({self.instruction[:40]!r})"

    def token(self, model: str | None) -> tuple | None:
        return ("sem_filter", normalize_text(self.instruction), model)


@dataclass(frozen=True)
class SemMapOp(LogicalOperator):
    """Compute new fields from each record via NL instructions."""

    #: (output field, extraction instruction) pairs.
    outputs: tuple[tuple[SchemaField, str], ...] = ()
    model: str | None = None
    charges = "per_record"
    costly = incremental_safe = True
    profiled = "model"

    def label(self) -> str:
        names = ", ".join(field_.name for field_, _ in self.outputs)
        return f"SemMap({names})"

    def token(self, model: str | None) -> tuple | None:
        outputs = tuple(
            (
                field_.name,
                getattr(field_.type, "__name__", repr(field_.type)),
                field_.desc,
                normalize_text(instruction),
            )
            for field_, instruction in self.outputs
        )
        return ("sem_map", outputs, model)


@dataclass(frozen=True)
class SemClassifyOp(LogicalOperator):
    """Assign each record one of a fixed set of labels."""

    output_field: str = "label"
    options: tuple[str, ...] = ()
    instruction: str = ""
    model: str | None = None
    charges = "per_record"
    costly = incremental_safe = True
    profiled = "model"

    def label(self) -> str:
        return f"SemClassify({self.output_field})"

    def token(self, model: str | None) -> tuple | None:
        return (
            "sem_classify",
            self.output_field,
            tuple(self.options),
            normalize_text(self.instruction),
            model,
        )


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
    charges = "per_record"
    costly = True
    profiled = "model"

    def label(self) -> str:
        return f"SemGroupBy({', '.join(self.groups)})"

    def token(self, model: str | None) -> tuple | None:
        return (
            "sem_groupby",
            tuple(self.groups),
            normalize_text(self.instruction),
            self.summarize,
            model,
        )

    def rows_out(self, rows_in: float, selectivity: float) -> float:
        return min(rows_in, float(len(self.groups)))


@dataclass(frozen=True)
class SemJoinOp(LogicalOperator):
    """Join two plans on a natural-language pair predicate."""

    right: "LogicalOperator" = None  # type: ignore[assignment]
    instruction: str = ""
    model: str | None = None
    #: Unpriced: join optimization is a prototype in the paper too.
    charges = "free"

    def label(self) -> str:
        return f"SemJoin({self.instruction[:40]!r})"

    def token(self, model: str | None) -> tuple | None:
        return None

    def validate(self) -> None:
        if self.child is None or self.right is None:
            raise PlanError("SemJoinOp requires two inputs")


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
    charges = "once"
    costly = True

    def label(self) -> str:
        return f"SemAgg({self.output_field})"

    def token(self, model: str | None) -> tuple | None:
        return ("sem_agg", self.output_field, normalize_text(self.instruction), model)

    def rows_out(self, rows_in: float, selectivity: float) -> float:
        return 1.0


@dataclass(frozen=True)
class SemTopKOp(LogicalOperator):
    """Keep the k records most relevant to a natural-language query."""

    query: str = ""
    k: int = 10
    #: "embedding" ranks by vector similarity; "llm" asks a model to rerank.
    method: str = "embedding"
    model: str | None = None
    charges = "free"
    costly = True

    def label(self) -> str:
        return f"SemTopK(k={self.k})"

    def token(self, model: str | None) -> tuple | None:
        return ("sem_topk", normalize_text(self.query), self.k, self.method, model)

    def rows_out(self, rows_in: float, selectivity: float) -> float:
        return min(rows_in, self.k)

    def validate(self) -> None:
        super().validate()
        if self.k < 1:
            raise PlanError(f"TopK requires k >= 1, got {self.k}")


@dataclass(frozen=True)
class PyFilterOp(LogicalOperator):
    """Keep records passing a plain Python predicate (free to run)."""

    fn: Callable[[Any], bool] = None  # type: ignore[assignment]
    description: str = ""
    charges = "free"
    incremental_safe = commuting = True
    profiled = "selectivity"

    def label(self) -> str:
        return f"PyFilter({self.description or 'fn'})"

    def token(self, model: str | None) -> tuple | None:
        return ("py_filter", self.description) if self.description else None


@dataclass(frozen=True)
class PyMapOp(LogicalOperator):
    """Derive new fields with a plain Python function (free to run)."""

    fn: Callable[[Any], dict] = None  # type: ignore[assignment]
    description: str = ""
    charges = "free"
    incremental_safe = True

    def label(self) -> str:
        return f"PyMap({self.description or 'fn'})"

    def token(self, model: str | None) -> tuple | None:
        return ("py_map", self.description) if self.description else None


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
    charges = "free"
    incremental_safe = commuting = True
    profiled = "selectivity"
    pushable = "prefix"

    def label(self) -> str:
        return f"StructFilter({self.condition!r})"

    def token(self, model: str | None) -> tuple | None:
        # The parsed AST's repr, so `priority>=2` and `priority >= 2`
        # share a token — inside a SqlScan or above the scan.
        return ("struct_filter", normalized_condition(self.condition))

    def validate(self) -> None:
        super().validate()
        compile_predicate(self.condition)


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
    charges = "free"
    pushable = "terminal"

    def label(self) -> str:
        parts = list(self.group_by) + [alias for alias, _ in self.aggregates]
        return f"StructAgg({', '.join(parts)})"

    def token(self, model: str | None) -> tuple | None:
        return ("struct_agg", tuple(self.group_by), tuple(self.aggregates))

    def rows_out(self, rows_in: float, selectivity: float) -> float:
        # A global aggregate collapses to one row, a grouped one to at most
        # the input's distinct keys (unknown — pass through).
        return 1.0 if not self.group_by else rows_in

    def validate(self) -> None:
        super().validate()
        validate_aggregation(self.group_by, self.aggregates)


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
    charges = "free"
    leaf = True

    def label(self) -> str:
        return f"SqlScan({self.source.source_id}, {len(self.pushed)} ops)"

    def token(self, model: str | None) -> tuple | None:
        # Keyed by source and embedded tokens, so the leaf's learned
        # selectivity survives re-optimization of the surrounding plan.
        pushed = tuple(op.token(None) for op in self.pushed)
        if any(token is None for token in pushed):
            return None
        return ("sql_scan", self.source.source_id, pushed)

    def expanded(self) -> tuple[LogicalOperator, ...]:
        return (ScanOp(child=None, source=self.source), *self.pushed)

    def rows_out(self, rows_in: float, selectivity: float) -> float:
        # Chain the embedded operators' estimates from the source size.
        rows = _source_rows(self.source, rows_in)
        for op in self.pushed:
            rows = op.rows_out(rows, STATIC_SELECTIVITY)
        return rows


@dataclass(frozen=True)
class ProjectOp(LogicalOperator):
    """Keep only the named fields."""

    fields: tuple[str, ...] = ()
    charges = "free"
    incremental_safe = True
    pushable = "prefix"

    def label(self) -> str:
        return f"Project({', '.join(self.fields)})"

    def token(self, model: str | None) -> tuple | None:
        return ("project", tuple(self.fields))


@dataclass(frozen=True)
class LimitOp(LogicalOperator):
    """Stop after n records."""

    n: int = 0
    charges = "free"
    pushable = "prefix"

    def label(self) -> str:
        return f"Limit({self.n})"

    def token(self, model: str | None) -> tuple | None:
        return ("limit", self.n)

    def rows_out(self, rows_in: float, selectivity: float) -> float:
        return min(rows_in, self.n)

    def validate(self) -> None:
        super().validate()
        if self.n < 0:
            raise PlanError(f"Limit must be >= 0, got {self.n}")


@dataclass(frozen=True)
class MaterializedScanOp(LogicalOperator):
    """Leaf: replay a materialized sub-plan prefix from the store.

    Never written by users — the reuse-aware optimizer binds one instead
    of a fingerprint-matched prefix (see :mod:`repro.sem.materialize`).
    It emits the ``base_records`` the store measured plus, when the source
    saw appends or in-place rewrites since capture, ``delta_records``.
    """

    source_id: str = ""
    fingerprint: str = ""
    base_records: int = 0
    delta_records: int = 0
    charges = "free"
    leaf = True

    def token(self, model: str | None) -> tuple | None:
        return None

    def label(self) -> str:
        suffix = f", delta={self.delta_records}" if self.delta_records else ""
        return f"MaterializedScan({self.source_id}, fp={self.fingerprint[:8]}{suffix})"

    def rows_out(self, rows_in: float, selectivity: float) -> float:
        return float(self.base_records + self.delta_records)


@dataclass(frozen=True)
class RetrieveOp(LogicalOperator):
    """Access-path operator: top-k vector retrieval instead of a full scan.

    Only valid directly above a scan whose source supports search (a
    Context with a registered index); the optimizer and the Context layer
    insert these.
    """

    query: str = ""
    k: int = 10
    charges = "free"
    costly = True

    def label(self) -> str:
        return f"Retrieve(k={self.k}, {self.query[:30]!r})"

    def token(self, model: str | None) -> tuple | None:
        return ("retrieve", normalize_text(self.query), self.k)

    def rows_out(self, rows_in: float, selectivity: float) -> float:
        return min(rows_in, self.k)

    def validate(self) -> None:
        super().validate()
        if not isinstance(self.child, ScanOp):
            raise PlanError("RetrieveOp must sit directly above a scan")


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

    def is_linear(self) -> bool:
        return not any(isinstance(op, SemJoinOp) for op in self.operators())


def commuting_runs(chain: list[LogicalOperator]) -> list[tuple[int, int]]:
    """Return [start, end) index ranges of maximal commuting-filter runs."""
    runs: list[tuple[int, int]] = []
    start = None
    for index, op in enumerate(chain):
        if op.commuting:
            if start is None:
                start = index
        else:
            if start is not None:
                runs.append((start, index))
                start = None
    if start is not None:
        runs.append((start, len(chain)))
    return runs


def validate_plan(plan: LogicalPlan) -> None:
    """Raise :class:`PlanError` on structurally invalid plans."""
    ops = plan.operators()
    if not ops:
        raise PlanError("empty plan")
    for op in ops:
        op.validate()
