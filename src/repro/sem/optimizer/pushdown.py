"""SQL pushdown: compile structured prefixes into a SqlScan leaf.

Structured operators — :class:`~repro.sem.logical.StructFilterOp`,
:class:`~repro.sem.logical.ProjectOp`, :class:`~repro.sem.logical.LimitOp`,
:class:`~repro.sem.logical.StructAggOp` — are token-free and evaluable by
the ``repro.sql`` engine.  When a run of them sits adjacent to the scan
(after hoisting: structured filters commute with other filters in the same
run), the whole prefix collapses into one
:class:`~repro.sem.logical.SqlScanOp` leaf, so the SQL engine prunes
records *before* the first LLM operator sees them.

Soundness:

- Hoisting a structured filter above other filters in the same commuting
  run preserves the run's output exactly — filters are pure per-record
  predicates that only remove records and preserve order, so any
  interleaving yields the same survivors.
- The SqlScan applies the pushed operators in order as the same physical
  operators they would run as above the scan (see
  :class:`repro.sem.physical.PhysSqlScan`), so surviving records are
  bit-identical, uids included.

The pass always runs, whether or not cost-based optimization is enabled;
the plan-order semantics it must preserve are the reference interpreter's
(:mod:`repro.qa.reference`), which never pushes anything down.
"""

from __future__ import annotations

from repro.sem import logical as L
from repro.sem.structql import aggregation_sql


def push_structured_prefix(
    chain: list[L.LogicalOperator],
) -> tuple[list[L.LogicalOperator], L.SqlScanOp | None]:
    """Rewrite ``Scan → structured prefix`` into a ``SqlScanOp`` leaf.

    Returns the (possibly rewritten) chain and the SqlScan, or ``(chain,
    None)`` when nothing qualifies.  A prefix qualifies only when it
    contains at least one :class:`StructFilterOp` or :class:`StructAggOp` —
    bare projections/limits are not worth a scan rewrite.
    """
    if not chain or not isinstance(chain[0], L.ScanOp):
        return chain, None
    chain = hoist_struct_filters(chain)
    pushed: list[L.LogicalOperator] = []
    index = 1
    while index < len(chain):
        op = chain[index]
        if op.pushable is None:
            break
        pushed.append(op)
        index += 1
        if op.pushable == "terminal":
            # An aggregation re-keys the record stream, so nothing
            # structured after it can join this scan.
            break
    if not any(isinstance(op, (L.StructFilterOp, L.StructAggOp)) for op in pushed):
        return chain, None
    scan: L.ScanOp = chain[0]
    severed = tuple(op.with_child(None) for op in pushed)
    sql_scan = L.SqlScanOp(
        child=None,
        source=scan.source,
        pushed=severed,
        sql=compiled_sql(scan.source.source_id, severed),
    )
    return [sql_scan] + chain[index:], sql_scan


def hoist_struct_filters(chain: list[L.LogicalOperator]) -> list[L.LogicalOperator]:
    """Move structured filters to the front of the scan-adjacent filter run.

    Only the commuting run that starts directly above the scan is touched:
    that is the only place a hoist can extend the pushable prefix.  The
    relative order of the structured filters — and of everything else — is
    preserved (the rewrite is a stable partition).
    """
    if not chain or not isinstance(chain[0], L.ScanOp):
        return chain
    end = 1
    while end < len(chain) and chain[end].commuting:
        end += 1
    run = chain[1:end]
    structured = [op for op in run if op.pushable]
    if not structured or run[: len(structured)] == structured:
        return chain
    rest = [op for op in run if not op.pushable]
    return [chain[0]] + structured + rest + chain[end:]


def compiled_sql(source_id: str, pushed: tuple[L.LogicalOperator, ...]) -> str:
    """Display-form SELECT for a pushed prefix (EXPLAIN / report surface).

    Clause slots fill in SQL's evaluation order (WHERE → SELECT list →
    LIMIT); an operator arriving out of slot order closes the current
    SELECT into a subquery, so arbitrary pushed sequences — a filter over
    projected fields, a filter after a limit — render faithfully.
    """
    base = source_id
    where: list[str] = []
    select: tuple[str, ...] | None = None
    limit: int | None = None

    def flush() -> None:
        nonlocal base, where, select, limit
        if not where and select is None and limit is None:
            return
        clause = f"SELECT {', '.join(select) if select is not None else '*'} FROM {base}"
        if where:
            conjunction = (
                " AND ".join(f"({condition})" for condition in where)
                if len(where) > 1
                else where[0]
            )
            clause += f" WHERE {conjunction}"
        if limit is not None:
            clause += f" LIMIT {limit}"
        base = f"({clause})"
        where, select, limit = [], None, None

    for op in pushed:
        if isinstance(op, L.StructFilterOp):
            if select is not None or limit is not None:
                flush()
            where.append(op.condition)
        elif isinstance(op, L.ProjectOp):
            if select is not None or limit is not None:
                flush()
            select = op.fields
        elif isinstance(op, L.LimitOp):
            if limit is not None:
                flush()
            limit = op.n
        elif isinstance(op, L.StructAggOp):
            flush()
            base = f"({aggregation_sql(base, op.group_by, op.aggregates)})"
    flush()
    if base.startswith("(") and base.endswith(")"):
        return base[1:-1]
    return f"SELECT * FROM {base}"
