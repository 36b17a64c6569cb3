"""Logical rewrite rules over linear operator chains.

Rules operate on leaves-first operator lists.  The only rewrite that needs
runtime statistics is filter reordering, which takes an ordering key per
position; pure-structure rules (Python-filter pushdown) need none.
"""

from __future__ import annotations

from typing import Callable

from repro.sem import logical as L
from repro.sem.logical import commuting_runs


def push_py_filters(chain: list[L.LogicalOperator]) -> list[L.LogicalOperator]:
    """Within each commuting run, move free filters first.

    Structured and Python filters cost nothing, so they always belong
    before semantic filters in the same run (they cannot cross
    maps/aggregations because they may read fields those operators
    produce).  Structured filters lead — adjacent to the scan they are
    SQL-pushdown candidates, and Python filters never are.
    """
    result = list(chain)
    for start, end in commuting_runs(result):
        # Stable: free before charged, pushable first among the free.
        result[start:end] = sorted(
            result[start:end],
            key=lambda op: (op.charges != "free", op.pushable is None),
        )
    return result


def filter_order(
    chain: list[L.LogicalOperator],
    rank_of: Callable[[int, L.LogicalOperator], float],
) -> list[int]:
    """Positions of ``chain`` with each commuting run sorted by rank.

    ``rank_of(original_position, op)`` keys the sort, which is stable, so
    equal-rank filters keep their written order.  Returning the
    permutation (not the operators) lets a caller move anything it keeps
    aligned with ``chain`` — the re-planner permutes bound operators.
    """
    order = list(range(len(chain)))
    for start, end in commuting_runs(chain):
        order[start:end] = sorted(
            range(start, end), key=lambda position: rank_of(position, chain[position])
        )
    return order


def reorder_filters(
    chain: list[L.LogicalOperator],
    rank_of: Callable[[int, L.LogicalOperator], float],
) -> list[L.LogicalOperator]:
    """Sort each commuting run by ``rank_of(original_position, op)``."""
    return [chain[position] for position in filter_order(chain, rank_of)]


def prune_noop_projects(chain: list[L.LogicalOperator]) -> list[L.LogicalOperator]:
    """Drop adjacent duplicate projections (the later one wins)."""
    result: list[L.LogicalOperator] = []
    for op in chain:
        if (
            isinstance(op, L.ProjectOp)
            and result
            and isinstance(result[-1], L.ProjectOp)
        ):
            result.pop()
        result.append(op)
    return result


def merge_adjacent_limits(chain: list[L.LogicalOperator]) -> list[L.LogicalOperator]:
    """Collapse consecutive limits to the smaller bound."""
    result: list[L.LogicalOperator] = []
    for op in chain:
        if isinstance(op, L.LimitOp) and result and isinstance(result[-1], L.LimitOp):
            previous = result.pop()
            op = L.LimitOp(child=None, n=min(previous.n, op.n))
        result.append(op)
    return result
