"""Columnar record batches: the unit every streamable operator consumes.

A :class:`RecordBatch` is a struct-of-arrays view over a list of
:class:`~repro.data.records.DataRecord`: per-field value arrays plus
validity (non-NULL presence) masks, built lazily and cached.  The original
record objects ride along untouched, so any operator that only *selects*
rows (filters, limits) emits the identical input objects — the
bit-identity contract costs nothing.  An optional ``positions`` sidecar
names, per row, the caller-tracked input row it descends from; every batch
transform carries it, which is how the sharded executor re-places shard
outputs at their global positions.

Vectorized predicate evaluation (:func:`struct_filter_mask`) mirrors the
``repro.sql`` executor's three-valued logic exactly.  Internally a boolean
expression is a pair of masks ``(true, false)`` with NULL = neither;
comparisons against numeric literals ride numpy float arrays when that is
provably lossless, and every other leaf falls back to the executor's own
scalar helpers looped once per batch — so the vector path and the scalar
definition can only ever disagree by raising the same error from a
different row.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

import numpy as np

from repro.data.records import DataRecord
from repro.errors import ExecutionError
from repro.sem.structql import evaluate_predicate
from repro.sql.ast_nodes import (
    Between,
    BinaryOp,
    ColumnRef,
    Expr,
    InList,
    IsNull,
    Literal,
    UnaryOp,
)
from repro.sql.executor import _sql_equal, _sql_less, _sql_lte

#: Integers with magnitude at or below this are exact in float64, so a
#: numpy float compare cannot diverge from Python int comparison.
_EXACT_FLOAT_INT = 2**53


class RecordBatch:
    """A struct-of-arrays view over a run of records."""

    __slots__ = ("records", "positions", "_columns", "_validity")

    def __init__(
        self, records: list[DataRecord], positions: list[int] | None = None
    ) -> None:
        self.records = records
        #: Row provenance, aligned with ``records`` (None = untracked).
        self.positions = positions
        self._columns: dict[str, np.ndarray] = {}
        self._validity: dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[DataRecord]:
        return iter(self.records)

    def column(self, name: str) -> np.ndarray:
        """Field values as an object array; missing fields read as None."""
        cached = self._columns.get(name)
        if cached is None:
            cached = np.empty(len(self.records), dtype=object)
            for position, record in enumerate(self.records):
                cached[position] = record.fields.get(name)
            self._columns[name] = cached
        return cached

    def validity(self, name: str) -> np.ndarray:
        """True where the field is present and not NULL."""
        cached = self._validity.get(name)
        if cached is None:
            column = self.column(name)
            cached = np.fromiter(
                (value is not None for value in column), dtype=bool, count=len(column)
            )
            self._validity[name] = cached
        return cached

    def take(self, mask: np.ndarray) -> "RecordBatch":
        """Rows where ``mask`` is True, as a new batch (records shared)."""
        kept = [record for record, keep in zip(self.records, mask) if keep]
        positions = self.positions
        if positions is not None:
            positions = [at for at, keep in zip(positions, mask) if keep]
        return RecordBatch(kept, positions)

    def slice(self, start: int, stop: int) -> "RecordBatch":
        """Rows ``start:stop``, as a new batch (records shared)."""
        positions = self.positions
        return RecordBatch(
            self.records[start:stop],
            None if positions is None else positions[start:stop],
        )

    def head(self, n: int) -> "RecordBatch":
        """The first ``n`` rows, as a new batch (records shared)."""
        return self.slice(0, n)

    def expand(self, emitted: list[list[DataRecord]]) -> "RecordBatch":
        """Flatten per-row emit lists (``emitted[i]`` descends from row ``i``)."""
        records = [record for row in emitted for record in row]
        positions = self.positions
        if positions is not None:
            positions = [
                at for at, row in zip(positions, emitted) for _ in row
            ]
        return RecordBatch(records, positions)


# ---------------------------------------------------------------------------
# Vectorized field writes (projection / py-map)
# ---------------------------------------------------------------------------
#
# Every output record is ``DataRecord.derive`` of its input (which
# serialises a field-name shape once and builds one owned dict per child),
# so outputs are the records deriving each row on its own produces.  What
# the helpers below add is batch-wide: downstream columnar consumers would
# re-scan the fresh records per field to rebuild column caches, so the
# output batch's column/validity caches are pre-seeded array-at-a-time
# (shared with the input where the operator provably does not touch the
# field).


def project_batch(batch: RecordBatch, fields: "list[str] | tuple[str, ...]") -> RecordBatch:
    """Project each record onto ``fields``, batch-at-a-time.

    The dropped names are computed once per distinct input field shape
    (homogeneous batches pay it once), and since projection never
    rewrites a value, the output batch *shares* the input's column and
    validity arrays for every projected field — downstream vectorized
    predicates get their columns for free.
    """
    wanted = set(fields)
    shapes: dict[tuple[str, ...], tuple[str, ...]] = {}
    output = []
    for record in batch.records:
        names = tuple(record.fields)
        dropped = shapes.get(names)
        if dropped is None:
            dropped = shapes[names] = tuple(
                name for name in names if name not in wanted
            )
        output.append(record.derive(drop=dropped))
    out = RecordBatch(output, batch.positions)
    for name in fields:
        out._columns[name] = batch.column(name)
        out._validity[name] = batch.validity(name)
    return out


def py_map_batch(batch: RecordBatch, fn: Callable[[DataRecord], dict]) -> RecordBatch:
    """Apply a python map ``fn`` to each record, batch-at-a-time.

    The function itself is inherently per-row; everything around it is
    amortized: new-field columns are materialized array-at-a-time from the
    map outputs, and columns for fields no map output touches are shared
    with the input batch.
    """
    size = len(batch.records)
    news: list[dict] = []
    for record in batch.records:
        new_fields = fn(record)
        if not isinstance(new_fields, dict):
            raise ExecutionError(
                f"PyMap function must return a dict of new fields, "
                f"got {type(new_fields).__name__}"
            )
        news.append(new_fields)
    output = [
        record.derive(new_fields) for record, new_fields in zip(batch.records, news)
    ]
    out = RecordBatch(output, batch.positions)
    touched = set()
    for new_fields in news:
        touched.update(new_fields)
    for name in touched:
        column = np.empty(size, dtype=object)
        for position, (record, new_fields) in enumerate(zip(batch.records, news)):
            if name in new_fields:
                column[position] = new_fields[name]
            else:
                column[position] = record.fields.get(name)
        out._columns[name] = column
    for name, column in batch._columns.items():
        if name not in touched:
            out._columns[name] = column
            validity = batch._validity.get(name)
            if validity is not None:
                out._validity[name] = validity
    return out


# ---------------------------------------------------------------------------
# Vectorized predicate evaluation
# ---------------------------------------------------------------------------


class _Fallback(Exception):
    """Raised when a sub-expression has no provably-exact vector path."""


def struct_filter_mask(expr: Expr, batch: RecordBatch) -> np.ndarray:
    """Keep-mask for a compiled predicate: True where it evaluates TRUE.

    Identical to evaluating the predicate row-at-a-time (FALSE and NULL
    both drop the row); unsupported shapes fall back to per-row evaluation
    through the shared ``repro.sql`` executor.
    """
    try:
        true_mask, _ = _vector_eval(expr, batch)
        return true_mask
    except _Fallback:
        return np.fromiter(
            (
                evaluate_predicate(expr, record.fields) is True
                for record in batch.records
            ),
            dtype=bool,
            count=len(batch),
        )


def _vector_eval(expr: Expr, batch: RecordBatch) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate a boolean expression to ``(true, false)`` masks.

    NULL is represented as neither mask set; the algebra below is exactly
    the executor's: AND is TRUE iff both TRUE and FALSE iff either FALSE,
    OR dually, NOT swaps the masks.
    """
    if isinstance(expr, BinaryOp):
        if expr.op == "and":
            left_t, left_f = _vector_eval(expr.left, batch)
            right_t, right_f = _vector_eval(expr.right, batch)
            return left_t & right_t, left_f | right_f
        if expr.op == "or":
            left_t, left_f = _vector_eval(expr.left, batch)
            right_t, right_f = _vector_eval(expr.right, batch)
            return left_t | right_t, left_f & right_f
        if expr.op in ("=", "<>", "!=", "<", "<=", ">", ">="):
            return _vector_compare(expr, batch)
        raise _Fallback
    if isinstance(expr, UnaryOp) and expr.op == "not":
        true_mask, false_mask = _vector_eval(expr.operand, batch)
        return false_mask, true_mask
    if isinstance(expr, IsNull):
        if not isinstance(expr.operand, ColumnRef):
            raise _Fallback
        valid = batch.validity(expr.operand.name)
        null = ~valid
        return (valid, null) if expr.negated else (null, valid)
    if isinstance(expr, Between):
        # Engine semantics: NULL iff any of the three is NULL, else a bool.
        # The engine short-circuits its two bound checks, so only the
        # provably error-free all-numeric path is vectorized.
        if not isinstance(expr.operand, ColumnRef):
            raise _Fallback
        low, high = _literal_value(expr.low), _literal_value(expr.high)
        valid = batch.validity(expr.operand.name)
        if low is None or high is None:
            zeros = np.zeros(len(batch), dtype=bool)
            return zeros, zeros.copy()
        column = batch.column(expr.operand.name)
        floats = _exact_float_column(column, valid, low)
        if floats is None or _exact_float_column(column, valid, high) is None:
            raise _Fallback
        true_mask = (floats >= float(low)) & (floats <= float(high)) & valid
        false_mask = valid & ~true_mask
        return (false_mask, true_mask) if expr.negated else (true_mask, false_mask)
    if isinstance(expr, InList):
        # Engine semantics: NULL iff the operand is NULL, else membership
        # (a NULL list element can never match).
        if not isinstance(expr.operand, ColumnRef):
            raise _Fallback
        valid = batch.validity(expr.operand.name)
        true_mask = np.zeros(len(batch), dtype=bool)
        for option in expr.options:
            value = _literal_value(option)
            if value is None:
                continue
            option_t, _ = _vector_compare_leaf(expr.operand, "=", value, batch)
            true_mask = true_mask | option_t
        false_mask = valid & ~true_mask
        return (false_mask, true_mask) if expr.negated else (true_mask, false_mask)
    if isinstance(expr, ColumnRef):
        column = batch.column(expr.name)
        valid = batch.validity(expr.name)
        if any(valid[i] and not isinstance(column[i], bool) for i in range(len(column))):
            raise _Fallback  # numeric truthiness: leave it to the executor
        true_mask = np.fromiter(
            (value is True for value in column), dtype=bool, count=len(column)
        )
        return true_mask, valid & ~true_mask
    raise _Fallback


def _literal_value(expr: Expr) -> Any:
    if not isinstance(expr, Literal):
        raise _Fallback
    return expr.value


def _vector_compare(expr: BinaryOp, batch: RecordBatch) -> tuple[np.ndarray, np.ndarray]:
    """``column <op> literal`` (either side) with exact scalar semantics."""
    if isinstance(expr.left, ColumnRef):
        return _vector_compare_leaf(expr.left, expr.op, _literal_value(expr.right), batch)
    if isinstance(expr.right, ColumnRef):
        flipped = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}
        op = flipped.get(expr.op, expr.op)
        return _vector_compare_leaf(expr.right, op, _literal_value(expr.left), batch)
    raise _Fallback


def _vector_compare_leaf(
    column_expr: Expr, op: str, literal: Any, batch: RecordBatch
) -> tuple[np.ndarray, np.ndarray]:
    if not isinstance(column_expr, ColumnRef):
        raise _Fallback
    column = batch.column(column_expr.name)
    valid = batch.validity(column_expr.name)
    size = len(column)
    if literal is None:  # comparison with NULL is NULL everywhere
        zeros = np.zeros(size, dtype=bool)
        return zeros, zeros.copy()

    floats = _exact_float_column(column, valid, literal)
    if floats is not None:
        target = float(literal)
        if op in ("=", "<>", "!="):
            hits = floats == target
        elif op == "<":
            hits = floats < target
        elif op == "<=":
            hits = floats <= target
        elif op == ">":
            hits = floats > target
        else:
            hits = floats >= target
        if op in ("<>", "!="):
            hits = ~hits
        true_mask = hits & valid
        return true_mask, valid & ~true_mask

    # Exact scalar helpers, looped once per batch.  Equality never raises;
    # ordering raises on mismatched types exactly like row mode.
    if op in ("=", "<>", "!="):
        scalar: Callable[[Any], Any] = lambda value: _sql_equal(value, literal)
        negate = op != "="
    elif op == "<":
        scalar, negate = lambda value: _sql_less(value, literal), False
    elif op == "<=":
        scalar, negate = lambda value: _sql_lte(value, literal), False
    elif op == ">":
        scalar, negate = lambda value: _sql_less(literal, value), False
    else:
        scalar, negate = lambda value: _sql_lte(literal, value), False
    true_mask = np.zeros(size, dtype=bool)
    for position in range(size):
        if not valid[position]:
            continue
        outcome = scalar(column[position])
        if outcome is not None and (outcome != negate):
            true_mask[position] = True
    return true_mask, valid & ~true_mask


def _exact_float_column(
    column: np.ndarray, valid: np.ndarray, literal: Any
) -> np.ndarray | None:
    """Float64 view of a numeric column, or None when that could lie.

    Requires the literal and every present value to be non-bool ints or
    floats, with ints small enough to be exact in float64.  NULL slots
    carry NaN, which compares False against everything — and the caller
    masks them out anyway.
    """
    if isinstance(literal, bool) or not isinstance(literal, (int, float)):
        return None
    if isinstance(literal, int) and abs(literal) > _EXACT_FLOAT_INT:
        return None
    floats = np.full(len(column), np.nan)
    for position in range(len(column)):
        if not valid[position]:
            continue
        value = column[position]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return None
        if isinstance(value, int) and abs(value) > _EXACT_FLOAT_INT:
            return None
        floats[position] = float(value)
    return floats
