"""Corner cases of the shared structured-predicate/aggregation layer.

``repro.sem.structql`` is the single evaluator both the row-mode escape
hatch and the SQL pushdown path funnel through, so its NULL semantics,
validation errors, and empty-input aggregation behaviour are contracts:
any divergence here silently breaks the bit-identity guarantee between
pushed-down and row-at-a-time execution.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.data.records import DataRecord
from repro.data.schemas import Field, Schema
from repro.errors import PlanError
from repro.llm.simulated import SimulatedLLM
from repro.sem.config import QueryProcessorConfig
from repro.sem.dataset import Dataset
from repro.sem.structql import (
    aggregation_sql,
    compile_predicate,
    normalized_condition,
    run_aggregation,
    validate_aggregation,
)
from tests.test_record_batch import predicate_holds


# ---------------------------------------------------------------------------
# Predicate NULL semantics (three-valued logic)
# ---------------------------------------------------------------------------


class TestPredicateNullSemantics:
    def test_missing_field_reads_as_null(self):
        # NULL >= 2 is NULL, and NULL never satisfies WHERE.
        assert predicate_holds("priority >= 2", {}) is False

    def test_explicit_none_reads_as_null(self):
        assert predicate_holds("priority >= 2", {"priority": None}) is False

    def test_comparison_with_null_literal_is_never_true(self):
        assert predicate_holds("priority = NULL", {"priority": 3}) is False
        assert predicate_holds("priority <> NULL", {"priority": 3}) is False

    def test_is_null_matches_missing_and_none(self):
        assert predicate_holds("priority IS NULL", {}) is True
        assert predicate_holds("priority IS NULL", {"priority": None}) is True
        assert predicate_holds("priority IS NULL", {"priority": 0}) is False

    def test_is_not_null(self):
        assert predicate_holds("priority IS NOT NULL", {"priority": 0}) is True
        assert predicate_holds("priority IS NOT NULL", {}) is False

    def test_not_of_null_is_null(self):
        # NOT (NULL >= 2) is NULL, not TRUE — the row must still drop.
        assert predicate_holds("NOT (priority >= 2)", {}) is False

    def test_null_propagates_through_and_or(self):
        # NULL AND TRUE = NULL; NULL OR TRUE = TRUE.
        fields = {"a": 1}
        assert predicate_holds("b = 1 AND a = 1", fields) is False
        assert predicate_holds("b = 1 OR a = 1", fields) is True
        # NULL AND FALSE = FALSE either way: still dropped.
        assert predicate_holds("b = 1 AND a = 2", fields) is False

    def test_between_with_null_operand(self):
        assert predicate_holds("x BETWEEN 1 AND 5", {}) is False
        assert predicate_holds("x NOT BETWEEN 1 AND 5", {}) is False

    def test_in_list_with_null_operand(self):
        assert predicate_holds("x IN (1, 2)", {}) is False
        assert predicate_holds("x NOT IN (1, 2)", {}) is False

    def test_case_when_predicate(self):
        condition = (
            "CASE WHEN priority >= 3 THEN TRUE ELSE FALSE END"
        )
        assert predicate_holds(condition, {"priority": 4}) is True
        assert predicate_holds(condition, {"priority": 1}) is False


# ---------------------------------------------------------------------------
# Predicate validation
# ---------------------------------------------------------------------------


class TestPredicateValidation:
    def test_syntax_error(self):
        with pytest.raises(PlanError, match="invalid structured predicate"):
            compile_predicate("priority >=")

    def test_subquery_rejected(self):
        with pytest.raises(PlanError, match="subquery"):
            compile_predicate("priority IN (SELECT priority FROM t)")

    def test_aggregate_rejected(self):
        with pytest.raises(PlanError, match="aggregate"):
            compile_predicate("count(*) > 3")

    def test_qualified_column_rejected(self):
        with pytest.raises(PlanError, match="single scope"):
            compile_predicate("t.priority > 3")

    def test_normalized_condition_ignores_spelling(self):
        # Whitespace and keyword case are normalized away; identifiers are
        # case-sensitive (they name record fields).
        assert normalized_condition("priority>=2 and x=1") == normalized_condition(
            "priority >= 2 AND x = 1"
        )
        assert normalized_condition("priority >= 2") != normalized_condition(
            "priority > 2"
        )


# ---------------------------------------------------------------------------
# Structured aggregation
# ---------------------------------------------------------------------------


class TestAggregationValidation:
    def test_requires_aggregates(self):
        with pytest.raises(PlanError, match="at least one aggregate"):
            validate_aggregation((), ())

    def test_output_names_must_be_identifiers(self):
        with pytest.raises(PlanError, match="not an identifier"):
            validate_aggregation((), (("bad name", "count(*)"),))

    def test_output_names_must_be_unique(self):
        with pytest.raises(PlanError, match="duplicated"):
            validate_aggregation(("n",), (("n", "count(*)"),))

    def test_expression_must_parse(self):
        with pytest.raises(PlanError, match="invalid aggregate expression"):
            validate_aggregation((), (("n", "count(",),))

    def test_expression_must_aggregate(self):
        with pytest.raises(PlanError, match="no aggregate function"):
            validate_aggregation((), (("n", "priority + 1"),))

    @pytest.mark.parametrize("optimize", [False, True])
    @pytest.mark.parametrize(
        "expression, group_by",
        [
            # Read run_aggregation's private table t (x = 15 when accepted).
            ("SUM(a) + (SELECT COUNT(*) FROM t)", []),
            # Raised a raw SQLExecutionError ("no column named 'a'") at run time.
            ("COUNT(*) + (SELECT MAX(a) FROM t)", ["b"]),
            # Raised an error naming the private table ("known tables: t").
            ("(SELECT COUNT(*) FROM nosuch)", []),
            ("COUNT(*) + (a IN (SELECT a FROM t))", []),
        ],
        ids=["scalar-over-private-table", "grouped", "unknown-table", "in-subquery"],
    )
    def test_subquery_rejected_when_the_plan_is_built(self, expression, group_by, optimize):
        schema = Schema([Field("a", int), Field("b", int)])
        records = [DataRecord({"a": a, "b": a % 2}) for a in range(5)]
        dataset = Dataset.from_records(records, schema).struct_agg(
            [("x", expression)], group_by=group_by
        )
        config = QueryProcessorConfig(llm=SimulatedLLM(seed=0), optimize=optimize)
        with pytest.raises(PlanError, match="may not contain a subquery"):
            dataset.run(config)


class TestAggregationExecution:
    def test_global_aggregate_over_empty_input(self):
        # SQL semantics: one row, COUNT 0, SUM/MIN/MAX NULL.
        rows = run_aggregation(
            [], (), (("n", "count(*)"), ("total", "sum(amount)"))
        )
        assert rows == [{"n": 0, "total": None}]

    def test_grouped_aggregate_over_empty_input(self):
        # GROUP BY over nothing yields no groups at all.
        assert run_aggregation([], ("dept",), (("n", "count(*)"),)) == []

    def test_sum_skips_nulls(self):
        rows = run_aggregation(
            [{"amount": 2}, {"amount": None}, {"amount": 3}],
            (),
            (("total", "sum(amount)"), ("n", "count(amount)")),
        )
        assert rows == [{"total": 5, "n": 2}]

    def test_group_by_with_missing_fields(self):
        # A record without the grouping field lands in the NULL group.
        rows = run_aggregation(
            [{"dept": "eng", "amount": 1}, {"amount": 2}],
            ("dept",),
            (("n", "count(*)"),),
        )
        assert {(row["dept"], row["n"]) for row in rows} == {("eng", 1), (None, 1)}

    def test_aggregation_sql_rendering(self):
        sql = aggregation_sql("t", ("dept",), (("n", "count(*)"),))
        assert sql == 'SELECT "dept", count(*) AS "n" FROM t GROUP BY "dept"'


# ---------------------------------------------------------------------------
# Fields named like keywords
# ---------------------------------------------------------------------------


class TestKeywordNamedFields:
    """``text`` is an identifier to the lexer; ``order`` is a SELECT keyword,
    so a predicate quotes it and ``struct_agg`` quotes every name it emits."""

    ROWS = [{"text": "a", "order": 1}, {"text": "b", "order": 2}, {"text": "a", "order": 2}]

    @staticmethod
    def _run(dataset, optimize):
        config = QueryProcessorConfig(llm=SimulatedLLM(seed=0), optimize=optimize)
        return [record.fields for record in dataset.run(config).records]

    def _dataset(self):
        schema = Schema([Field("text", str), Field("order", int)])
        return Dataset.from_records([DataRecord(dict(row)) for row in self.ROWS], schema)

    @pytest.mark.parametrize("optimize", [False, True])
    @pytest.mark.parametrize(
        "condition, kept",
        [("text = 'a'", [0, 2]), ('"order" = 2', [1, 2])],
    )
    def test_where(self, condition, kept, optimize):
        got = self._run(self._dataset().where(condition), optimize)
        assert got == [self.ROWS[index] for index in kept]

    @pytest.mark.parametrize("optimize", [False, True])
    @pytest.mark.parametrize("field", ["text", "order"])
    def test_struct_agg_groups_by_it(self, field, optimize):
        other = "order" if field == "text" else "text"
        dataset = self._dataset().struct_agg([(other, "count(*)")], group_by=[field])
        counts = Counter(row[field] for row in self.ROWS)  # first-seen order
        assert self._run(dataset, optimize) == [
            {field: key, other: n} for key, n in counts.items()
        ]
