"""SQL pushdown: rewrite rules, compiled SQL, and end-to-end equivalence.

The tentpole contract: pushdown (always on) changes *where* structured
work runs — a SqlScan leaf before any LLM operator instead of operators
interleaved in plan order — but never the records, their order, or their
uids.  The plan-order side of every comparison is the reference
interpreter (``repro.qa.reference``), which never pushes anything down.
Cost can only go down, because the pushed prefix is token-free and prunes
LLM inputs.
"""

from __future__ import annotations

import pytest

from repro.data.records import reset_uid_counter
from repro.errors import PlanError
from repro.llm.oracle import SemanticOracle
from repro.llm.simulated import SimulatedLLM
from repro.qa.corpus import CorpusSpec, build_corpus, instruction_for
from repro.qa.reference import ReferenceInterpreter
from repro.sem import logical as L
from repro.sem.config import QueryProcessorConfig
from repro.sem.dataset import Dataset
from repro.sem.materialize import MaterializationStore
from repro.sem.optimizer.pushdown import (
    compiled_sql,
    hoist_struct_filters,
    push_structured_prefix,
)


@pytest.fixture(scope="module")
def qa_bundle():
    return build_corpus(CorpusSpec(seed=13, n_records=24))


def _config(bundle, *, seed: int = 13, **kwargs) -> QueryProcessorConfig:
    llm = SimulatedLLM(oracle=SemanticOracle(bundle.registry), seed=seed)
    return QueryProcessorConfig(llm=llm, seed=seed, **kwargs)


def _normalized(result):
    return [(r.uid, tuple(sorted(r.fields.items()))) for r in result.records]


# ---------------------------------------------------------------------------
# Dataset API validation
# ---------------------------------------------------------------------------


class TestWhereValidation:
    def test_rejects_empty_condition(self):
        dataset = Dataset.from_source(None)
        with pytest.raises(PlanError, match="non-empty"):
            dataset.where("   ")

    def test_rejects_non_string(self):
        dataset = Dataset.from_source(None)
        with pytest.raises(PlanError, match="non-empty"):
            dataset.where(42)

    def test_bad_sql_fails_at_plan_validation(self, qa_bundle):
        dataset = Dataset.from_source(qa_bundle.source()).where("priority >=")
        with pytest.raises(PlanError, match="invalid structured predicate"):
            dataset.run(_config(qa_bundle, optimize=False))


# ---------------------------------------------------------------------------
# Rewrite rules (unit level)
# ---------------------------------------------------------------------------


def _chain(bundle, *ops):
    scan = L.ScanOp(child=None, source=bundle.source())
    return [scan, *ops]


def _where(condition):
    return L.StructFilterOp(child=None, condition=condition)


def _sem(instruction="The ticket is marked urgent."):
    return L.SemFilterOp(child=None, instruction=instruction)


class TestHoist:
    def test_struct_filter_hoists_across_semantic_filter(self, qa_bundle):
        chain = _chain(qa_bundle, _sem(), _where("priority = 4"))
        hoisted = hoist_struct_filters(chain)
        assert [type(op) for op in hoisted[1:3]] == [L.StructFilterOp, L.SemFilterOp]

    def test_hoist_preserves_relative_order_of_struct_filters(self, qa_bundle):
        first, second = _where("priority >= 2"), _where("priority <= 3")
        chain = _chain(qa_bundle, _sem(), first, second)
        hoisted = hoist_struct_filters(chain)
        assert hoisted[1] is first and hoisted[2] is second

    def test_hoist_stops_at_non_filter(self, qa_bundle):
        # A structured filter behind a map reads fields the map may write:
        # it must not cross.
        mapper = L.PyMapOp(child=None, fn=lambda r: {}, description="noop")
        chain = _chain(qa_bundle, _sem(), mapper, _where("priority = 4"))
        assert hoist_struct_filters(chain) == chain

    def test_noop_when_structured_already_leads(self, qa_bundle):
        chain = _chain(qa_bundle, _where("priority = 4"), _sem())
        assert hoist_struct_filters(chain) is chain

    def test_noop_without_a_scan_leaf(self):
        chain = [L.RetrieveOp(child=None, query="q", k=3), _where("a = 1")]
        assert hoist_struct_filters(chain) is chain


class TestPushStructuredPrefix:
    def test_requires_a_structured_op(self, qa_bundle):
        # Bare projections/limits are not worth a scan rewrite.
        chain = _chain(
            qa_bundle,
            L.ProjectOp(child=None, fields=("title",)),
            L.LimitOp(child=None, n=3),
        )
        new_chain, sql_scan = push_structured_prefix(chain)
        assert sql_scan is None and new_chain == chain

    def test_collects_filter_project_limit(self, qa_bundle):
        chain = _chain(
            qa_bundle,
            _where("priority >= 2"),
            L.ProjectOp(child=None, fields=("title", "priority")),
            L.LimitOp(child=None, n=5),
            _sem(),
        )
        new_chain, sql_scan = push_structured_prefix(chain)
        assert isinstance(new_chain[0], L.SqlScanOp)
        assert [type(op) for op in sql_scan.pushed] == [
            L.StructFilterOp, L.ProjectOp, L.LimitOp,
        ]
        assert isinstance(new_chain[1], L.SemFilterOp) and len(new_chain) == 2

    def test_struct_agg_is_terminal(self, qa_bundle):
        agg = L.StructAggOp(
            child=None, group_by=(), aggregates=(("n", "count(*)"),)
        )
        chain = _chain(
            qa_bundle, _where("priority >= 2"), agg, L.LimitOp(child=None, n=1)
        )
        new_chain, sql_scan = push_structured_prefix(chain)
        # The aggregation re-keys the stream: the limit stays outside.
        assert [type(op) for op in sql_scan.pushed] == [
            L.StructFilterOp, L.StructAggOp,
        ]
        assert isinstance(new_chain[1], L.LimitOp)

    def test_hoist_extends_the_prefix(self, qa_bundle):
        chain = _chain(qa_bundle, _sem(), _where("priority = 4"))
        new_chain, sql_scan = push_structured_prefix(chain)
        assert sql_scan is not None
        assert [type(op) for op in sql_scan.pushed] == [L.StructFilterOp]

    def test_non_scan_leaf_is_untouched(self, qa_bundle):
        retrieve = L.RetrieveOp(child=None, query="anything", k=5)
        chain = [retrieve, _where("priority = 4")]
        new_chain, sql_scan = push_structured_prefix(chain)
        assert sql_scan is None and new_chain == chain


class TestCompiledSql:
    def test_filters_conjoin(self):
        sql = compiled_sql("src", (_where("a = 1"), _where("b = 2")))
        assert sql == "SELECT * FROM src WHERE (a = 1) AND (b = 2)"

    def test_filter_project_limit_in_clause_order(self):
        sql = compiled_sql(
            "src",
            (
                _where("a = 1"),
                L.ProjectOp(child=None, fields=("a", "b")),
                L.LimitOp(child=None, n=3),
            ),
        )
        assert sql == "SELECT a, b FROM src WHERE a = 1 LIMIT 3"

    def test_filter_after_limit_closes_a_subquery(self):
        sql = compiled_sql(
            "src", (L.LimitOp(child=None, n=3), _where("a = 1"))
        )
        assert sql == "SELECT * FROM (SELECT * FROM src LIMIT 3) WHERE a = 1"

    def test_filter_over_projected_fields_closes_a_subquery(self):
        sql = compiled_sql(
            "src",
            (L.ProjectOp(child=None, fields=("a",)), _where("a = 1")),
        )
        assert sql == "SELECT * FROM (SELECT a FROM src) WHERE a = 1"

    def test_aggregation_wraps_the_base(self):
        agg = L.StructAggOp(
            child=None, group_by=("dept",), aggregates=(("n", "count(*)"),)
        )
        sql = compiled_sql("src", (_where("a = 1"), agg))
        assert sql == (
            "SELECT dept, count(*) AS n FROM "
            "(SELECT * FROM src WHERE a = 1) GROUP BY dept"
        )

    def test_bare_aggregation(self):
        agg = L.StructAggOp(
            child=None, group_by=(), aggregates=(("n", "count(*)"),)
        )
        assert compiled_sql("src", (agg,)) == "SELECT count(*) AS n FROM src"

    def test_project_after_limit_closes_a_subquery(self):
        sql = compiled_sql(
            "src",
            (L.LimitOp(child=None, n=3), L.ProjectOp(child=None, fields=("a",))),
        )
        assert sql == "SELECT a FROM (SELECT * FROM src LIMIT 3)"

    def test_consecutive_limits_nest(self):
        sql = compiled_sql(
            "src", (L.LimitOp(child=None, n=5), L.LimitOp(child=None, n=3))
        )
        assert sql == "SELECT * FROM (SELECT * FROM src LIMIT 5) LIMIT 3"

    def test_empty_prefix_renders_plain_scan(self):
        assert compiled_sql("src", ()) == "SELECT * FROM src"


# ---------------------------------------------------------------------------
# End-to-end equivalence
# ---------------------------------------------------------------------------


def _run_modes(qa_bundle, build_plan, *, optimize=False):
    """Run a plan in plan order ("off": the reference interpreter, no
    optimizer report) and through the engine ("on"); return results."""
    reset_uid_counter()
    config = _config(qa_bundle)
    reference = ReferenceInterpreter(config.llm).run(build_plan(qa_bundle).plan())
    reset_uid_counter()
    config = _config(qa_bundle, optimize=optimize)
    return {
        "off": (reference, None),
        "on": build_plan(qa_bundle).run_with_report(config),
    }


def _opaque_filter_plan(bundle):
    """``_filter_where_map_plan`` with the predicate hidden in a lambda:
    nothing structured for the pushdown pass to see."""
    from repro.data.schemas import Field

    return (
        Dataset.from_source(bundle.source())
        .sem_filter(instruction_for("qa.flag_urgent"))
        .filter(lambda record: record.get("priority", 0) >= 3)
        .sem_map(
            Field("amount", float, "extracted amount"),
            instruction_for("qa.amount"),
        )
    )


def _filter_where_map_plan(bundle):
    from repro.data.schemas import Field

    return (
        Dataset.from_source(bundle.source())
        .sem_filter(instruction_for("qa.flag_urgent"))
        .where("priority >= 3")
        .sem_map(
            Field("amount", float, "extracted amount"),
            instruction_for("qa.amount"),
        )
    )


class TestEndToEndEquivalence:
    def test_bit_identical_records_across_all_modes(self, qa_bundle):
        outcomes = _run_modes(qa_bundle, _filter_where_map_plan)
        reference = _normalized(outcomes["off"][0])
        assert reference  # non-degenerate
        for name, (result, _report) in outcomes.items():
            assert _normalized(result) == reference, name

    def test_pushdown_never_costs_more(self, qa_bundle):
        outcomes = _run_modes(qa_bundle, _filter_where_map_plan)
        assert (
            outcomes["on"][0].total_cost_usd
            <= outcomes["off"][0].total_cost_usd + 1e-9
        )

    def test_pushdown_report_only_when_enabled(self, qa_bundle):
        # "Enabled" is a property of the plan: a structured prefix exists.
        outcomes = _run_modes(qa_bundle, _filter_where_map_plan)
        assert outcomes["on"][1].pushdown_ops == 1
        assert "WHERE priority >= 3" in outcomes["on"][1].pushdown_sql
        opaque = _run_modes(qa_bundle, _opaque_filter_plan)
        assert opaque["on"][1].pushdown_ops == 0
        assert opaque["on"][1].pushdown_sql == ""
        assert _normalized(opaque["on"][0]) == _normalized(outcomes["on"][0])

    def test_equivalence_holds_under_optimization(self, qa_bundle):
        plain = _run_modes(qa_bundle, _filter_where_map_plan)
        optimized = _run_modes(qa_bundle, _filter_where_map_plan, optimize=True)
        reference = _normalized(plain["off"][0])
        for name, (result, _report) in optimized.items():
            assert _normalized(result) == reference, name

    def test_limit_pushdown_end_to_end(self, qa_bundle):
        def build(bundle):
            return (
                Dataset.from_source(bundle.source())
                .where("priority >= 2")
                .limit(4)
                .sem_filter(instruction_for("qa.flag_urgent"))
            )

        outcomes = _run_modes(qa_bundle, build)
        reference = _normalized(outcomes["off"][0])
        for name, (result, _report) in outcomes.items():
            assert _normalized(result) == reference, name
        assert outcomes["on"][1].pushdown_ops == 2

    def test_struct_agg_end_to_end(self, qa_bundle):
        def build(bundle):
            return (
                Dataset.from_source(bundle.source())
                .where("priority >= 2")
                .struct_agg(
                    [("n", "count(*)"), ("worst", "max(priority)")],
                    group_by=[],
                )
            )

        outcomes = _run_modes(qa_bundle, build)
        reference = _normalized(outcomes["off"][0])
        assert len(reference) == 1
        fields = dict(reference[0][1])
        assert fields["n"] > 0 and fields["worst"] == 4
        for name, (result, _report) in outcomes.items():
            assert _normalized(result) == reference, name

    def test_grouped_struct_agg_identity(self, qa_bundle):
        def build(bundle):
            return (
                Dataset.from_source(bundle.source())
                .struct_agg([("n", "count(*)")], group_by=["priority"])
            )

        outcomes = _run_modes(qa_bundle, build)
        reference = _normalized(outcomes["off"][0])
        assert len(reference) > 1
        for name, (result, _report) in outcomes.items():
            assert _normalized(result) == reference, name


# ---------------------------------------------------------------------------
# EXPLAIN surface
# ---------------------------------------------------------------------------


def test_explain_analyze_surfaces_pushed_section(qa_bundle):
    reset_uid_counter()
    config = _config(qa_bundle, optimize=False)
    text = _filter_where_map_plan(qa_bundle).explain(analyze=True, config=config)
    lines = text.splitlines()
    header = next(line for line in lines if line.startswith("| Operator"))
    sql_col = [cell.strip() for cell in header.split("|")].index("SQL")
    sql_row = next(line for line in lines if line.startswith("| SqlScan"))
    assert [cell.strip() for cell in sql_row.split("|")][sql_col] == "yes"
    assert any(
        "records before the first LLM operator" in line for line in lines
    )
    assert any(
        "compiled to SQL: SELECT * FROM qa-corpus-13 WHERE priority >= 3" in line
        for line in lines
    )


def test_explain_analyze_has_no_pushdown_footer_when_disabled(qa_bundle):
    # Nothing disables pushdown but the plan itself: an opaque predicate
    # leaves no structured prefix to compile.
    reset_uid_counter()
    config = _config(qa_bundle, optimize=False)
    text = _opaque_filter_plan(qa_bundle).explain(analyze=True, config=config)
    assert "compiled to SQL" not in text
    assert "first LLM operator" not in text


# ---------------------------------------------------------------------------
# Composition with materialized reuse
# ---------------------------------------------------------------------------


def test_pushdown_composes_with_materialized_reuse(qa_bundle):
    from repro.data.schemas import Field

    store = MaterializationStore()

    # Cold pass: the plan written with the structured filter already first
    # (nothing to hoist) primes the store.
    reset_uid_counter()
    cold_config = _config(qa_bundle, optimize=False, materialization_store=store)
    cold = (
        Dataset.from_source(qa_bundle.source())
        .where("priority >= 3")
        .sem_filter(instruction_for("qa.flag_urgent"))
        .sem_map(
            Field("amount", float, "extracted amount"),
            instruction_for("qa.amount"),
        )
        .run(cold_config)
    )

    # Warm pass: the plan written filter-first is hoisted and pushed down;
    # fingerprints canonicalize over the rewritten prefix, so it must land
    # on the same fingerprint and replay.
    reset_uid_counter()
    warm_config = _config(qa_bundle, optimize=False, materialization_store=store)
    warm, warm_report = _filter_where_map_plan(qa_bundle).run_with_report(warm_config)

    assert _normalized(warm) == _normalized(cold)
    assert warm_report.reused_prefix > 0
    assert warm_report.reuse_kind == "exact"
    assert warm.total_cost_usd < cold.total_cost_usd
