"""Tests for logical plans and validation."""

import pytest

from repro.data.records import DataRecord
from repro.data.schemas import Field, Schema
from repro.data.sources import MemorySource
from repro.errors import PlanError
from repro.sem import logical as L
from repro.sem.dataset import Dataset


def _source(n=3):
    return MemorySource(
        [DataRecord({"i": index}) for index in range(n)],
        Schema([Field("i", int)]),
        source_id="nums",
    )


def _plan():
    return (
        Dataset.from_source(_source())
        .sem_filter("keep interesting records")
        .limit(2)
        .plan()
    )


def test_operators_leaves_first():
    ops = _plan().operators()
    assert isinstance(ops[0], L.ScanOp)
    assert isinstance(ops[1], L.SemFilterOp)
    assert isinstance(ops[2], L.LimitOp)


def test_explain_renders_root_first():
    text = _plan().explain()
    lines = text.splitlines()
    assert lines[0].startswith("Limit")
    assert lines[-1].strip().startswith("Scan")


def test_validate_accepts_good_plan():
    L.validate_plan(_plan())  # no raise


def test_validate_rejects_sourceless_scan():
    with pytest.raises(PlanError):
        L.validate_plan(L.LogicalPlan(L.ScanOp(child=None, source=None)))


def test_validate_rejects_orphan_operator():
    with pytest.raises(PlanError):
        L.validate_plan(L.LogicalPlan(L.SemFilterOp(child=None, instruction="x")))


def test_validate_rejects_negative_limit():
    plan = L.LogicalPlan(
        L.LimitOp(child=L.ScanOp(child=None, source=_source()), n=-1)
    )
    with pytest.raises(PlanError):
        L.validate_plan(plan)


def test_validate_rejects_retrieve_off_scan():
    scan = L.ScanOp(child=None, source=_source())
    limit = L.LimitOp(child=scan, n=1)
    plan = L.LogicalPlan(L.RetrieveOp(child=limit, query="q", k=2))
    with pytest.raises(PlanError):
        L.validate_plan(plan)


def test_is_linear_detects_joins():
    left = Dataset.from_source(_source())
    right = Dataset.from_source(_source())
    joined = left.sem_join(right, "records refer to the same entity")
    assert not joined.plan().is_linear()
    assert _plan().is_linear()


def test_labels_are_informative():
    ops = _plan().operators()
    assert "Scan(nums)" == ops[0].label()
    assert "keep interesting" in ops[1].label()
