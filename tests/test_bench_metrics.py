"""Tests for benchmark metrics."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bench.metrics import mean_percent_error, percent_error, set_metrics
from repro.errors import BenchmarkError


def test_set_metrics_perfect():
    metrics = set_metrics({"a", "b"}, {"a", "b"})
    assert metrics.precision == metrics.recall == metrics.f1 == 1.0


def test_set_metrics_partial():
    metrics = set_metrics({"a", "b", "c", "d"}, {"a", "b", "x"})
    assert metrics.true_positives == 2
    assert metrics.precision == pytest.approx(2 / 3)
    assert metrics.recall == pytest.approx(0.5)
    assert metrics.f1 == pytest.approx(2 * (2 / 3) * 0.5 / ((2 / 3) + 0.5))


def test_set_metrics_empty_returned():
    metrics = set_metrics({"a"}, set())
    assert metrics.precision == 0.0 and metrics.recall == 0.0 and metrics.f1 == 0.0


def test_set_metrics_empty_gold():
    metrics = set_metrics(set(), {"a"})
    assert metrics.recall == 1.0
    assert metrics.precision == 0.0


def test_set_metrics_coerces_iterables():
    metrics = set_metrics(["a", "a", "b"], ("b", "b"))
    assert metrics.gold == 2 and metrics.returned == 1


def test_percent_error_basic():
    assert percent_error(110, 100) == pytest.approx(10.0)
    assert percent_error(90, 100) == pytest.approx(10.0)


def test_percent_error_missing_is_100():
    assert percent_error(None, 5.0) == 100.0


def test_percent_error_zero_truth_rejected():
    with pytest.raises(BenchmarkError):
        percent_error(1.0, 0.0)


def test_mean_percent_error_averages():
    assert mean_percent_error([100, 120], 100) == pytest.approx(10.0)


def test_mean_percent_error_empty_is_100():
    assert mean_percent_error([], 100) == 100.0


@given(
    st.sets(st.integers(0, 50)),
    st.sets(st.integers(0, 50)),
)
def test_f1_bounded_and_symmetric_in_overlap(gold, returned):
    metrics = set_metrics(gold, returned)
    assert 0.0 <= metrics.f1 <= 1.0
    assert 0.0 <= metrics.precision <= 1.0
    assert 0.0 <= metrics.recall <= 1.0
    if gold == returned and gold:
        assert metrics.f1 == 1.0
