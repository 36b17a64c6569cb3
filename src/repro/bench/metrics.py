"""Quality metrics used by the paper's evaluation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.errors import BenchmarkError


@dataclass(frozen=True)
class SetMetrics:
    """Precision/recall/F1 of a returned set against a gold set."""

    precision: float
    recall: float
    f1: float
    true_positives: int
    returned: int
    gold: int


def set_metrics(gold: Iterable, returned: Iterable) -> SetMetrics:
    """Score ``returned`` against ``gold`` (both coerced to sets)."""
    gold_set = set(gold)
    returned_set = set(returned)
    true_positives = len(gold_set & returned_set)
    precision = true_positives / len(returned_set) if returned_set else 0.0
    recall = true_positives / len(gold_set) if gold_set else 1.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if (precision + recall) > 0
        else 0.0
    )
    return SetMetrics(
        precision=precision,
        recall=recall,
        f1=f1,
        true_positives=true_positives,
        returned=len(returned_set),
        gold=len(gold_set),
    )


def percent_error(value: float | None, truth: float) -> float:
    """Absolute percent error; a missing answer scores 100%.

    The paper's Table 1 averages percent errors when a system returns
    multiple ratios — use :func:`mean_percent_error` for that case.
    """
    if truth == 0:
        raise BenchmarkError("truth must be nonzero for percent error")
    if value is None:
        return 100.0
    return abs(value - truth) / abs(truth) * 100.0


def mean_percent_error(values: Iterable[float | None], truth: float) -> float:
    """Average percent error over all returned values (Table 1 protocol)."""
    values = list(values)
    if not values:
        return 100.0
    return sum(percent_error(value, truth) for value in values) / len(values)
