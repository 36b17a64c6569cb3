"""Optimization policies: how to trade quality against cost.

A policy picks the physical model for an operator given sampled profiles.
Quality is measured as *agreement with the champion model* on the sample —
the same reference-model trick LOTUS uses — because ground truth is not
available to the optimizer.  It also picks the model the ``compute`` and
``search`` agents plan with (the paper's §3 physical optimization).
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

from repro.llm.models import DEFAULT_MODEL, completion_models_by_cost

if TYPE_CHECKING:
    from repro.sem.optimizer.sampler import OperatorProfile


class OptimizationPolicy(abc.ABC):
    """Strategy for choosing an operator's model from sampled profiles."""

    name: str = "policy"

    @abc.abstractmethod
    def choose_model(
        self, profiles: dict[str, "OperatorProfile"], champion: str
    ) -> str:
        """Return the model to use; ``profiles`` maps model name to profile."""

    def agent_model(self) -> str:
        """The model a ``compute``/``search`` agent plans with: the champion,
        whose per-step cost is small beside the programs the agent launches."""
        return DEFAULT_MODEL


class MaxQuality(OptimizationPolicy):
    """Always use the champion model (Palimpzest's default posture)."""

    name = "max-quality"

    def choose_model(self, profiles: dict[str, "OperatorProfile"], champion: str) -> str:
        return champion


class _CheapestAboveFloor(OptimizationPolicy):
    """Cheapest profiled model whose sampled agreement clears a floor."""

    #: Floor used when the constructor is given none.
    default_floor: float

    def __init__(self, quality_floor: float | None = None) -> None:
        if quality_floor is None:
            quality_floor = self.default_floor
        if not 0.0 <= quality_floor <= 1.0:
            raise ValueError(f"quality_floor must be in [0, 1], got {quality_floor}")
        self.quality_floor = quality_floor

    def choose_model(self, profiles: dict[str, "OperatorProfile"], champion: str) -> str:
        candidates = [
            profile
            for profile in profiles.values()
            if profile.agreement >= self.quality_floor
        ]
        if not candidates:
            return champion
        return min(candidates, key=lambda p: (p.cost_per_record, p.model)).model


class MinCost(_CheapestAboveFloor):
    """Use the cheapest profiled model meeting a loose quality floor."""

    name = "min-cost"
    default_floor = 0.5

    def agent_model(self) -> str:
        """The cheapest completion model: the agent itself runs on the lowest tier."""
        return completion_models_by_cost()[0].name


class Balanced(_CheapestAboveFloor):
    """Cheapest model whose sampled agreement clears a strict floor.

    This is the policy that yields the paper's observation that the
    optimizer "was able to use cheaper models for some of the semantic
    operators": easy operators downgrade, hard ones stay on the champion.
    """

    name = "balanced"
    default_floor = 0.92


#: Name -> class for every built-in policy (keys match ``Policy.name``).
POLICIES: dict[str, type[OptimizationPolicy]] = {
    cls.name: cls for cls in (MaxQuality, MinCost, Balanced)
}


def policy_by_name(name: str) -> OptimizationPolicy:
    """Instantiate a built-in policy from its name.

    Replay bundles and config specs store policies by name; this is the
    single place that mapping lives.
    """
    try:
        return POLICIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown optimization policy {name!r}; known: {sorted(POLICIES)}"
        ) from None
