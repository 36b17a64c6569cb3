"""Cost-based optimizer for semantic-operator plans.

Implements the Palimpzest/Abacus-style pipeline the paper relies on:
sampling-based operator profiling (a successive-halving bandit over
candidate models), logical rewrites (filter pushdown and reordering by
cost/selectivity), and policy-driven physical model selection.
"""

from repro.sem.optimizer.cost_model import PlanEstimate
from repro.sem.optimizer.optimizer import OptimizationReport, Optimizer
from repro.sem.optimizer.policies import Balanced, MaxQuality, MinCost, OptimizationPolicy
from repro.sem.optimizer.sampler import OperatorProfile, Sampler

__all__ = [
    "Balanced",
    "MaxQuality",
    "MinCost",
    "OperatorProfile",
    "OptimizationPolicy",
    "OptimizationReport",
    "Optimizer",
    "PlanEstimate",
    "Sampler",
]
