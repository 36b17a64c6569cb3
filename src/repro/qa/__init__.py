"""Plan-space differential testing and deterministic replay.

The paper's central claim is that an AI-driven analytics runtime can keep
declarative semantics while swapping execution strategies underneath —
pipelining, optimization policies, budget enforcement, fault recovery.
This package *tests* that claim mechanically: a seeded fuzzer generates
random logical plans over synthetic corpora, a runner executes each plan
under a matrix of configurations, and equivalence oracles assert the
contracts each configuration class must uphold.  Failures are minimized
by a delta-debugging shrinker and captured as deterministic replay
bundles.

Entry points: ``python -m repro.qa fuzz | replay | selftest``.
"""

from repro.qa.bundle import ReplayBundle
from repro.qa.configs import ConfigSpec, config_matrix
from repro.qa.corpus import CorpusSpec, build_corpus
from repro.qa.fuzzer import FuzzCase, PlanFuzzer
from repro.qa.oracles import Violation, evaluate
from repro.qa.plans import PlanSpec, normalized_records
from repro.qa.reference import ReferenceInterpreter, ReferenceResult
from repro.qa.runner import CaseRun, Observation, run_case, run_spec
from repro.qa.shrinker import ShrinkResult, shrink

__all__ = [
    "CaseRun",
    "ConfigSpec",
    "CorpusSpec",
    "FuzzCase",
    "Observation",
    "PlanFuzzer",
    "PlanSpec",
    "ReferenceInterpreter",
    "ReferenceResult",
    "ReplayBundle",
    "ShrinkResult",
    "Violation",
    "build_corpus",
    "config_matrix",
    "evaluate",
    "normalized_records",
    "run_case",
    "run_spec",
    "shrink",
]
