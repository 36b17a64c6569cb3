"""Shared fixtures: dataset bundles are expensive enough to build once,
and the toy single-record world is duplicated across substrate tests."""

from __future__ import annotations

import pytest

from repro.data.datasets import (
    generate_enron_corpus,
    generate_legal_corpus,
    generate_realestate_corpus,
)
from repro.data.records import DataRecord
from repro.llm.faults import FaultConfig, FaultInjector, RetryPolicy
from repro.llm.oracle import DIFFICULTY_PREFIX, IntentRegistry, SemanticOracle
from repro.llm.simulated import SimulatedLLM


@pytest.fixture(scope="session")
def legal_bundle():
    return generate_legal_corpus(seed=7)


@pytest.fixture(scope="session")
def enron_bundle():
    return generate_enron_corpus(seed=11)


@pytest.fixture(scope="session")
def realestate_bundle():
    return generate_realestate_corpus(seed=23)


@pytest.fixture
def make_llm():
    """Factory for fresh simulated LLMs bound to a bundle's oracle."""

    def factory(bundle=None, seed: int = 0, **kwargs) -> SimulatedLLM:
        oracle = SemanticOracle(bundle.registry) if bundle is not None else None
        return SimulatedLLM(oracle=oracle, seed=seed, **kwargs)

    return factory


@pytest.fixture
def run_static_width():
    """Run ``dataset`` under ``config`` as the engine would, minus the
    adaptive wave-width controller.

    No option turns the controller off, so the static-width side of the
    storm comparisons is the same optimizer and engine over an
    ``ExecutionContext`` built without one.
    """
    from repro.llm.embeddings import DEFAULT_EMBED_BATCH
    from repro.sem.execution import Engine
    from repro.sem.optimizer.optimizer import Optimizer
    from repro.sem.physical import ExecutionContext

    def run(dataset, config):
        operators, report = Optimizer(config).optimize(dataset.plan())
        ctx = ExecutionContext(
            llm=config.llm,
            parallelism=config.parallelism,
            tag=config.tag,
            embed_batch_size=DEFAULT_EMBED_BATCH,
            adaptive=None,
        )
        engine = Engine(
            ctx, batch_size=config.resolved_batch_size(), shard_plan=report.shard_plan
        )
        return engine.execute(operators)

    return run


# ---------------------------------------------------------------------------
# Toy world: one hand-annotated record shape for substrate-level tests
# ---------------------------------------------------------------------------


def build_toy_registry() -> IntentRegistry:
    """A two-intent registry: a boolean flag and a numeric count."""
    registry = IntentRegistry()
    registry.register("t.flag", ["special", "flag"])
    registry.register("t.count", ["number", "widgets"])
    return registry


@pytest.fixture
def toy_registry() -> IntentRegistry:
    return build_toy_registry()


@pytest.fixture
def toy_record():
    """Factory for a single annotated record over the toy registry.

    ``difficulty`` feeds the oracle's noise model: 0.1 is effectively
    deterministic, 1.0 makes the simulated answer genuinely ambiguous.
    """

    def factory(flag=True, count=42, difficulty=0.1, uid=None) -> DataRecord:
        return DataRecord(
            {"body": "a record about widgets"},
            uid=uid,
            annotations={
                "t.flag": flag,
                DIFFICULTY_PREFIX + "t.flag": difficulty,
                "t.count": count,
                DIFFICULTY_PREFIX + "t.count": difficulty,
            },
        )

    return factory


@pytest.fixture
def make_toy_llm():
    """Factory for simulated LLMs bound to the toy registry's oracle."""

    def factory(seed: int = 0, **kwargs) -> SimulatedLLM:
        return SimulatedLLM(
            oracle=SemanticOracle(build_toy_registry()), seed=seed, **kwargs
        )

    return factory


@pytest.fixture
def make_faulty_llm(make_toy_llm):
    """Toy LLM with a seeded fault injector and a patient retry policy."""

    def factory(rate=0.3, seed=0, retry=None, **fault_kwargs) -> SimulatedLLM:
        return make_toy_llm(
            seed=seed,
            faults=FaultInjector(FaultConfig(rate=rate, **fault_kwargs), seed=seed),
            retry=retry or RetryPolicy(max_attempts=6),
        )

    return factory
