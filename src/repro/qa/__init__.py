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

Entry points: ``python -m repro.qa fuzz | replay | selftest``.  The package
re-exports nothing: import the submodule (``repro.qa.corpus``, ...), so a
caller loads only what it uses.
"""
