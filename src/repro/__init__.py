"""repro: a runtime for AI-driven analytics (CIDR 2026 reproduction).

Reproduction of Russo & Kraska, *Deep Research is the New Analytics
System: Towards Building the Runtime for AI-Driven Analytics* (CIDR 2026).

The library combines three execution paradigms over unstructured data:

- **semantic operators** (:mod:`repro.sem`): declarative AI-powered
  filters/maps/joins with cost-based optimization;
- **Deep Research agents** (:mod:`repro.agents`): CodeAgents that plan,
  write sandboxed Python, and use tools;
- **SQL** (:mod:`repro.sql`): an in-memory engine for structured tables
  materialized from unstructured data.

The paper's contribution lives in :mod:`repro.core`: the :class:`Context`
abstraction, the agent-backed ``search``/``compute`` operators with their
optimized-semantic-program tool, and the :class:`ContextManager` for
materialized-Context reuse.

Because this reproduction runs offline, all LLM calls go through a
deterministic simulated service (:mod:`repro.llm`); see DESIGN.md for the
substitution argument.

Quickstart::

    from repro import AnalyticsRuntime
    from repro.data.datasets import generate_enron_corpus

    bundle = generate_enron_corpus()
    runtime = AnalyticsRuntime.for_bundle(bundle, seed=0)
    context = runtime.make_context(bundle)
    result = runtime.compute(context, "Return all emails which ...")
"""

import importlib

#: Each re-export's defining module: resolved on first access (PEP 562), so
#: importing one submodule (``repro.bench.metrics``, ``repro.qa.corpus``)
#: does not load the runtime.
_EXPORTS = {
    "AnalyticsRuntime": "repro.core.runtime",
    "Context": "repro.core.context",
    "ContextManager": "repro.core.context_manager",
    "DataRecord": "repro.data.records",
    "Database": "repro.sql.database",
    "Dataset": "repro.sem.dataset",
    "Field": "repro.data.schemas",
    "QueryProcessorConfig": "repro.sem.config",
    "Schema": "repro.data.schemas",
    "SimulatedLLM": "repro.llm.simulated",
    "compute": "repro.core.operators",
    "search": "repro.core.operators",
}

__version__ = "1.0.0"

__all__ = [
    "AnalyticsRuntime",
    "Context",
    "ContextManager",
    "DataRecord",
    "Database",
    "Dataset",
    "Field",
    "QueryProcessorConfig",
    "Schema",
    "SimulatedLLM",
    "__version__",
    "compute",
    "search",
]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(module), name)
    return value
