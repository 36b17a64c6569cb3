"""Context reuse (paper §2.4/§3): materialized views for AI analytics.

Issues two related queries against the legal data lake.  Without reuse the
second query's semantic program re-scans the corpus; with the
ContextManager enabled it retrieves the Context materialized by the first
query (high description similarity) and runs over the narrowed record set,
cutting cost and simulated runtime.  Invalidating the lake's Context then
evicts every view derived from it.

Run:  python examples/context_reuse.py
"""

from repro.core import AnalyticsRuntime
from repro.data.datasets import generate_legal_corpus

FIRST = (
    "Find the files which report national identity theft statistics for "
    "the year 2001 and extract the number of identity theft reports in "
    "the year 2001."
)
SECOND = (
    "Find the files which report national identity theft statistics for "
    "the year 2024 and extract the number of identity theft reports in "
    "the year 2024."
)


def run(reuse: bool) -> None:
    bundle = generate_legal_corpus(seed=7)
    runtime = AnalyticsRuntime.for_bundle(bundle, seed=9, reuse_contexts=reuse)
    context = runtime.make_context(bundle)

    from repro.core.program_tool import build_program_tool

    tool = build_program_tool(context, runtime)
    first = tool(FIRST)
    cost_after_first = runtime.usage().cost_usd
    second = tool(SECOND)
    total = runtime.usage().cost_usd

    print(f"reuse={'on ' if reuse else 'off'}  "
          f"first query: {len(first)} records (${cost_after_first:.3f})  "
          f"second query: {len(second)} records "
          f"(+${total - cost_after_first:.3f})  total=${total:.3f}  "
          f"time={runtime.elapsed_s:.0f}s")
    if reuse:
        manager = runtime.context_manager
        print(f"  cached contexts: {len(manager.entries())}; "
              f"hits: {manager.stats()['hits']}")
        # Maintenance (§2.4): when the lake's records change, every view
        # derived from it is stale and leaves the cache.
        evicted = manager.invalidate(context)
        print(f"  after invalidating {context.name}: {evicted} evicted, "
              f"{len(manager)} cached")


def main() -> None:
    print("Two related queries; the second can reuse the first's "
          "materialized Context.\n")
    run(reuse=False)
    run(reuse=True)


if __name__ == "__main__":
    main()
