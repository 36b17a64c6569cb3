"""The paper's Figure 1 (left) / Figure 2 walkthrough.

Builds a Context over the 132-file legal data lake, runs a ``search``
operator to look for information on identity thefts (producing a derived
Context with an enriched description), then runs ``compute`` on the
original evaluation query and the state-level argmax query.  Prints the Context lineage and the compute
agent's execution trace — the iterate-between-programs-and-Python
behaviour the paper illustrates.

Run:  python examples/kramabench_legal.py
"""

from repro.core import AnalyticsRuntime
from repro.data.datasets import generate_legal_corpus
from repro.data.datasets.kramabench import QUERY_RATIO, QUERY_TOP_STATE


def main() -> None:
    bundle = generate_legal_corpus(seed=7)
    runtime = AnalyticsRuntime.for_bundle(bundle, seed=7)

    # Figure 2: an initial Context with description, indexing, and tools.
    context = runtime.make_context(bundle, build_index=True)
    print(f"Initial context: {context.name} ({len(context)} files)")
    print(f"  desc: {context.desc[:120]}...")
    print()

    # search: enrich the Context with findings about identity thefts.
    found = runtime.search(context, "information on identity theft reports")
    enriched = found.output_context
    print("After search:")
    print(f"  relevant items: {found.findings.get('relevant_items')}")
    print(f"  enriched desc (tail): ...{enriched.desc[-220:]}")
    print()

    # compute: answer the Kramabench legal-easy-3 query.
    result = runtime.compute(enriched, QUERY_RATIO)
    truth = bundle.ground_truth["ratio"]
    answer = result.answer or {}
    print(f"Query: {QUERY_RATIO}")
    print(f"Answer: ratio={answer.get('ratio'):.4f} from {answer.get('source')}")
    print(f"Ground truth: {truth:.4f} "
          f"(error {abs(answer.get('ratio', 0) - truth) / truth * 100:.3f}%)")
    print(f"Cost: ${result.cost_usd:.2f}  simulated time: {result.time_s:.0f}s")
    print()

    print("Compute agent trace:")
    print(result.agent.trace.render())
    print()

    # compute: the state-level argmax query over the same Context.
    top = runtime.compute(enriched, QUERY_TOP_STATE)
    answer = top.answer or {}
    print(f"Query: {QUERY_TOP_STATE}")
    print(f"Answer: {answer.get('state')} with {answer.get('reports')} reports "
          f"(ground truth: {bundle.ground_truth['top_state_2024']})")
    print()

    print("Materialized context lineage (newest first):")
    for ancestor in result.output_context.lineage():
        print(f"  - {ancestor.name}: {len(ancestor)} records")


if __name__ == "__main__":
    main()
