"""Quickstart: semantic operators + optimizer + SQL materialization.

Runs a small AI-driven analytics pipeline over a synthetic real-estate
corpus: a semantic filter ("modern and attractive"), a plain Python filter
(price cap), and a semantic classification, all optimized by the cost-based
optimizer — prints EXPLAIN ANALYZE (measured against estimated, per
operator), then materializes the result into a SQL table and queries it.

Run:  python examples/quickstart.py
"""

from repro.core import AnalyticsRuntime
from repro.data.datasets import generate_realestate_corpus
from repro.data.datasets.realestate import FILTER_MODERN, MAP_STYLE, STYLES
from repro.sem import Dataset
from repro.sem.explain import explain_analyze


def main() -> None:
    bundle = generate_realestate_corpus(seed=23)
    runtime = AnalyticsRuntime.for_bundle(bundle, seed=1)

    listings = Dataset.from_source(bundle.source())
    query = (
        listings
        .filter(lambda record: record["price"] <= 1_200_000, description="price cap")
        .sem_filter(FILTER_MODERN)
        .sem_classify("style", STYLES, MAP_STYLE)
    )

    print("Logical plan:")
    print(query.explain())
    print()

    result, report = query.run_with_report(runtime.program_config(tag="quickstart"))
    print(f"Matched {len(result.records)} of {len(bundle.records())} listings")
    print(f"Cost: ${result.total_cost_usd:.4f} "
          f"(+${result.optimization_cost_usd:.4f} optimizer sampling)")
    print(f"Simulated time: {result.total_time_s:.1f}s")
    print(f"Models chosen by the optimizer: {report.chosen_models}")
    print()

    # EXPLAIN ANALYZE: measured per-operator rows, dollars and cache hits
    # beside the optimizer's estimates.
    print(explain_analyze(result, report))
    print()

    for record in result.records[:5]:
        print(f"  {record['listing_id']}  ${record['price']:>9,}  "
              f"{record['style']:<10}  {record['address']}")
    print()

    # Materialize into SQL so future queries skip the LLM entirely.
    runtime.materialize_records(
        "modern_listings",
        result.records,
        fields=["listing_id", "price", "bedrooms", "style"],
    )
    rows = runtime.sql(
        "SELECT style, COUNT(*) AS n, AVG(price) AS avg_price "
        "FROM modern_listings GROUP BY style ORDER BY n DESC"
    )
    print("SQL over the materialized table:")
    for row in rows.to_dicts():
        print(f"  {row['style']:<10} n={row['n']:<3} avg_price=${row['avg_price']:,.0f}")


if __name__ == "__main__":
    main()
