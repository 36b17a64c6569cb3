"""Synthetic real-estate listings workload.

Palimpzest's demos (and the paper's motivation for semantic filters) include
a real-estate task: find listings that are "modern and attractive" under a
price cap.  This corpus backs the quickstart example and a slice of the
test suite with a third, structurally different domain: records mix
structured fields (price, bedrooms) with unstructured descriptions, which
is also what the SQL-materialization path consumes.
"""

from __future__ import annotations

from repro.data.corpus import FileCorpus
from repro.data.datasets.base import DatasetBundle
from repro.data.records import DataRecord
from repro.data.schemas import Field, Schema
from repro.errors import ConfigurationError
from repro.llm.oracle import DIFFICULTY_PREFIX, IntentRegistry
from repro.utils.seeding import SeededRng

INTENT_MODERN = "re.modern_attractive"
INTENT_VIEW = "re.has_view"
INTENT_STYLE = "re.style"

FILTER_MODERN = "The listing describes a modern and attractive home."
FILTER_VIEW = "The listing mentions a view of the water, city, or mountains."
MAP_STYLE = "Classify the architectural style of the home."

LISTING_SCHEMA = Schema(
    [
        Field("listing_id", str, "unique listing identifier"),
        Field("address", str, "street address of the property"),
        Field("price", int, "asking price in dollars"),
        Field("bedrooms", int, "number of bedrooms"),
        Field("description", str, "free-text listing description"),
    ],
    name="Listing",
    desc="A residential real-estate listing.",
)

STYLES = ["modern", "craftsman", "colonial", "ranch", "victorian"]

_MODERN_SNIPPETS = [
    "Fully renovated with floor-to-ceiling windows and an open-concept chef's kitchen.",
    "Sleek contemporary build with polished concrete floors and designer fixtures.",
    "Stunning modern home with clean lines, smart-home wiring, and a rooftop deck.",
    "Architect-designed new construction with walls of glass and radiant heating.",
]
_DATED_SNIPPETS = [
    "Charming fixer-upper with original 1970s finishes and great bones.",
    "Cozy home with wood paneling throughout; needs some TLC.",
    "Classic layout with shag carpeting and a sunken living room.",
    "Estate sale: dated interior, priced to reflect needed updates.",
]
_NEUTRAL_SNIPPETS = [
    "Close to schools, parks, and the commuter rail.",
    "Large fenced backyard with mature trees.",
    "Two-car garage and newer roof.",
    "Quiet cul-de-sac location with friendly neighbors.",
]
_VIEW_SNIPPETS = [
    "Sweeping views of the bay from the primary suite.",
    "Unobstructed city skyline views from the balcony.",
    "Wake up to mountain views from every rear window.",
]

_STREETS = [
    "Maple St", "Oak Ave", "Cedar Ln", "Birch Rd", "Elm Dr", "Willow Way",
    "Juniper Ct", "Alder Pl", "Spruce Ter", "Hawthorn Blvd",
]


def build_intent_registry() -> IntentRegistry:
    registry = IntentRegistry()
    registry.register(INTENT_MODERN, ["modern", "attractive"], "listing is modern and attractive")
    registry.register(INTENT_VIEW, ["view", "water", "city", "mountains"], "listing mentions a view")
    registry.register(INTENT_STYLE, ["architectural", "style"], "architectural style of the home")
    return registry


def generate_realestate_corpus(seed: int = 23, n_listings: int = 120) -> DatasetBundle:
    """Generate ``n_listings`` listings, roughly 30% modern-and-attractive."""
    if n_listings < 10:
        raise ConfigurationError(f"need at least 10 listings, got {n_listings}")
    rng = SeededRng(seed).child("realestate")
    corpus = FileCorpus("realestate")
    records: list[DataRecord] = []
    modern_ids: list[str] = []

    for index in range(n_listings):
        child = rng.child("listing", index)
        listing_id = f"L{index:04d}"
        style = STYLES[index % len(STYLES)]
        is_modern = style == "modern" or (style == "craftsman" and child.chance(0.25))
        has_view = child.chance(0.3)

        snippets = []
        if is_modern:
            snippets.append(child.choice(_MODERN_SNIPPETS))
        else:
            snippets.append(child.choice(_DATED_SNIPPETS))
        if has_view:
            snippets.append(child.choice(_VIEW_SNIPPETS))
        snippets.append(child.choice(_NEUTRAL_SNIPPETS))
        description = " ".join(snippets)

        price = int(child.uniform(250, 2400)) * 1000
        bedrooms = child.randint(1, 6)
        address = f"{child.randint(10, 9999)} {child.choice(_STREETS)}"

        # Borderline cases: dated-but-renovated craftsman homes are hard.
        modern_difficulty = 0.7 if (style == "craftsman" and is_modern) else 0.15
        annotations = {
            INTENT_MODERN: is_modern,
            DIFFICULTY_PREFIX + INTENT_MODERN: modern_difficulty,
            INTENT_VIEW: has_view,
            DIFFICULTY_PREFIX + INTENT_VIEW: 0.1,
            INTENT_STYLE: style,
            DIFFICULTY_PREFIX + INTENT_STYLE: 0.3,
        }
        rendered = (
            f"Listing {listing_id}\nAddress: {address}\nPrice: ${price:,}\n"
            f"Bedrooms: {bedrooms}\n\n{description}\n"
        )
        corpus.add(f"listing_{listing_id}.txt", rendered, annotations)
        records.append(
            DataRecord(
                fields={
                    "listing_id": listing_id,
                    "address": address,
                    "price": price,
                    "bedrooms": bedrooms,
                    "description": description,
                },
                uid=f"realestate:{listing_id}",
                annotations=annotations,
                source_id="realestate",
            )
        )
        if is_modern:
            modern_ids.append(listing_id)

    description_text = (
        f"A corpus of {n_listings} residential real-estate listings with "
        "structured fields (price, bedrooms, address) and free-text "
        "descriptions of each property."
    )
    return DatasetBundle(
        name="realestate",
        corpus=corpus,
        schema=LISTING_SCHEMA,
        registry=build_intent_registry(),
        description=description_text,
        ground_truth={"modern_listing_ids": sorted(modern_ids)},
        record_list=records,
    )
