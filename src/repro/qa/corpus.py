"""Seeded synthetic corpora for plan-space differential testing.

The fuzz harness needs corpora it can regenerate bit-identically from a
tiny JSON spec (seed + size), with a rich enough intent surface that random
plans exercise every semantic operator: boolean filter intents, numeric and
string extraction intents, classification/group-by intents, and an
equality-style join intent.  Records carry explicit uids (``qa-<n>``) so
corpus generation never consumes the global derived-record uid counter —
runs that compare uid sequences across executions depend on that.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any

from repro.data.datasets.base import DatasetBundle
from repro.data.corpus import FileCorpus
from repro.data.records import DataRecord
from repro.data.schemas import Field, Schema
from repro.llm.oracle import DIFFICULTY_PREFIX, IntentRegistry
from repro.llm.simulated import DISTRACTOR_PREFIX
from repro.utils.hashing import PART_SEPARATOR, serialize_parts

#: Intent keys -> (keywords, canonical instruction).  Instructions are what
#: the fuzzer puts on plan operators; every instruction resolves to its
#: intent with keyword score 1.0 (all keywords present as tokens).
INTENTS: dict[str, tuple[tuple[str, ...], str]] = {
    "qa.flag_urgent": (
        ("ticket", "marked", "urgent"),
        "The ticket is marked urgent.",
    ),
    "qa.flag_security": (
        ("mentions", "security", "incident"),
        "The ticket mentions a security incident.",
    ),
    "qa.flag_refund": (
        ("requests", "refund", "payment"),
        "The ticket requests a refund of a payment.",
    ),
    "qa.amount": (
        ("total", "invoice", "dollars"),
        "Extract the total invoice amount in dollars.",
    ),
    "qa.customer": (
        ("name", "account", "holder"),
        "Extract the name of the account holder.",
    ),
    "qa.department": (
        ("department", "responsible", "handling"),
        "Which department is responsible for handling this ticket?",
    ),
    "qa.region": (
        ("sales", "region", "office"),
        "Which sales region office filed this ticket?",
    ),
    "qa.same_customer": (
        ("records", "same", "customer"),
        "The two records concern the same customer.",
    ),
}

DEPARTMENTS = ("engineering", "finance", "support", "legal")
REGIONS = ("north", "south", "east", "west")
CUSTOMERS = ("acme", "globex", "initech", "umbrella", "stark", "wayne")

_TOPIC_WORDS = (
    "outage", "invoice", "renewal", "login", "latency", "migration",
    "contract", "audit", "backup", "quota", "upgrade", "alert",
)


def instruction_for(intent_key: str) -> str:
    """Canonical natural-language instruction for a registered QA intent."""
    return INTENTS[intent_key][1]


@dataclass(frozen=True)
class CorpusSpec:
    """Everything needed to regenerate a QA corpus bit-identically."""

    seed: int = 0
    n_records: int = 24

    def to_dict(self) -> dict:
        return {"seed": self.seed, "n_records": self.n_records}

    @classmethod
    def from_dict(cls, payload: dict) -> "CorpusSpec":
        return cls(seed=int(payload["seed"]), n_records=int(payload["n_records"]))


#: The value names a record draws, in draw order.  A draw is
#: ``stable_hash(seed, name, index)`` (``stable_uniform`` for a float), and a
#: difficulty draw appends the intent key as a fourth part.
_VALUES = (
    "qa-cust", "qa-dept", "qa-region", "qa-priority", "qa-amount", "qa-urgent",
    "qa-security", "qa-refund", "qa-topic-a", "qa-topic-b", "qa-distract",
    "qa-difficulty", "qa-hard",
)


#: ``stable_uniform``'s scale: ``n * _UNIT == n / 2**64`` bit for bit.
_UNIT = 2.0**-64


def _draw(head: Any, tail: bytes) -> int:
    """``stable_hash`` of a head absorbed once, extended by ``tail``'s bytes."""
    hasher = head.copy()
    hasher.update(tail)
    return int.from_bytes(hasher.digest()[:8], "big")


def build_corpus(spec: CorpusSpec) -> DatasetBundle:
    """Generate the QA ticket corpus described by ``spec``.

    Deterministic: two calls with equal specs produce records with identical
    uids, fields, and annotations.  Each value name's ``(seed, name)`` head
    is absorbed once per corpus, so a draw hashes only its record's tail.
    """
    seed, n = spec.seed, spec.n_records
    registry = IntentRegistry()
    for key, (keywords, description) in INTENTS.items():
        registry.register(key, keywords, description)

    (cust, dept, reg, prio, amt, urg, sec, ref, top_a, top_b, distract,
     difficulty, hard) = [
        hashlib.sha256((serialize_parts(seed, name) + PART_SEPARATOR).encode("utf-8"))
        for name in _VALUES
    ]
    # Each intent's difficulty key, and what its draws append to the index.
    difficulties = [
        (DIFFICULTY_PREFIX + intent, (PART_SEPARATOR + repr(intent)).encode("utf-8"))
        for intent in INTENTS
    ]
    distractor_key = DISTRACTOR_PREFIX + "qa.amount"
    source_id = f"qa-corpus-{seed}"
    records: list[DataRecord] = []
    for index in range(n):
        at = repr(index).encode("utf-8")
        customer = CUSTOMERS[_draw(cust, at) % len(CUSTOMERS)]
        department = DEPARTMENTS[_draw(dept, at) % len(DEPARTMENTS)]
        region = REGIONS[_draw(reg, at) % len(REGIONS)]
        priority = 1 + _draw(prio, at) % 4
        amount = round(10.0 + 990.0 * (_draw(amt, at) * _UNIT), 2)
        topic_a = _TOPIC_WORDS[_draw(top_a, at) % len(_TOPIC_WORDS)]
        topic_b = _TOPIC_WORDS[_draw(top_b, at) % len(_TOPIC_WORDS)]

        body = (
            f"Ticket {index} from {customer} about {topic_a} and {topic_b}. "
            f"Priority {priority}, routed via the {region} office to "
            f"{department}. Invoice total ${amount:.2f}."
        )
        annotations = {
            "qa.flag_urgent": _draw(urg, at) * _UNIT < 0.4,
            "qa.flag_security": _draw(sec, at) * _UNIT < 0.3,
            "qa.flag_refund": _draw(ref, at) * _UNIT < 0.35,
            "qa.amount": amount,
            "qa.customer": customer,
            "qa.department": department,
            "qa.region": region,
            "qa.same_customer": customer,
        }
        # Mostly easy-to-medium difficulties, occasionally ambiguous.
        for key, tail in difficulties:
            draw = _draw(difficulty, at + tail) * _UNIT
            if draw > 0.9:  # ~10% genuinely ambiguous records per intent
                annotations[key] = round(0.7 + 0.25 * (_draw(hard, at + tail) * _UNIT), 3)
            else:
                annotations[key] = round(0.05 + 0.55 * draw, 3)
        # A plausible wrong amount that actually appears in the corpus.
        if _draw(distract, at) * _UNIT < 0.5:
            annotations[distractor_key] = round(amount * 0.1, 2)
        records.append(DataRecord._owning(
            {"title": f"{topic_a}-{index}", "body": body, "priority": priority},
            f"qa-{index:04d}", annotations, source_id, (),
        ))

    schema = Schema(
        [
            Field("title", str, "short ticket title"),
            Field("body", str, "full ticket text"),
            Field("priority", int, "priority 1 (low) to 4 (critical)"),
        ],
        name="QATicket",
        desc="synthetic support tickets for the fuzz harness",
    )
    corpus = FileCorpus(name=f"qa-corpus-{seed}")
    return DatasetBundle(
        name=f"qa-corpus-{seed}",
        corpus=corpus,
        schema=schema,
        registry=registry,
        description="Synthetic support-ticket corpus for plan-space fuzzing.",
        record_list=records,
    )
