"""Ground-truth oracle for simulated semantic tasks.

The simulated LLM must *answer* natural-language tasks ("does this email
contain firsthand discussion of the Raptor deal?") without a real model.
The synthetic datasets therefore attach hidden **annotations** to each
record: a mapping from canonical *intent keys* to ground-truth values.
Dataset generators register their intents (keyword patterns + key) in an
:class:`IntentRegistry`; at query time the oracle resolves a free-form
instruction to the best-matching intent and reads the truth off the record.

The simulated LLM then corrupts the truth with model-tier-dependent noise —
the oracle itself is always right; models are not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Protocol, runtime_checkable

from repro.utils.text import jaccard_similarity, tokenize

#: Annotation key prefix for per-intent difficulty scores in [0, 1].
DIFFICULTY_PREFIX = "_difficulty:"

#: Distinct instructions an :class:`IntentRegistry` remembers the resolution
#: of; the memo is dropped whole when full (a plan has a handful).
_RESOLVE_MEMO_CAP = 1024


@runtime_checkable
class AnnotatedRecord(Protocol):
    """Anything the oracle can judge: an id, annotations, and text."""

    @property
    def uid(self) -> str: ...

    @property
    def annotations(self) -> dict[str, Any]: ...

    def as_text(self) -> str: ...


@dataclass(frozen=True)
class Intent:
    """A canonical semantic task the datasets know the answer to."""

    key: str
    #: Keywords that signal this intent in a natural-language instruction.
    keywords: tuple[str, ...]
    description: str = ""

    def score(self, instruction_tokens: set[str]) -> float:
        """Fraction of this intent's keywords present in the instruction."""
        if not self.keywords:
            return 0.0
        matched = sum(1 for keyword in self.keywords if keyword in instruction_tokens)
        return matched / len(self.keywords)


class IntentRegistry:
    """Registry mapping natural-language instructions to intent keys."""

    #: Minimum keyword-match fraction for an intent to be considered resolved.
    RESOLVE_THRESHOLD = 0.6

    def __init__(self) -> None:
        self._intents: dict[str, Intent] = {}
        #: instruction -> resolved intent (``None`` = unresolved).  Resolution
        #: is a pure function of the instruction and the registered intents,
        #: so ``register`` and ``merge`` clear it.
        self._resolved: dict[str, Intent | None] = {}

    def register(self, key: str, keywords: Iterable[str], description: str = "") -> Intent:
        """Register (or overwrite) an intent under ``key``."""
        intent = Intent(
            key=key,
            keywords=tuple(keyword.lower() for keyword in keywords),
            description=description,
        )
        self._intents[key] = intent
        self._resolved.clear()
        return intent

    def merge(self, other: "IntentRegistry") -> None:
        """Add all intents from ``other`` (later registrations win)."""
        self._intents.update(other._intents)
        self._resolved.clear()

    def get(self, key: str) -> Intent | None:
        return self._intents.get(key)

    def resolve(self, instruction: str) -> Intent | None:
        """Return the best-matching intent for ``instruction``, if any.

        Scoring is keyword-match fraction; ties break toward intents with
        more keywords (more specific), then lexicographic key for stability.
        """
        try:
            return self._resolved[instruction]
        except KeyError:
            pass
        tokens = set(tokenize(instruction))
        best: Intent | None = None
        best_rank: tuple[float, int, str] | None = None
        for intent in self._intents.values():
            score = intent.score(tokens)
            if score < self.RESOLVE_THRESHOLD:
                continue
            rank = (score, len(intent.keywords), intent.key)
            # Key sorts *descending* via comparison below; we want the
            # lexicographically smallest key on ties, so invert with min().
            if best_rank is None or (rank[0], rank[1]) > (best_rank[0], best_rank[1]) or (
                (rank[0], rank[1]) == (best_rank[0], best_rank[1]) and rank[2] < best_rank[2]
            ):
                best, best_rank = intent, rank
        if len(self._resolved) >= _RESOLVE_MEMO_CAP:
            self._resolved.clear()
        self._resolved[instruction] = best
        return best

    def __len__(self) -> int:
        return len(self._intents)

    def keys(self) -> list[str]:
        return sorted(self._intents)


@dataclass
class JudgeResult:
    """Outcome of resolving a task against ground truth."""

    #: Ground-truth value, or None if the oracle could not resolve the task.
    truth: Any
    #: Resolved intent key ("" when unresolved).
    intent_key: str
    #: Difficulty of this (record, intent) pair in [0, 1].
    difficulty: float
    resolved: bool


class SemanticOracle:
    """Resolves natural-language tasks to ground truth on annotated records."""

    DEFAULT_DIFFICULTY = 0.5

    def __init__(self, registry: IntentRegistry | None = None) -> None:
        self.registry = registry or IntentRegistry()

    def judge_filter(self, instruction: str, record: AnnotatedRecord) -> JudgeResult:
        """Ground truth for "does ``record`` satisfy ``instruction``?"."""
        intent = self.registry.resolve(instruction)
        if intent is not None and intent.key in record.annotations:
            return JudgeResult(
                truth=bool(record.annotations[intent.key]),
                intent_key=intent.key,
                difficulty=self._difficulty(record, intent.key),
                resolved=True,
            )
        return self._heuristic_filter(instruction, record)

    def judge_join(
        self,
        instruction: str,
        left: AnnotatedRecord,
        right: AnnotatedRecord,
    ) -> JudgeResult:
        """Ground truth for "do ``left`` and ``right`` satisfy ``instruction``?".

        Equality-style joins ("the records discuss the same topic") resolve
        to an intent whose annotation holds a comparable value on both
        sides; truth is value equality.  When only one side carries the
        annotation the task is unresolvable and falls back to the lexical
        heuristic over the concatenated pair.
        """
        intent = self.registry.resolve(instruction)
        if (
            intent is not None
            and intent.key in left.annotations
            and intent.key in right.annotations
        ):
            return JudgeResult(
                truth=left.annotations[intent.key] == right.annotations[intent.key],
                intent_key=intent.key,
                difficulty=max(
                    self._difficulty(left, intent.key),
                    self._difficulty(right, intent.key),
                ),
                resolved=True,
            )
        merged_text = left.as_text() + "\n" + right.as_text()
        similarity = jaccard_similarity(instruction, merged_text)
        return JudgeResult(
            truth=similarity >= 0.08,
            intent_key="",
            difficulty=0.9,
            resolved=False,
        )

    def extract_value(self, instruction: str, record: AnnotatedRecord) -> JudgeResult:
        """Ground truth for "extract the value ``instruction`` asks for"."""
        intent = self.registry.resolve(instruction)
        if intent is not None and intent.key in record.annotations:
            return JudgeResult(
                truth=record.annotations[intent.key],
                intent_key=intent.key,
                difficulty=self._difficulty(record, intent.key),
                resolved=True,
            )
        return JudgeResult(
            truth=None,
            intent_key="",
            difficulty=self.DEFAULT_DIFFICULTY,
            resolved=False,
        )

    def _difficulty(self, record: AnnotatedRecord, intent_key: str) -> float:
        raw = record.annotations.get(DIFFICULTY_PREFIX + intent_key, self.DEFAULT_DIFFICULTY)
        return min(1.0, max(0.0, float(raw)))

    def _heuristic_filter(self, instruction: str, record: AnnotatedRecord) -> JudgeResult:
        """Fallback when no intent matches: lexical-overlap guess.

        Mirrors an LLM "doing its best" on an out-of-distribution predicate.
        The guess is marked unresolved so callers know quality is degraded.
        """
        similarity = jaccard_similarity(instruction, record.as_text())
        return JudgeResult(
            truth=similarity >= 0.08,
            intent_key="",
            difficulty=0.9,
            resolved=False,
        )
