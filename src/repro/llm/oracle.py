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

import itertools
from dataclasses import dataclass
from typing import Any, Iterable, NamedTuple, Protocol, runtime_checkable

from repro.utils.text import jaccard_similarity, tokenize

#: Annotation key prefix for per-intent difficulty scores in [0, 1].
DIFFICULTY_PREFIX = "_difficulty:"

#: Distinct instructions an :class:`IntentRegistry` remembers the resolution
#: of; the memo is dropped whole when full (a plan has a handful).
_RESOLVE_MEMO_CAP = 1024

#: Registry versions: no two states of any two registries share one.
_VERSIONS = itertools.count()


@runtime_checkable
class AnnotatedRecord(Protocol):
    """Anything the oracle can judge: an id, annotations, and text.

    ``text_tokens()`` is the approximate token count of ``as_text()``, the
    count the simulated LLM prices the record's share of a prompt with.
    """

    @property
    def uid(self) -> str: ...

    @property
    def annotations(self) -> dict[str, Any]: ...

    def as_text(self) -> str: ...

    def text_tokens(self) -> int: ...


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
        #: Changes whenever a resolution may (``register``, ``merge``).
        self.version = next(_VERSIONS)

    def register(self, key: str, keywords: Iterable[str], description: str = "") -> Intent:
        """Register (or overwrite) an intent under ``key``."""
        intent = Intent(
            key=key,
            keywords=tuple(keyword.lower() for keyword in keywords),
            description=description,
        )
        self._intents[key] = intent
        self._resolved.clear()
        self.version = next(_VERSIONS)
        return intent

    def merge(self, other: "IntentRegistry") -> None:
        """Add all intents from ``other`` (later registrations win)."""
        self._intents.update(other._intents)
        self._resolved.clear()
        self.version = next(_VERSIONS)

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


class JudgeResult(NamedTuple):
    """Outcome of resolving a task against ground truth (an immutable tuple,
    built positionally on the per-record path)."""

    #: Ground-truth value, or None if the oracle could not resolve the task.
    truth: Any
    #: Resolved intent key ("" when unresolved).
    intent_key: str
    #: Difficulty of this (record, intent) pair in [0, 1].
    difficulty: float
    resolved: bool


#: ``_new(JudgeResult, fields)``: the tuple without a Python-level call.
_new = tuple.__new__


class SemanticOracle:
    """Resolves natural-language tasks to ground truth on annotated records."""

    DEFAULT_DIFFICULTY = 0.5

    def __init__(self, registry: IntentRegistry | None = None) -> None:
        self.registry = registry if registry is not None else IntentRegistry()

    def judge(
        self, intent: Intent | None, record: AnnotatedRecord, difficulty_key: str = ""
    ) -> JudgeResult | None:
        """``intent``'s ground truth on ``record`` — the raw annotation, the
        intent key and the pair's difficulty — or None when there is no
        intent or ``record`` does not carry it.  ``difficulty_key`` is
        ``DIFFICULTY_PREFIX + intent.key``, given by a caller that judges
        many records against one intent."""
        if intent is None:
            return None
        key, annotations = intent.key, record.annotations
        if key not in annotations:
            return None
        difficulty = float(
            annotations.get(difficulty_key or DIFFICULTY_PREFIX + key, self.DEFAULT_DIFFICULTY)
        )
        # min(1.0, max(0.0, difficulty)), NaN to 0.0 included, without the calls.
        difficulty = (difficulty if difficulty < 1.0 else 1.0) if difficulty > 0.0 else 0.0
        return _new(JudgeResult, (annotations[key], key, difficulty, True))

    def judge_filter(self, instruction: str, record: AnnotatedRecord) -> JudgeResult:
        """Ground truth for "does ``record`` satisfy ``instruction``?"."""
        judged = self.judge(self.registry.resolve(instruction), record)
        if judged is None:
            return self._heuristic_filter(instruction, record)
        return judged._replace(truth=bool(judged.truth))

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
        judged, other = self.judge(intent, left), self.judge(intent, right)
        if judged is not None and other is not None:
            return JudgeResult(
                judged.truth == other.truth, judged.intent_key,
                max(judged.difficulty, other.difficulty), True,
            )
        merged_text = left.as_text() + "\n" + right.as_text()
        similarity = jaccard_similarity(instruction, merged_text)
        return JudgeResult(similarity >= 0.08, "", 0.9, False)

    def extract_value(self, instruction: str, record: AnnotatedRecord) -> JudgeResult:
        """Ground truth for "extract the value ``instruction`` asks for"."""
        return self.judge(self.registry.resolve(instruction), record) or UNRESOLVED

    def _heuristic_filter(self, instruction: str, record: AnnotatedRecord) -> JudgeResult:
        """Fallback when no intent matches: lexical-overlap guess.

        Mirrors an LLM "doing its best" on an out-of-distribution predicate.
        The guess is marked unresolved so callers know quality is degraded.
        """
        similarity = jaccard_similarity(instruction, record.as_text())
        return JudgeResult(similarity >= 0.08, "", 0.9, False)


#: An extraction the oracle cannot resolve: no truth, median difficulty.
UNRESOLVED = JudgeResult(None, "", SemanticOracle.DEFAULT_DIFFICULTY, False)
