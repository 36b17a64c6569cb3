"""Logical optimizations for search/compute operators (paper Section 3).

The paper sketches three logical optimizations and marks them future work;
we implement working versions of each:

- **Splitting** (DocETL-style): an over-complex compute/search directive is
  decomposed into smaller sequential operations.  An (simulated) LLM judge
  decides *whether* to split; deterministic sentence/conjunction analysis
  decides *where*.
- **Merging**: a compute instruction that is a near-duplicate of one
  already answered against the same Context reuses that answer, through
  the runtime's one similarity catalog.
- **Dynamic search insertion**: when a compute operator's answer fails
  validation, the optimizer inserts a logical ``search`` before it and
  retries the compute against the enriched Context.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.core.agent_policies import DescGuidedComputePolicy
from repro.core.context import Context
from repro.core.operators import ComputeResult
from repro.llm.models import DEFAULT_MODEL

if TYPE_CHECKING:
    from repro.core.runtime import AnalyticsRuntime

#: Markers that separate sub-directives inside one instruction.
_SEQUENCE_MARKERS = ("; then ", ". then ", " and then ", "; ")

_SENTENCE_RE = re.compile(r"(?<=[.!?])\s+(?=[A-Z])")


def should_split(instruction: str, runtime: "AnalyticsRuntime | None" = None) -> bool:
    """Judge whether ``instruction`` should be decomposed.

    When a runtime is supplied, a short LLM-judge call is charged (as
    DocETL pays for its rewrite judges); the decision itself is the
    deterministic part of the judge: multiple sentences or sequence
    markers mean the directive bundles several operations.
    """
    if runtime is not None:
        runtime.llm.complete(
            "Decide whether this analytics directive should be split into "
            f"smaller operations: {instruction}",
            model=DEFAULT_MODEL,
            max_output_tokens=8,
            tag="rewrite:judge",
            expected_output="yes" if _split_points(instruction) > 0 else "no",
        )
    return _split_points(instruction) > 0


def _split_points(instruction: str) -> int:
    lowered = instruction.lower()
    marker_hits = sum(lowered.count(marker) for marker in _SEQUENCE_MARKERS)
    sentences = [s for s in _SENTENCE_RE.split(instruction.strip()) if s.strip()]
    return marker_hits + max(0, len(sentences) - 1)


def split_instruction(instruction: str) -> list[str]:
    """Split a compound instruction into sequential sub-instructions."""
    pieces = [instruction.strip()]
    for marker in _SEQUENCE_MARKERS:
        next_pieces: list[str] = []
        for piece in pieces:
            next_pieces.extend(
                part.strip() for part in re.split(re.escape(marker), piece, flags=re.IGNORECASE)
            )
        pieces = next_pieces
    final: list[str] = []
    for piece in pieces:
        final.extend(s.strip() for s in _SENTENCE_RE.split(piece) if s.strip())
    return [piece if piece.endswith(".") else piece + "." for piece in final if piece]


def compute_batch(
    context: Context,
    instructions: Sequence[str],
    runtime: "AnalyticsRuntime",
) -> list[ComputeResult]:
    """Execute a batch of compute instructions with merge optimization.

    Every instruction goes through :meth:`AnalyticsRuntime.answer`, so a
    near-duplicate of one already answered against the same Context is
    served by the similarity catalog at zero marginal LLM cost.  Returns
    one result per input instruction, in order.
    """
    return [runtime.answer(context, instruction) for instruction in instructions]


def compute_with_recovery(
    context: Context,
    instruction: str,
    runtime: "AnalyticsRuntime",
    is_valid: Callable[[Any], bool] | None = None,
) -> tuple[ComputeResult, bool]:
    """Compute with dynamic search insertion on failure (paper §3).

    Runs the compute operator; if its answer fails ``is_valid`` (default:
    answer is not None), a logical ``search`` is inserted to enrich the
    Context and the compute is retried with a description-guided policy
    against the enriched Context.  Returns ``(result, recovered)`` where
    ``recovered`` says whether the retry path ran.
    """
    validator = is_valid or (lambda answer: answer is not None)
    result = runtime.compute(context, instruction)
    if validator(result.answer):
        return result, False

    enriched = runtime.search(context, instruction).output_context
    retry = runtime.compute(
        enriched,
        instruction,
        policy=DescGuidedComputePolicy(context_desc=enriched.desc),
    )
    retry.cost_usd += result.cost_usd
    retry.time_s += result.time_s
    return retry, True
