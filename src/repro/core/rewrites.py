"""Logical optimizations for search/compute operators (paper Section 3).

The paper sketches three logical optimizations and marks them future work;
we implement working versions of each:

- **Splitting** (DocETL-style): an over-complex compute/search directive is
  decomposed into smaller sequential operations: deterministic
  sentence/conjunction analysis decides where to cut, and a single
  directive stays whole.
- **Merging**: a compute instruction that is a near-duplicate of one
  already answered against the same Context reuses that answer:
  :meth:`AnalyticsRuntime.answer` looks it up in the runtime's one
  similarity catalog.
- **Dynamic search insertion**: when a compute operator's answer fails
  validation, the optimizer inserts a logical ``search`` before it and
  retries the compute against the enriched Context.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Any, Callable

from repro.core.agent_policies import DescGuidedComputePolicy
from repro.core.context import Context
from repro.core.operators import ComputeResult

if TYPE_CHECKING:
    from repro.core.runtime import AnalyticsRuntime

#: Markers that separate sub-directives inside one instruction.
_SEQUENCE_MARKERS = ("; then ", ". then ", " and then ", "; ")

_SENTENCE_RE = re.compile(r"(?<=[.!?])\s+(?=[A-Z])")


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
