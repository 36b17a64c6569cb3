"""Machine-speed correction for the real-time ledger.

The sandbox's vCPU speed is not constant: for minutes at a time the same
pass takes up to 1.7x longer (neighbour load on the host; ``process_time``
moves with ``perf_counter``, so it is not scheduling).  No statistic over
raw seconds inside a 10-second run removes that.  Every timed region is
therefore bracketed by :func:`sample` — a fixed pure-Python kernel shaped
like the program's own work (small records, text rendering, tokenising,
digests, dict churn) but sharing no code with ``src/`` — and the harness
reports ``raw seconds / slowdown`` — seconds at reference speed — where
``slowdown`` is the kernel's time beside the region over :data:`REFERENCE_S`.
The raw value is kept beside every corrected one.  README.md has the measured
effect: ten-run quartile spreads of up to 47 % raw against 2-12 % corrected,
where the builder's driver refuses anything above 25 %.
"""

from __future__ import annotations

import hashlib
import re
import time
from statistics import median

#: Kernel seconds in a quiet phase of the box the first baseline was taken on.
#: A constant, so corrected times compare across runs and commits on one box;
#: on another box they are still self-consistent, but only ``raw`` is seconds.
REFERENCE_S = 0.0015

_WORD = re.compile(r"[a-z0-9]+")
_KEYWORDS = ("ticket", "urgent", "marked", "invoice", "total")


class _Row:
    __slots__ = ("uid", "fields", "notes")

    def __init__(self, uid: str, fields: dict, notes: dict) -> None:
        self.uid = uid
        self.fields = dict(fields)
        self.notes = dict(notes)

    def text(self) -> str:
        return " ".join(f"{key}: {value}" for key, value in sorted(self.fields.items()))


def kernel(rows: int = 120) -> int:
    made = [
        _Row(
            f"r{index}",
            {
                "title": f"outage-{index}",
                "body": f"Ticket {index} from acme about outage and invoice. "
                f"Priority {index % 4}, total ${index * 3.5:.2f}.",
                "priority": index % 4,
            },
            {"rank": index},
        )
        for index in range(rows)
    ]
    kept = []
    for row in made:
        tokens = {token for token in _WORD.findall(row.text().lower()) if len(token) > 2}
        score = sum(1 for keyword in _KEYWORDS if keyword in tokens) / len(_KEYWORDS)
        digest = hashlib.sha256(f"seed|{row.uid}|{score!r}".encode()).hexdigest()[:16]
        if int(digest, 16) % 3:
            kept.append(_Row(row.uid + ".c", {**row.fields, "score": score}, row.notes))
    return len(kept)


def sample(repeats: int = 3) -> float:
    """Kernel seconds right now (median of ``repeats`` back-to-back runs)."""
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        timings.append(time.perf_counter() - start)
    return median(timings)
