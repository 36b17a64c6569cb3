"""Real-time ledger: the repo's performance benchmark (see README.md).

Six workloads, two ledgers (real seconds/memory and virtual dollars/seconds)
and a per-layer trace built from benchmark-owned timing wrappers.  Nothing
here edits ``src/``; the program under test is imported from ``<root>/src``.
"""

from __future__ import annotations

import sys
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parents[1]
SRC = ROOT / "src"
OUT_DIR = PERF_DIR / "out"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
EXPECTED_JSON = PERF_DIR / "expected.json"


def add_src_to_path() -> None:
    """Make ``repro`` importable from this checkout's ``src/`` (and only it)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"benchmarks.perf: no program to measure — {SRC / 'repro'} is missing"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
