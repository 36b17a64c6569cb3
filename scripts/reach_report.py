"""Reach report: every ``src/repro`` function is run by a workload.

The probe (``scripts/reach/sitecustomize.py``) records which functions the
gate's workload steps ran; this script lists every function ``src/repro``
defines and fails on

- a function no workload reached that is not exempt (a dunder, an
  ``@abstractmethod`` or a ``Protocol`` member) and not on the allow list;
- an allow-list entry a workload now reaches, or that names no function.

Usage::

    python scripts/reach_report.py <dir-the-probe-wrote>

The allow list (``scripts/reach_allow.txt``) only shrinks: its length is
pinned by :data:`ALLOW_LIST_LENGTH` (``tests/test_reach_report.py``), and a
reached entry fails the report until it is taken off.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ALLOW_LIST = ROOT / "scripts" / "reach_allow.txt"
#: Lower it whenever an entry leaves the allow list; never raise it.
ALLOW_LIST_LENGTH = 65

#: Why an unreached function may stay, one word each.
REASONS = {
    "null-object": "a no-op stand-in: its callers check ``enabled`` first",
    "composition": "a composition of reached features no step combines (ROADMAP item 2)",
    "full-size": "reached only by a full-size benchmark (ROADMAP item 4 decides it)",
    "prompt": "its description is part of an agent prompt: deleting it moves virtual dollars",
    "reference": "the tests' written-out reference for a reached definition",
    "error-path": "builds the typed error only an invalid input reaches",
    "declaration": "a base-class declaration the subclasses override",
    "edge-input": "reached only by an input shape no workload has",
    "test-only": "reached only by tests: reach it from a workload, move it to tests/ or delete it",
}


def definitions(src: Path = SRC) -> dict[tuple[str, int], str]:
    """``(path, first line) -> path::Qual.name`` for every function under
    ``src/repro`` that is not exempt.  The first line is the first
    decorator's, as a code object's ``co_firstlineno`` is."""
    found: dict[tuple[str, int], str] = {}
    for path in sorted((src / "repro").rglob("*.py")):
        relative = path.relative_to(src).as_posix()
        found.update(_functions(relative, path.read_text(encoding="utf-8")))
    return found


def _functions(relative: str, source: str) -> dict[tuple[str, int], str]:
    found = {}
    stack: list[tuple[ast.AST, str, bool]] = [(ast.parse(source, relative), "", False)]
    while stack:
        node, prefix, in_protocol = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                protocol = any(_name(base) == "Protocol" for base in child.bases)
                stack.append((child, f"{prefix}{child.name}.", protocol))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stack.append((child, f"{prefix}{child.name}.<locals>.", False))
                if not (_exempt(child) or in_protocol):
                    first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    found[relative, first] = f"{relative}::{prefix}{child.name}"
            else:
                stack.append((child, prefix, in_protocol))
    return found


def _name(node: ast.AST) -> str | None:
    return getattr(node, "attr", getattr(node, "id", None))


def _exempt(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    dunder = node.name.startswith("__") and node.name.endswith("__")
    return dunder or any(_name(d) == "abstractmethod" for d in node.decorator_list)


def reached(probe_dir: Path) -> set[tuple[str, int]]:
    """Every ``(path, first line)`` a ``*.reach`` file under ``probe_dir`` names."""
    rows = set()
    for file in probe_dir.glob("*.reach"):
        for line in file.read_text(encoding="utf-8").splitlines():
            path, _, first = line.rpartition(":")
            rows.add((path, int(first)))
    return rows


def load_allow(path: Path = ALLOW_LIST) -> dict[str, str]:
    """``function id -> reason`` from the allow list (``id  reason`` rows;
    ``#`` starts a comment)."""
    entries = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            function, reason = line.split()
            entries[function] = reason
    return entries


def report(
    functions: dict[tuple[str, int], str], hits: set[tuple[str, int]], allow: dict[str, str]
) -> list[str]:
    """What fails: unreached functions off the allow list, and allow-list
    entries that are reached, name no function or give an unknown reason."""
    unreached = {name for key, name in functions.items() if key not in hits}
    known = set(functions.values())
    problems = [f"unreached: {name}" for name in sorted(unreached - allow.keys())]
    for name, reason in sorted(allow.items()):
        if name not in known:
            problems.append(f"stale allow-list entry (no such function): {name}")
        elif name not in unreached:
            problems.append(f"stale allow-list entry (now reached, take it off): {name}")
        elif reason not in REASONS:
            problems.append(f"unknown reason {reason!r}: {name}")
    return problems


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__)
        return 2
    functions = definitions()
    hits = reached(Path(argv[0]))
    allow = load_allow()
    problems = report(functions, hits, allow)
    reached_count = sum(key in hits for key in functions)
    print(
        f"reach: {reached_count} of {len(functions)} src/repro functions run by a workload; "
        f"{len(allow)} allowed unreached (pinned {ALLOW_LIST_LENGTH})"
    )
    for problem in problems:
        print(f"  {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
