"""Sandboxed Python interpreter for CodeAgent steps.

Code written by agents executes here with:

- **AST validation**: only a safe subset of Python parses through
  (no attribute access to underscored names, no class definitions, imports
  restricted to an allowlist of stdlib modules).  ``str.format`` and
  ``format_map`` are refused too: their ``{0.attr}`` fields read attributes
  at run time, out of the check's sight, while an f-string's fields are AST
  nodes the check walks;
- **restricted builtins**: a fixed allowlist, no ``open``/``eval``/
  ``__import__``;
- **a step budget**: validation compiles a step counter into the agent's
  own code (one tick per executed statement, comprehension item and lambda
  call), so runaway agent loops abort while tools run untraced;
- **captured stdout**: ``print`` output becomes the agent's observation.

The namespace persists across steps of one agent episode, as in SmolAgents'
CodeAgent, so step 2 can use variables defined in step 1.

A program text is validated and compiled once per process: validation is a
pure function of the text, a code object is immutable, and the step tick is
looked up in each execution's own globals, so a memo hit still runs in its
sandbox's namespace under that execution's own budget.  Only programs that
compiled are kept; a rejected one is checked again on every execution.
"""

from __future__ import annotations

import ast
import collections
import contextlib
import csv
import io
import json
import math
import re
import statistics
import types
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import SandboxSecurityError, SandboxTimeoutError

#: Modules agent code may import.
ALLOWED_MODULES = {
    "re": re,
    "json": json,
    "math": math,
    "csv": csv,
    "io": io,
    "statistics": statistics,
    "collections": collections,
}

_ALLOWED_BUILTINS = {
    "print": print,
    "len": len,
    "range": range,
    "enumerate": enumerate,
    "sorted": sorted,
    "min": min,
    "max": max,
    "sum": sum,
    "abs": abs,
    "round": round,
    "int": int,
    "float": float,
    "str": str,
    "bool": bool,
    "list": list,
    "dict": dict,
    "set": set,
    "tuple": tuple,
    "zip": zip,
    "map": map,
    "filter": filter,
    "any": any,
    "all": all,
    "repr": repr,
    "reversed": reversed,
    "isinstance": isinstance,
    "Exception": Exception,
    "ValueError": ValueError,
    "KeyError": KeyError,
    "TypeError": TypeError,
    "ZeroDivisionError": ZeroDivisionError,
}
# __import__ is appended at module bottom once _safe_import exists.

def _safe_import(name, globals=None, locals=None, fromlist=(), level=0):  # noqa: A002
    """Import hook restricted to the allowlist (AST validation backstop)."""
    root = name.split(".")[0]
    if root not in ALLOWED_MODULES:
        raise SandboxSecurityError(
            f"import of {root!r} is not allowed; allowed: {sorted(ALLOWED_MODULES)}"
        )
    return ALLOWED_MODULES[root]


#: Metered agent code calls this once per step. It is not an identifier, so
#: no agent source can reference, bind or shadow it.
_STEP = "<step>"


def _tick(at: ast.AST) -> ast.Call:
    """A ``<step>()`` call carrying ``at``'s source location."""
    name = ast.copy_location(ast.Name(_STEP, ast.Load()), at)
    return ast.copy_location(ast.Call(name, [], []), at)


#: Attributes that hand a string to ``str.format``, whose ``{0.attr}`` fields
#: are looked up at run time, where the underscore rule cannot see them.
_FORBIDDEN_ATTRIBUTES = frozenset({"format", "format_map"})

#: Program texts whose code objects are kept; the memo is dropped whole when
#: full.
_COMPILED_CAP = 1024

#: program text -> its validated, metered code object, shared by every
#: :class:`Sandbox` in the process.
_COMPILED: dict[str, types.CodeType] = {}

_FORBIDDEN_NODES = (
    ast.ClassDef,
    ast.AsyncFunctionDef,
    ast.AsyncFor,
    ast.AsyncWith,
    ast.Await,
    ast.Global,
    ast.Nonlocal,
)


class FinalAnswerSignal(Exception):
    """Raised by the injected ``final_answer`` tool to end an episode."""

    def __init__(self, value: Any) -> None:
        super().__init__("final answer")
        self.value = value


@dataclass
class SandboxResult:
    """Outcome of executing one code block."""

    stdout: str
    error: str | None = None
    final_answer: Any = None
    finished: bool = False


def validate_code(code: str) -> ast.Module:
    """Parse, security-check and meter ``code``; raises on violations.

    A ``<step>()`` tick goes before every statement, first in every
    comprehension's ``ifs`` (a dropped item counts too) and ahead of every
    lambda body. ``ast.walk`` queues a node's children before yielding it,
    so no tick is itself checked.
    """
    try:
        tree = ast.parse(code)
    except SyntaxError as exc:
        raise SandboxSecurityError(f"syntax error in agent code: {exc}") from exc
    for node in ast.walk(tree):
        if isinstance(node, _FORBIDDEN_NODES):
            raise SandboxSecurityError(
                f"forbidden construct in agent code: {type(node).__name__}"
            )
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            module = node.module if isinstance(node, ast.ImportFrom) else None
            names = [module] if module else [alias.name for alias in node.names]
            for name in names:
                root = (name or "").split(".")[0]
                if root not in ALLOWED_MODULES:
                    raise SandboxSecurityError(
                        f"import of {root!r} is not allowed; "
                        f"allowed modules: {sorted(ALLOWED_MODULES)}"
                    )
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            raise SandboxSecurityError(
                f"access to underscored attribute {node.attr!r} is not allowed"
            )
        if isinstance(node, ast.Attribute) and node.attr in _FORBIDDEN_ATTRIBUTES:
            raise SandboxSecurityError(
                f"access to {node.attr!r} is not allowed: its format fields read "
                f"attributes unchecked at run time; use an f-string"
            )
        if isinstance(node, ast.Name) and node.id.startswith("__"):
            raise SandboxSecurityError(
                f"use of dunder name {node.id!r} is not allowed"
            )
        for field in ("body", "orelse", "finalbody"):
            stmts = getattr(node, field, None)
            if isinstance(stmts, list):
                ticked = (ast.copy_location(ast.Expr(_tick(stmt)), stmt) for stmt in stmts)
                setattr(node, field, [part for pair in zip(ticked, stmts) for part in pair])
        if isinstance(node, ast.comprehension):
            node.ifs.insert(0, _tick(node.target))
        elif isinstance(node, ast.Lambda):
            tick_and = ast.BoolOp(ast.And(), [_tick(node.body), node.body])
            node.body = ast.copy_location(tick_and, node.body)
    return tree


class Sandbox:
    """Executes validated agent code with a persistent namespace; ``max_lines``
    bounds the statements, comprehension items and lambda calls one step of
    agent code executes (tools are never metered)."""

    def __init__(self, tools: dict[str, Callable] | None = None, max_lines: int = 200_000) -> None:
        self.max_lines = max_lines
        self.namespace: dict[str, Any] = {}
        self.namespace.update(ALLOWED_MODULES)
        if tools:
            self.namespace.update(tools)
        self.namespace["final_answer"] = _final_answer

    def execute(self, code: str) -> SandboxResult:
        """Run ``code``; never raises — failures land in ``result.error``."""
        compiled = _COMPILED.get(code)
        if compiled is None:
            try:
                # Some constructs parse but fail at compile time (e.g. a bare
                # starred expression), so compilation stays inside the guard.
                compiled = compile(validate_code(code), filename="<agent>", mode="exec")
            except SandboxSecurityError as exc:
                return SandboxResult(stdout="", error=str(exc))
            except (SyntaxError, ValueError) as exc:
                return SandboxResult(stdout="", error=f"syntax error in agent code: {exc}")
            if len(_COMPILED) >= _COMPILED_CAP:
                _COMPILED.clear()
            _COMPILED[code] = compiled
        globals_dict = self.namespace
        globals_dict["__builtins__"] = dict(_ALLOWED_BUILTINS)

        lines = 0

        def step() -> bool:
            # Past the budget every tick raises, so a caught error cannot resume.
            nonlocal lines
            lines += 1
            if lines > self.max_lines:
                raise SandboxTimeoutError(
                    f"agent code exceeded the step budget of {self.max_lines} lines"
                )
            return True

        globals_dict[_STEP] = step
        buffer = io.StringIO()
        try:
            with contextlib.redirect_stdout(buffer):
                exec(compiled, globals_dict)  # noqa: S102 - sandboxed
        except FinalAnswerSignal as signal:
            return SandboxResult(
                stdout=buffer.getvalue(), final_answer=signal.value, finished=True
            )
        except SandboxTimeoutError as exc:
            return SandboxResult(stdout=buffer.getvalue(), error=str(exc))
        except Exception as exc:  # agent code may raise anything
            return SandboxResult(
                stdout=buffer.getvalue(),
                error=f"{type(exc).__name__}: {exc}",
            )
        return SandboxResult(stdout=buffer.getvalue())


def _final_answer(value: Any) -> None:
    raise FinalAnswerSignal(value)


_ALLOWED_BUILTINS["__import__"] = _safe_import
