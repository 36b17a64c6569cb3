"""Tools: named callables exposed to agents.

Tools are plain Python functions with a name and a description; the agent
injects them into the sandbox namespace so generated code can call them
directly (the SmolAgents convention).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import SandboxError, ToolError


@dataclass
class Tool:
    """A callable exposed to agent code."""

    name: str
    description: str
    fn: Callable[..., Any]
    #: Number of invocations in the current episode (reset per run).
    calls: int = field(default=0, compare=False)
    #: Set by :meth:`ToolRegistry.instrument`; wraps invocations in spans.
    tracer: Any = field(default=None, compare=False, repr=False)

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        self.calls += 1
        if self.tracer is not None and self.tracer.enabled:
            with self.tracer.span(f"tool:{self.name}", kind="tool-call") as span:
                try:
                    result = self.fn(*args, **kwargs)
                except (ToolError, SandboxError):
                    span.attributes["error"] = True
                    raise
                except Exception as exc:
                    span.attributes["error"] = True
                    raise ToolError(f"tool {self.name!r} failed: {exc}") from exc
            return result
        try:
            return self.fn(*args, **kwargs)
        except (ToolError, SandboxError):
            raise
        except Exception as exc:
            raise ToolError(f"tool {self.name!r} failed: {exc}") from exc

    def signature(self) -> str:
        try:
            return f"{self.name}{inspect.signature(self.fn)}"
        except (TypeError, ValueError):
            return f"{self.name}(...)"


class ToolRegistry:
    """An ordered collection of tools with unique names."""

    def __init__(self, tools: list[Tool] | None = None) -> None:
        self._tools: dict[str, Tool] = {}
        for tool in tools or []:
            self.add(tool)

    def add(self, tool: Tool) -> None:
        if tool.name in self._tools:
            raise ToolError(f"duplicate tool name {tool.name!r}")
        self._tools[tool.name] = tool

    def get(self, name: str) -> Tool:
        try:
            return self._tools[name]
        except KeyError:
            raise ToolError(
                f"no tool named {name!r}; available: {sorted(self._tools)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._tools

    def names(self) -> list[str]:
        return list(self._tools)

    def as_namespace(self) -> dict[str, Callable]:
        """Mapping injected into the sandbox."""
        return dict(self._tools)

    def describe(self) -> str:
        lines = []
        for tool in self._tools.values():
            lines.append(f"- {tool.signature()}: {tool.description}")
        return "\n".join(lines)

    def reset_counters(self) -> None:
        for tool in self._tools.values():
            tool.calls = 0

    def instrument(self, tracer: Any) -> None:
        """Attach ``tracer`` so every tool invocation emits a tool-call span."""
        for tool in self._tools.values():
            tool.tracer = tracer

    def __len__(self) -> int:
        return len(self._tools)
