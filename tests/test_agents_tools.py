"""Tests for tools and the tool registry."""

import pytest

from repro.agents.tools import Tool, ToolRegistry
from repro.errors import ToolError


def test_tool_call_counts():
    tool = Tool("t", "desc", lambda: "ok")
    assert tool() == "ok"
    tool()
    assert tool.calls == 2


def test_tool_wraps_exceptions():
    tool = Tool("boom", "desc", lambda: 1 / 0)
    with pytest.raises(ToolError) as excinfo:
        tool()
    assert "boom" in str(excinfo.value)


def test_tool_passes_through_tool_errors():
    def fails():
        raise ToolError("original")

    with pytest.raises(ToolError, match="original"):
        Tool("t", "d", fails)()


def test_signature_rendered():
    tool = Tool("add", "d", lambda a, b=2: a + b)
    assert tool.signature().startswith("add(")


def test_registry_rejects_duplicates():
    registry = ToolRegistry([Tool("a", "d", lambda: 1)])
    with pytest.raises(ToolError):
        registry.add(Tool("a", "d", lambda: 2))


def test_registry_get_unknown_lists_available():
    registry = ToolRegistry([Tool("known", "d", lambda: 1)])
    with pytest.raises(ToolError) as excinfo:
        registry.get("unknown")
    assert "known" in str(excinfo.value)


def test_registry_namespace_and_describe():
    registry = ToolRegistry([Tool("alpha", "does alpha things", lambda: 1)])
    namespace = registry.as_namespace()
    assert namespace["alpha"]() == 1
    assert "does alpha things" in registry.describe()


def test_registry_reset_counters():
    tool = Tool("t", "d", lambda: 1)
    registry = ToolRegistry([tool])
    tool()
    registry.reset_counters()
    assert tool.calls == 0


def test_registry_len_and_names():
    registry = ToolRegistry([Tool("a", "d", lambda: 1), Tool("b", "d", lambda: 2)])
    assert len(registry) == 2
    assert registry.names() == ["a", "b"]
    assert "a" in registry
