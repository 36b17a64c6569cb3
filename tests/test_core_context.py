"""Tests for the Context abstraction."""

import pytest

from repro.agents.tools import Tool, ToolRegistry
from repro.core.context import Context, KeyIndex, VectorIndex
from repro.data.records import DataRecord
from repro.data.schemas import Field, Schema
from repro.errors import ContextError
from repro.llm.simulated import SimulatedLLM

SCHEMA = Schema([Field("name", str), Field("text", str)])


def _records():
    topics = [
        ("doc0", "identity theft statistics for the nation"),
        ("doc1", "fraud reports by category"),
        ("doc2", "birdwatching raptors and condors"),
        ("doc3", "identity theft reports by state"),
    ]
    return [
        DataRecord({"name": name, "text": text}, uid=name)
        for name, text in topics
    ]


def _context(**kwargs):
    return Context(_records(), SCHEMA, desc="a tiny demo lake", **kwargs)


def test_context_is_a_dataset():
    context = _context()
    plan = context.sem_filter("anything").plan()
    assert plan.operators()[0].source is context.source()


def test_records_and_len():
    context = _context()
    assert len(context) == 4
    assert len(context.records()) == 4


def test_vector_search_builds_lazily_and_ranks():
    context = _context()
    llm = SimulatedLLM(seed=0)
    hits = context.vector_search("identity theft statistics", k=2, llm=llm)
    assert len(hits) == 2
    assert hits[0][0]["name"] in ("doc0", "doc3")
    assert hits[0][1] >= hits[1][1]


def test_index_with_key_field_lookup():
    context = _context().index(key_field="name")
    assert context.lookup("name", "doc2")["text"].startswith("birdwatching")
    assert context.lookup("name", "missing") is None


def test_lookup_builds_the_key_index_on_first_use():
    context = _context()
    assert context.lookup("name", "doc0")["name"] == "doc0"
    assert context.key_index("name") is context.key_index("name")
    assert sorted(context.key_index("name").keys()) == ["doc0", "doc1", "doc2", "doc3"]


def test_index_prebuild_with_llm():
    llm = SimulatedLLM(seed=0)
    context = _context().index(llm=llm)
    assert context._vector_index is not None
    cost_after_build = llm.tracker.total().cost_usd
    context.vector_search("fraud", 1, llm=llm)
    # Only the query embedding is charged; corpus embeddings were cached.
    assert llm.tracker.total().calls >= 5


def test_index_restricted_text_fields():
    index = VectorIndex(text_fields=["name"])
    llm = SimulatedLLM(seed=0)
    index.build(_records(), llm)
    hits = index.search("doc2", 1, llm)
    assert hits[0][0]["name"] == "doc2"


def test_vector_index_search_before_build_raises():
    with pytest.raises(ContextError):
        VectorIndex().search("q", 1, SimulatedLLM(seed=0))


def test_key_index_standalone():
    index = KeyIndex("name")
    index.build(_records())
    assert index.lookup("doc1")["name"] == "doc1"
    assert sorted(index.keys()) == ["doc0", "doc1", "doc2", "doc3"]


def test_add_tool_available_on_context():
    context = _context()
    context.add_tool(Tool("shout", "uppercases", lambda s: s.upper()))
    assert "shout" in context.tools


def test_derived_context_lineage_and_desc():
    parent = _context(name="parent")
    child = parent.derived("enriched description", records=_records()[:2])
    assert child.parent is parent
    assert len(child) == 2
    assert child.desc == "enriched description"
    assert [c.name for c in child.lineage()][-1] == "parent"


def test_derived_shares_tools():
    parent = _context()
    parent.add_tool(Tool("t", "d", lambda: 1))
    child = parent.derived("new desc")
    assert "t" in child.tools


def test_context_names_unique_by_default():
    assert _context().name != _context().name


def test_an_empty_tool_registry_passed_in_is_the_one_used():
    # ToolRegistry defines __len__, so an empty one is falsy; a tool added
    # to it after construction must still be the context's.
    tools = ToolRegistry()
    context = _context(tools=tools)
    assert context.tools is tools
    tools.add(Tool("ping", "answers pong", lambda: "pong"))
    assert "ping" in context.tools
