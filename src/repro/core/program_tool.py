"""The optimized-semantic-program tool, plus standard Context tools.

``run_semantic_program`` is the tool that makes the paper's compute/search
operators more than plain CodeAgents: it compiles a natural-language
instruction into a semantic-operator program over the Context, hands the
plan to the cost-based optimizer, executes it, registers the materialized
output as a new Context, and returns plain dictionaries the agent's Python
can manipulate.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.agents.tools import Tool, ToolRegistry
from repro.core.context import Context
from repro.core.synthesis import synthesize_program
from repro.data.schemas import Field
from repro.errors import ToolError
from repro.sem.dataset import Dataset

if TYPE_CHECKING:
    from repro.core.runtime import AnalyticsRuntime


def default_key_field(context: Context) -> str:
    """Field used to identify records in tool results ('filename' if present)."""
    names = context.schema.field_names()
    if "filename" in names:
        return "filename"
    return names[0] if names else "uid"


def build_program_tool(
    context: Context, runtime: "AnalyticsRuntime", key_field: str | None = None
) -> Tool:
    """The agent tool that writes & executes optimized semantic programs."""
    key = key_field or default_key_field(context)

    def run_semantic_program(instruction: str) -> list[dict]:
        """Execute a natural-language instruction as an optimized semantic-operator program."""
        spec = synthesize_program(instruction)
        if not spec.filters and not spec.extracts:
            raise ToolError(f"could not synthesize a program from {instruction!r}")

        base, reuse_note = context, ""
        if runtime.reuse_contexts:
            # Physical optimization (paper §3): read a narrower cached Context.
            base, note = runtime.context_manager.narrow(context, instruction)
            reuse_note = f" (reused {note})" if note else ""

        dataset: Dataset = Dataset.from_source(base.source())
        if spec.retrieve_query:
            dataset = dataset.retrieve(spec.retrieve_query, spec.retrieve_k)
        for filter_instruction in spec.filters:
            dataset = dataset.sem_filter(filter_instruction)
        if spec.extracts:
            dataset = dataset.sem_map(
                [
                    (Field(name, object, instr), instr)
                    for name, instr in spec.extracts
                ]
            )

        result = dataset.run(runtime.program_config(tag="program"))
        derived = context.derived(
            description=(
                f"Materialized by semantic program for: {instruction}"
                f"{reuse_note}. {len(result.records)} matching record(s)."
            ),
            records=result.records,
        )
        runtime.context_manager.register(derived, instruction)
        runtime.last_program_result = result

        output = []
        for record in result.records:
            row = {key: record.get(key)}
            for name, _ in spec.extracts:
                row[name] = record.get(name)
            output.append(row)
        return output

    return Tool(
        "run_semantic_program",
        "Execute a natural-language instruction as an optimized "
        "semantic-operator program over the context; returns matching "
        "records as dictionaries.",
        run_semantic_program,
    )


def build_context_tools(
    context: Context, runtime: "AnalyticsRuntime", key_field: str | None = None
) -> ToolRegistry:
    """Standard tool set the compute/search agents receive.

    Includes the Context's access methods (iteration keys, point reads,
    vector search), any custom tools registered on the Context, and the
    optimized-program tool.
    """
    key = key_field or default_key_field(context)
    by_key = {record.get(key): record for record in context.records()}

    def list_items() -> list[str]:
        """List the keys of all items in the context."""
        return sorted(str(value) for value in by_key)

    def get_item(item_key: str) -> str:
        """Read one item's full text by key."""
        record = by_key.get(item_key)
        if record is None:
            raise ToolError(f"no item with key {item_key!r}")
        return record.as_text()

    def vector_search(query: str, k: int = 5) -> list[dict]:
        """Vector-search the context; returns [{key, score}] for the top k."""
        hits = context.vector_search(query, k, llm=runtime.llm)
        return [
            {"key": record.get(key), "score": round(score, 4)}
            for record, score in hits
        ]

    registry = ToolRegistry(
        [
            Tool("list_items", "List the keys of all items in the context.", list_items),
            Tool("get_item", "Read one item's full text by key.", get_item),
            Tool(
                "vector_search",
                "Vector-search the context; returns [{key, score}] for the top k.",
                vector_search,
            ),
        ]
    )
    for name in context.tools.names():
        registry.add(context.tools.get(name))
    registry.add(build_program_tool(context, runtime, key_field=key))
    return registry
