"""The ``CodeAgent+`` policy: semantic operators as tools, used naively.

This reproduces the paper's second baseline: an agent that *can* invoke
semantic filters and maps, which fixes the recall problem (every record is
read by an LLM), but uses them inefficiently — it maps every record before
filtering and runs each filter over the full record set "without checking
the output of the first semantic filter before executing the subsequent
one(s)."
"""

from __future__ import annotations

import json

from repro.agents.policies.base import ScriptedPolicy
from repro.agents.tools import ToolRegistry
from repro.agents.trace import AgentTrace
from repro.errors import ConfigurationError


class SemanticToolsCodeAgentPolicy(ScriptedPolicy):
    """Scripted CodeAgent+ behaviour.

    Parameters
    ----------
    filters:
        Natural-language filter instructions, applied **each over the full
        dataset** (the observed inefficiency).
    maps:
        ``(output_name, instruction)`` extraction pairs, applied over the
        full dataset *before* any filtering (the other inefficiency).
    """

    #: Files whose head the first step prints.
    PEEK_FILES = 2

    def __init__(self, filters: list[str], maps: list[tuple[str, str]]) -> None:
        if not filters:
            raise ConfigurationError("CodeAgent+ policy needs at least one filter instruction")
        self.filters = list(filters)
        self.maps = list(maps)

    def step_0(self, task: str, trace: AgentTrace, tools: ToolRegistry) -> str:
        return (
            "import json\n"
            "files = list_files()\n"
            "print(len(files), 'files')\n"
            f"for f in files[:{self.PEEK_FILES}]:\n"
            "    print('----', f)\n"
            "    print(read_file(f)[:600])\n"
        )

    def step_1(self, task: str, trace: AgentTrace, tools: ToolRegistry) -> str:
        lines = ["maps = {}"]
        for name, instruction in self.maps:
            lines.append(f"maps[{name!r}] = sem_map({instruction!r})")
        lines.append("print('extracted fields:', list(maps))")
        return "\n".join(lines) + "\n"

    def step_2(self, task: str, trace: AgentTrace, tools: ToolRegistry) -> str:
        return (
            f"matches_0 = sem_filter({self.filters[0]!r})\n"
            "print(len(matches_0), 'matches for filter 0')\n"
        )

    def step_3(self, task: str, trace: AgentTrace, tools: ToolRegistry) -> str:
        if len(self.filters) < 2:
            return self._final_code(n_filters=1)
        # Full scan again -- not restricted to matches_0.
        return (
            f"matches_1 = sem_filter({self.filters[1]!r})\n"
            "print(len(matches_1), 'matches for filter 1')\n"
        )

    def step_4(self, task: str, trace: AgentTrace, tools: ToolRegistry) -> str:
        return self._final_code(n_filters=min(2, len(self.filters)))

    def _final_code(self, n_filters: int) -> str:
        if n_filters == 1:
            keep_expr = "matches_0"
        else:
            keep_expr = "[k for k in matches_0 if k in set(matches_1)]"
        map_items = ", ".join(
            f"{name!r}: maps[{name!r}].get(k)" for name, _ in self.maps
        )
        record_expr = "{'key': k" + (", " + map_items if map_items else "") + "}"
        return (
            f"keep = {keep_expr}\n"
            f"final_answer([{record_expr} for k in keep])\n"
        )
