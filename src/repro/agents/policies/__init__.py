"""Agent policies: scripted stand-ins for LLM code generation."""

from repro.agents.policies.base import AgentPolicy, ScriptedPolicy
from repro.agents.policies.deep_research import (
    EnronCodeAgentPolicy,
    KramabenchCodeAgentPolicy,
)
from repro.agents.policies.semantic_tools import SemanticToolsCodeAgentPolicy

__all__ = [
    "AgentPolicy",
    "EnronCodeAgentPolicy",
    "KramabenchCodeAgentPolicy",
    "ScriptedPolicy",
    "SemanticToolsCodeAgentPolicy",
]
