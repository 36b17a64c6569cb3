"""Agent substrate (the SmolAgents-style CodeAgent).

A :class:`CodeAgent` runs a plan-act-observe loop: at each step a *policy*
produces Python code (standing in for the LLM's code generation — see
``policies/``), the sandboxed interpreter executes it with the agent's
tools injected, and the printed output becomes the next observation.  Every
step is priced and timed through the simulated LLM, so agent cost/latency
accounting matches the paper's.
"""

from repro.agents.codeagent import AgentResult, CodeAgent
from repro.agents.policies.base import AgentPolicy
from repro.agents.sandbox import Sandbox, SandboxResult
from repro.agents.tools import Tool, ToolRegistry
from repro.agents.trace import AgentStep, AgentTrace

__all__ = [
    "AgentPolicy",
    "AgentResult",
    "AgentStep",
    "AgentTrace",
    "CodeAgent",
    "Sandbox",
    "SandboxResult",
    "Tool",
    "ToolRegistry",
]
