"""Exception hierarchy for the repro runtime.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish subsystems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """Raised when the runtime or an operator is misconfigured."""


class SchemaError(ReproError):
    """Raised for invalid schema definitions or schema mismatches."""


class DataSourceError(ReproError):
    """Raised when a data source cannot be read or parsed."""


class LLMError(ReproError):
    """Base class for errors from the (simulated) LLM service."""


class UnknownModelError(LLMError):
    """Raised when a request names a model absent from the catalog."""


class BudgetExceededError(LLMError):
    """Raised when a request would exceed the configured spend budget."""


class TransientLLMError(LLMError):
    """Base class for retryable LLM-service failures.

    Raised by the simulated service when the :class:`~repro.llm.faults.FaultInjector`
    injects a fault and the configured :class:`~repro.llm.faults.RetryPolicy`
    (if any) has exhausted its attempts.  Callers that can degrade gracefully
    catch this one class.
    """


class RateLimitError(TransientLLMError):
    """Raised when the (simulated) service returns a 429 rate limit.

    Carries ``retry_after_s``, the server's suggested wait; the retry policy
    honours it as a floor on the backoff for this attempt.
    """

    def __init__(self, message: str, retry_after_s: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class TimeoutError(TransientLLMError):  # noqa: A001 - mirrors SDK naming
    """Raised when the (simulated) service times out a call.

    The caller has already paid prefill tokens and waited out the call's
    full latency by the time this is raised — timeouts are the most
    expensive fault kind.
    """


class TransientAPIError(TransientLLMError):
    """Raised for generic 5xx-style transient API failures."""


class SQLError(ReproError):
    """Base class for SQL engine errors."""


class SQLSyntaxError(SQLError):
    """Raised by the lexer/parser on malformed SQL."""


class SQLPlanError(SQLError):
    """Raised by the planner for semantically invalid queries."""


class SQLExecutionError(SQLError):
    """Raised during query execution (e.g. type errors, missing tables)."""


class PlanError(ReproError):
    """Raised for invalid semantic-operator plans."""


class OptimizationError(ReproError):
    """Raised when the optimizer cannot produce a physical plan."""


class ExecutionError(ReproError):
    """Raised when executing a physical plan fails."""


class SandboxError(ReproError):
    """Base class for sandboxed-interpreter errors."""


class SandboxSecurityError(SandboxError):
    """Raised when submitted code uses a forbidden construct."""


class SandboxTimeoutError(SandboxError):
    """Raised when one step of agent code executes more than ``max_lines``
    statements, comprehension items and lambda calls (its step budget)."""


class AgentError(ReproError):
    """Raised when an agent cannot complete its task."""


class ToolError(ReproError):
    """Raised when a tool invocation fails."""


class ContextError(ReproError):
    """Raised for invalid Context operations (bad index, missing tool...)."""


class StreamingError(ReproError):
    """Raised for invalid standing-query operations (bad refresh policy,
    unregisterable plan, source without a change feed)."""


class ServingError(ReproError):
    """Base class for multi-tenant serving-layer errors."""


class QuotaExceededError(ServingError):
    """Raised when a tenant whose budget is spent submits another query.

    Carries the rejected ``tenant``.  Rejection happens *before* the query
    touches the shared substrate: a rejected query perturbs no cache state.
    """

    def __init__(self, message: str, tenant: str = "") -> None:
        super().__init__(message)
        self.tenant = tenant
