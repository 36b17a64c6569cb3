"""Multi-tenant serving runtime: admission control, cross-query batching.

Layers an async-style query scheduler on the virtual clock so many tenant
sessions share one :class:`~repro.core.runtime.AnalyticsRuntime`: typed
admission control (per-tenant budgets), stride-fair slot scheduling,
cross-query batching of LLM generate / embed calls into shared provider
waves, and per-tenant isolation + accounting on the shared caches.
"""

from repro.serve.runtime import MAX_WAVE_SPANS, ServingRuntime, TenantSpec, TenantState
from repro.serve.scheduler import (
    CrossQueryScheduler,
    QueryJob,
    ServingReport,
    WaveRecord,
)
from repro.serve.timeline import CallRequest, CallStep, CallTimeline
from repro.serve.workload import (
    Arrival,
    build_arrivals,
    submit_workload,
    tenant_names,
    zipf_rates,
)

__all__ = [
    "MAX_WAVE_SPANS",
    "ServingRuntime",
    "TenantSpec",
    "TenantState",
    "CrossQueryScheduler",
    "QueryJob",
    "ServingReport",
    "WaveRecord",
    "CallRequest",
    "CallStep",
    "CallTimeline",
    "Arrival",
    "build_arrivals",
    "submit_workload",
    "tenant_names",
    "zipf_rates",
]
