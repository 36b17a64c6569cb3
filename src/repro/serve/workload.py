"""Deterministic multi-tenant workload generation for the serving layer.

Produces the serving benchmark's open-loop arrival trace: a heavy-tailed
mix of query templates over the QA ticket corpus, Poisson-ish arrivals on
the virtual clock (seeded exponential inter-arrival gaps), and Zipf-skewed
per-tenant rates.  Everything derives from ``stable_uniform`` /
``stable_hash`` streams, so two calls with equal arguments produce the
identical trace — the property the batched-vs-serial bit-identity contract
rests on.

Templates intentionally overlap on instructions and models: overlap is
what gives the shared generation cache within-tenant hits and the
cross-query batcher same-model waves to rebate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.data.schemas import Field
from repro.sem.dataset import Dataset
from repro.utils.hashing import stable_uniform

#: (name, mix weight, service-demand class) — weights form the heavy tail:
#: most queries are a single filter; a few are multi-operator triage scans.
_TEMPLATE_WEIGHTS = (
    ("filter-urgent", 0.30),
    ("filter-security", 0.22),
    ("filter-refund", 0.18),
    ("classify-dept", 0.14),
    ("extract-amount", 0.10),
    ("triage-heavy", 0.06),
)


def _template_builders(bundle) -> dict[str, Callable[[], Dataset]]:
    """Template name -> thunk building a fresh Dataset over ``bundle``."""
    from repro.qa.corpus import DEPARTMENTS, instruction_for

    def base() -> Dataset:
        return Dataset.from_source(bundle.source())

    return {
        "filter-urgent": lambda: base().sem_filter(
            instruction_for("qa.flag_urgent")
        ),
        "filter-security": lambda: base().sem_filter(
            instruction_for("qa.flag_security")
        ),
        "filter-refund": lambda: base().sem_filter(
            instruction_for("qa.flag_refund")
        ),
        "classify-dept": lambda: base()
        .sem_filter(instruction_for("qa.flag_refund"))
        .sem_classify(
            "department", list(DEPARTMENTS), instruction_for("qa.department")
        ),
        "extract-amount": lambda: base()
        .sem_filter(instruction_for("qa.flag_urgent"))
        .sem_map(
            Field("amount", float, "extracted amount"),
            instruction_for("qa.amount"),
        ),
        "triage-heavy": lambda: base()
        .sem_filter(instruction_for("qa.flag_security"))
        .sem_classify(
            "department", list(DEPARTMENTS), instruction_for("qa.department")
        )
        .sem_map(
            Field("amount", float, "extracted amount"),
            instruction_for("qa.amount"),
        ),
    }


@dataclass(frozen=True)
class Arrival:
    """One workload event: ``tenant`` submits ``template`` at ``arrival_s``."""

    arrival_s: float
    tenant: str
    template: str


def tenant_names(n: int) -> list[str]:
    return [f"tenant-{i:02d}" for i in range(n)]


def zipf_rates(n: int, base_rate: float, skew: float = 1.0) -> dict[str, float]:
    """Per-tenant arrival rates with Zipf skew (tenant 0 is the hottest)."""
    return {
        name: base_rate / (index + 1) ** skew
        for index, name in enumerate(tenant_names(n))
    }


def build_arrivals(
    seed: int,
    rates: dict[str, float],
    duration_s: float,
) -> list[Arrival]:
    """Seeded Poisson-ish arrival trace, merged across tenants, time-sorted.

    Inter-arrival gaps are exponential (inverse-CDF over ``stable_uniform``
    draws); the template mix is sampled per event from the heavy-tailed
    weights.  Ties sort by tenant name, keeping the trace total-ordered.
    """
    arrivals: list[Arrival] = []
    for tenant, rate in rates.items():
        if rate <= 0:
            continue
        t = 0.0
        index = 0
        while True:
            draw = stable_uniform(seed, "serve-arrival", tenant, index)
            t += -math.log(max(draw, 1e-12)) / rate
            if t > duration_s:
                break
            arrivals.append(
                Arrival(
                    arrival_s=round(t, 6),
                    tenant=tenant,
                    template=_pick_template(seed, tenant, index),
                )
            )
            index += 1
    arrivals.sort(key=lambda a: (a.arrival_s, a.tenant))
    return arrivals


def _pick_template(seed: int, tenant: str, index: int) -> str:
    draw = stable_uniform(seed, "serve-mix", tenant, index)
    cumulative = 0.0
    for name, weight in _TEMPLATE_WEIGHTS:
        cumulative += weight
        if draw < cumulative:
            return name
    return _TEMPLATE_WEIGHTS[-1][0]


def submit_workload(
    serving,
    bundle,
    arrivals: list[Arrival],
) -> tuple[list, list[Arrival]]:
    """Submit ``arrivals`` to a :class:`~repro.serve.runtime.ServingRuntime`.

    Returns ``(admitted jobs, rejected arrivals)``; budget rejections
    (:class:`~repro.errors.QuotaExceededError`) are collected rather than
    raised so open-loop drivers keep going.
    """
    from repro.errors import QuotaExceededError

    builders = _template_builders(bundle)
    jobs = []
    rejected: list[Arrival] = []
    for arrival in arrivals:
        try:
            jobs.append(
                serving.submit(
                    arrival.tenant,
                    builders[arrival.template](),
                    arrival_s=arrival.arrival_s,
                    tag=f"serve:{arrival.tenant}:{arrival.template}",
                )
            )
        except QuotaExceededError:
            rejected.append(arrival)
    return jobs, rejected
