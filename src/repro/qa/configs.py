"""Serializable execution configurations and the differential matrix.

A :class:`ConfigSpec` is the JSON form of one way to run a plan.  The
matrix builder groups specs into *answer classes* — sets of configurations
the runtime promises produce the same answer.  "The same answer" always
means the ``reference`` observation's: the plan evaluated by
:mod:`repro.qa.reference`, which shares no operator body, executor or
optimizer code with the engine (only the logical plan, the LLM substrate
and ``sem.structql``) — never "the same engine with a knob flipped", which
cannot see a bug every engine mode shares.

- ``reference`` — the reference interpreter (operator-at-a-time in plan
  order, no pushdown, no fusion, one worker).  Every class below diffs
  records against it and, where cost is a contract, is bounded by its
  cost: fusion, pushdown and early exit only ever remove calls.
- ``exec`` — same plan, same models, different execution mechanics (batch
  size down to single-row batches, parallelism).  Contract: records
  bit-identical to the reference's, dollar cost never above it.
- ``opt`` — the optimizer with the max-quality policy against the naive
  plan.  Filter reordering within commuting runs and champion-model
  selection must not change the answer; sampling spend means cost may
  legitimately differ.  Applies to linear plans only (joins are bound
  without sampling).
- ``probe`` — cost-seeking policies (min-cost, balanced).  These may
  legally change answers; only well-formedness and determinism oracles
  apply.
- ``budget`` — a spend cap at a fraction of the measured baseline cost.
  Contract: overshoot bounded by one guarded call saga.
- ``fault`` — seeded fault schedules with retries.  Fault draws depend on
  attempt ordering, so the only cross-run promise is determinism: the
  identical config must reproduce the identical result.
- ``reuse`` — the same spec run twice against a shared
  :class:`~repro.sem.materialize.MaterializationStore` (fresh substrate
  each time).  Contract: the warm run's records are bit-identical to the
  cold run's (and to the reference's), and the warm run never costs more
  than the cold run.
- ``serve`` — the plan submitted by two tenant sessions through the
  multi-tenant serving layer (cross-query batching on; a served body runs
  the engine's own schedule).  Contract: both tenants' records are
  bit-identical to the reference's — the cross-query schedule and
  tenant-scoped caches must never change an answer — the jobs' dollars
  sum to the tracker's delta, and each job's standalone time is the
  direct baseline's ``total_time_s``.
- ``sharded`` — the plan executed across N simulated workers via the
  scale-out exchange planner (``repro.sem.shard``), sweeping shard count
  and partitioner.  Contract: bit-identical records at every shard
  count/partitioner; cost may exceed the *unsharded engine's* on
  limit-bearing plans (per-shard overfetch) but never the reference's,
  which takes no early exit at all.
- ``streaming`` — the plan registered as a standing query over a prefix
  of the corpus, with the remainder appended in chunks and each append
  refreshed incrementally (``repro.sem.streaming``).  Contract: the final
  standing view is bit-identical to the reference's one-shot run over the
  full corpus, the changelog folded from empty reproduces the live
  view at every tick, and a plan whose whole chain is incremental-safe
  takes the delta path (a silent fall-back to full recompute is a bug the
  records cannot show).  Swept unsharded and sharded: the optimizer's one
  reuse decision must serve a scattered delta the same way.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace

from repro.llm.faults import FaultConfig, FaultInjector, RetryPolicy
from repro.llm.oracle import SemanticOracle
from repro.llm.simulated import SimulatedLLM
from repro.sem.config import QueryProcessorConfig
from repro.sem.optimizer.policies import policy_by_name
from repro.utils.persist import check_payload_keys


@dataclass(frozen=True)
class ConfigSpec:
    """One serializable way to execute a fuzzed plan."""

    name: str
    #: Which equivalence contract this spec participates in (see module doc).
    answer_class: str = "exec"
    optimize: bool = False
    policy: str = "max-quality"
    reorder_filters: bool = True
    parallelism: int = 4
    batch_size: int | None = None
    join_method: str = "nested"
    sample_size: int = 6
    llm_seed: int = 0
    #: Run cold-then-warm against a shared MaterializationStore; the warm
    #: run is the recorded observation (reuse class).
    reuse: bool = False
    #: Run through the multi-tenant serving layer (two tenant sessions on
    #: one shared substrate, cross-query batching on); the first tenant's
    #: observation is recorded (serve class).
    serve: bool = False
    #: Register as a standing query over a corpus prefix and append the
    #: rest in chunks, refreshing incrementally (streaming class).
    streaming: bool = False
    #: Spend cap as a fraction of the measured baseline cost (budget class).
    budget_fraction: float | None = None
    #: Fault schedule for the substrate (``FaultConfig.to_dict`` form).
    fault: dict | None = None
    #: Retry policy override (``RetryPolicy.to_dict`` form).
    retry: dict | None = None
    #: Simulated scale-out workers (sharded class; 1 = unsharded engine).
    shards: int = 1
    #: Shard-assignment strategy ("hash" | "range" | "round_robin").
    partitioner: str = "hash"

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ConfigSpec":
        check_payload_keys(cls, payload)
        return cls(**payload)

    # -- realization ----------------------------------------------------

    def make_llm(self, bundle, tracer=None) -> SimulatedLLM:
        """A fresh simulated substrate for one run of this spec."""
        faults = (
            FaultInjector(FaultConfig.from_dict(self.fault), seed=self.llm_seed)
            if self.fault
            else None
        )
        retry = RetryPolicy.from_dict(self.retry) if self.retry else None
        kwargs = {}
        if tracer is not None:
            kwargs["tracer"] = tracer
        return SimulatedLLM(
            oracle=SemanticOracle(bundle.registry),
            seed=self.llm_seed,
            faults=faults,
            retry=retry,
            **kwargs,
        )

    def build(
        self, llm: SimulatedLLM, max_cost_usd: float | None = None
    ) -> QueryProcessorConfig:
        """Materialize the query-processor config around a substrate."""
        return QueryProcessorConfig(
            llm=llm,
            policy=policy_by_name(self.policy),
            seed=self.llm_seed,
            tag=f"qa:{self.name}",
            max_cost_usd=max_cost_usd,
            **{name: getattr(self, name) for name in _SHARED_OPTIONS},
        )


#: ConfigSpec fields that are :class:`QueryProcessorConfig` options verbatim
#: (``policy`` shares the name but is serialized by policy name).
_SHARED_OPTIONS = tuple(
    f.name
    for f in fields(ConfigSpec)
    if f.name != "policy"
    and f.name in {option.name for option in fields(QueryProcessorConfig)}
)

#: The engine's default configuration (twice per case: determinism + trace).
BASELINE = ConfigSpec(name="baseline", answer_class="exec")
#: What every differential comparison anchors on: the plan evaluated by
#: :mod:`repro.qa.reference` at the baseline's parallelism and seed.
REFERENCE = ConfigSpec(name="reference", answer_class="reference")


def config_matrix(plan, case_seed: int = 0) -> list[ConfigSpec]:
    """The configuration matrix exercised for one fuzzed plan.

    ``plan`` decides which classes apply: join plans skip the optimizer
    classes (the optimizer binds them without sampling, making ``opt``
    trivially identical and the probes uninteresting).
    """
    specs: list[ConfigSpec] = [REFERENCE, BASELINE]

    # exec class: execution mechanics must not change the answer.
    specs.append(replace(BASELINE, name="small-batch", batch_size=4))
    # Single-row batches put every batch kernel on its edge case.
    specs.append(replace(BASELINE, name="row-batch", batch_size=1))
    specs.append(replace(BASELINE, name="serial", parallelism=1, batch_size=6))

    # sharded class: scale-out execution over simulated workers must be
    # answer-invariant for every shard count and partitioner (joins run
    # broadcast exchanges, group-bys shuffle — all plans qualify).
    specs.append(
        replace(BASELINE, name="sharded-4", answer_class="sharded", shards=4)
    )
    specs.append(
        replace(
            BASELINE, name="sharded-3-range", answer_class="sharded",
            shards=3, partitioner="range",
        )
    )
    specs.append(
        replace(
            BASELINE, name="sharded-8-rr", answer_class="sharded",
            shards=8, partitioner="round_robin",
        )
    )

    if not plan.has_join():
        # opt class: max-quality optimization preserves the answer.
        specs.append(
            ConfigSpec(
                name="optimized-maxq",
                answer_class="opt",
                optimize=True,
                policy="max-quality",
            )
        )
        # reuse class: warm-vs-cold identity against a shared
        # materialization store (baseline execution mechanics).
        specs.append(
            replace(BASELINE, name="warm-reuse", answer_class="reuse", reuse=True)
        )
        # serve class: the plan submitted by two tenants through the
        # serving layer (cross-query batching on) must reproduce the
        # reference answer, and the direct baseline's time, for both.
        specs.append(
            replace(BASELINE, name="served", answer_class="serve", serve=True)
        )
        # streaming class: incremental standing-query maintenance over
        # chunked appends must converge on the one-shot reference answer.
        standing = replace(
            BASELINE, name="standing", answer_class="streaming", streaming=True
        )
        specs.append(standing)
        specs.append(replace(standing, name="standing-sharded-4", shards=4))
        specs.append(
            replace(
                standing, name="standing-sharded-3-range",
                shards=3, partitioner="range",
            )
        )
        # probes: answer-changing policies, weak oracles only.
        specs.append(
            ConfigSpec(name="probe-mincost", answer_class="probe",
                       optimize=True, policy="min-cost")
        )
        specs.append(
            ConfigSpec(name="probe-balanced", answer_class="probe",
                       optimize=True, policy="balanced")
        )
    else:
        specs.append(
            replace(BASELINE, name="blocked-join", answer_class="probe",
                    join_method="blocked")
        )

    if plan.semantic_op_count() > 0:
        # budget class: cap at a fraction of the measured baseline spend.
        specs.append(
            ConfigSpec(name="budget-half", answer_class="budget",
                       budget_fraction=0.5)
        )
        specs.append(
            ConfigSpec(name="budget-tight", answer_class="budget",
                       budget_fraction=0.15)
        )
        # fault class: seeded faults + retries; determinism only.
        specs.append(
            ConfigSpec(
                name="faulty",
                answer_class="fault",
                llm_seed=case_seed % 1000,
                fault=FaultConfig(
                    rate=0.08,
                    kinds=("rate_limit", "api"),
                    rate_limit_storms=((5.0, 20.0),),
                    storm_rate=0.5,
                ).to_dict(),
                retry=RetryPolicy(max_attempts=3).to_dict(),
            )
        )

    return specs
