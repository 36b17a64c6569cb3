"""The six benchmark workloads (why each exists: README.md, BENCHMARK.json).

Every workload drives the program only through entry points ROADMAP item 2
keeps (``Dataset.run``, ``AnalyticsRuntime.compute/search/answer/serving``,
``ServingRuntime.submit/drain``, ``StandingQueryManager.register/pump``,
``build_corpus``) and only with knobs that survive it (``seed``,
``parallelism``, ``shards``, ``optimize``, ``materialization_store``).

A workload has three phases the worker times separately —
``build_inputs`` (corpus from the seed), ``build_runtime`` (LLM/runtime
construction and any cache pre-warm) and ``run_pass`` — plus ``verify``, an
untimed reference check run once per benchmark run.  ``run_pass`` marks its
timed region and its operations on the :class:`Pass` it is handed.
"""

from __future__ import annotations

from repro.bench.metrics import mean_percent_error, set_metrics
from repro.core.runtime import AnalyticsRuntime
from repro.data.datasets import enron, generate_enron_corpus, generate_legal_corpus, kramabench
from repro.data.records import DataRecord
from repro.data.schemas import Field
from repro.data.sources import MemorySource
from repro.llm.oracle import SemanticOracle
from repro.llm.simulated import SimulatedLLM
from repro.obs import MetricsRegistry, Tracer
from repro.qa.corpus import DEPARTMENTS, CorpusSpec, build_corpus, instruction_for
from repro.sem.config import QueryProcessorConfig
from repro.sem.dataset import Dataset
from repro.sem.materialize import MaterializationStore
from repro.sem.streaming import RefreshPolicy, StandingQueryManager
from repro.serve import TenantSpec, build_arrivals, submit_workload, zipf_rates
from repro.serve.workload import tenant_names

from .ledger import Pass

PARALLELISM = 8
#: Smoke sizes are the full sizes divided by this (tests only).
SMOKE_DIVISOR = 20


def _fresh_llm(bundle, seed: int, **observers) -> SimulatedLLM:
    return SimulatedLLM(oracle=SemanticOracle(bundle.registry), seed=seed, **observers)


class Workload:
    """Base: sizes scale down by :data:`SMOKE_DIVISOR` under ``smoke``."""

    name = ""

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke

    def scaled(self, full: int, floor: int = 1) -> int:
        return max(floor, full // SMOKE_DIVISOR) if self.smoke else full

    def build_inputs(self) -> None:
        raise NotImplementedError

    def build_runtime(self) -> None:
        """LLM/runtime construction and cache pre-warm shared by all passes."""

    def run_pass(self, rec: Pass) -> None:
        raise NotImplementedError

    def verify(self) -> tuple[int, list[str]]:
        """Untimed reference check, called once after at least one pass:
        (operations attempted, failures)."""
        return 0, []


# ---------------------------------------------------------------------------
# scan_cold / rescan_warm: one plan, opposite layer split
# ---------------------------------------------------------------------------


class ScanCold(Workload):
    """4-operator scan, fresh LLM per pass: every call is a cache miss + put."""

    name = "scan_cold"
    N_RECORDS = 6000

    def build_inputs(self) -> None:
        self.n = self.scaled(self.N_RECORDS)
        self.bundle = build_corpus(CorpusSpec(seed=self.seed, n_records=self.n))
        self.source = self.bundle.source()

    def plan(self) -> Dataset:
        return (
            Dataset.from_source(self.source)
            .where("priority >= 2")
            .sem_filter(instruction_for("qa.flag_urgent"))
            .sem_map(Field("amount", float, "invoice total"), instruction_for("qa.amount"))
            .sem_map(Field("customer", str, "account holder"), instruction_for("qa.customer"))
        )

    def scan(self, rec: Pass, llm: SimulatedLLM) -> None:
        with rec.timed(), rec.op(), rec.ledger(llm):
            result = self.plan().run(
                QueryProcessorConfig(
                    llm=llm, optimize=False, parallelism=PARALLELISM, seed=self.seed
                )
            )
        rec.records_in = self.n
        rec.emit(result.records)

    def run_pass(self, rec: Pass) -> None:
        self.scan(rec, _fresh_llm(self.bundle, self.seed))

    def observed_pass(self, rec: Pass) -> None:
        """A cold scan with the repo's own Tracer + MetricsRegistry switched on
        (``obs.tracing_overhead_pct`` compares it with the plain passes)."""
        llm = _fresh_llm(self.bundle, self.seed, tracer=Tracer(), metrics=MetricsRegistry())
        self.scan(rec, llm)


class RescanWarm(ScanCold):
    """Same plan on one LLM whose generation cache was filled in setup."""

    name = "rescan_warm"
    observed_pass = None

    def build_runtime(self) -> None:
        self.llm = _fresh_llm(self.bundle, self.seed)
        fill = Pass()
        self.scan(fill, self.llm)
        #: A cold scan's digest — the warm passes must reproduce it.
        self.cold_digest = fill.digest()

    def run_pass(self, rec: Pass) -> None:
        # Events of earlier passes would make peak RSS grow with pass count.
        self.llm.tracker.reset()
        self.scan(rec, self.llm)
        if rec.digest() != self.cold_digest:
            rec.errors.append("warm re-scan differs from the cold scan that filled the cache")


# ---------------------------------------------------------------------------
# hybrid_sharded: SQL pushdown prefix + scatter/shuffle exchanges
# ---------------------------------------------------------------------------


class HybridSharded(Workload):
    """Two plans over 4 shards: top-k (partial/merge) and group-by (shuffle)."""

    name = "hybrid_sharded"
    N_RECORDS = 8000
    SHARDS = 4

    def build_inputs(self) -> None:
        self.n = self.scaled(self.N_RECORDS)
        self.k = max(5, self.n // 200)
        self.bundle = build_corpus(CorpusSpec(seed=self.seed, n_records=self.n))
        self.source = self.bundle.source()

    def plans(self) -> list[Dataset]:
        def prefix() -> Dataset:
            return (
                Dataset.from_source(self.source)
                .where("priority >= 3")
                .project(["title", "body", "priority"])
                .sem_filter(instruction_for("qa.flag_security"))
            )

        return [
            prefix().sem_topk("security incident causing an outage", k=self.k),
            prefix().sem_groupby(instruction_for("qa.department"), list(DEPARTMENTS)),
        ]

    def run_plans(self, rec: Pass, shards: int) -> None:
        with rec.timed():
            llm = _fresh_llm(self.bundle, self.seed)
            config = QueryProcessorConfig(
                llm=llm, parallelism=PARALLELISM, seed=self.seed, shards=shards
            )
            results = []
            with rec.ledger(llm):
                for plan in self.plans():
                    with rec.op():
                        results.append(plan.run(config))
        rec.records_in = 2 * self.n
        for result in results:
            rec.emit(result.records)

    def run_pass(self, rec: Pass) -> None:
        self.run_plans(rec, self.SHARDS)
        self.sharded_digest = rec.digest()

    def verify(self) -> tuple[int, list[str]]:
        single = Pass()
        self.run_plans(single, 1)
        same = single.digest() == self.sharded_digest
        return 2, [] if same else [f"shards={self.SHARDS} records differ from shards=1"]


# ---------------------------------------------------------------------------
# serve_mix: many small optimised queries through the serving runtime
# ---------------------------------------------------------------------------


class _TimedSubmit:
    """Stands in for the ServingRuntime inside ``submit_workload`` so that each
    ``submit`` is one timed operation."""

    def __init__(self, serving, rec: Pass) -> None:
        self.serving = serving
        self.rec = rec

    def submit(self, *args, **kwargs):
        with self.rec.op():
            return self.serving.submit(*args, **kwargs)


class ServeMix(Workload):
    """Open-loop Zipf/Poisson trace (virtual clock) over 12 tenants, batched."""

    name = "serve_mix"
    N_RECORDS = 32
    TENANTS = 12
    BASE_RATE = 0.5
    #: The trace is the first ARRIVALS events of a DURATION_S-long Poisson
    #: draw (~730 +- 30 events), so every seed submits the same number.  About
    #: one submit in six is the first of its (tenant, template) and pays the
    #: optimizer and the LLM; the rest replay stored results.  At this count
    #: ``op_ms_p50`` sits in the replays and ``op_ms_p90`` in the first-timers
    #: on every seed (at 560 the p90 fell on the edge between the two).
    ARRIVALS = 300
    DURATION_S = 480.0
    PROVIDER_WIDTH = 16

    def build_inputs(self) -> None:
        self.n = self.scaled(self.N_RECORDS, floor=10)
        self.bundle = build_corpus(CorpusSpec(seed=self.seed, n_records=self.n))
        self.arrivals = build_arrivals(
            self.seed, zipf_rates(self.TENANTS, self.BASE_RATE), self.DURATION_S
        )[: self.scaled(self.ARRIVALS)]

    def run_pass(self, rec: Pass) -> None:
        with rec.timed():
            runtime = AnalyticsRuntime.for_bundle(self.bundle, seed=self.seed)
            serving = runtime.serving(
                tenants=[TenantSpec(name) for name in tenant_names(self.TENANTS)],
                provider_width=self.PROVIDER_WIDTH,
                batching=True,
            )
            with rec.ledger(runtime.llm):
                jobs, rejected = submit_workload(
                    _TimedSubmit(serving, rec), self.bundle, self.arrivals
                )
                serving.drain()
        rec.records_in = len(self.arrivals) * self.n
        if rejected:
            rec.errors.append(f"{len(rejected)} of {len(self.arrivals)} arrivals rejected")
        for job in jobs:
            rec.emit(job.records, tag=job.tag)


# ---------------------------------------------------------------------------
# standing_ticks: write-side use of executor + materialization store
# ---------------------------------------------------------------------------


class StandingTicks(Workload):
    """Append ticks through a standing query, with two in-place updates."""

    name = "standing_ticks"
    BASE_RECORDS = 2000
    TICKS = 100
    DELTA = 20

    def build_inputs(self) -> None:
        self.base_n = self.scaled(self.BASE_RECORDS)
        self.ticks = self.scaled(self.TICKS, floor=6)
        #: An in-place update follows these ticks (1-based).
        self.update_after = (self.ticks // 3, 2 * self.ticks // 3)
        self.bundle = build_corpus(
            CorpusSpec(seed=self.seed, n_records=self.base_n + self.ticks * self.DELTA)
        )
        self.records = self.bundle.records()

    def plan(self, source: MemorySource) -> Dataset:
        return (
            Dataset.from_source(source)
            .sem_filter(instruction_for("qa.flag_urgent"))
            .sem_filter(instruction_for("qa.flag_refund"))
            .sem_map(Field("amount", float, "invoice total"), instruction_for("qa.amount"))
        )

    def config(self, llm, store=None) -> QueryProcessorConfig:
        return QueryProcessorConfig(
            llm=llm,
            optimize=False,
            parallelism=PARALLELISM,
            seed=self.seed,
            materialization_store=store,
        )

    def run_pass(self, rec: Pass) -> None:
        # ``source.update`` rewrites records in place: give the pass its own
        # copies of the records it will amend.
        base = list(self.records[: self.base_n])
        victims = [tick - 1 for tick in self.update_after]
        for index in victims:
            original = base[index]
            base[index] = DataRecord(
                original.fields,
                uid=original.uid,
                annotations=original.annotations,
                source_id=original.source_id,
            )
        source = MemorySource(base, schema=self.bundle.schema, source_id="tickets")
        llm = _fresh_llm(self.bundle, self.seed)
        store = MaterializationStore()
        with rec.timed(), rec.ledger(llm):
            manager = StandingQueryManager(store=store)
            query = manager.register(
                "live",
                self.plan(source),
                self.config(llm, store),
                policy=RefreshPolicy(trigger="count", count=self.DELTA),
            )
            fired = 0
            for tick in range(1, self.ticks + 1):
                start = self.base_n + (tick - 1) * self.DELTA
                with rec.op():
                    source.append(self.records[start : start + self.DELTA])
                    fired += len(manager.pump())
                if tick in self.update_after:
                    victim = base[tick - 1]
                    with rec.op():
                        source.update(
                            victim.uid, {"body": victim.fields["body"] + " [amended]"}
                        )
                        fired += len(manager.pump())
        rec.records_in = self.base_n + self.ticks * self.DELTA
        expected_ticks = self.ticks + len(self.update_after)
        if fired != expected_ticks:
            rec.errors.append(f"{fired} ticks fired, expected {expected_ticks}")
        rec.emit(query.records)
        folded = Pass()
        folded.emit(query.folded())
        if folded.digest() != rec.digest():
            rec.errors.append("fold_changelog differs from the standing view")
        self.final_records, self.view_digest = source.records(), rec.digest()

    def verify(self) -> tuple[int, list[str]]:
        source = MemorySource(
            self.final_records, schema=self.bundle.schema, source_id="tickets"
        )
        scratch = Pass()
        scratch.emit(
            self.plan(source).run(self.config(_fresh_llm(self.bundle, self.seed))).records
        )
        same = scratch.digest() == self.view_digest
        return 1, [] if same else ["standing view differs from a from-scratch run"]


# ---------------------------------------------------------------------------
# agent_queries: the paper's own path (search / compute / answer)
# ---------------------------------------------------------------------------


class AgentQueries(Workload):
    """Legal search -> compute -> answer x2, enron compute x2, per runtime seed."""

    name = "agent_queries"
    #: 6 calls per runtime seed: enough that a run pools well over 100 calls.
    RUNTIME_SEEDS = 4
    SEARCH = "information on identity theft reports"

    def build_inputs(self) -> None:
        self.legal = generate_legal_corpus()
        self.enron = generate_enron_corpus()
        count = 1 if self.smoke else self.RUNTIME_SEEDS
        self.runtime_seeds = [1000 * self.seed + index for index in range(count)]

    def runtime(self, bundle, seed: int) -> AnalyticsRuntime:
        return AnalyticsRuntime.for_bundle(
            bundle, seed=seed, reuse_contexts=True, parallelism=PARALLELISM
        )

    def run_pass(self, rec: Pass) -> None:
        def call(fn, *args):
            with rec.op():
                return fn(*args)

        outcomes = []
        with rec.timed():
            for seed in self.runtime_seeds:
                legal = self.runtime(self.legal, seed)
                with rec.ledger(legal.llm):
                    context = legal.make_context(self.legal)
                    found = call(legal.search, context, self.SEARCH)
                    computed = call(
                        legal.compute, found.output_context, kramabench.QUERY_RATIO
                    )
                    miss = call(legal.answer, context, kramabench.QUERY_RATIO)
                    hit = call(legal.answer, context, kramabench.QUERY_RATIO)
                mail = self.runtime(self.enron, seed)
                with rec.ledger(mail.llm):
                    context = mail.make_context(self.enron)
                    first = call(mail.compute, context, enron.QUERY_RELEVANT)
                    again = call(mail.compute, context, enron.QUERY_RELEVANT)
                outcomes.append((seed, computed, miss, hit, first, again))
        rec.records_in = len(self.runtime_seeds) * (
            3 * len(self.legal.records()) + 2 * len(self.enron.records())
        )
        for seed, computed, miss, hit, first, again in outcomes:
            if miss.reused or not hit.reused:
                rec.errors.append(f"seed {seed}: answer cache did not miss then hit")
            if hit.answer != miss.answer:
                rec.errors.append(f"seed {seed}: cached answer differs")
            for result in (computed, miss, first, again):
                rec.emit(result.records, answer=result.answer)
            rec.emit([], quality=self.quality(miss, first))

    def quality(self, legal_result, enron_result) -> dict:
        """Paper-shaped quality (Table 1 pct-err, Table 2 F1), pinned via the digest."""
        answer = legal_result.answer
        ratio = answer.get("ratio") if isinstance(answer, dict) else None
        returned = [
            row.get("filename")
            for row in (enron_result.answer or [])
            if isinstance(row, dict)
        ]
        gold = self.enron.ground_truth["relevant_filenames"]
        return {
            "legal_pct_err": mean_percent_error([ratio], self.legal.ground_truth["ratio"]),
            "enron_f1": set_metrics(gold, returned).f1,
        }


WORKLOADS = {
    cls.name: cls
    for cls in (ScanCold, RescanWarm, HybridSharded, ServeMix, StandingTicks, AgentQueries)
}
