"""One estimator: a sample is the bound operator run on the sample, and
one belief rule + one pricing loop serve every consumer.

Five contracts, each pinned below the BENCH level:

- *sampler equivalence* — auditioning a model by calling the bound
  operator's own per-record entry point makes the same LLM calls, in the
  same order, and yields the same profiles as the per-operator bodies the
  sampler used to carry (written out literally here as the reference);
- *free filters* — selectivity over the records a free filter could
  answer, no profile when it answered none;
- *believe* — the precedence table, and that a prior is snapshotted;
- *pricing* — the chain loop is the closed form under believed priors,
  and a limit caps the rows that reach the next operator;
- *structure* — the duplicates this design removed stay removed.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

from repro.data.records import DataRecord, reset_uid_counter
from repro.data.schemas import Field, Schema
from repro.errors import TransientLLMError
from repro.llm.faults import FaultConfig, FaultInjector, RetryPolicy
from repro.llm.oracle import SemanticOracle
from repro.llm.simulated import SimulatedLLM
from repro.obs.stats import StatisticsStore
from repro.qa.corpus import DEPARTMENTS, REGIONS, CorpusSpec, build_corpus, instruction_for
from repro.sem import logical as L
from repro.sem import physical as P
from repro.sem.config import DEFAULT_FALLBACK_MODEL, QueryProcessorConfig
from repro.sem.dataset import Dataset
from repro.sem.explain import explain_analyze
from repro.sem.optimizer.cost_model import (
    OperatorEstimate,
    believe,
    estimate_chain_steps,
)
from repro.sem.optimizer.optimizer import Optimizer
from repro.sem.optimizer.sampler import OperatorProfile, Sampler
from repro.utils.seeding import SeededRng

MODELS = ["gpt-4o-mini", "gpt-4o", "gpt-3.5-turbo"]
CHAMPION = "gpt-4o"
TAG = "query:optimize"


@pytest.fixture(scope="module")
def bundle():
    return build_corpus(CorpusSpec(seed=23, n_records=24))


def _llm(bundle, faulty: bool) -> SimulatedLLM:
    return SimulatedLLM(
        oracle=SemanticOracle(bundle.registry),
        seed=23,
        faults=FaultInjector(FaultConfig(rate=0.35), seed=5) if faulty else None,
        retry=RetryPolicy(max_attempts=2),
    )


# ---------------------------------------------------------------------------
# (a) Sampler equivalence
# ---------------------------------------------------------------------------


def _parent_profile(llm, sample, models, champion, run_one):
    """The parent commit's ``Sampler._profile``, written out literally."""
    failed_sample = object()
    if champion not in models:
        models = [champion] + list(models)
    first = sample[: min(4, len(sample))]
    rest = sample[len(first):]
    answers = {model: [] for model in models}
    costs = {model: 0.0 for model in models}
    latencies = {model: 0.0 for model in models}

    def run_round(round_models, records):
        for model in round_models:
            for record in records:
                checkpoint = llm.tracker.checkpoint()
                try:
                    answers[model].append(run_one(model, record))
                except TransientLLMError:
                    answers[model].append(failed_sample)
                clean = [
                    event
                    for event in llm.tracker.events[checkpoint:]
                    if not event.failed
                ]
                costs[model] += sum(event.cost_usd for event in clean)
                latencies[model] += sum(event.latency_s for event in clean)

    def agreement(model_answers, reference):
        matches = sum(1 for a, b in zip(model_answers, reference) if a == b)
        return matches / len(model_answers)

    run_round(models, first)
    survivors = [
        model
        for model in models
        if model == champion or agreement(answers[model], answers[champion]) >= 0.7
    ]
    run_round(survivors, rest)

    booleans = [a for a in answers[champion] if isinstance(a, bool)]
    pass_rate = sum(booleans) / len(booleans) if booleans else 1.0
    profiles = {}
    for model in models:
        n_seen = len(answers[model])
        profiles[model] = OperatorProfile(
            model=model,
            agreement=agreement(answers[model], answers[champion][:n_seen]),
            selectivity=pass_rate,
            cost_per_record=costs[model] / n_seen,
            latency_per_record=latencies[model] / n_seen,
            sample_size=n_seen,
        )
    return profiles


def _parent_filter(op):
    def run_one(llm, model, record):
        return llm.judge_filter(
            op.instruction, record, model=model, tag=f"{TAG}:filter"
        ).answer

    return run_one


def _parent_map(op):
    def run_one(llm, model, record):
        values = []
        for schema_field, instruction in op.outputs:
            result = llm.extract(instruction, record, model=model, tag=f"{TAG}:map")
            values.append(schema_field.coerce(result.value))
        return tuple(values)

    return run_one


def _parent_classify(op):
    # The parent's one body for classify *and* group-by.
    options = list(getattr(op, "options", None) or op.groups)

    def run_one(llm, model, record):
        return llm.classify(
            op.instruction, options, record, model=model, tag=f"{TAG}:classify"
        ).value

    return run_one


OPERATORS = {
    "sem_filter": (
        L.SemFilterOp(child=None, instruction=instruction_for("qa.flag_urgent")),
        P.PhysSemFilter,
        _parent_filter,
    ),
    "sem_map": (
        L.SemMapOp(
            child=None,
            outputs=(
                (Field("amount", float, "invoice total"), instruction_for("qa.amount")),
                (Field("customer", str, "account"), instruction_for("qa.customer")),
            ),
        ),
        P.PhysSemMap,
        _parent_map,
    ),
    "sem_classify": (
        L.SemClassifyOp(
            child=None,
            output_field="department",
            options=DEPARTMENTS,
            instruction=instruction_for("qa.department"),
        ),
        P.PhysSemClassify,
        _parent_classify,
    ),
    "sem_groupby": (
        L.SemGroupByOp(
            child=None, groups=REGIONS, instruction=instruction_for("qa.region")
        ),
        P.PhysSemGroupBy,
        _parent_classify,
    ),
}


def _events(llm):
    return [
        (e.model, e.input_tokens, e.output_tokens, e.cost_usd, e.cached, e.failed)
        for e in llm.tracker.events
    ]


@pytest.mark.parametrize("faulty", [False, True], ids=["fault-free", "faulty"])
@pytest.mark.parametrize("kind", list(OPERATORS))
def test_sampling_is_the_bound_operator_on_the_sample(bundle, kind, faulty):
    op, physical, parent_body = OPERATORS[kind]
    sample = bundle.records()[:12]

    reference_llm = _llm(bundle, faulty)
    run_one = parent_body(op)
    reference = _parent_profile(
        reference_llm, sample, MODELS, CHAMPION,
        lambda model, record: run_one(reference_llm, model, record),
    )

    llm = _llm(bundle, faulty)
    ctx = P.ExecutionContext(llm=llm, parallelism=1, tag=TAG, on_failure="raise")
    profiles = Sampler(SeededRng(0)).profile(
        lambda model: physical(op, model), MODELS, CHAMPION, sample, ctx
    )

    # Agreement, selectivity, cost, latency, sample size — and through the
    # sample sizes, which models the first round eliminated.
    assert profiles == reference
    assert list(profiles) == list(reference)
    # Same calls, same models, same order, same charges.
    assert _events(llm) == _events(reference_llm)
    assert llm.clock.elapsed == pytest.approx(reference_llm.clock.elapsed, rel=1e-12)
    assert ctx.failures == []  # a sampled failure is the sampler's, not the run's
    if faulty:
        assert any(e.failed for e in llm.tracker.events)
    tags = {e.tag for e in llm.tracker.events}
    assert tags == {f"{TAG}:{'groupby' if kind == 'sem_groupby' else kind[4:]}"}


def test_sampling_under_faults_loses_samples_not_the_optimizer(bundle):
    # With one attempt per call some sampled calls are lost outright: they
    # read as disagreement, the profile still covers every record.
    llm = SimulatedLLM(
        oracle=SemanticOracle(bundle.registry),
        seed=23,
        faults=FaultInjector(FaultConfig(rate=0.4), seed=1),
        retry=RetryPolicy(max_attempts=1),
    )
    op, physical, _ = OPERATORS["sem_filter"]
    ctx = P.ExecutionContext(llm=llm, parallelism=1, tag=TAG, on_failure="raise")
    profiles = Sampler(SeededRng(0)).profile(
        lambda model: physical(op, model), [CHAMPION], CHAMPION,
        bundle.records()[:12], ctx,
    )
    assert llm.tracker.failed_calls() > 0
    assert profiles[CHAMPION].sample_size == 12
    assert 0.0 <= profiles[CHAMPION].selectivity <= 1.0


# ---------------------------------------------------------------------------
# (b) Free filters: selectivity over the records seen, else no profile
# ---------------------------------------------------------------------------


def _numbers(n: int = 10):
    schema = Schema([Field("i", int), Field("flag", str)])
    records = [
        DataRecord({"i": index, "flag": "x" if index % 2 else None}, uid=f"n{index}")
        for index in range(n)
    ]
    return records, schema


def _optimize(dataset: Dataset, **kwargs):
    reset_uid_counter()
    config = QueryProcessorConfig(llm=SimulatedLLM(seed=0), seed=0, **kwargs)
    result, report = dataset.run_with_report(config)
    return result, report, config


def _only_filter(report):
    (op,) = [
        op for op in report.bound if op.logical_op.commuting
    ]
    return op


def test_py_filter_crashing_on_some_records_is_profiled_over_the_rest():
    records, schema = _numbers()

    def small_evens(record):
        if record["i"] % 2:
            raise KeyError("reads a field only even records carry")
        return record["i"] < 4

    dataset = Dataset.from_records(records, schema).filter(
        small_evens, description="small evens"
    )
    reset_uid_counter()
    config = QueryProcessorConfig(llm=SimulatedLLM(seed=0), seed=0)
    _bound, report = Optimizer(config).optimize(dataset.plan())
    estimate = _only_filter(report).estimate
    assert estimate.source == "sampled"
    assert estimate.selectivity == pytest.approx(2 / 5)  # 0 and 2, of five evens
    assert estimate.cost_per_record == 0.0
    assert config.llm.tracker.total().calls == 0


def test_py_filter_crashing_on_every_raw_record_has_no_profile():
    # It reads a field an upstream map creates: nothing to believe, so the
    # one static default applies and EXPLAIN says so.
    records, schema = _numbers()
    dataset = (
        Dataset.from_records(records, schema)
        .map(lambda record: {"double": record["i"] * 2}, description="double")
        .filter(lambda record: record["double"] < 6, description="small double")
    )
    result, report, _ = _optimize(dataset)
    op = _only_filter(report)
    assert report.profiles == {}
    assert op.estimate == OperatorEstimate(rows=5.0)  # static: 0.5 x 10
    assert [record["i"] for record in result.records] == [0, 1, 2]
    (row,) = [
        line for line in explain_analyze(result, report).splitlines()
        if line.startswith("| PyFilter")
    ]
    assert "static" in row and "sampled" not in row


def test_where_over_a_null_field_never_crashes_and_counts_every_record():
    records, schema = _numbers()
    dataset = (
        Dataset.from_records(records, schema)
        .filter(lambda record: True, description="keep")  # keeps where() off the scan
        .where("flag = 'x'")
    )
    reset_uid_counter()
    config = QueryProcessorConfig(llm=SimulatedLLM(seed=0), seed=0)
    plan = dataset.plan()
    where = plan.operators()[-1]
    sampler = Sampler(SeededRng(0))
    ctx = P.ExecutionContext(llm=config.llm, tag=TAG, on_failure="raise")
    (profile,) = sampler.profile(
        lambda _model: P.PhysStructFilter(where), [None], None, records, ctx
    ).values()
    assert profile.sample_size == 10  # NULL fails the predicate, it is not a crash
    assert profile.selectivity == pytest.approx(0.5)
    assert profile.model is None and profile.agreement == 1.0


def test_empty_source_yields_no_profile_and_the_champion():
    from repro.sem.optimizer.policies import MinCost

    _records, schema = _numbers()
    dataset = (
        Dataset.from_records([], schema)
        .filter(lambda record: record["i"] < 3, description="small")
        .sem_filter("The number is interesting.")
    )
    result, report, config = _optimize(dataset, policy=MinCost())
    assert result.records == []
    assert report.profiles == {}
    assert {op.estimate.source for op in report.bound} == {"static"}
    # Nothing was auditioned, so nothing can undercut the champion.
    assert report.bound[-1].model == DEFAULT_FALLBACK_MODEL
    assert config.llm.tracker.total().calls == 0


def test_sampler_propagates_a_crash_in_an_llm_operator(bundle):
    # Only user code (a free filter) may crash on a raw record; anything
    # else raising in an LLM operator is a bug the optimizer must not eat.
    class Broken(P.PhysSemFilter):
        def process_record(self, record, ctx, state):
            raise RuntimeError("operator bug")

    op, _, _ = OPERATORS["sem_filter"]
    llm = _llm(bundle, faulty=False)
    ctx = P.ExecutionContext(llm=llm, tag=TAG, on_failure="raise")
    with pytest.raises(RuntimeError, match="operator bug"):
        Sampler(SeededRng(0)).profile(
            lambda model: Broken(op, model), [CHAMPION], CHAMPION,
            bundle.records()[:4], ctx,
        )


# ---------------------------------------------------------------------------
# (c) believe: one precedence rule, and a prior is snapshotted
# ---------------------------------------------------------------------------


def _keyed_operator(carried: OperatorEstimate | None):
    operator = P.PhysSemFilter(
        L.SemFilterOp(child=None, instruction="x"), "gpt-4o"
    )
    operator.stats_entry = {
        "key": "k1", "kind": "SemFilterOp", "model": "gpt-4o",
        "dataset": "d", "scope": "",
    }
    operator.estimate = carried
    return operator


def _observe(store, key="k1", records_out=2):
    return store.observe(
        key, "SemFilterOp", "gpt-4o", "d", "",
        records_in=10, records_out=records_out, cost_usd=0.05, time_s=4.0,
    )


SAMPLED = OperatorEstimate(0.7, 0.002, 0.3, "sampled", candidates={"gpt-4o": object()})


@pytest.mark.parametrize(
    "case, carried, expected",
    [
        ("usable prior", SAMPLED, (0.2, 0.005, 0.4, "prior")),
        ("usable prior, nothing carried", None, (0.2, 0.005, 0.4, "prior")),
        ("blended prior", SAMPLED, (0.35, 0.005, 0.4, "prior")),
        ("prior for another operator", SAMPLED, (0.7, 0.002, 0.3, "sampled")),
        ("no stats entry", SAMPLED, (0.7, 0.002, 0.3, "sampled")),
        ("no store", SAMPLED, (0.7, 0.002, 0.3, "sampled")),
        ("nothing carried, nothing learned", None, (0.5, 0.0, 0.0, "static")),
    ],
)
def test_believe_precedence(case, carried, expected):
    # An estimate is static only when nothing was sampled and the store has
    # no evidence for this operator; one observation is evidence enough.
    store = StatisticsStore()
    learned_elsewhere = case in (
        "prior for another operator", "nothing carried, nothing learned"
    )
    _observe(store, key="other" if learned_elsewhere else "k1")
    if case == "blended prior":
        _observe(store, records_out=7)  # 0.2 + DECAY * (0.7 - 0.2)
    operator = _keyed_operator(carried)
    if case == "no stats entry":
        operator.stats_entry = None
    belief = believe(operator, None if case == "no store" else store)
    assert (
        belief.selectivity, belief.cost_per_record, belief.latency_per_record
    ) == pytest.approx(expected[:3])
    assert belief.source == expected[3]
    # The audition results ride along whatever the numbers came from.
    if carried is not None:
        assert belief.candidates is carried.candidates


def test_a_prior_is_snapshotted_into_the_estimate():
    store = StatisticsStore()
    _observe(store, records_out=2)
    operator = _keyed_operator(None)
    operator.estimate = believe(operator, store)
    assert operator.estimate.selectivity == pytest.approx(0.2)
    _observe(store, records_out=9)  # the live prior now reads 0.2 + 0.3 * 0.7
    assert store.prior("k1").selectivity == pytest.approx(0.41)
    assert operator.estimate.selectivity == pytest.approx(0.2)


def test_explain_analyze_reads_the_estimate_the_run_was_planned_with(
    bundle, monkeypatch
):
    # The run ingests its own measurements before EXPLAIN renders: "Est.
    # out" must show what the plan believed, not what the run then taught.
    def run(store):
        reset_uid_counter()
        llm = SimulatedLLM(oracle=SemanticOracle(bundle.registry), seed=23)
        config = QueryProcessorConfig(
            llm=llm, seed=23, optimize=False, stats_store=store
        )
        dataset = Dataset.from_source(bundle.source()).sem_filter(
            instruction_for("qa.flag_urgent")
        )
        return dataset.run_with_report(config)

    # Each observation replaces the last, so a taught value is read as is.
    monkeypatch.setattr(StatisticsStore, "DECAY", 1.0)
    store = StatisticsStore()
    result, report = run(store)
    key = report.bound[1].stats_entry["key"]
    entry = report.bound[1].stats_entry
    # Teach the store a selectivity the data does not have, then re-run:
    # the plan believes it, the run's own ingestion overwrites it.
    store.observe(
        key, entry["kind"], entry["model"], entry["dataset"], entry["scope"],
        records_in=24, records_out=24,
    )
    result, report = run(store)
    stats = result.operator_stats[1]
    assert stats.estimate.source == "prior" and stats.estimate.selectivity == 1.0
    assert store.prior(key).selectivity == stats.selectivity < 1.0
    (row,) = [
        line for line in explain_analyze(result, report).splitlines()
        if line.startswith("| SemFilter")
    ]
    cells = [cell.strip() for cell in row.split("|")]
    assert cells[3] == "24"  # Est. out: 24 x the believed 1.0


# ---------------------------------------------------------------------------
# (d) One pricing loop: what it charges a chain under believed priors
# ---------------------------------------------------------------------------


def _believed_chain(bundle, chain, per_operator):
    """The operators above the leaf of ``chain(scan)`` as the binder planned
    them, with a store holding one ``(cost_per_record, selectivity)`` prior
    each, and what :func:`believe` makes of them."""
    reset_uid_counter()
    stats = StatisticsStore()
    llm = SimulatedLLM(oracle=SemanticOracle(bundle.registry), seed=23)
    config = QueryProcessorConfig(llm=llm, seed=23, optimize=False, stats_store=stats)
    _result, report = chain(Dataset.from_source(bundle.source())).run_with_report(config)
    operators = report.planned[1:]
    assert len(operators) == len(per_operator)
    stats.clear()
    for operator, (cost_per_record, selectivity) in zip(operators, per_operator):
        entry = operator.stats_entry
        stats.observe(
            entry["key"], entry["kind"], entry["model"], entry["dataset"], entry["scope"],
            records_in=100,
            records_out=round(100 * selectivity),
            cost_usd=100 * cost_per_record,
        )
    beliefs = [believe(operator, stats) for operator in operators]
    assert {belief.source for belief in beliefs} == {"prior"}
    return operators, beliefs, stats


def test_chain_price_is_the_closed_form_on_llm_operators(bundle):
    def chain(scan):
        return (
            scan.sem_filter(instruction_for("qa.flag_urgent"))
            .sem_filter(instruction_for("qa.flag_refund"))
            .sem_map(Field("customer", str, "customer name"), instruction_for("qa.customer"))
        )

    priors = [(0.00031, 0.37), (0.00047, 0.59), (0.00113, 1.0)]
    operators, beliefs, stats = _believed_chain(bundle, chain, priors)
    total, _ = estimate_chain_steps(operators, beliefs, input_cardinality=20.0)
    # Bit for bit: the sum of rows-in times cost-per-record, rows shrinking
    # by each filter's selectivity.
    rows, closed_form = 20.0, 0.0
    for operator in operators:
        prior = stats.prior(operator.stats_entry["key"])
        closed_form += rows * prior.cost_per_record
        rows *= prior.selectivity
    assert total.cost_usd == closed_form


def test_chain_price_caps_rows_at_a_limit(bundle):
    # The learned 0.25 ratio of a limit(2) does not scale 20 rows to 5:
    # only 2 rows reach the map.
    def chain(scan):
        return (
            scan.sem_filter(instruction_for("qa.flag_urgent"))
            .limit(2)
            .sem_map(Field("customer", str, "customer name"), instruction_for("qa.customer"))
        )

    priors = [(0.0003, 0.5), (0.0, 0.25), (0.001, 1.0)]
    operators, beliefs, _stats = _believed_chain(bundle, chain, priors)
    total, steps = estimate_chain_steps(operators, beliefs, input_cardinality=20.0)
    assert steps[1].cardinality == 2.0
    assert total.cost_usd == 20 * 0.0003 + 2 * 0.001


# ---------------------------------------------------------------------------
# (f) Structure: the duplicates stay removed
# ---------------------------------------------------------------------------

SEM = pathlib.Path(P.__file__).parent


def _tree(path: pathlib.Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"))


def _calls(tree: ast.AST) -> list[str]:
    """Name of every called function/method in ``tree`` (prose not counted)."""
    return [
        getattr(node.func, "attr", getattr(node.func, "id", ""))
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    ]


def test_the_sampler_names_no_logical_operator():
    tree = _tree(SEM / "optimizer" / "sampler.py")
    assert "isinstance" not in _calls(tree)
    imported = [
        (node.module or "") + "." + alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ] + [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    ]
    assert not [name for name in imported if "sem.logical" in name], imported
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }
    logical = {
        name for name, value in vars(L).items()
        if isinstance(value, type) and issubclass(value, L.LogicalOperator)
    }
    assert not names & logical


def test_one_belief_rule_and_one_pricing_loop():
    sites = {
        path.relative_to(SEM).as_posix()
        for path in SEM.rglob("*.py")
        if "prior" in _calls(_tree(path))
    }
    assert sites == {"optimizer/cost_model.py"}
    defined = set()
    for path in SEM.rglob("*.py"):
        for node in ast.walk(_tree(path)):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                defined.update(
                    target.id for target in node.targets if isinstance(target, ast.Name)
                )
    for gone in (
        "STREAMABLE_OPS", "profile_from_prior", "estimate_chain",
        "profile_filter", "profile_map", "profile_classify",
        "_python_filter_profile", "_struct_filter_profile",
        "_COMMUTING", "_HOISTABLE_ACROSS",
    ):
        assert gone not in defined, gone
    # Standing queries refresh on a count: they neither believe nor price.
    streaming_calls = _calls(_tree(SEM / "streaming.py"))
    assert "estimate_chain_steps" not in streaming_calls
    assert "believe" not in streaming_calls
