"""Architecture rules: each design decision of the runtime, checked on the AST.

A rule is one row of :data:`RULES`: a name, the files it scans (path
prefixes), a node test and where a hit is allowed.  A node test reads code
(a call, keyword, attribute, identifier or import), never text: prose that
mentions a name passes, and a call split across lines still fires.
:func:`violations` runs a rule over a ``{path: source}`` mapping (the
checked-out :func:`tree` by default, so a test can overlay planted files);
each source is parsed and walked once, and that walk feeds every rule
whose scope holds the file and collects the names the file uses.

To add a rule, write its row in :data:`RULES`, then its plant in
:data:`PLANTS`: the violation it exists to catch, appended to one file.
"""

from __future__ import annotations

import ast
import functools
import os
import re
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Collection, Mapping, NamedTuple

import pytest

from repro.sem import logical as L

ROOT = Path(__file__).resolve().parents[1]


#: Read for the names they use only: no rule scans them for hits.
NAMES_ONLY = ("benchmarks/perf/", "scripts/", "README.md", "docs/")


@functools.cache
def tree() -> dict[str, str]:
    """The library, its tests, the examples and the benchmarks, plus the
    :data:`NAMES_ONLY` inputs.  The reach allow list
    (``scripts/reach_allow.txt``) is left out: it names functions no
    workload runs, not their callers."""
    return {
        path.relative_to(ROOT).as_posix(): path.read_text(encoding="utf-8")
        for pattern in (
            "src/**/*.py", "tests/**/*.py", "examples/**/*.py", "benchmarks/**/*.py",
            "scripts/*.py", "scripts/*.sh", "README.md", "docs/**/*.md",
        )
        for path in sorted(ROOT.glob(pattern))
        if path.is_file()
    }


@dataclass(frozen=True)
class NodeTest:
    """``check(node, where)`` returns what a node of one of ``nodes`` does
    wrong, or ``None``; ``where`` is ``path`` or ``path::Qual.name`` of the
    enclosing definition.  ``locations``: what its :func:`within` scopes
    name, each of which must exist (:func:`stale_locations`)."""

    nodes: tuple[type, ...]
    check: Callable[[ast.AST, str], str | None]
    locations: tuple[str, ...] = ()


@dataclass(frozen=True)
class Rule:
    """A hit passes when ``allowed`` maps a prefix of its ``where`` to
    texts that hold it (``None``: any text).  ``once``: each allowed text
    is hit exactly once at its location.  ``callers``: a hit passes when a
    file under one of these prefixes names it (:data:`_NAMED`)."""

    name: str
    scope: tuple[str, ...]
    test: NodeTest
    allowed: Mapping[str, Collection[str] | None] = field(default_factory=dict)
    once: bool = False
    callers: tuple[str, ...] = ()


# -- node tests ---------------------------------------------------------------

#: The identifiers each node kind binds, reads or imports.
_IDENTIFIERS: dict[type, Callable[[ast.AST], tuple[str, ...]]] = {
    ast.Name: lambda node: (node.id,),
    ast.Attribute: lambda node: (node.attr,),
    ast.FunctionDef: lambda node: (node.name,),
    ast.AsyncFunctionDef: lambda node: (node.name,),
    ast.ClassDef: lambda node: (node.name,),
    ast.arg: lambda node: (node.arg,),
    ast.keyword: lambda node: (node.arg or "",),
    ast.alias: lambda node: (node.name, node.asname or ""),
    ast.ImportFrom: lambda node: (node.module or "",),
    ast.ExceptHandler: lambda node: (node.name or "",),
}


_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+").fullmatch

#: What a node of each kind names for ``Rule.callers``: an identifier, an
#: attribute, or each part of a dotted string (``"Engine.execute"``).  A
#: definition, an import (a package ``__init__`` re-export) and prose name
#: nothing.
_NAMED: dict[type, Callable[[ast.AST], tuple[str, ...]]] = {
    ast.Name: lambda node: (node.id,),
    ast.Attribute: lambda node: (node.attr,),
    ast.Constant: lambda node: (
        tuple(node.value.split(".")) if isinstance(node.value, str) and _DOTTED(node.value) else ()
    ),
}


def identifier(pattern: str) -> NodeTest:
    """An identifier that ``pattern`` matches (``re.search``)."""
    search = re.compile(pattern).search

    def check(node: ast.AST, where: str) -> str | None:
        return next(filter(search, _IDENTIFIERS[type(node)](node)), None)

    return NodeTest(tuple(_IDENTIFIERS), check)


def _dotted(node: ast.AST) -> str:
    """``a.b.c`` for an attribute chain; a base that is no name reads ``?``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    parts.append(node.id if isinstance(node, ast.Name) else "?")
    return ".".join(reversed(parts))


def call(pattern: str) -> NodeTest:
    """A call whose dotted callee (``self.store.match``) ``pattern``
    matches; the hit is the called name (``match``)."""
    search = re.compile(pattern).search

    def check(node: ast.Call, where: str) -> str | None:
        dotted = _dotted(node.func)
        return dotted.rsplit(".", 1)[-1] if search(dotted) else None

    return NodeTest((ast.Call,), check)


def imports(pattern: str) -> NodeTest:
    """An import of a module or a name (``module.name``) that ``pattern``
    matches; the hit lists every such name of the statement."""
    search = re.compile(pattern).search

    def check(node: ast.Import | ast.ImportFrom, where: str) -> str | None:
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            names = [node.module or "", *(f"{node.module}.{a.name}" for a in node.names)]
        return ", ".join(filter(search, names)) or None

    return NodeTest((ast.Import, ast.ImportFrom), check)


def within(location: str, test: NodeTest) -> NodeTest:
    """``test``, inside ``location`` (a path or ``path::Qual.name``) only."""
    def check(node: ast.AST, where: str) -> str | None:
        return test.check(node, where) if where.startswith(location) else None

    return NodeTest(test.nodes, check, (location, *test.locations))


def any_of(*tests: NodeTest) -> NodeTest:
    def check(node: ast.AST, where: str) -> str | None:
        hits = (test.check(node, where) for test in tests if isinstance(node, test.nodes))
        return next(filter(None, hits), None)

    return NodeTest(
        tuple({node: 0 for test in tests for node in test.nodes}),
        check,
        tuple(location for test in tests for location in test.locations),
    )


def _priced_twice(node: ast.Call, where: str) -> str | None:
    if getattr(node.func, "attr", getattr(node.func, "id", None)) == "approx_token_count":
        for inner in ast.walk(node):
            if isinstance(inner, ast.Call) and getattr(inner.func, "attr", None) == "as_text":
                return "approx_token_count(....as_text())"
    return None


def _shard_fork(node: ast.Compare, where: str) -> str | None:
    sides = (node.left, *node.comparators)
    if isinstance(node.ops[0], ast.Eq) and any(getattr(s, "attr", "") == "shards" for s in sides):
        return "... .shards == ..."
    return None


def _untyped_raise(node: ast.Raise, where: str) -> str | None:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    name = getattr(exc, "id", None)
    return f"raise {name}" if name in UNTYPED else None


UNTYPED = ("ValueError", "KeyError", "TypeError", "RuntimeError")


def _definition(node: ast.FunctionDef | ast.ClassDef, where: str) -> str | None:
    """A function's or class's name; dunders and a class that declares
    ``implements =`` (the operator registry reaches it) are exempt."""
    if node.name.startswith("__") and node.name.endswith("__"):
        return None
    if isinstance(node, ast.ClassDef) and any(
        isinstance(target, ast.Name) and target.id == "implements"
        for statement in node.body if isinstance(statement, ast.Assign)
        for target in statement.targets
    ):
        return None
    return node.name


# -- retired keywords and names -----------------------------------------------

#: callee -> keywords no call may pass it.  Execution mechanics, replan
#: gates, model pins, catalog floors, estimate modes and failure modes are
#: derived or constants; served queries and standing queries inherit the
#: runtime's config, a standing query refreshes on a count and primes; a
#: tenant is a name and a budget; the cache is always on and the vector memo
#: keeps the embedding kernel; the fault layer keeps one retry knob; every
#: store's bound and blend weight is a class constant.
RETIRED_KEYWORDS: dict[str, set[str]] = {
    **dict.fromkeys(("QueryProcessorConfig", "AnalyticsRuntime", "ConfigSpec", "for_bundle"), {
        "pipeline", "pushdown", "embed_batch_size", "adaptive_parallelism",
        "replan_threshold", "replan_min_rows", "replan_limit",
        "select_models", "materialization_scope", "stats_scope", "champion_model",
        "answer_cache_size", "stats_estimates", "fallback_model", "on_failure",
    }),
    **dict.fromkeys(("serving", "ServingRuntime"), {
        "optimize", "replan", "shards", "partitioner",
    }),
    "StandingQueryManager": {"clock", "tracer", "metrics"},
    "RefreshPolicy": {"interval_s", "lateness_s", "min_batch_usd", "max_staleness_s"},
    **dict.fromkeys(("append", "update"), {"event_time_s"}),
    "pump": {"now_s"},
    "TenantSpec": {"weight", "max_per_window", "window_s"},
    "CrossQueryScheduler": {"weights"},
    "register": {"runner", "prime"},
    "SimulatedLLM": {"use_cache", "embedding_model"},
    "ContextManager": {"threshold"},
    "find_similar": {"threshold"},
    "ExecutionContext": {"embed_batch_size"},
    "AdaptiveParallelism": {"min_width", "widen_after"},
    "UsageTracker": {"budget_usd"},
    "FaultConfig": {
        "per_model_rates", "include_embeddings", "burst_length", "burst_rate", "retry_after_s",
    },
    "RetryPolicy": {
        "enabled", "base_backoff_s", "backoff_multiplier", "max_backoff_s",
        "jitter", "timeout_s", "breaker_threshold", "breaker_cooldown_s",
    },
    "CodeAgent": {"step_timeout_s", "max_llm_failures", "max_consecutive_tool_errors"},
    **dict.fromkeys(
        ("StatisticsStore", "MaterializationStore", "GenerationCache"),
        {"decay", "min_observations", "max_entries"},
    ),
}
#: Class constants and lifetime-only counters: no call takes these.
RETIRED_ANYWHERE = {"similarity_floor", "max_candidates_per_left", "reset_stats"}


def _retired_keyword(node: ast.Call, where: str) -> str | None:
    callee = getattr(node.func, "attr", getattr(node.func, "id", None))
    retired = RETIRED_KEYWORDS.get(callee, ())
    return ", ".join(
        f"{callee}({kw.arg}=...)"
        for kw in node.keywords
        if kw.arg in retired or kw.arg in RETIRED_ANYWHERE
    ) or None


#: Names whose mechanism is gone: the retired refresh triggers and the
#: state only they read, the cache switch, the agent-op IR, the stats
#: store's evidence floor and append decay, the token-Jaccard merge, the
#: serving mode split, the explicit-LLM re-wiring, the circuit breaker, the
#: fallback failure mode, SQL writes, the served standing-query fork, the
#: tenant rate quota, the test-only research policy and the per-record
#: operator entry point (LLM operators define a row kernel, process_rows).
RETIRED_NAMES = (
    "governor", "watermark", "lateness", "event_time", "max_staleness",
    "min_batch_usd", "now_s", "last_refresh_s", "use_cache", "compile_operator",
    "LogicalAgentOp", "CompiledAgentOp", "cheapest_model", "usable_prior",
    "note_dataset_version", "decay_dataset", "dataset_decays", "_dataset_versions",
    "use_priors", "merge_similar_instructions", "InstructionGroup", "key_prefix",
    "sink_owns_time", "fused_batch_size", "_wire_explicit_llm", "CircuitBreaker",
    "CircuitOpenError", "resolved_fallback_model", "fallback_model", "breaker_",
    "CreateTable", "InsertInto", "DropTable", "_execute_insert", "_parse_create",
    "register_standing", "pump_standing", "standing_manager", "RefreshRunner",
    "max_per_window", "GenericResearchPolicy", "process_record",
)
#: The hand-written SQL executor, its function table and the record
#: evaluator over it (sqlite runs SQL), matched as whole names so
#: ``ShardedExecutor`` stays.
RETIRED_SQL = ("Executor", "_EVALUATOR", "evaluate_predicate", "SCALARS", "AGGREGATES")
#: Per-operator ladders and tuples the operator classes' declarations
#: replaced, and the champion option.
RETIRED_LADDERS = (
    "op_token", "COSTLY_OPS", "INCREMENTAL_SAFE_OPS", "_PROFILED_OPS", "_FREE_FILTERS",
    "_PUSHABLE", "COMMUTING_FILTERS", "champion_model",
)
#: The estimator's retired duplicates, matched as whole names
#: (estimate_chain_steps is the one pricing loop).
RETIRED_DUPLICATES = (
    "estimate_operator", "STREAMABLE_OPS", "profile_from_prior", "estimate_chain",
    "profile_filter", "profile_map", "profile_classify", "_python_filter_profile",
    "_struct_filter_profile", "_COMMUTING", "_HOISTABLE_ACROSS",
)

# -- the rules ----------------------------------------------------------------

SRC = "src/repro/"
SEM, SIMULATED = SRC + "sem/", SRC + "llm/simulated.py"
EXECUTION, PHYSICAL, SHARD = SEM + "execution.py", SEM + "physical.py", SEM + "shard.py"
OPTIMIZER, SAMPLER = SEM + "optimizer/optimizer.py", SEM + "optimizer/sampler.py"
STREAMING, REPLAN = SEM + "streaming.py", SEM + "optimizer/replan.py"
#: The concrete logical operators, and every logical class (base included).
OPERATORS = {cls.__name__ for cls in L.LogicalOperator.__subclasses__()}
LOGICAL = {
    name for name, value in vars(L).items()
    if isinstance(value, type) and issubclass(value, L.LogicalOperator)
}
STORE_CALLS = r"(match|put|note_hit|note_miss)$"

RULES = (
    # -- the guards scripts/check.sh ran --
    # A fused cell pays for its records, not for a generator per block.
    Rule("per-cell-no-generator", (SIMULATED, EXECUTION), identifier("contextmanager")),
    # Meter the agent's code, not the engine.
    Rule("untraced-engine", (SRC,), identifier("settrace|setprofile")),
    # A record's prompt tokens are counted once: record.text_tokens().
    Rule("priced-once", (SRC + "llm/",), NodeTest((ast.Call,), _priced_twice)),
    # Submit and drain never digest the answer: a reader reads job.fingerprint.
    Rule("digest-on-read", (SRC + "serve/",), call(r"\.fingerprint$")),
    # A text is embedded once per process: embedding_model.vector(text, digest).
    Rule(
        "embed-once", (SRC,), call(r"embedding_model\.embed$"), {SRC + "llm/embeddings.py": None},
    ),
    # An update is a delta: the store's next probe patches or evicts.
    Rule("no-eager-eviction", (STREAMING,), identifier("invalidate_sources")),
    # ... and a generation-cache key is the call's tuple: nothing digests one.
    Rule("retired-names", ("src/",), any_of(
        identifier("|".join(RETIRED_NAMES) + f"|^({'|'.join(RETIRED_SQL)})$"),
        call(r"GenerationCache\.key$|\.key\.digest$"),
    )),
    # One SQL engine: stdlib sqlite3 runs every SELECT and record predicate.
    Rule("one-sql-engine", ("src/",), imports(r"^sqlite3(\.|$)"), {SRC + "sql/": None}),
    # Time goes through llm.spend, dependencies through llm.mark / measure(after).
    Rule("one-schedule", (SEM,), identifier("serve_sink")),
    # Replan x shards and replan x reuse are compositions, not exclusions.
    Rule("composition", ("src/",), identifier("REPLAN_DISABLED_(SHARDED|REUSED)")),
    Rule("retired-ladders", ("src/",), identifier(
        "|".join(RETIRED_LADDERS) + f"|^({'|'.join(RETIRED_DUPLICATES)})$"
    )),
    Rule(
        "retired-keywords", ("src/", "tests/", "examples/", "benchmarks/"),
        NodeTest((ast.Call,), _retired_keyword),
    ),
    # Runtime-bound configs derive from the one template.
    Rule(
        "one-config-derivation", (SRC + "core/", SRC + "serve/", STREAMING),
        call(r"(^|\.)QueryProcessorConfig$"),
        {SRC + "core/runtime.py": {"QueryProcessorConfig"}}, once=True,
    ),
    # Only the optimizer probes a store and only the engine's capture writes
    # one; a shard worker reads no store state.  Context reuse is
    # ContextManager.narrow, answer reuse AnalyticsRuntime.answer.
    Rule(
        "one-reuse-decision", (SRC,),
        any_of(
            call(r"store\." + STORE_CALLS + r"|\.note_(hit|miss)$|\.(find_similar|find_answer)$"),
            within(SEM + "materialize.py", call(r"^self\." + STORE_CALLS)),
            within(SHARD, identifier(
                "^(capture|store|materialization_store|match|put|note_hit|note_miss"
                "|fingerprint|source_uids)$"
            )),
            within(SHARD, imports(r"^repro\.sem\.materialize$")),
        ),
        {
            OPTIMIZER: {"match", "note_hit", "note_miss"},
            EXECUTION: {"put"},
            SEM + "materialize.py": {"put"},  # MaterializationStore.load re-puts
            SRC + "core/context_manager.py": {"find_similar"},
            SRC + "core/runtime.py": {"find_answer"},
        },
    ),
    # believe() reads priors; the sampler runs the bound operator and names
    # no operator kind; standing queries neither believe nor price.
    Rule(
        "one-estimator", (SEM,),
        any_of(
            call(r"(^|\.)prior$"),
            within(SAMPLER, call(r"(^|\.)isinstance$")),
            within(SAMPLER, identifier(f"^({'|'.join(LOGICAL)}|streamable|classify_partition)$")),
            within(SAMPLER, imports(r"sem\.logical")),
            within(STREAMING, call(r"(^|\.)(believe|estimate_chain_steps)$")),
        ),
        {SEM + "optimizer/cost_model.py": {"prior"}},
    ),
    # Per-operator facts live on the classes: an operator class is named
    # where it is declared, by the fluent API, and by the rewrites that
    # construct or match it.
    Rule(
        "one-operator-declaration", (SEM,), identifier(f"^({'|'.join(OPERATORS)})$"),
        {
            SEM + "logical.py": None, PHYSICAL: None, SEM + "dataset.py": None,
            OPTIMIZER: {"ScanOp", "SqlScanOp", "MaterializedScanOp"},
            # compiled_sql renders the last four as SQL clauses.
            SEM + "optimizer/pushdown.py": {
                "ScanOp", "SqlScanOp", "StructFilterOp", "ProjectOp", "LimitOp", "StructAggOp",
            },
            SEM + "optimizer/rules.py": {"ProjectOp", "LimitOp"},
        },
    ),
    # -- the structure tests' AST checks --
    # A shard worker asks the operator: it imports only the base type from
    # physical.py and special-cases no class, state or order key.
    Rule(
        "shard-asks-the-operator", (SHARD,),
        any_of(
            imports(r"^repro\.sem\.physical\."), call("^isinstance$"),
            identifier("^(join_left|classify_label|build_group)$"),
            NodeTest((ast.Constant,), lambda node, where: (
                "'scored'" if node.value == "scored" else None
            )),
        ),
        {SHARD: {"repro.sem.physical.PhysicalOperator"}}, once=True,
    ),
    # The replay is bound one way at every shard count: no unsharded fork.
    Rule(
        "one-replay-splice", (OPTIMIZER,),
        within(OPTIMIZER + "::Optimizer._bind_reusing", NodeTest((ast.Compare,), _shard_fork)),
    ),
    # Cells are scheduled, sated and cut in Engine.run_section only; a shard
    # worker is that loop with another per-cell callback.
    Rule(
        "one-section-loop", (SEM,), call(r"\.(record|sated|start_batch|finalize)$"),
        {
            EXECUTION + "::Engine.run_section": {"record", "sated", "start_batch"},
            # The loop's flush and the derived whole-input entry point.
            EXECUTION: {"finalize"}, PHYSICAL: {"finalize"},
        },
        once=True,
    ),
    # Executors drive operators through process_batch, never a per-record
    # or row kernel.
    Rule("batch-entry-point", (EXECUTION, SHARD), identifier("process_r(ecord|ows)")),
    # The re-planner permutes bound operators; it never re-binds.
    Rule("replan-without-optimizer", (REPLAN,), identifier("Optimizer|_bind_one")),
    # The reference interpreter shares no engine code with what it checks.
    Rule(
        "reference-interpreter-independent", (SRC + "qa/reference.py",),
        imports(r"^repro\.sem\.(physical|execution|shard|batch|optimizer)(\.|$)"),
    ),
    # Every raise is a ReproError (one may also subclass the builtin it
    # replaced, as FieldNotFoundError does KeyError).
    Rule("untyped-raises", ("src/",), NodeTest((ast.Raise,), _untyped_raise)),
    # A src/ definition has a caller outside tests/: a test-only helper
    # lives in tests/.  Names match by identifier, so a method that shares
    # its name with a used definition passes.
    Rule(
        "test-only-definitions", (SRC,),
        NodeTest((ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef), _definition),
        {
            # BaseCodeAgentPolicy.next_code calls getattr(self, f"step_{n}").
            SRC + "agents/policies/semantic_tools.py::SemanticToolsCodeAgentPolicy": {
                f"step_{n}" for n in range(5)
            },
            # ComputeAgentPolicy.next_code calls getattr(self, f"_{flow}_{n}").
            SRC + "core/agent_policies.py::ComputeAgentPolicy": {
                f"_{flow}_{n}" for flow in ("argmax", "filter", "generic", "ratio") for n in range(3)
            },
            # ShardedExecutor runs a segment with getattr(self, f"_run_{kind}").
            SHARD + "::ShardedExecutor": {"_run_scatter", "_run_shuffle", "_run_broadcast"},
            # html.parser.HTMLParser calls its subclass's handle_* callbacks.
            SRC + "data/tabular.py::_TableCollector": {
                "handle_starttag", "handle_endtag", "handle_data",
            },
        },
        once=True,
        callers=("src/", "benchmarks/", "examples/", "scripts/", "README.md", "docs/"),
    ),
)
RULE = {rule.name: rule for rule in RULES}
#: Every file whose names some rule's ``callers`` reads.
CALLERS = tuple({prefix: None for rule in RULES for prefix in rule.callers})

# -- the helper ---------------------------------------------------------------


class Scan(NamedTuple):
    #: ``rule name -> [(where, line, what)]`` for every rule scanning the file.
    hits: dict[str, list[tuple[str, int, str]]]
    #: What the file names, when it is one of :data:`CALLERS`.
    names: frozenset[str]


@functools.cache
def _hits(path: str, source: str) -> Scan:
    """One parse and one walk of ``source`` (a text file is read for the
    words it names)."""
    collect = path.startswith(CALLERS)
    if not path.endswith(".py"):
        return Scan({}, frozenset(re.findall(r"[A-Za-z_]\w*", source) if collect else ()))
    dispatch: dict[type, list[Rule]] = {}
    for rule in RULES:
        if path.startswith(rule.scope) and not path.startswith(NAMES_ONLY):
            for node_type in rule.test.nodes:
                dispatch.setdefault(node_type, []).append(rule)
    hits: dict[str, list[tuple[str, int, str]]] = {}
    names: set[str] = set()
    named = _NAMED if collect else {}
    stack = [(ast.parse(source, path), path)] if dispatch or collect else []
    while stack:
        node, where = stack.pop()
        for rule in dispatch.get(type(node), ()):
            what = rule.test.check(node, where)
            if what:
                hits.setdefault(rule.name, []).append((where, node.lineno, what))
        if type(node) in named:
            names.update(named[type(node)](node))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}{'.' if '::' in where else '::'}{node.name}"
        stack.extend((child, where) for child in ast.iter_child_nodes(node))
    return Scan(hits, frozenset(names))


def _within(where: str, location: str) -> bool:
    rest = where[len(location):]
    return where.startswith(location) and (not rest or location.endswith("/") or rest[0] in ":.")


def _scans(
    prefixes: tuple[str, ...], sources: Mapping[str, str | tuple[str, ...]] | None,
) -> list[tuple[str, Scan]]:
    """``(path, scan)`` of every chunk of the files under ``prefixes``.  A
    tuple of module-level chunks reads as one file, so a plant appended to
    a file re-reads only the plant."""
    return [
        (path, _hits(path, chunk))
        for path, source in (tree() if sources is None else sources).items()
        if path.startswith(prefixes)
        for chunk in ((source,) if isinstance(source, str) else source)
    ]


def _rule_hits(rule: Rule, sources: Mapping[str, str | tuple[str, ...]] | None = None) -> list:
    """Every ``(where, line, what)`` of ``rule`` in ``sources`` (default:
    :func:`tree`) that no caller names, before the allow list."""
    named = frozenset().union(*(scan.names for _, scan in _scans(rule.callers, sources)))
    return sorted(
        hit for _, scan in _scans(rule.scope, sources)
        for hit in scan.hits.get(rule.name, ()) if hit[2] not in named
    )


def violations(rule: Rule, sources: Mapping[str, str | tuple[str, ...]] | None = None) -> list[str]:
    """What ``rule`` rejects in ``sources`` (default: :func:`tree`); empty
    when it passes."""
    rejected, counts = [], Counter()
    for where, line, what in _rule_hits(rule, sources):
        allowed = [
            location for location, texts in rule.allowed.items()
            if _within(where, location) and (texts is None or what in texts)
        ]
        if allowed:
            counts[allowed[0], what] += 1
        else:
            rejected.append(f"{where} (line {line}): {what}")
    if rule.once:
        rejected += [
            f"{location}: {what} {counts[location, what]} times, expected once"
            for location, texts in rule.allowed.items() for what in texts
            if counts[location, what] != 1
        ]
    return rejected


@functools.cache
def _definitions(path: str, source: str) -> frozenset[str]:
    """``path::Qual.name`` of every function and class ``source`` defines."""
    found, stack = set(), [(ast.parse(source, path), path)]
    while stack:
        node, where = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}{'.' if '::' in where else '::'}{node.name}"
            found.add(where)
        stack.extend((child, where) for child in ast.iter_child_nodes(node))
    return frozenset(found)


def stale_locations(
    rule: Rule, sources: Mapping[str, str | tuple[str, ...]] | None = None,
) -> list[str]:
    """The :func:`within` locations of ``rule`` that name no file or
    definition in ``sources`` (default: :func:`tree`): a rule scoped to a
    deleted function would pass vacuously."""
    files = tree() if sources is None else sources

    def exists(location: str) -> bool:
        path, _, name = location.partition("::")
        if not name:
            return any(candidate.startswith(path) for candidate in files)
        chunks = files.get(path, ())
        return any(
            location in _definitions(path, chunk)
            for chunk in ((chunks,) if isinstance(chunks, str) else chunks)
        )

    return [location for location in rule.test.locations if not exists(location)]


# -- plants: (rule, path, code appended to that file) -------------------------
# A plant that spans files zips a tuple of paths with a tuple of codes.

TOOLS, SERVE, CACHE = SRC + "agents/tools.py", SRC + "serve/runtime.py", SRC + "llm/cache.py"
COST_MODEL, REFERENCE = SEM + "optimizer/cost_model.py", SRC + "qa/reference.py"

#: Each rule's violation (a guard's plant as its CHANGES.md entry recorded
#: it, and every former grep's call split across lines): the rule fires.
PLANTS = [
    ("per-cell-no-generator", SIMULATED, "@contextlib.contextmanager\ndef parallel(): yield"),
    ("per-cell-no-generator", EXECUTION, "from contextlib import contextmanager"),
    ("per-cell-no-generator", EXECUTION, "section = (contextlib\n    .contextmanager)"),
    ("untraced-engine", TOOLS, "sys.settrace(None)"),
    ("untraced-engine", TOOLS, "sys.setprofile(None)"),
    ("untraced-engine", TOOLS, "sys.settrace(\n    None\n)"),
    ("priced-once", SIMULATED, "def _prompt_tokens(r):\n    approx_token_count(r.as_text())"),
    ("priced-once", SIMULATED, "def judge_join(right):\n    approx_token_count(right.as_text())"),
    ("priced-once", SIMULATED, "tokens = approx_token_count(\n    record\n    .as_text()\n)"),
    ("digest-on-read", SERVE, "class ServingRuntime:\n    def submit(s, r): r.fingerprint()"),
    ("digest-on-read", SERVE, "digest = (result\n    .fingerprint(\n    ))"),
    ("embed-once", SIMULATED, "class SimulatedLLM:\n    def embed(s): s.embedding_model.embed(s)"),
    ("embed-once", PHYSICAL, "vector = (self.embedding_model\n    .embed(text))"),
    ("no-eager-eviction", STREAMING, "def _on_event(s, e):\n    s.store.invalidate_sources([e])"),
    ("no-eager-eviction", STREAMING, "evicted = (store\n    .invalidate_sources([source]))"),
    ("retired-names", SRC + "sql/ast_nodes.py", "@dataclass\nclass CreateTable:\n    table: str"),
    ("retired-names", SRC + "core/runtime.py", "def _wire_explicit_llm(self, llm): pass"),
    ("retired-names", SEM + "config.py", "fused = llm.sink_owns_time"),
    ("retired-names", COST_MODEL, "size = config.fused_batch_size()"),
    *(
        ("retired-names", SRC + "plant.py", f"x = owner.{name}")
        for name in RETIRED_NAMES + RETIRED_SQL
    ),
    ("retired-names", CACHE, "key = GenerationCache.key(model, prompt)"),
    ("retired-names", CACHE, "key = (self.call.key\n    .digest(\n    ))"),
    ("one-sql-engine", SEM + "batch.py", "def fallback(expr):\n    import sqlite3"),
    ("one-schedule", SHARD, "sink = llm.serve_sink"),
    ("one-schedule", SHARD, "sink = (llm\n    .serve_sink)"),
    ("composition", OPTIMIZER, "note = REPLAN_DISABLED_SHARDED"),
    ("composition", OPTIMIZER, "from .replan import (\n    REPLAN_DISABLED_REUSED,\n)"),
    *(
        ("retired-ladders", SEM + "plant.py", f"def {name}(op): pass")
        for name in RETIRED_LADDERS + RETIRED_DUPLICATES
    ),
    ("retired-ladders", COST_MODEL, "rows = (cost_model\n    .estimate_operator(op, isinstance))"),
    *(
        ("retired-keywords", "tests/test_plant.py", f"{callee}(x, {keyword}=1)")
        for callee, keywords in RETIRED_KEYWORDS.items() for keyword in sorted(keywords)
    ),
    *(
        ("retired-keywords", path, f"runtime.anything(\n    {keyword}=1)")
        for keyword in sorted(RETIRED_ANYWHERE)
        for path in ("src/repro/plant.py", "examples/plant.py", "benchmarks/plant.py")
    ),
    ("one-config-derivation", SERVE, "config = QueryProcessorConfig(llm=llm)"),
    ("one-config-derivation", SRC + "core/runtime.py", "config = QueryProcessorConfig(llm=llm)"),
    ("one-reuse-decision", SHARD, "entry = self.store.match(fp, uids)"),
    ("one-reuse-decision", PHYSICAL, "materialization_store.put(fp, records)"),
    ("one-reuse-decision", STREAMING, "stats.note_hit('exact')"),
    ("one-reuse-decision", SRC + "core/runtime.py", "ctx = self.context_manager.find_similar(q)"),
    ("one-reuse-decision", SHARD, "uids = op.source_uids"),
    ("one-reuse-decision", SHARD, "from repro.sem.materialize import stamp_fingerprints"),
    ("one-estimator", REPLAN, "belief = self.stats_store.prior(key)"),
    ("one-estimator", SAMPLER, "streams = op.streamable"),
    ("one-estimator", SAMPLER, "labels = op.classify_partition(records)"),
    ("one-estimator", SAMPLER, "filters = isinstance(op, object)"),
    ("one-estimator", SAMPLER, "from repro.sem.logical import SemFilterOp"),
    ("one-estimator", SAMPLER, "from repro.sem import logical"),
    ("one-estimator", SAMPLER, "kind = L.LogicalOperator"),
    ("one-estimator", STREAMING, "cost = believe(\n    entry, prior\n)"),
    ("one-estimator", STREAMING, "cost = estimate_chain_steps(operators, beliefs)"),
    ("one-operator-declaration", EXECUTION, "filters = isinstance(op, L.SemFilterOp)"),
    ("one-operator-declaration", SEM + "optimizer/rules.py", "scan = ScanOp(source)"),
    ("shard-asks-the-operator", SHARD, "from repro.sem.physical import PhysSemTopK"),
    ("shard-asks-the-operator", SHARD, "joins = isinstance(op, object)"),
    ("shard-asks-the-operator", SHARD, "order = 'scored'"),
    ("shard-asks-the-operator", SHARD, "pairs = op.join_left(record)"),
    ("one-replay-splice", OPTIMIZER, "class Optimizer:\n    def _bind_reusing(c): c.shards == 1"),
    ("one-section-loop", SHARD, "schedule.record(stage, seconds)"),
    ("one-section-loop", EXECUTION, "def drain(ops, s):\n    any(o.sated(s) for o in ops)"),
    ("one-section-loop", EXECUTION, "class Engine:\n    def run_section(s): s.start_batch()"),
    ("one-section-loop", SHARD, "held = operator.finalize(ctx, state)"),
    ("batch-entry-point", EXECUTION, "out = op.process_record(record, ctx)"),
    ("batch-entry-point", SHARD, "out = (op\n    .process_record(\n        record, ctx))"),
    ("batch-entry-point", SHARD, "step = op.process_record"),
    ("batch-entry-point", EXECUTION, "out = op.process_rows([record], ctx, state)"),
    ("batch-entry-point", SHARD, "step = op.process_rows"),
    ("replan-without-optimizer", REPLAN, "from repro.sem.optimizer.optimizer import Optimizer"),
    ("replan-without-optimizer", REPLAN, "bound = self.optimizer._bind_one(op)"),
    ("reference-interpreter-independent", REFERENCE, "from repro.sem.physical import P"),
    ("reference-interpreter-independent", REFERENCE, "import repro.sem.execution"),
    ("reference-interpreter-independent", REFERENCE, "from repro.sem import shard"),
    ("reference-interpreter-independent", REFERENCE, "from repro.sem.optimizer import rules"),
    ("untyped-raises", SRC + "errors.py", "def fail():\n    raise ValueError('untyped')"),
    (
        "test-only-definitions", (SRC + "utils/clock.py", "tests/test_plant.py"),
        ("def tested_only(cells): return 0", "from repro.utils.clock import tested_only\ntested_only([])"),
    ),
    (
        "test-only-definitions", (TOOLS, SRC + "agents/__init__.py"),
        (
            "def reexported_only(fn): return fn",
            "from repro.agents.tools import reexported_only\n__all__ += ['reexported_only']",
        ),
    ),
    (
        "test-only-definitions", SRC + "core/runtime.py",
        'def prose_only(): pass\n\ndef compute():\n    """Runs prose_only, then repro.core.runtime."""',
    ),
]

#: Prose is not code, and an option's current spelling is fine: the rule passes.
PASSES = [
    ("batch-entry-point", EXECUTION, 'def f():\n    """process_record"""  # op.process_record(r)'),
    ("replan-without-optimizer", REPLAN, '"""Permutes what Optimizer bound, not _bind_one."""'),
    ("retired-names", COST_MODEL, "x = 'governor', DEFAULT_FALLBACK_MODEL  # sink_owns_time"),
    ("retired-names", SHARD, "runner = ShardedExecutor(engine, plan)"),
    ("retired-keywords", "tests/test_plant.py", "ExecutionContext(llm, on_failure='raise')"),
    ("retired-keywords", "tests/test_plant.py", "RetryPolicy(max_attempts=1)"),
    ("retired-keywords", "tests/test_plant.py", "StatisticsStore(**{'decay': 0.5})"),
    ("one-reuse-decision", CACHE, "self.cache.put(key, value)"),
    # The perf harness resolves its trace targets by dotted name.
    (
        "test-only-definitions", (STREAMING, "benchmarks/perf/trace.py"),
        (
            "class StandingQueryManager:\n    def traced_only(self): pass",
            "TARGETS += (('x', 'repro.sem.streaming', 'StandingQueryManager.traced_only', None),)",
        ),
    ),
    ("test-only-definitions", PHYSICAL, "class PhysPlanted(PhysicalOperator):\n    implements = L.ScanOp"),
]


def _planted(path: str | tuple[str, ...], code: str | tuple[str, ...]) -> dict:
    paths, codes = (path, code) if isinstance(path, tuple) else ((path,), (code,))
    return {**tree(), **{p: (tree().get(p, ""), c) for p, c in zip(paths, codes)}}


def _case_id(case: tuple) -> str:
    rule, path, code = case
    path, code = (path[0], code[0]) if isinstance(path, tuple) else (path, code)
    return f"{rule}:{path.rsplit('/', 1)[-1]}:{code.splitlines()[0][:40]}"


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.name)
def test_the_clean_tree_passes(rule):
    assert violations(rule) == []


@pytest.mark.parametrize("case", PLANTS, ids=_case_id)
def test_plant_fires(case):
    rule, path, code = case
    assert violations(RULE[rule], _planted(path, code))


@pytest.mark.parametrize("case", PASSES, ids=_case_id)
def test_prose_and_current_spellings_pass(case):
    rule, path, code = case
    assert violations(RULE[rule], _planted(path, code)) == []


def test_every_scoped_location_exists():
    stale = {rule.name: stale_locations(rule) for rule in RULES}
    assert {name: gone for name, gone in stale.items() if gone} == {}


def test_a_stale_location_fires():
    """A rule scoped to a function that is gone passes on every tree, so
    the location itself is checked: here, the replay splice this rule
    once guarded."""
    gone = OPTIMIZER + "::Optimizer._splice_replay"
    rule = Rule("stale", (OPTIMIZER,), within(gone, NodeTest((ast.Compare,), _shard_fork)))
    assert violations(rule) == []
    assert stale_locations(rule) == [gone]
    planted = _planted(OPTIMIZER, "class Optimizer:\n    def _splice_replay(c): pass")
    assert stale_locations(rule, planted) == []


def test_names_only_inputs_change_no_rule_hits():
    """The perf harness, the scripts and the docs feed ``callers`` only."""
    narrow = {path: source for path, source in tree().items() if not path.startswith(NAMES_ONLY)}
    assert len(narrow) < len(tree())
    for rule in RULES:
        if not rule.callers:
            assert _rule_hits(rule) == _rule_hits(rule, narrow), rule.name


def test_every_rule_has_a_plant():
    assert [rule.name for rule in RULES] == list(dict.fromkeys(rule for rule, _, _ in PLANTS))


def test_sqlite3_is_imported_on_first_use():
    """``import repro`` and a ``where`` plan the kernel runs on its float
    path leave ``sqlite3`` unimported: no workload pays for it at set-up."""
    code = "\n".join([
        "import sys",
        "import repro",
        "from repro.data.records import DataRecord",
        "from repro.data.schemas import Field, Schema",
        "from repro.llm.simulated import SimulatedLLM",
        "from repro.sem.config import QueryProcessorConfig",
        "from repro.sem.dataset import Dataset",
        "records = [DataRecord({'priority': p}) for p in (1, 2, 3)]",
        "plan = Dataset.from_records(records, Schema([Field('priority', int)]))",
        "result = plan.where('priority >= 2').run(QueryProcessorConfig(llm=SimulatedLLM(seed=0)))",
        "assert [r.fields['priority'] for r in result.records] == [2, 3]",
        "print('sqlite3' in sys.modules)",
        "repro.Database().execute('SELECT 1')",
        "print('sqlite3' in sys.modules)",
    ])
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["False", "True"]
