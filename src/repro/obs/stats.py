"""Trace-fed statistics store: learned per-operator priors.

The observability layer records what every operator *actually did* — rows
in/out, dollars, latency — on every run.  The :class:`StatisticsStore`
closes the loop the paper's runtime vision calls for: it aggregates those
observations into per-(operator, model, dataset) **priors** that the cost
model consults on later queries, replacing static guesses (selectivity
0.5, cost 0) with learned values, and that the engine's mid-query
re-planner consults when observed cardinality diverges from the plan.  A
prior keeps the three per-record numbers an estimate reads (selectivity,
cost, latency) and the evidence behind them (observations, mean input
cardinality) — nothing else.

One ingestion path feeds the accumulator: :meth:`ingest_run`, called by
the query processor after each completed run with the engine's measured
per-operator stats, each row carrying its operator's statistics key.  It
emits a zero-duration ``stats.ingest`` span so ingestion is visible in
traces.

Keys are opaque stable digests computed by the optimizer layer (see
``repro.sem.optimizer.replan``); this module never imports from
``repro.sem``, keeping ``obs`` at the bottom of the layering.

Updates are **decayed online means** (exponentially weighted): the first
observation sets each statistic, later ones blend in with weight
:attr:`StatisticsStore.DECAY`, so priors track drift without unbounded
state.  Counters mirror into an attached
:class:`~repro.obs.metrics.MetricsRegistry` as ``stats.observations`` /
``stats.lookups`` / ``stats.hits``.

Priors are also keyed to a ``dataset`` (source id).  An in-place update
of a source drops that dataset's priors (:meth:`invalidate_dataset`, called
by the standing-query layer): the content the selectivities were learned
on no longer exists.  An append changes nothing here — new rows from the
same source usually look like old rows, and every stored prior is already
evidence enough to be believed.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from repro.utils.persist import load_json, save_json

#: Bump when the prior schema or key grammar changes; keeps persisted
#: stores honest across versions (a mismatched file loads as empty).
STATS_VERSION = 1

#: Fields updated with the decayed blend (everything but the metadata).
_BLENDED_FIELDS = (
    "selectivity",
    "rows_in",
    "cost_per_record",
    "latency_per_record",
)


@dataclass
class OperatorPrior:
    """Learned statistics for one (operator, model, dataset, scope) key."""

    key: str
    kind: str
    model: str
    dataset: str
    scope: str
    observations: int = 0
    #: Output/input row ratio (output cardinality = input * selectivity).
    selectivity: float = 1.0
    #: Decayed mean input cardinality (absolute row count).
    rows_in: float = 0.0
    cost_per_record: float = 0.0
    latency_per_record: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "OperatorPrior":
        """Rebuild a saved prior; keys this version does not keep are dropped."""
        return cls(**{name: payload[name] for name in _PRIOR_FIELDS if name in payload})


_PRIOR_FIELDS = tuple(field.name for field in fields(OperatorPrior))


class StatisticsStore:
    """LRU-bounded accumulator of per-operator execution priors.

    Each new observation after the first blends in with weight
    :attr:`DECAY` (``value += DECAY * (new - value)``); at most
    :attr:`MAX_ENTRIES` priors are kept.  One observation is evidence
    enough: :meth:`prior` returns every stored prior.
    """

    DECAY = 0.3
    MAX_ENTRIES = 4096

    def __init__(self) -> None:
        self._priors: "OrderedDict[str, OperatorPrior]" = OrderedDict()
        self.observations = 0
        self.lookups = 0
        self.hits = 0
        self.evictions = 0
        self.dataset_invalidations = 0
        #: Files :meth:`load` could not parse (each loaded as empty).
        self.load_errors = 0
        #: Optional :class:`repro.obs.metrics.MetricsRegistry` mirror.
        self.metrics = None

    # -- writes ---------------------------------------------------------

    def observe(
        self,
        key: str,
        kind: str,
        model: str,
        dataset: str,
        scope: str,
        *,
        records_in: int,
        records_out: int,
        cost_usd: float = 0.0,
        time_s: float = 0.0,
    ) -> "OperatorPrior | None":
        """Fold one measured operator execution into the prior for ``key``.

        Executions that saw no input carry no information about
        selectivity or per-record cost and are dropped (returns None).
        """
        if records_in <= 0:
            return None
        prior = self._priors.get(key)
        if prior is None:
            prior = OperatorPrior(
                key=key, kind=kind, model=model, dataset=dataset, scope=scope
            )
            self._priors[key] = prior
        self._priors.move_to_end(key)
        observed = {
            "selectivity": records_out / records_in,
            "rows_in": float(records_in),
            "cost_per_record": cost_usd / records_in,
            "latency_per_record": time_s / records_in,
        }
        if prior.observations == 0:
            for name in _BLENDED_FIELDS:
                setattr(prior, name, observed[name])
        else:
            for name in _BLENDED_FIELDS:
                old = getattr(prior, name)
                setattr(prior, name, old + self.DECAY * (observed[name] - old))
        prior.observations += 1
        self.observations += 1
        self._count("stats.observations")
        while len(self._priors) > self.MAX_ENTRIES:
            self._priors.popitem(last=False)
            self.evictions += 1
            self._count("stats.evictions")
        return prior

    # -- reads ----------------------------------------------------------

    def prior(self, key: "str | None") -> "OperatorPrior | None":
        """Look up the prior for ``key`` (None misses without counting)."""
        if key is None:
            return None
        self.lookups += 1
        self._count("stats.lookups")
        prior = self._priors.get(key)
        if prior is None:
            return None
        self._priors.move_to_end(key)
        self.hits += 1
        self._count("stats.hits")
        return prior

    # -- ingestion ------------------------------------------------------

    def ingest_run(self, operator_stats, tracer=None) -> int:
        """Ingest one finished run's measured per-operator statistics.

        ``operator_stats`` is the engine's per-operator measurement list;
        each row carries the key-metadata dict of the operator it measured
        (:meth:`observe`'s ``key, kind, model, dataset, scope``) as
        ``stats_entry`` (None = not stat-keyed, skipped).  Emits a
        zero-duration ``stats.ingest`` span on an enabled tracer.
        """
        ingested = 0
        for stats in operator_stats:
            entry = stats.stats_entry
            if entry is None:
                continue
            if self.observe(
                **entry,
                records_in=stats.records_in,
                records_out=stats.records_out,
                cost_usd=stats.cost_usd,
                time_s=stats.time_s,
            ):
                ingested += 1
        if tracer is not None and tracer.enabled:
            with tracer.span(
                "stats.ingest",
                kind="stats.ingest",
                observations=ingested,
                store_size=len(self),
            ):
                pass
        return ingested

    # -- dataset invalidation -------------------------------------------

    def invalidate_dataset(self, dataset: str) -> int:
        """Drop every prior learned on ``dataset`` (in-place rewrite)."""
        stale = [
            key
            for key, prior in self._priors.items()
            if prior.dataset == dataset
        ]
        for key in stale:
            del self._priors[key]
        self.dataset_invalidations += len(stale)
        self._count("stats.dataset_invalidations", len(stale))
        return len(stale)

    # -- maintenance ----------------------------------------------------

    def clear(self) -> None:
        self._priors.clear()

    def priors(self) -> "list[OperatorPrior]":
        return list(self._priors.values())

    def __len__(self) -> int:
        return len(self._priors)


    # -- persistence ----------------------------------------------------

    def save(self, path: "str | Path") -> int:
        """Persist all priors as JSON; returns how many were saved.

        Atomic and checksummed (:func:`repro.utils.persist.save_json`): a
        crash mid-save leaves the previous file readable.
        """
        payload = {
            "version": STATS_VERSION,
            "priors": [prior.to_dict() for prior in self._priors.values()],
        }
        save_json(path, payload)
        return len(self._priors)

    def load(self, path: "str | Path") -> int:
        """Load priors saved by :meth:`save`; returns how many were loaded.

        A version mismatch loads nothing (stale key grammars must never
        feed estimates), and so does a truncated, non-JSON or
        checksum-failing file, counted in ``load_errors`` — a corrupt
        statistics file costs the learned priors, never the query.
        :attr:`MAX_ENTRIES` is enforced before insertion: oldest overflow
        (save order = LRU order) is dropped and counted as evictions.
        """
        payload = load_json(path)
        if payload is None:
            self.load_errors += 1
            self._count("stats.load_errors")
            return 0
        if payload.get("version") != STATS_VERSION:
            return 0
        priors = payload.get("priors", [])
        overflow = max(0, len(priors) - self.MAX_ENTRIES)
        if overflow:
            self.evictions += overflow
            self._count("stats.evictions", overflow)
        loaded = 0
        for raw in priors[overflow:]:
            prior = OperatorPrior.from_dict(raw)
            self._priors[prior.key] = prior
            self._priors.move_to_end(prior.key)
            loaded += 1
        while len(self._priors) > self.MAX_ENTRIES:
            self._priors.popitem(last=False)
            self.evictions += 1
            self._count("stats.evictions")
        return loaded

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None and amount:
            self.metrics.counter(name).inc(amount)
