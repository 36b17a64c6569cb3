"""Tests for the trace-fed statistics store (learned operator priors)."""

import json

import pytest

from repro.obs import MetricsRegistry, OperatorPrior, StatisticsStore, Tracer
from repro.obs.stats import STATS_VERSION


def _observe(store, key="k1", records_in=10, records_out=5, **kwargs):
    return store.observe(
        key,
        "SemFilterOp",
        "gpt-mini",
        "corpus-1",
        "",
        records_in=records_in,
        records_out=records_out,
        **kwargs,
    )


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def _refuses_knob(knob, value):
    # Ratchet: the store takes no knobs.  Its blend weight and its bound are
    # class constants, as ContextManager.MAX_ENTRIES is.  The knob is passed
    # through a dict because the retired-keywords rule in
    # tests/test_architecture.py refuses it as a literal keyword.
    with pytest.raises(TypeError, match=knob):
        StatisticsStore(**{knob: value})


class TestConstruction:
    def test_rejects_bad_decay(self):
        _refuses_knob("decay", 0.5)
        assert StatisticsStore.DECAY == 0.3

    def test_rejects_bad_min_observations(self):
        _refuses_knob("min_observations", 2)
        # The floor is one observation: a single one is already believed.
        store = StatisticsStore()
        _observe(store)
        assert store.prior("k1").observations == 1

    def test_rejects_bad_max_entries(self):
        _refuses_knob("max_entries", 2)
        assert StatisticsStore.MAX_ENTRIES == 4096


# ---------------------------------------------------------------------------
# Decayed online updates
# ---------------------------------------------------------------------------


class TestObserve:
    def test_first_observation_sets_fields_directly(self):
        store = StatisticsStore()
        prior = _observe(
            store,
            records_in=10,
            records_out=4,
            cost_usd=0.5,
            time_s=2.0,
        )
        assert prior.observations == 1
        assert prior.selectivity == pytest.approx(0.4)
        assert prior.rows_in == 10.0
        assert prior.cost_per_record == pytest.approx(0.05)
        assert prior.latency_per_record == pytest.approx(0.2)

    def test_second_observation_blends_with_decay(self):
        store = StatisticsStore()
        _observe(store, records_in=10, records_out=4)
        prior = _observe(store, records_in=10, records_out=8)
        # 0.4 + 0.3 * (0.8 - 0.4) = 0.52
        assert prior.observations == 2
        assert prior.selectivity == pytest.approx(0.52)

    def test_zero_input_observation_is_dropped(self):
        store = StatisticsStore()
        assert _observe(store, records_in=0, records_out=0) is None
        assert len(store) == 0
        assert store.observations == 0

    def test_a_prior_keeps_four_statistics(self):
        # Ratchet: the three per-record numbers an estimate reads plus the
        # mean input cardinality; a statistic earns a field when read.
        import dataclasses
        import inspect

        assert {f.name for f in dataclasses.fields(OperatorPrior)} == {
            "key", "kind", "model", "dataset", "scope", "observations",
            "selectivity", "rows_in", "cost_per_record", "latency_per_record",
        }
        measured = [
            name
            for name, parameter in inspect.signature(
                StatisticsStore.observe
            ).parameters.items()
            if parameter.kind is parameter.KEYWORD_ONLY
        ]
        assert measured == ["records_in", "records_out", "cost_usd", "time_s"]

    def test_lru_eviction_drops_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(StatisticsStore, "MAX_ENTRIES", 2)
        store = StatisticsStore()
        _observe(store, key="a")
        _observe(store, key="b")
        store.prior("a")  # touch: "b" becomes the eviction candidate
        _observe(store, key="c")
        assert store.prior("a") is not None
        assert store.prior("b") is None
        assert store.prior("c") is not None
        assert store.evictions == 1


# ---------------------------------------------------------------------------
# Lookups and metrics mirroring
# ---------------------------------------------------------------------------


class TestLookup:
    def test_prior_counts_lookups_and_hits(self):
        store = StatisticsStore()
        _observe(store, key="k1")
        assert store.prior("k1") is not None
        assert store.prior("missing") is None
        assert store.prior(None) is None  # unkeyed: not even a lookup
        assert store.lookups == 2
        assert store.hits == 1

    def test_metrics_mirror_counts_observations_lookups_hits(self):
        store = StatisticsStore()
        metrics = MetricsRegistry()
        store.metrics = metrics
        _observe(store, key="k1")
        store.prior("k1")
        store.prior("missing")
        counters = metrics.snapshot()["counters"]
        assert counters["stats.observations"] == 1
        assert counters["stats.lookups"] == 2
        assert counters["stats.hits"] == 1

    def test_stats_summary(self):
        store = StatisticsStore()
        _observe(store, key="k1")
        store.prior("k1")
        assert len(store) == 1
        assert store.observations == 1
        assert store.hits == 1


# ---------------------------------------------------------------------------
# Ingestion paths
# ---------------------------------------------------------------------------


class _FakeStats:
    def __init__(self, label, stats_entry=None, records_in=10, records_out=5):
        self.label = label
        self.stats_entry = stats_entry
        self.records_in = records_in
        self.records_out = records_out
        self.cost_usd = 0.1
        self.time_s = 1.0
        self.llm_calls = records_in
        self.cached_calls = 0
        self.retried_calls = 0
        self.failed_records = 0
        self.input_tokens = 100
        self.output_tokens = 20


def _entry(key):
    return {
        "key": key,
        "kind": "SemFilterOp",
        "model": "gpt-mini",
        "dataset": "corpus-1",
        "scope": "",
    }


class TestIngestRun:
    def test_ingests_aligned_positions(self):
        # Each measured row carries its own entry; unkeyed rows are skipped.
        store = StatisticsStore()
        stats = [
            _FakeStats("SemFilter(a) [gpt-mini]", _entry("k1")),
            _FakeStats("SemMap(b)"),
        ]
        assert store.ingest_run(stats) == 1
        assert store.prior("k1").selectivity == pytest.approx(0.5)

    def test_emits_stats_ingest_span_on_enabled_tracer(self):
        store = StatisticsStore()
        tracer = Tracer()
        stats = [_FakeStats("SemFilter(a)", _entry("k1"))]
        store.ingest_run(stats, tracer=tracer)
        spans = tracer.by_kind("stats.ingest")
        assert len(spans) == 1
        assert spans[0].attributes["observations"] == 1
        assert spans[0].attributes["store_size"] == 1
        assert spans[0].end_s == spans[0].start_s  # zero-duration marker


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        store = StatisticsStore()
        _observe(store, key="k1", records_in=10, records_out=4, cost_usd=0.5)
        _observe(store, key="k1", records_in=10, records_out=8)
        _observe(store, key="k2", records_in=6, records_out=6)
        path = tmp_path / "stats.json"
        assert store.save(path) == 2

        fresh = StatisticsStore()
        assert fresh.load(path) == 2
        for original, loaded in zip(store.priors(), fresh.priors()):
            assert original.to_dict() == loaded.to_dict()

    def test_version_mismatch_loads_nothing(self, tmp_path):
        store = StatisticsStore()
        _observe(store, key="k1")
        path = tmp_path / "stats.json"
        store.save(path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["version"] = STATS_VERSION + 1
        path.write_text(json.dumps(payload), encoding="utf-8")

        fresh = StatisticsStore()
        assert fresh.load(path) == 0
        assert len(fresh) == 0

    def test_load_enforces_max_entries(self, tmp_path, monkeypatch):
        store = StatisticsStore()
        for index in range(5):
            _observe(store, key=f"k{index}")
        path = tmp_path / "stats.json"
        store.save(path)

        monkeypatch.setattr(StatisticsStore, "MAX_ENTRIES", 2)
        small = StatisticsStore()
        assert small.load(path) == 2
        # Save order is LRU order: the newest two survive.
        assert [p.key for p in small.priors()] == ["k3", "k4"]
        assert small.evictions == 3

    def test_file_saved_by_the_previous_schema_still_loads(self, tmp_path):
        # Literal payload as the parent commit wrote it: sixteen keys per
        # prior, six of them statistics nothing ever read.
        path = tmp_path / "stats.json"
        path.write_text(
            json.dumps(
                {
                    "version": 1,
                    "decay": 0.3,
                    "priors": [
                        {
                            "key": "k1",
                            "kind": "SemFilterOp",
                            "model": "gpt-mini",
                            "dataset": "corpus-1",
                            "scope": "tenant-a",
                            "observations": 3,
                            "selectivity": 0.25,
                            "rows_in": 12.0,
                            "rows_out": 3.0,
                            "tokens_per_record": 41.5,
                            "cost_per_record": 0.002,
                            "latency_per_record": 0.4,
                            "latency_per_call": 0.4,
                            "retry_rate": 0.1,
                            "failure_rate": 0.0,
                            "cache_hit_ratio": 0.5,
                        }
                    ],
                }
            ),
            encoding="utf-8",
        )
        store = StatisticsStore()
        assert store.load(path) == 1
        assert store.load_errors == 0
        assert store.prior("k1") == OperatorPrior(
            key="k1",
            kind="SemFilterOp",
            model="gpt-mini",
            dataset="corpus-1",
            scope="tenant-a",
            observations=3,
            selectivity=0.25,
            rows_in=12.0,
            cost_per_record=0.002,
            latency_per_record=0.4,
        )

    def test_kill_during_save_leaves_the_previous_file_readable(
        self, tmp_path, monkeypatch
    ):
        from pathlib import Path

        path = tmp_path / "stats.json"
        store = StatisticsStore()
        _observe(store, key="k1")
        store.save(path)
        before = path.read_bytes()
        _observe(store, key="k2")
        write_text = Path.write_text

        def killed(self, data, **kwargs):
            write_text(self, data[: len(data) // 2], **kwargs)
            raise KeyboardInterrupt("killed halfway through the write")

        monkeypatch.setattr(Path, "write_text", killed)
        with pytest.raises(KeyboardInterrupt):
            store.save(path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        fresh = StatisticsStore()
        assert fresh.load(path) == 1
        # The next save goes through and leaves no temp file behind.
        assert store.save(path) == 2
        assert [entry.name for entry in tmp_path.iterdir()] == ["stats.json"]

    @pytest.mark.parametrize("damage", ["truncated", "not-json", "not-an-object"])
    def test_corrupt_file_loads_as_empty_and_is_counted(self, tmp_path, damage):
        path = tmp_path / "stats.json"
        store = StatisticsStore()
        _observe(store, key="k1")
        store.save(path)
        text = path.read_text(encoding="utf-8")
        path.write_text(
            {
                "truncated": text[: len(text) // 2],
                "not-json": "priors: none",
                "not-an-object": "[1, 2]",
            }[damage],
            encoding="utf-8",
        )
        fresh = StatisticsStore()
        fresh.metrics = MetricsRegistry()
        assert fresh.load(path) == 0
        assert len(fresh) == 0
        assert fresh.load_errors == 1
        assert fresh.metrics.snapshot()["counters"]["stats.load_errors"] == 1

    def test_flipped_byte_in_a_prior_fails_the_checksum(self, tmp_path):
        path = tmp_path / "stats.json"
        store = StatisticsStore()
        _observe(store, key="k1")
        store.save(path)
        text = path.read_text(encoding="utf-8")
        assert '"gpt-mini"' in text
        # Still valid JSON, still the right shape: only the checksum can tell.
        path.write_text(text.replace('"gpt-mini"', '"gpt-nini"'), encoding="utf-8")
        json.loads(path.read_text(encoding="utf-8"))
        fresh = StatisticsStore()
        assert fresh.load(path) == 0
        assert len(fresh) == 0 and fresh.load_errors == 1

    def test_clear_empties_the_store(self):
        store = StatisticsStore()
        _observe(store, key="k1")
        store.clear()
        assert len(store) == 0


# ---------------------------------------------------------------------------
# OperatorPrior serde
# ---------------------------------------------------------------------------


def test_operator_prior_dict_round_trip():
    prior = OperatorPrior(
        key="k",
        kind="SemFilterOp",
        model="m",
        dataset="d",
        scope="tenant-a",
        observations=3,
        selectivity=0.25,
        cost_per_record=0.01,
    )
    assert OperatorPrior.from_dict(prior.to_dict()) == prior


# ---------------------------------------------------------------------------
# Dataset invalidation (an in-place source update; appends change nothing)
# ---------------------------------------------------------------------------


class TestDatasetVersioning:
    def test_update_invalidates_dataset_priors_only(self):
        store = StatisticsStore()
        _observe(store, key="mine")
        store.observe(
            "other", "SemFilterOp", "gpt-mini", "corpus-2", "",
            records_in=10, records_out=5,
        )
        dropped = store.invalidate_dataset("corpus-1")
        assert dropped == 1
        assert store.prior("mine") is None
        assert store.prior("other") is not None
        assert store.dataset_invalidations == 1

    def test_empty_dataset_name_is_ignored(self):
        store = StatisticsStore()
        _observe(store)
        assert store.invalidate_dataset("") == 0
        assert len(store) == 1

    def test_stats_summary_exposes_maintenance_counters(self):
        store = StatisticsStore()
        for _ in range(2):
            _observe(store)
        store.invalidate_dataset("corpus-1")
        store.invalidate_dataset("corpus-1")  # nothing left to drop
        assert store.dataset_invalidations == 1
        assert not hasattr(store, "dataset_decays")
