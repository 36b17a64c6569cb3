"""Tests of the benchmark harness itself (not tier-1; run from the repo root):

    PYTHONPATH=src python -m pytest benchmarks/perf -q

Everything runs at ``--smoke`` size (inputs / 20, one worker, two passes).
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from . import OUT_DIR, ROOT, add_src_to_path, harness
from .ledger import Pass
from .trace import (
    END,
    NAME,
    PASS_SPAN,
    START,
    TARGETS,
    SpanRecorder,
    layer_metrics,
    self_times,
)
from .worker import _overhead_pct


def perf(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.perf", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )


def last_line(done: subprocess.CompletedProcess) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", harness.workload_names())
def test_smoke_run_emits_exactly_the_named_metrics(name, trace):
    done = perf("bench", "--workload", name, "--seed", "0", "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    line = last_line(done)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    named = {metric["name"]: metric["unit"] for metric in harness.contract()[section]}
    assert {key: entry["unit"] for key, entry in line["metrics"].items()} == named
    for key, entry in line["metrics"].items():
        assert isinstance(entry["value"], (int, float)), key
        if not trace:
            assert entry["value"] > 0, key
        assert f"\n{key} " in done.stdout  # printed by name, with its unit


def test_digests_and_virtual_ledger_repeat_across_runs():
    paths = []
    try:
        for label in ("test_a", "test_b"):
            done = perf("run", "--seed", "0", "--label", label, "--smoke")
            assert done.returncode == 0, done.stdout + done.stderr
            paths.append(OUT_DIR / f"perf_{label}.json")
        first, second = (json.loads(path.read_text())["workloads"] for path in paths)
        assert list(first) == harness.workload_names()
        for name in first:
            for key in ("digest", "virtual_cost_usd", "virtual_time_s", "failed"):
                assert first[name][key] == second[name][key], (name, key)
        # scan_cold and rescan_warm run one plan over one corpus.
        assert first["scan_cold"]["digest"] == first["rescan_warm"]["digest"]
        compared = perf("compare", str(paths[0]), str(paths[1]))
        assert "scan_cold" in compared.stdout and "wall_s" in compared.stdout
    finally:
        for path in paths:
            path.unlink(missing_ok=True)


def test_corrupted_expected_digest_fails_the_run(tmp_path):
    expected = tmp_path / "expected.json"
    expected.write_text(json.dumps({"smoke": {"scan_cold": {"0": "0" * 64}}}))
    done = perf(
        "bench", "--workload", "scan_cold", "--seed", "0", "--expected", str(expected), "--smoke"
    )
    assert done.returncode != 0
    line = last_line(done)
    assert line["correct"] is False
    assert line["failed"] == line["attempted"] > 0
    assert "FAILED CHECK" in done.stdout


def _stats(value: float, spread: float) -> dict:
    return {"value": value, "q1": value * (1 - spread / 2), "q3": value * (1 + spread / 2), "n": 9}


def _run_file(path, wall_s: float, spread: float = 0.01, digest: str = "d", trace: bool = False):
    metrics = {m["name"]: _stats(1.0, 0.01) for m in harness.contract()["end_to_end"]}
    metrics["wall_s"] = _stats(wall_s, spread)
    metrics["op_ms_p90"] = {"value": None, "n": 30}  # too few operations for a tail
    workload = {
        "metrics": metrics, "digest": digest, "failed": 0, "trace": trace,
        "virtual_cost_usd": 1.5, "virtual_time_s": 20.0,
    }
    path.write_text(json.dumps({"workloads": {n: workload for n in harness.workload_names()}}))
    return path


def test_compare_flags_breach_unresolved_and_mismatch(tmp_path, capsys):
    base = _run_file(tmp_path / "a.json", 1.0)
    assert harness.compare(base, _run_file(tmp_path / "same.json", 1.05)) == 0
    assert harness.compare(base, _run_file(tmp_path / "slow.json", 1.5)) == 1
    assert "BREACH" in capsys.readouterr().out
    assert harness.compare(base, _run_file(tmp_path / "noisy.json", 1.5, spread=0.5)) == 0
    assert "unresolved" in capsys.readouterr().out
    assert harness.compare(base, _run_file(tmp_path / "other.json", 1.0, digest="x")) == 1
    assert "MISMATCH" in capsys.readouterr().out
    assert harness.compare(base, _run_file(tmp_path / "traced.json", 1.0, trace=True)) == 2
    assert "traced run" in capsys.readouterr().out


def test_tail_is_pooled_over_passes_and_needs_100_operations():
    passes = [
        {"op_ms": [1.0] * 45 + [9.0] * 5, "slowdown": 1.0},
        {"op_ms": [2.0] * 40 + [8.0] * 10, "slowdown": 2.0},  # reads 1.0 / 4.0 corrected
    ]
    p90 = harness.tail_stats(passes, 0.9)
    # 15 of the 100 pooled operations are slow; pass by pass the p90 reads 1.0 and 4.0
    assert (p90["value"], p90["n"], p90["raw"]) == (4.0, 100, 8.0)
    assert harness.tail_stats(passes[:1], 0.9) == {"value": None, "n": 50}


def test_overhead_skips_pairs_with_a_failed_pass():
    def timed(wall_s, errors=()):
        rec = Pass()
        rec.wall_s, rec.errors = wall_s, list(errors)
        return rec

    plain = [timed(1.0), timed(0.0, ["raised"])]  # a failed pass has no timing
    assert _overhead_pct(plain, [timed(1.1), timed(1.0)]) == pytest.approx(10.0)
    assert _overhead_pct(plain[1:], [timed(1.0)]) is None


def _traced_smoke_pass(recorder: SpanRecorder, name: str = "scan_cold"):
    add_src_to_path()
    from .workloads import WORKLOADS

    workload = WORKLOADS[name](seed=0, smoke=True)
    workload.build_inputs()
    workload.build_runtime()
    rec = Pass(recorder)
    recorder.install()
    try:
        workload.run_pass(rec)
    finally:
        recorder.uninstall()
    assert not rec.errors
    return recorder.take()


def test_span_self_times_sum_to_the_root_span():
    spans = _traced_smoke_pass(SpanRecorder())
    roots = [span for span in spans if span[NAME] == PASS_SPAN]
    assert len(roots) == 1 and len(spans) > 100
    root_s = roots[0][END] - roots[0][START]
    assert sum(self_times(spans)) == pytest.approx(root_s, rel=0.02)
    assert all(own >= -1e-9 for own in self_times(spans))


def test_missing_wrapper_target_degrades_to_null():
    from repro.sem.execution import Engine

    original = Engine.__dict__["execute"]
    gone = (
        ("gone.method", "repro.sem.execution", "Engine.no_such_method", None),
        ("gone.module", "repro.no_such_module", "function", None),
    )
    recorder = SpanRecorder(targets=TARGETS + gone)
    spans = _traced_smoke_pass(recorder)
    assert recorder.missing == [
        "repro.sem.execution:Engine.no_such_method",
        "repro.no_such_module:function",
    ]
    assert Engine.__dict__["execute"] is original  # uninstall restored it
    metrics = layer_metrics(spans)
    assert metrics["llm.calls"] > 0 and metrics["sem.execution.records_in"] > 0
    # A layer this workload never enters has no samples: null, printed as 0.
    assert metrics["serve.submit_ms_p50"] is None
    assert metrics["sem.streaming.tick_ms_p50"] is None
