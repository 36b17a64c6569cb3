"""One workload in one fresh subprocess: set-up, warm-up, measured passes.

The harness starts several workers per run so that set-up (interpreter
start, import, corpus, runtime construction, pre-warm, one discarded warm-up
pass) is sampled several times and peak RSS belongs to one workload alone.
The worker prints one JSON object on its last stdout line.

Noise discipline: single-threaded, ``gc.collect()`` before every pass with
the collector left enabled (its cost is part of what users pay), timed
regions and operations marked by the workload itself on a :class:`Pass`.
"""

from __future__ import annotations

import time

_ENTERED = time.monotonic()

import gc
import resource
import traceback
import tracemalloc
from statistics import median

from . import OUT_DIR, add_src_to_path, calibrate
from .ledger import Pass
from .trace import SpanRecorder, layer_metrics, share_table, write_chrome_trace

#: Measured passes a worker makes even when its time share is already spent.
MIN_PASSES = 2
#: Passes made with the repo's own Tracer/MetricsRegistry on (scan_cold only).
OBSERVED_PASSES = 3


def one_pass(run, recorder: SpanRecorder | None = None) -> Pass:
    """Run one pass; a raised exception fails the pass instead of the worker."""
    gc.collect()
    rec = Pass(recorder)
    if recorder is not None:
        recorder.install()
    try:
        run(rec)
    except Exception:
        rec.errors.append(traceback.format_exc(limit=8))
    finally:
        if recorder is not None:
            recorder.uninstall()
    return rec


def _median_of(rows: list[dict]) -> dict:
    """Per key, the median over the rows where it was measured (else None)."""
    merged = {}
    for key in rows[0]:
        values = [row[key] for row in rows if row.get(key) is not None]
        merged[key] = median(values) if values else None
    return merged


def _overhead_pct(plain: list[Pass], instrumented: list[Pass]) -> float | None:
    """Median ratio over pairs run next to each other, so drift cancels.
    A failed pass has no timing: its pair is left out (None if none is left)."""
    ratios = [
        after.wall_s / before.wall_s
        for before, after in zip(plain, instrumented)
        if not before.errors and not after.errors
    ]
    return (median(ratios) - 1.0) * 100.0 if ratios else None


def run_worker(
    name: str,
    seed: int,
    seconds: float,
    passes: int | None,
    trace: bool,
    smoke: bool,
    spawned_at: float,
    verify: bool,
) -> dict:
    add_src_to_path()
    speed_at_entry = calibrate.sample()
    mark = time.perf_counter()
    from .workloads import WORKLOADS

    import_s = time.perf_counter() - mark
    workload = WORKLOADS[name](seed, smoke)
    mark = time.perf_counter()
    workload.build_inputs()
    corpus_s = time.perf_counter() - mark
    mark = time.perf_counter()
    workload.build_runtime()
    runtime_s = time.perf_counter() - mark
    warmup = one_pass(workload.run_pass)
    setup_s = time.monotonic() - spawned_at
    setup_slowdown = (speed_at_entry + calibrate.sample()) / 2 / calibrate.REFERENCE_S

    recorder = SpanRecorder() if trace else None
    plain: list[Pass] = []
    traced: list[Pass] = []
    layers: list[dict] = []
    shares: list[dict] = []
    spans: list = []
    deadline = time.monotonic() + seconds
    while len(plain) < (passes or MIN_PASSES) or (
        passes is None and time.monotonic() < deadline
    ):
        plain.append(one_pass(workload.run_pass))
        if recorder is not None:
            traced.append(one_pass(workload.run_pass, recorder))
            spans = recorder.take()
            layers.append(layer_metrics(spans, traced[-1].slowdown))
            shares.append(share_table(spans))

    attempted, failures = workload.verify() if verify else (0, [])
    result = {
        "setup": {
            "setup_s": setup_s,
            "slowdown": setup_slowdown,
            "setup.start_s": _ENTERED - spawned_at,
            "setup.import_s": import_s,
            "setup.corpus_s": corpus_s,
            "setup.runtime_s": runtime_s,
            "setup.warmup_s": warmup.wall_s,
        },
        "warmup": warmup.summary(),
        "passes": [rec.summary() for rec in plain],
        "verify": {"attempted": attempted, "errors": failures},
    }
    if recorder is not None:
        merged = _median_of(layers)
        merged["trace.overhead_pct"] = _overhead_pct(plain, traced)
        merged["trace.missing_targets"] = len(recorder.missing)
        observed_pass = getattr(workload, "observed_pass", None)
        merged["obs.tracing_overhead_pct"] = None
        if observed_pass is not None:
            beside = [one_pass(workload.run_pass) for _ in range(OBSERVED_PASSES)]
            observed = [one_pass(observed_pass) for _ in range(OBSERVED_PASSES)]
            merged["obs.tracing_overhead_pct"] = _overhead_pct(beside, observed)
            traced += observed
        tracemalloc.start()
        one_pass(workload.run_pass)
        merged["mem.tracemalloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
        write_chrome_trace(spans, OUT_DIR / f"trace_{name}.json")
        result["traced_passes"] = [rec.summary() for rec in traced]
        result["layers"] = merged
        result["shares"] = _median_of(
            [{layer: share.get(layer, 0.0) for layer in set().union(*shares)} for share in shares]
        )
        result["missing_targets"] = recorder.missing
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result
