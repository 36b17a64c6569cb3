"""Parent side of a benchmark run: start workers, pool their passes, check
outputs, and assemble the metrics ``BENCHMARK.json`` names.

Every end-to-end timing is a median over per-pass samples (after each
worker's discarded warm-up pass), reported with its quartiles and sample
count; ``op_ms_p90`` is the percentile of the operations pooled over all
passes; ``setup_s`` and ``peak_rss_mb`` have one sample per worker.
Times are machine-speed corrected (each sample divided by the slowdown
measured beside it, see calibrate.py); the raw value is kept as ``raw``.
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

from . import BENCHMARK_JSON, EXPECTED_JSON, ROOT

#: Workers per run: several, so set-up time and peak RSS are medians.  A
#: traced run (no set-up or memory metric) and a smoke run use one.
WORKERS = 3
#: ``--smoke`` (tests): one worker, this many measured passes, inputs / 20.
SMOKE_PASSES = 2
#: Fewer pooled operations than this cannot carry a 90th percentile (the
#: guide asks for ten samples beyond a percentile): ``op_ms_p90`` reads null.
TAIL_MIN_SAMPLES = 100
#: Virtual dollars and seconds of two runs must agree to this relative tolerance.
VIRTUAL_REL_TOL = 1e-9
#: ... and between the passes of one run to this one.  Auto-named Contexts
#: draw ``context-<n>`` from a process-global counter, so agent prompts grow
#: by a character (~1e-7 of a pass's dollars) each time ``n`` gains a digit.
VIRTUAL_PASS_REL_TOL = 1e-6
WORKER_TIMEOUT_S = 170


def contract() -> dict:
    return json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))


def workload_names() -> list[str]:
    return [entry["name"] for entry in contract()["workloads"]]


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def sample_stats(samples: list[float]) -> dict:
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {"value": statistics.median(samples), "q1": q1, "q3": q3, "n": len(samples)}


def timing_stats(rows: list[dict], raw) -> dict:
    """Stats of ``raw(row) / row["slowdown"]`` over rows, plus the raw median."""
    stats = sample_stats([raw(row) / row["slowdown"] for row in rows])
    stats["raw"] = statistics.median(raw(row) for row in rows)
    return stats


def tail_stats(passes: list[dict], q: float) -> dict:
    """Nearest-rank percentile ``q`` of per-operation latency, pooled over passes.

    ``q1``/``q3`` are the quartiles of the same percentile taken pass by pass
    (the run's own spread); ``n`` is the pooled sample count.  With fewer than
    :data:`TAIL_MIN_SAMPLES` operations the value is None.
    """
    pooled = [ms / rec["slowdown"] for rec in passes for ms in rec["op_ms"]]
    if len(pooled) < TAIL_MIN_SAMPLES:
        return {"value": None, "n": len(pooled)}
    stats = timing_stats(passes, lambda rec: nearest_rank(rec["op_ms"], q))
    stats["value"] = nearest_rank(pooled, q)
    stats["n"] = len(pooled)
    stats["raw"] = nearest_rank([ms for rec in passes for ms in rec["op_ms"]], q)
    return stats


def _spawn_worker(name, seed, seconds, passes, trace, smoke, verify) -> dict:
    command = [
        sys.executable, "-m", "benchmarks.perf", "worker",
        "--workload", name, "--seed", str(seed), "--seconds", repr(seconds),
        "--trace", str(int(trace)), "--spawned-at", repr(time.monotonic()),
    ]
    if passes is not None:
        command += ["--passes", str(passes)]
    if smoke:
        command.append("--smoke")
    if verify:
        command.append("--verify")
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"benchmarks.perf: worker for {name} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    smoke: bool = False,
    passes: int | None = None,
    expected_path: Path = EXPECTED_JSON,
    update_expected: bool = False,
) -> dict:
    """Run one workload; returns its checked result (see module docstring)."""
    workers = 1 if trace or smoke else WORKERS
    if smoke and passes is None:
        passes = SMOKE_PASSES
    reports = [
        _spawn_worker(name, seed, seconds / workers, passes, trace, smoke, verify=index == 0)
        for index in range(workers)
    ]
    measured = [rec for report in reports for rec in report["passes"]]
    everything = measured + [
        rec
        for report in reports
        for rec in [report["warmup"], *report.get("traced_passes", [])]
    ]

    # -- output checks ------------------------------------------------------
    reference = everything[0]
    errors: list[str] = []
    attempted = failed = 0
    for rec in everything:
        ops = max(1, len(rec["op_ms"]))
        attempted += ops
        problems = list(rec["errors"])
        if rec["digest"] != reference["digest"]:
            problems.append("result digest differs between passes")
        for ledger in ("virtual_cost_usd", "virtual_time_s"):
            if not math.isclose(rec[ledger], reference[ledger], rel_tol=VIRTUAL_PASS_REL_TOL):
                problems.append(f"{ledger} differs between passes")
        if problems:
            failed += ops
            errors += problems
    for report in reports:
        attempted += report["verify"]["attempted"]
        if report["verify"]["errors"]:
            failed += report["verify"]["attempted"]
            errors += report["verify"]["errors"]
    mode = "smoke" if smoke else "full"
    expected = json.loads(expected_path.read_text(encoding="utf-8"))
    if update_expected and not failed:
        expected.setdefault(mode, {}).setdefault(name, {})[str(seed)] = reference["digest"]
        expected_path.write_text(
            json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
    committed = expected.get(mode, {}).get(name, {}).get(str(seed))
    if committed is not None and committed != reference["digest"]:
        failed = attempted
        errors.append(f"result digest {reference['digest'][:12]} is not the committed {committed[:12]}")

    # -- metrics ------------------------------------------------------------
    measured = [rec for rec in measured if not rec["errors"]]
    if not measured:
        raise SystemExit(f"benchmarks.perf: every pass of {name} failed:\n" + "\n".join(errors))
    spec = contract()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    setups = [report["setup"] for report in reports]
    if trace:
        layers = dict(reports[0]["layers"])
        layers.update(
            (key, seconds / setups[0]["slowdown"])
            for key, seconds in setups[0].items()
            if key.startswith("setup.")
        )
        metrics = {key: {"value": value} for key, value in layers.items()}
    else:
        metrics = {
            "setup_s": timing_stats(setups, lambda row: row["setup_s"]),
            "wall_s": timing_stats(measured, lambda rec: rec["wall_s"]),
            "cpu_s": timing_stats(measured, lambda rec: rec["cpu_s"]),
            "records_per_s": sample_stats(
                [rec["records_in"] * rec["slowdown"] / rec["wall_s"] for rec in measured]
            ),
            "op_ms_p50": timing_stats(measured, lambda rec: nearest_rank(rec["op_ms"], 0.5)),
            "op_ms_p90": tail_stats(measured, 0.9),
            "peak_rss_mb": sample_stats([report["peak_rss_mb"] for report in reports]),
        }
    for key, entry in metrics.items():
        entry["unit"] = units[key]
    return {
        "workload": name,
        "seed": seed,
        "mode": mode,
        "trace": trace,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "errors": sorted(set(errors)),
        "digest": reference["digest"],
        "virtual_cost_usd": reference["virtual_cost_usd"],
        "virtual_time_s": reference["virtual_time_s"],
        "ops_per_pass": len(reference["op_ms"]),
        "metrics": metrics,
        "shares": reports[0].get("shares"),
        "missing_targets": reports[0].get("missing_targets"),
    }


# -- output -------------------------------------------------------------------


def print_result(result: dict) -> None:
    """Every metric by name with its unit, then the checks and share table."""
    print(
        f"== {result['workload']} seed={result['seed']} mode={result['mode']} "
        f"{'traced' if result['trace'] else 'untraced'} =="
    )
    for name, entry in result["metrics"].items():
        value = "null" if entry["value"] is None else f"{entry['value']:.6g}"
        spread = (
            f"  [q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}, n={entry['n']}]"
            if "q1" in entry
            else ""
        )
        if "q1" not in entry and "n" in entry:
            spread = f"  [n={entry['n']}]"
        raw = f"  (raw {entry['raw']:.6g})" if "raw" in entry else ""
        print(f"{name:36s} {value:>12s} {entry['unit']}{spread}{raw}")
    print(
        f"virtual ledger: ${result['virtual_cost_usd']:.6f}, "
        f"{result['virtual_time_s']:.3f} virtual s per pass "
        f"({result['ops_per_pass']} ops/pass); digest {result['digest'][:16]}"
    )
    if result["shares"]:
        print("self-time share by layer (median over traced passes):")
        for layer, share in sorted(result["shares"].items(), key=lambda kv: -kv[1]):
            print(f"  {layer:18s} {share * 100:6.2f} %")
    for target in result["missing_targets"] or ():
        print(f"missing wrapper target: {target}")
    failed_share = result["failed"] / result["attempted"]
    print(f"failed_share {failed_share:.4f} ({result['failed']}/{result['attempted']} operations)")
    for error in result["errors"]:
        print(f"FAILED CHECK: {error}")


def contract_line(result: dict) -> str:
    """The driver's last stdout line, whose values must all be numbers: an
    unmeasurable layer metric reads 0, and a null ``op_ms_p90`` (too few
    operations for a tail) repeats ``op_ms_p50`` so that it cannot move alone."""
    spec = contract()
    wanted = spec["per_layer"] if result["trace"] else spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        value = result["metrics"][metric["name"]]["value"]
        if value is None:
            value = 0 if result["trace"] else result["metrics"]["op_ms_p50"]["value"]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


# -- compare ------------------------------------------------------------------


def compare(path_a: Path, path_b: Path) -> int:
    """Per workload x end-to-end metric: medians, relative delta, bound.

    B is judged against A.  A metric is *unresolved* when either file's own
    quartile spread exceeds the bound; a resolved metric that worsened by
    more than its bound is a breach; a metric that is null on either side is
    only printed.  Digests, ``failed`` and the virtual ledger must agree
    exactly.  Exits non-zero on any breach or mismatch, and 2 when a file is
    a traced run (those carry per-layer metrics only).
    """
    run_a = json.loads(Path(path_a).read_text(encoding="utf-8"))["workloads"]
    run_b = json.loads(Path(path_b).read_text(encoding="utf-8"))["workloads"]
    for path, run in ((path_a, run_a), (path_b, run_b)):
        if any(result["trace"] for result in run.values()):
            print(f"compare: {path} is a traced run; compare two untraced `run` outputs")
            return 2
    spec = contract()
    breaches = 0
    print(f"{'workload':16s} {'metric':14s} {'A':>12s} {'B':>12s} {'worse by':>9s} {'bound':>6s}  status")
    for name in (entry["name"] for entry in spec["workloads"]):
        a, b = run_a.get(name), run_b.get(name)
        if a is None or b is None:
            print(f"{name:16s} missing from {'A' if a is None else 'B'}")
            breaches += 1
            continue
        for metric in spec["end_to_end"]:
            ma, mb = a["metrics"][metric["name"]], b["metrics"][metric["name"]]
            if ma["value"] is None or mb["value"] is None:
                print(f"{name:16s} {metric['name']:14s} null (n={ma['n']} / n={mb['n']} operations)")
                continue
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse_by = sign * (mb["value"] - ma["value"]) / ma["value"]
            spread = max((m["q3"] - m["q1"]) / m["value"] for m in (ma, mb))
            if spread > metric["bound"]:
                status = f"unresolved (spread {spread:.1%})"
            elif worse_by > metric["bound"]:
                status = "BREACH"
                breaches += 1
            else:
                status = "ok"
            print(
                f"{name:16s} {metric['name']:14s} {ma['value']:12.6g} {mb['value']:12.6g} "
                f"{worse_by:+9.1%} {metric['bound']:6.0%}  {status}"
            )
        exact = [
            ("digest", a["digest"] == b["digest"]),
            ("failed", a["failed"] == b["failed"] == 0),
            *(
                (key, math.isclose(a[key], b[key], rel_tol=VIRTUAL_REL_TOL))
                for key in ("virtual_cost_usd", "virtual_time_s")
            ),
        ]
        for key, same in exact:
            if not same:
                print(f"{name:16s} {key}: A={a[key]} B={b[key]}  MISMATCH")
                breaches += 1
    print("compare: " + (f"{breaches} breach(es)" if breaches else "within bounds"))
    return 1 if breaches else 0
