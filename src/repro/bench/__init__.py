"""Benchmark harness: metrics, trial running, and report formatting.

The package re-exports nothing: import the submodule (``repro.bench.metrics``,
``repro.bench.harness``, ...).
"""
