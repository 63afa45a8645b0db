"""Benchmark harness: experiment registry, timers, table rendering.

Experiments register with :func:`repro.bench.harness.register`;
``python -m repro.bench`` runs them and judges their verdicts.
"""
