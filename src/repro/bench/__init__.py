"""Benchmark harness: experiment registry, work counters, table rendering.

Experiments register with :func:`repro.bench.harness.register`;
``python -m repro.bench`` runs them and judges their verdicts.
"""
