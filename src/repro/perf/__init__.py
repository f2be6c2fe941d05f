"""Performance observatory: self-metering, bench harness, sentinel.

Three layers, one subsystem:

* :mod:`repro.perf.meter` — the zero-allocation :class:`RuntimeMeter`
  threaded through the kernel dispatch loop, controller plan path,
  sweep runner, and sharded fleet; deterministic counter snapshots land
  in reports and ledger records, wall timings stay provenance-only.
* :mod:`repro.perf.bench` — the benchmark registry behind
  ``repro bench run``, the only runner of the registered benches: each
  module in ``REGISTERED_MODULES`` registers its metrics (direction +
  threshold), runs produce one canonical ``repro.bench/1`` document
  with a machine fingerprint, and every run appends one ``bench`` row
  to the run ledger (:mod:`repro.ledger`).  The unregistered ``benchmarks/bench_*.py``
  experiments are plain pytest tests.
* :mod:`repro.perf.check` — the regression sentinel behind
  ``repro bench compare``: per-metric direction-aware thresholds
  against committed baselines plus a Holt-linear forecast over the
  ledger's ``bench`` rows that flags slow drifts before any single run trips a gate.
"""

from repro.perf.bench import (
    BENCH_SCHEMA,
    BenchSpec,
    MetricSpec,
    REGISTERED_MODULES,
    build_document,
    flat_payload,
    history_metrics,
    load_registry,
    machine_fingerprint,
    record_summary,
    register_bench,
    scrub_volatile,
)
from repro.perf.check import (
    CheckOutcome,
    compare,
    evaluate_bench,
    evaluate_metric,
    trend_outcomes,
)
from repro.perf.meter import RuntimeMeter

__all__ = [
    "BENCH_SCHEMA",
    "BenchSpec",
    "CheckOutcome",
    "MetricSpec",
    "REGISTERED_MODULES",
    "RuntimeMeter",
    "build_document",
    "compare",
    "evaluate_bench",
    "evaluate_metric",
    "flat_payload",
    "history_metrics",
    "load_registry",
    "machine_fingerprint",
    "record_summary",
    "register_bench",
    "scrub_volatile",
    "trend_outcomes",
]
