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
  with a machine fingerprint, and every run appends to the benchmark
  history ledger.  The unregistered ``benchmarks/bench_*.py``
  experiments are plain pytest tests.
* :mod:`repro.perf.check` — the regression sentinel behind
  ``repro bench compare``: per-metric direction-aware thresholds
  against committed baselines plus a Holt-linear forecast over the
  history that flags slow drifts before any single run trips a gate.
"""

from repro.perf.bench import (
    BENCH_SCHEMA,
    BenchSpec,
    HISTORY_SCHEMA,
    MetricSpec,
    REGISTERED_MODULES,
    append_history,
    build_document,
    flat_payload,
    history_metrics,
    history_series,
    load_registry,
    machine_fingerprint,
    read_history,
    record_summary,
    register_bench,
    resolve_history_path,
    scrub_volatile,
)
from repro.perf.check import (
    CheckOutcome,
    compare,
    evaluate_bench,
    evaluate_metric,
    trend_outcomes,
)
from repro.perf.meter import NULL_METER, NullRuntimeMeter, RuntimeMeter

__all__ = [
    "BENCH_SCHEMA",
    "BenchSpec",
    "CheckOutcome",
    "HISTORY_SCHEMA",
    "MetricSpec",
    "NULL_METER",
    "NullRuntimeMeter",
    "REGISTERED_MODULES",
    "RuntimeMeter",
    "append_history",
    "build_document",
    "compare",
    "evaluate_bench",
    "evaluate_metric",
    "flat_payload",
    "history_metrics",
    "history_series",
    "load_registry",
    "machine_fingerprint",
    "read_history",
    "record_summary",
    "register_bench",
    "resolve_history_path",
    "scrub_volatile",
    "trend_outcomes",
]
