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

from repro import _lazy_exports

_EXPORTS = {
    "BENCH_SCHEMA": "bench",
    "BenchSpec": "bench",
    "CheckOutcome": "check",
    "MetricSpec": "bench",
    "REGISTERED_MODULES": "bench",
    "RuntimeMeter": "meter",
    "build_document": "bench",
    "compare": "check",
    "evaluate_bench": "check",
    "evaluate_metric": "check",
    "flat_payload": "bench",
    "history_metrics": "bench",
    "load_registry": "bench",
    "machine_fingerprint": "bench",
    "record_summary": "bench",
    "register_bench": "bench",
    "scrub_volatile": "bench",
    "trend_outcomes": "check",
}

__getattr__, __dir__, __all__ = _lazy_exports(globals(), _EXPORTS)
