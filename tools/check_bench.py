"""The benchmark regression gate: one checker for the whole suite.

CI runs ``repro bench run --short --out bench.json`` and calls this with
the resulting ``repro.bench/1`` document (a legacy single-bench
``BENCH_<name>.json`` summary also works).  Every registered benchmark's
metrics are judged by their registered direction-aware specs — ratio
floors against the committed ``benchmarks/BENCH_<name>.json`` baselines,
absolute floors/ceilings, byte-identity flags, exact digest matches —
and the trend sentinel forecasts the benchmark history ledger to flag
slow drifts before any single run trips a hard gate.

This file is a path-bootstrap shim; the evaluator lives in
:mod:`repro.perf.check`.  It is the only bench gate: ``--bench O2``
applies the O2 events/sec drop rule, ``--bench F10`` the F10
byte-identity and scaling rules.

Usage::

    python tools/check_bench.py /tmp/bench.json
    python tools/check_bench.py /tmp/bench.json --bench O2 --threshold 0.3
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.perf.check import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
