"""The unified benchmark harness: registry and canonical document.

Each module in :data:`REGISTERED_MODULES` registers its ``run_*``
entry point with :func:`register_bench` (re-exported through
``benchmarks/_common.py``), declaring its metrics with direction and
threshold.  ``repro bench run`` is the only runner of those benches: it
executes the registered suite once and emits one canonical
``repro.bench/1`` document:

* ``benches.<name>.checks`` — the machine-independent payload keys the
  bench declared ``deterministic``: byte-stable across reruns on any
  machine (digests, event counts, flags);
* ``benches.<name>.timings`` — everything else: wall clocks and derived
  throughputs, meaningful only relative to the ``fingerprint`` block;
* ``fingerprint`` — host, platform, python, cpu count, git revision and
  UTC timestamp, so a committed baseline says *where* its numbers came
  from.

:func:`scrub_volatile` strips the fingerprint and timing blocks; the
canonical JSON of what remains is the document's byte-stability
contract.  Each ``repro bench run`` also appends one ``bench`` row to
the run ledger (:mod:`repro.ledger`) whose ``metrics`` are
:func:`history_metrics` of the document; those rows are the series the
trend sentinel in :mod:`repro.perf.check` forecasts over.
"""

from __future__ import annotations

import importlib
import json
import os
import platform
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

__all__ = [
    "BENCH_SCHEMA",
    "BenchSpec",
    "MetricSpec",
    "REGISTERED_MODULES",
    "build_document",
    "flat_payload",
    "history_metrics",
    "load_registry",
    "machine_fingerprint",
    "record_summary",
    "register_bench",
    "scrub_volatile",
]

#: Schema tag of the merged benchmark document.
BENCH_SCHEMA = "repro.bench/1"

#: The benchmark modules the harness imports to populate the registry.
#: Order is presentation order for ``repro bench run``.
REGISTERED_MODULES = (
    "bench_o1_overhead",
    "bench_o2_kernel",
    "bench_o3_dispatch",
    "bench_p1_plans",
    "bench_f10_sharding",
    "bench_f11_fleet_obs",
    "bench_r2_remediation",
)


@dataclass(frozen=True)
class MetricSpec:
    """One gated (or reported) metric of a registered benchmark.

    ``kind`` selects the check semantics in :mod:`repro.perf.check`:

    * ``ratio`` — fresh/committed must stay within ``threshold`` in the
      bad ``direction`` (the O2 events/sec gate shape);
    * ``min`` / ``max`` — absolute floor/ceiling on the fresh value;
    * ``flag`` — the fresh value must be truthy (byte-identity gates);
    * ``equal`` — fresh must equal committed exactly (digests).

    ``threshold=None`` makes the metric report-only.  ``gate`` arms a
    ``min``/``max`` check on the fresh payload's ``mode`` and core count
    — its only keys are ``mode`` and ``cores_min`` (``{"cores_min": 4,
    "mode": "full"}`` is the F10 scaling rule).  ``same_mode``
    skips committed comparisons when the fresh and committed runs used
    different modes (short-mode digests differ from full-mode ones by
    construction).
    """

    name: str
    kind: str
    direction: str = "higher"
    threshold: Optional[float] = None
    gate: Mapping[str, Any] = field(default_factory=dict)
    same_mode: bool = False


@dataclass(frozen=True)
class BenchSpec:
    """One registered benchmark: how to run it and how to judge it."""

    name: str
    runner: Callable[[], Any]
    metrics: Tuple[MetricSpec, ...]
    deterministic: Tuple[str, ...] = ()
    module: str = ""


#: Name -> spec for every benchmark registered in this process.
REGISTRY: Dict[str, BenchSpec] = {}

#: The most recent summary payload per bench name, stashed by
#: ``benchmarks/_common.write_bench_summary`` on every call (whether or
#: not a JSON file was written) so the harness can collect results
#: without re-parsing artifacts.
LAST_SUMMARIES: Dict[str, Dict[str, Any]] = {}


def register_bench(
    name: str,
    *,
    metrics: Sequence[MetricSpec] = (),
    deterministic: Sequence[str] = (),
) -> Callable:
    """Class decorator for a bench's ``run_*`` entry point.

    The decorated callable runs the benchmark (returning its table) and
    must call ``write_bench_summary(name, payload)`` with the same
    ``name`` so the harness can pick the payload up afterwards.
    """

    def decorate(runner: Callable[[], Any]) -> Callable[[], Any]:
        REGISTRY[name] = BenchSpec(
            name=name,
            runner=runner,
            metrics=tuple(metrics),
            deterministic=tuple(deterministic),
            module=getattr(runner, "__module__", ""),
        )
        return runner

    return decorate


def record_summary(name: str, payload: Mapping[str, Any]) -> None:
    """Stash a bench's summary payload (JSON round-trip = deep copy)."""
    LAST_SUMMARIES[name] = json.loads(json.dumps(payload, default=str))


def default_bench_dir() -> Path:
    """The repository's ``benchmarks/`` directory."""
    return Path(__file__).resolve().parents[3] / "benchmarks"


def load_registry(bench_dir: Optional[Path] = None) -> Dict[str, BenchSpec]:
    """Import every registered bench module and return the registry.

    The benchmark scripts import each other via the flat ``_common``
    module, so ``bench_dir`` is prepended to ``sys.path`` for the
    imports.  Modules already imported are not re-imported — short-mode
    flags read at import time are sticky per process.
    """
    target = Path(bench_dir) if bench_dir is not None else default_bench_dir()
    if str(target) not in sys.path:
        sys.path.insert(0, str(target))
    for module in REGISTERED_MODULES:
        importlib.import_module(module)
    return dict(REGISTRY)


def machine_fingerprint() -> Dict[str, Any]:
    """Where and when a bench document's numbers were measured."""
    from repro.ledger import git_revision

    return {
        "host": platform.node(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count() or 1,
        "git_rev": git_revision(),
        "recorded_at": datetime.now(timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"
        ),
    }


def build_document(
    results: Mapping[str, Mapping[str, Any]],
    mode: str,
    fingerprint: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the canonical ``repro.bench/1`` document.

    Each bench's payload is split on its registered ``deterministic``
    key list: those keys land in ``checks`` (byte-stable), the rest in
    ``timings`` (host-dependent).  Unregistered benches default to
    all-timings, the conservative split.
    """
    benches: Dict[str, Any] = {}
    for name in sorted(results):
        payload = results[name]
        spec = REGISTRY.get(name)
        det = set(spec.deterministic) if spec is not None else set()
        benches[name] = {
            "checks": {k: payload[k] for k in sorted(det & set(payload))},
            "timings": {
                k: payload[k] for k in sorted(set(payload) - det)
            },
        }
    return {
        "schema": BENCH_SCHEMA,
        "mode": mode,
        "fingerprint": dict(fingerprint or machine_fingerprint()),
        "benches": benches,
    }


def scrub_volatile(document: Mapping[str, Any]) -> Dict[str, Any]:
    """The byte-stability view: no fingerprint, no timing blocks.

    ``canonical_json(scrub_volatile(doc))`` must be identical across
    reruns of the same suite on the same code, on any machine.
    """
    return {
        "schema": document.get("schema"),
        "mode": document.get("mode"),
        "benches": {
            name: {"checks": dict(entry.get("checks", {}))}
            for name, entry in sorted(document.get("benches", {}).items())
        },
    }


def flat_payload(entry: Mapping[str, Any]) -> Dict[str, Any]:
    """Flatten a document bench entry back to its summary payload.

    Accepts either a raw summary payload (returned unchanged) or a
    ``{"checks": ..., "timings": ...}`` document entry.
    """
    if "checks" in entry or "timings" in entry:
        merged = dict(entry.get("checks", {}))
        merged.update(entry.get("timings", {}))
        return merged
    return dict(entry)


def history_metrics(document: Mapping[str, Any]) -> Dict[str, float]:
    """The document's registered metrics as flat ``<bench>.<metric>`` numbers.

    These are the ``metrics`` of the run-ledger ``bench`` row.
    """
    out: Dict[str, float] = {}
    for name, entry in sorted(document.get("benches", {}).items()):
        spec = REGISTRY.get(name)
        if spec is None:
            continue
        payload = flat_payload(entry)
        for metric in spec.metrics:
            value = payload.get(metric.name)
            if isinstance(value, (int, float)):  # bool flags count as 0/1
                out[f"{name}.{metric.name}"] = float(value)
    return out

