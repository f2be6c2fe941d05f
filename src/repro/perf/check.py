"""The regression sentinel: direction-aware checks plus trend forecasts.

Generalizes the two historical per-bench checkers into one evaluator
driven by each benchmark's registered :class:`~repro.perf.bench.MetricSpec`
list:

* **flag** — must be truthy (byte-identity gates fail unconditionally);
* **min** / **max** — absolute floor/ceiling, optionally armed by a
  payload gate (the F10 rule: scaling only counts on ≥4-core full-mode
  runs);
* **ratio** — fresh vs committed within a fractional threshold in the
  bad direction (the O2 rule: >20% pure-event throughput drop fails);
* **equal** — exact match against the committed value, skipped when the
  two runs used different modes (digests differ across op counts by
  construction).

On top of the single-run thresholds, the **trend sentinel** reuses
:func:`repro.remediate.forecast.forecast_ahead` (Holt's linear method)
over the benchmark history ledger: a metric whose *forecast* — not yet
its latest sample — drifts past the threshold relative to the start of
its comparable-mode series is flagged before any individual run trips
the hard gate.  Trend hits warn by default and fail with
``--trend-fail``.

``tools/check_bench.py`` is the CLI shim over :func:`main`.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.perf.bench import (
    BENCH_SCHEMA,
    REGISTRY,
    BenchSpec,
    MetricSpec,
    flat_payload,
    history_series,
    load_registry,
    read_history,
    resolve_history_path,
)

__all__ = [
    "CheckOutcome",
    "evaluate_bench",
    "evaluate_metric",
    "main",
    "trend_outcomes",
]


@dataclass(frozen=True)
class CheckOutcome:
    """One metric's verdict: where it stands and why."""

    bench: str
    metric: str
    status: str  # ok | fail | warn | skip | info
    detail: str

    @property
    def failed(self) -> bool:
        return self.status == "fail"

    def render(self) -> str:
        return (
            f"  {self.status.upper():>4}  {self.bench}.{self.metric}: "
            f"{self.detail}"
        )


def _gate_reason(
    gate: Mapping[str, Any], payload: Mapping[str, Any]
) -> Optional[str]:
    """Why a gated check stays disarmed, or ``None`` when it is armed."""
    if "mode" in gate and payload.get("mode", "short") != gate["mode"]:
        return f"needs {gate['mode']} mode, ran {payload.get('mode', '?')}"
    if "cores_min" in gate:
        cores = int(payload.get("cores", 1))
        if cores < int(gate["cores_min"]):
            return f"needs >={gate['cores_min']} cores, host has {cores}"
    return None


def evaluate_metric(
    bench: str,
    spec: MetricSpec,
    fresh: Mapping[str, Any],
    committed: Optional[Mapping[str, Any]] = None,
    threshold: Optional[float] = None,
) -> CheckOutcome:
    """Judge one metric of one fresh payload against its spec.

    ``threshold`` overrides the spec's registered threshold (the legacy
    wrappers' ``--threshold`` hook); ``None`` keeps the registered one.
    """
    limit = spec.threshold if threshold is None else threshold
    value = fresh.get(spec.name)

    if spec.kind == "flag":
        if value:
            return CheckOutcome(bench, spec.name, "ok", "true")
        return CheckOutcome(
            bench, spec.name, "fail", f"expected true, got {value!r}"
        )

    if spec.kind in ("min", "max"):
        reason = _gate_reason(spec.gate, fresh)
        if reason is not None:
            return CheckOutcome(bench, spec.name, "skip", reason)
        number = float(value if value is not None else 0.0)
        if limit is None:
            return CheckOutcome(bench, spec.name, "info", f"{number:g}")
        if spec.kind == "min" and number < float(limit):
            return CheckOutcome(
                bench, spec.name, "fail",
                f"{number:g} below the {float(limit):g} floor",
            )
        if spec.kind == "max" and number > float(limit):
            return CheckOutcome(
                bench, spec.name, "fail",
                f"{number:g} above the {float(limit):g} ceiling",
            )
        word = "floor" if spec.kind == "min" else "ceiling"
        return CheckOutcome(
            bench, spec.name, "ok", f"{number:g} vs {float(limit):g} {word}"
        )

    # ratio / equal both need the committed side.
    if committed is None:
        return CheckOutcome(
            bench, spec.name, "skip", "no committed baseline"
        )
    if spec.same_mode:
        fresh_mode = fresh.get("mode")
        committed_mode = committed.get("mode")
        if fresh_mode != committed_mode:
            return CheckOutcome(
                bench, spec.name, "skip",
                f"mode mismatch ({fresh_mode} vs committed "
                f"{committed_mode})",
            )
    reference = committed.get(spec.name)

    if spec.kind == "equal":
        if reference is None:
            return CheckOutcome(
                bench, spec.name, "skip", "baseline lacks the metric"
            )
        if value == reference:
            return CheckOutcome(bench, spec.name, "ok", "matches committed")
        return CheckOutcome(
            bench, spec.name, "fail",
            f"{value!r} != committed {reference!r}",
        )

    if spec.kind == "ratio":
        if not isinstance(reference, (int, float)) or not reference:
            return CheckOutcome(
                bench, spec.name, "skip", "baseline lacks the metric"
            )
        number = float(value if value is not None else 0.0)
        ratio = number / float(reference)
        detail = (
            f"{number:g} is {100 * ratio:.1f}% of committed "
            f"{float(reference):g}"
        )
        if limit is None:
            return CheckOutcome(bench, spec.name, "info", detail)
        if spec.direction == "higher" and ratio < 1.0 - float(limit):
            return CheckOutcome(
                bench, spec.name, "fail",
                f"{detail} (floor {100 * (1.0 - float(limit)):.0f}%)",
            )
        if spec.direction == "lower" and ratio > 1.0 + float(limit):
            return CheckOutcome(
                bench, spec.name, "fail",
                f"{detail} (ceiling {100 * (1.0 + float(limit)):.0f}%)",
            )
        return CheckOutcome(bench, spec.name, "ok", detail)

    raise ValueError(f"unknown metric kind {spec.kind!r}")


def evaluate_bench(
    spec: BenchSpec,
    fresh: Mapping[str, Any],
    committed: Optional[Mapping[str, Any]] = None,
    threshold: Optional[float] = None,
) -> List[CheckOutcome]:
    """All metric verdicts for one bench.

    A bare ``threshold`` override applies only to the bench's declared
    ``primary`` metric — exactly the legacy wrappers' contract.
    """
    outcomes = []
    for metric in spec.metrics:
        override = (
            threshold
            if threshold is not None and metric.name == spec.primary
            else None
        )
        outcomes.append(
            evaluate_metric(spec.name, metric, fresh, committed, override)
        )
    return outcomes


def trend_outcomes(
    spec: BenchSpec,
    fresh_mode: Optional[str],
    history: Sequence[Mapping[str, Any]],
    *,
    steps: float = 3.0,
    drift_threshold: float = 0.2,
    min_points: int = 4,
    fail: bool = False,
) -> List[CheckOutcome]:
    """Forecast each directional metric's comparable-mode history.

    The Holt-linear forecast ``steps`` runs ahead is compared against
    the *start* of the series; a projected drift past
    ``drift_threshold`` in the bad direction flags the slow regression
    single-run thresholds miss.
    """
    from repro.remediate.forecast import forecast_ahead

    outcomes: List[CheckOutcome] = []
    for metric in spec.metrics:
        if metric.kind not in ("ratio", "min", "max"):
            continue
        series = history_series(
            history, f"{spec.name}.{metric.name}", mode=fresh_mode
        )
        if len(series) < min_points:
            continue
        baseline = series[0]
        if baseline <= 0.0:
            continue
        projected = forecast_ahead(series, steps=steps)
        if projected is None:
            continue
        drift = projected / baseline
        detail = (
            f"forecast {projected:g} in {steps:g} runs is "
            f"{100 * drift:.1f}% of the series start {baseline:g} "
            f"({len(series)} points)"
        )
        bad = (
            drift < 1.0 - drift_threshold
            if metric.direction == "higher"
            else drift > 1.0 + drift_threshold
        )
        status = ("fail" if fail else "warn") if bad else "ok"
        outcomes.append(
            CheckOutcome(spec.name, f"{metric.name}~trend", status, detail)
        )
    return outcomes


def _load_fresh(path: Path) -> Dict[str, Dict[str, Any]]:
    """Fresh payloads by bench name, from a merged document or a legacy
    single-bench summary file."""
    data = json.loads(path.read_text())
    if data.get("schema") == BENCH_SCHEMA:
        mode = data.get("mode")
        payloads = {}
        for name, entry in data.get("benches", {}).items():
            payload = flat_payload(entry)
            payload.setdefault("mode", mode)
            payloads[name] = payload
        return payloads
    name = data.get("bench")
    if not name:
        raise SystemExit(
            f"{path}: neither a {BENCH_SCHEMA} document nor a "
            "single-bench summary (no 'bench' key)"
        )
    return {str(name): flat_payload(data)}


def _load_committed(
    name: str, explicit: Optional[Path], baseline_dir: Path
) -> Optional[Dict[str, Any]]:
    path = explicit if explicit is not None else (
        baseline_dir / f"BENCH_{name}.json"
    )
    if not path.exists():
        return None
    return flat_payload(json.loads(path.read_text()))


def main(argv: Optional[Sequence[str]] = None) -> int:
    repo_root = Path(__file__).resolve().parents[3]
    parser = argparse.ArgumentParser(
        description="Check fresh benchmark results against committed "
        "baselines and the benchmark history trend."
    )
    parser.add_argument(
        "fresh", type=Path,
        help="repro.bench/1 document or a single BENCH_<name>.json",
    )
    parser.add_argument(
        "--bench", action="append", default=None,
        help="restrict checking to this bench (repeatable)",
    )
    parser.add_argument(
        "--committed", type=Path, default=None,
        help="explicit committed baseline file (single-bench checks)",
    )
    parser.add_argument(
        "--baseline-dir", type=Path,
        default=repo_root / "benchmarks",
        help="directory of committed BENCH_<name>.json baselines",
    )
    parser.add_argument(
        "--threshold", type=float, default=None,
        help="override the primary-metric threshold of each bench",
    )
    parser.add_argument(
        "--history", default=None,
        help="benchmark history ledger for the trend sentinel "
        "(default: REPRO_BENCH_HISTORY or .repro_bench_history.jsonl)",
    )
    parser.add_argument(
        "--no-trend", action="store_true",
        help="skip the trend sentinel entirely",
    )
    parser.add_argument(
        "--trend-fail", action="store_true",
        help="treat trend drifts as failures instead of warnings",
    )
    parser.add_argument(
        "--trend-threshold", type=float, default=0.2,
        help="fractional forecast drift that trips the sentinel "
        "(default 0.2)",
    )
    parser.add_argument(
        "--trend-steps", type=float, default=3.0,
        help="runs ahead to forecast (default 3)",
    )
    args = parser.parse_args(argv)

    load_registry()
    fresh_payloads = _load_fresh(args.fresh)
    selected = args.bench or sorted(fresh_payloads)

    history = []
    if not args.no_trend:
        history_path = resolve_history_path(args.history)
        if history_path is not None:
            history = read_history(history_path)

    failures = 0
    for name in selected:
        payload = fresh_payloads.get(name)
        if payload is None:
            print(f"  SKIP  {name}: not present in {args.fresh}")
            continue
        spec = REGISTRY.get(name)
        if spec is None:
            print(f"  SKIP  {name}: not a registered benchmark")
            continue
        committed = _load_committed(name, args.committed, args.baseline_dir)
        outcomes = evaluate_bench(
            spec, payload, committed, threshold=args.threshold
        )
        outcomes.extend(
            trend_outcomes(
                spec,
                payload.get("mode"),
                history,
                steps=args.trend_steps,
                drift_threshold=args.trend_threshold,
                fail=args.trend_fail,
            )
        )
        for outcome in outcomes:
            print(outcome.render())
            failures += outcome.failed

    if failures:
        print(f"FAIL: {failures} benchmark check(s) failed", file=sys.stderr)
        return 1
    print("OK: all benchmark checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
