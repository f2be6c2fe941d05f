"""The regression sentinel: direction-aware checks plus trend forecasts.

One evaluator, driven by each benchmark's registered
:class:`~repro.perf.bench.MetricSpec` list:

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
over the run ledger's successful ``bench`` rows (see
:mod:`repro.ledger`): a metric whose *forecast* — not yet
its latest sample — drifts past the threshold relative to the start of
its comparable-mode series is flagged before any individual run trips
the hard gate.  Trend hits warn by default and fail with
``--trend-fail``.

:func:`compare` is the whole gate; ``repro bench compare`` calls it and
exits with its return code.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Union,
)

from repro.perf.bench import (
    BENCH_SCHEMA,
    REGISTRY,
    BenchSpec,
    MetricSpec,
    default_bench_dir,
    flat_payload,
    load_registry,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.ledger import LedgerEntry

__all__ = [
    "CheckOutcome",
    "compare",
    "evaluate_bench",
    "evaluate_metric",
    "trend_outcomes",
]

#: Runs ahead the trend sentinel forecasts.
TREND_STEPS = 3.0

#: Fractional forecast drift, in the bad direction, that trips it.
TREND_DRIFT = 0.2


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
) -> CheckOutcome:
    """Judge one metric of one fresh payload against its spec."""
    limit = spec.threshold
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
) -> List[CheckOutcome]:
    """All metric verdicts for one bench."""
    return [
        evaluate_metric(spec.name, metric, fresh, committed)
        for metric in spec.metrics
    ]


def trend_outcomes(
    spec: BenchSpec,
    fresh_mode: Optional[str],
    entries: Sequence[LedgerEntry],
    *,
    min_points: int = 4,
    fail: bool = False,
) -> List[CheckOutcome]:
    """Forecast each directional metric over the comparable ledger rows.

    The series is the metric's value in every ``bench`` row of
    ``entries`` that finished ``ok`` in ``fresh_mode``, oldest first
    (short-mode op counts are not comparable to full-mode ones).  The
    Holt-linear forecast :data:`TREND_STEPS` runs ahead is compared
    against the *start* of the series; a projected drift past
    :data:`TREND_DRIFT` in the bad direction flags the slow regression
    single-run thresholds miss.
    """
    from repro.remediate.forecast import forecast_ahead

    rows = [
        entry.metrics
        for entry in entries
        if entry.command == "bench"
        and entry.status == "ok"
        and entry.config.get("mode") == fresh_mode
    ]
    outcomes: List[CheckOutcome] = []
    for metric in spec.metrics:
        if metric.kind not in ("ratio", "min", "max"):
            continue
        key = f"{spec.name}.{metric.name}"
        series = [
            float(row[key])
            for row in rows
            if isinstance(row.get(key), (int, float))
        ]
        if len(series) < min_points:
            continue
        baseline = series[0]
        if baseline <= 0.0:
            continue
        projected = forecast_ahead(series, steps=TREND_STEPS)
        if projected is None:
            continue
        drift = projected / baseline
        detail = (
            f"forecast {projected:g} in {TREND_STEPS:g} runs is "
            f"{100 * drift:.1f}% of the series start {baseline:g} "
            f"({len(series)} points)"
        )
        bad = (
            drift < 1.0 - TREND_DRIFT
            if metric.direction == "higher"
            else drift > 1.0 + TREND_DRIFT
        )
        status = ("fail" if fail else "warn") if bad else "ok"
        outcomes.append(
            CheckOutcome(spec.name, f"{metric.name}~trend", status, detail)
        )
    return outcomes


def _load_fresh(path: Path) -> Dict[str, Dict[str, Any]]:
    """Fresh payloads by bench name, from a ``repro.bench/1`` document."""
    data = json.loads(path.read_text())
    if data.get("schema") != BENCH_SCHEMA:
        raise SystemExit(f"{path}: not a {BENCH_SCHEMA} document")
    mode = data.get("mode")
    payloads = {}
    for name, entry in data.get("benches", {}).items():
        payload = flat_payload(entry)
        payload.setdefault("mode", mode)
        payloads[name] = payload
    return payloads


def _load_committed(
    name: str, baseline_dir: Path
) -> Optional[Dict[str, Any]]:
    path = baseline_dir / f"BENCH_{name}.json"
    if not path.exists():
        return None
    return flat_payload(json.loads(path.read_text()))


def compare(
    fresh: Union[str, Path],
    *,
    benches: Optional[Sequence[str]] = None,
    baseline_dir: Union[str, Path, None] = None,
    ledger: Optional[str] = None,
    trend: bool = True,
    trend_fail: bool = False,
) -> int:
    """Gate a fresh ``repro.bench/1`` document; returns the exit code.

    Each selected bench (default: every bench in ``fresh``) is judged
    against ``baseline_dir/BENCH_<name>.json`` (default: the repo's
    ``benchmarks/``) and, unless ``trend`` is off, against the forecast
    over the ``bench`` rows of the run ledger (resolved by
    :func:`~repro.ledger.resolve_ledger_path`).  Prints one line per
    verdict; returns 1 if any verdict failed, else 0.
    """
    baseline_dir = (
        default_bench_dir() if baseline_dir is None else Path(baseline_dir)
    )
    load_registry()
    fresh_payloads = _load_fresh(Path(fresh))

    entries: List[LedgerEntry] = []
    if trend:
        from repro.ledger import read_ledger, resolve_ledger_path

        ledger_path = resolve_ledger_path(ledger)
        if ledger_path is not None:
            entries = read_ledger(ledger_path)

    failures = 0
    for name in benches or sorted(fresh_payloads):
        payload = fresh_payloads.get(name)
        if payload is None:
            print(f"  SKIP  {name}: not present in {fresh}")
            continue
        spec = REGISTRY.get(name)
        if spec is None:
            print(f"  SKIP  {name}: not a registered benchmark")
            continue
        committed = _load_committed(name, baseline_dir)
        outcomes = evaluate_bench(spec, payload, committed)
        outcomes.extend(
            trend_outcomes(
                spec, payload.get("mode"), entries, fail=trend_fail
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
