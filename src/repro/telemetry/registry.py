"""Labeled metrics: the registry behind the telemetry layer.

:class:`~repro.metrics.collectors.MetricRegistry` keys metrics by one
dotted string, which forces label-like dimensions (app, tier, function,
fault kind) into the name.  :class:`LabeledMetricsRegistry` generalises
the same :class:`~repro.metrics.collectors.Counter` / ``Gauge`` /
``Summary`` primitives with explicit label sets, and exports two stable
formats:

* :meth:`to_prometheus` — the Prometheus text exposition format
  (``# HELP``/``# TYPE`` headers plus ``name{label="value"} 1.0``
  sample lines, families and samples sorted, label values escaped);
* :meth:`snapshot` / :meth:`to_json` — a flat, deterministically ordered
  mapping suitable for byte-identical comparison across same-seed runs.

Label values are stringified at registration; a series' identity is
``(name, sorted(labels))``, so call-site keyword order never matters.
"""

from __future__ import annotations

import json
from typing import Dict, List, Mapping, Tuple, Union

from repro.metrics.collectors import Counter, Gauge, Summary

#: A fully qualified series key: (metric name, ((label, value), ...)).
SeriesKey = Tuple[str, Tuple[Tuple[str, str], ...]]

_NAME_BAD_CHARS = set(" {}\"',\n\t")

#: Quantiles a Summary exports, matching MetricRegistry.snapshot's picks.
SUMMARY_QUANTILES = (0.5, 0.99)


def _series_key(name: str, labels: Mapping[str, object]) -> SeriesKey:
    if not name or _NAME_BAD_CHARS & set(name):
        raise ValueError(f"invalid metric name {name!r}")
    items = []
    for label in sorted(labels):
        if not label or _NAME_BAD_CHARS & set(label):
            raise ValueError(f"invalid label name {label!r}")
        items.append((label, str(labels[label])))
    return name, tuple(items)


def _render_series(key: SeriesKey, extra: Tuple[Tuple[str, str], ...] = ()) -> str:
    name, labels = key
    labels = labels + extra
    if not labels:
        return name
    body = ",".join(f'{label}="{value}"' for label, value in labels)
    return f"{name}{{{body}}}"


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _render_prom(key: SeriesKey, extra: Tuple[Tuple[str, str], ...] = ()) -> str:
    name, labels = key
    labels = labels + extra
    if not labels:
        return name
    body = ",".join(
        f'{label}="{_escape_label_value(value)}"' for label, value in labels
    )
    return f"{name}{{{body}}}"


class LabeledMetricsRegistry:
    """Counters, gauges and summaries keyed by name *and* labels."""

    def __init__(self) -> None:
        self._counters: Dict[SeriesKey, Counter] = {}
        self._gauges: Dict[SeriesKey, Gauge] = {}
        self._summaries: Dict[SeriesKey, Summary] = {}

    # -- access ------------------------------------------------------------

    def counter(self, name: str, **labels: object) -> Counter:
        """Get or create the counter series ``name{labels}``."""
        key = _series_key(name, labels)
        series = self._counters.get(key)
        if series is None:
            series = self._counters[key] = Counter(_render_series(key))
        return series

    def gauge(self, name: str, initial: float = 0.0, **labels: object) -> Gauge:
        """Get or create the gauge series ``name{labels}``."""
        key = _series_key(name, labels)
        series = self._gauges.get(key)
        if series is None:
            series = self._gauges[key] = Gauge(_render_series(key), initial)
        return series

    def summary(self, name: str, **labels: object) -> Summary:
        """Get or create the summary series ``name{labels}``."""
        key = _series_key(name, labels)
        series = self._summaries.get(key)
        if series is None:
            series = self._summaries[key] = Summary(_render_series(key))
        return series

    def series_names(self) -> List[str]:
        """Sorted rendered names of every registered series."""
        keys = (
            list(self._counters) + list(self._gauges) + list(self._summaries)
        )
        return sorted(_render_series(key) for key in keys)

    # -- export ------------------------------------------------------------

    def snapshot(self) -> Dict[str, Union[int, float]]:
        """A flat, sorted mapping of every scalar the registry holds.

        Summary series expand to ``_count`` / ``_sum`` / per-quantile
        entries.  Keys are rendered series names, sorted, so the mapping
        (and any JSON dump of it) is deterministic.
        """
        out: Dict[str, Union[int, float]] = {}
        for key, counter in self._counters.items():
            out[_render_series(key)] = counter.value
        for key, gauge in self._gauges.items():
            out[_render_series(key)] = gauge.value
        for key, summary in self._summaries.items():
            name, labels = key
            out[_render_series((f"{name}_count", labels))] = summary.count
            out[_render_series((f"{name}_sum", labels))] = summary.total
            for q in SUMMARY_QUANTILES:
                rendered = _render_series(key, extra=(("quantile", str(q)),))
                out[rendered] = summary.quantile(q)
        return dict(sorted(out.items()))

    def to_json(self, indent: int = 0) -> str:
        """The snapshot as canonical JSON text (stable across runs)."""
        return json.dumps(
            self.snapshot(),
            sort_keys=True,
            indent=indent or None,
            separators=(",", ": ") if indent else (",", ":"),
        )

    def to_prometheus(self) -> str:
        """Prometheus text exposition, grouped per metric family.

        Each family renders a ``# HELP`` and ``# TYPE`` header followed
        by its sample lines in sorted order; families themselves are
        sorted by name.  Counters render with a ``_total`` suffix per
        convention unless the name already carries one; summaries render
        quantile series plus ``_count`` and ``_sum`` samples under one
        family.  Label values are escaped (backslash, double quote,
        newline), so hostile values cannot break the line format.
        """
        families: Dict[Tuple[str, str], List[str]] = {}
        for key, counter in self._counters.items():
            name, labels = key
            if not name.endswith("_total"):
                name = f"{name}_total"
            families.setdefault((name, "counter"), []).append(
                f"{_render_prom((name, labels))} {counter.value!r}"
            )
        for key, gauge in self._gauges.items():
            name, _ = key
            families.setdefault((name, "gauge"), []).append(
                f"{_render_prom(key)} {gauge.value!r}"
            )
        for key, summary in self._summaries.items():
            name, labels = key
            samples = families.setdefault((name, "summary"), [])
            for q in SUMMARY_QUANTILES:
                rendered = _render_prom(key, extra=(("quantile", str(q)),))
                samples.append(f"{rendered} {summary.quantile(q)!r}")
            samples.append(
                f"{_render_prom((f'{name}_count', labels))} {summary.count}"
            )
            samples.append(
                f"{_render_prom((f'{name}_sum', labels))} {summary.total!r}"
            )
        lines: List[str] = []
        for name, kind in sorted(families):
            lines.append(f"# HELP {name} Simulated metric {name}.")
            lines.append(f"# TYPE {name} {kind}")
            lines.extend(sorted(families[(name, kind)]))
        return "\n".join(lines) + ("\n" if lines else "")


__all__ = ["LabeledMetricsRegistry", "SUMMARY_QUANTILES"]
