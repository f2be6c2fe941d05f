"""Fleet-wide observability: merged group monitors + SLO rollups.

The per-process :class:`~repro.monitor.monitor.Monitor` folds one
simulator's telemetry into windowed series.  A sharded fleet run (see
:mod:`repro.fleet.sharded`) has one monitor per coupling-group
simulator, spread across worker processes; each ships its state as a
wire dict (:meth:`Monitor.to_dict <repro.monitor.monitor.Monitor.to_dict>`,
schema ``repro.monitor.snapshot/1``) alongside the shard's report.
Fleet-level alerting then needs two pieces, both byte-deterministic:

* :func:`merge_snapshots` — a key-ordered fold of the group wire dicts
  into one read-only fleet :class:`~repro.monitor.monitor.Monitor`.
  Each series is decoded once; the first occurrence of a series key is
  adopted and later ones fold in bucket-aligned
  (:meth:`~repro.monitor.window.WindowedSeries.merge`).  Inputs are
  sorted by zone label before folding, so the merged state is identical
  for any shard/worker count *given the same group decomposition* —
  exactly the regime where the sharded fleet report itself is exact (no
  split coupling links);
* :func:`replay_fleet_slos` — **replays** the stock
  :class:`~repro.monitor.slo.SLOEngine` cadence over the merged monitor
  offline (tick by tick up to its end time), so availability and
  link-stall SLOs and multi-window burn-rate rules evaluate over the
  *merged* streams and emit the same canonical alert log a live engine
  would.

Per-group zone-availability series are keyed by the coupling-group
label (zones sharing a warm pool share fate), while function and link
series share names across groups and therefore merge into fleet-wide
streams — the uplink-stall SLO, for instance, watches every group's
uplink transfers at once.

:func:`fleet_health_to_prometheus` renders a fleet health document (the
``repro.monitor.fleet/1`` schema assembled by
:func:`repro.fleet.sharded.run_sharded`) through the labeled-metrics
Prometheus exporter, inheriting its label-value escaping.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.monitor.monitor import (
    KIND_FUNCTION,
    KIND_LINK,
    KIND_ZONE,
    SNAPSHOT_SCHEMA,
    Monitor,
    _FrozenClock,
)
from repro.monitor.slo import (
    SLO,
    AvailabilitySLO,
    BurnRateRule,
    LatencySLO,
    SLOEngine,
)

__all__ = [
    "FLEET_EVAL_INTERVAL_S",
    "FLEET_HEALTH_SCHEMA",
    "FLEET_RULES",
    "SNAPSHOT_SCHEMA",
    "default_fleet_rule_overrides",
    "default_fleet_slos",
    "fleet_health_to_prometheus",
    "live_fleet_slos",
    "merge_snapshots",
    "replay_fleet_slos",
]

#: Schema tag of the merged fleet health document.
FLEET_HEALTH_SCHEMA = "repro.monitor.fleet/1"

#: Default burn-rate rules for fleet replay.  Fleet workloads are batch
#: release windows, not request streams: event rates per window are low,
#: so the gates are smaller than the stock ``DEFAULT_RULES`` while the
#: two-window structure (recent *and* sustained) is kept.
FLEET_RULES: Tuple[BurnRateRule, ...] = (
    BurnRateRule("fast", short_s=60.0, long_s=300.0, factor=2.0,
                 min_events=4, severity="page"),
    BurnRateRule("slow", short_s=300.0, long_s=1800.0, factor=1.0,
                 min_events=8, severity="ticket"),
)

#: Rules for sparse transfer series (a handful of events per minute): a
#: single stalled window must be allowed to page, as in the golden
#: monitoring scenario.
_SPARSE_LINK_RULES: Tuple[BurnRateRule, ...] = (
    BurnRateRule("outage", short_s=120.0, long_s=600.0, factor=1.0,
                 min_events=1, severity="page"),
)

#: SLO evaluation cadence of fleet engines, live and replayed.
FLEET_EVAL_INTERVAL_S = 60.0

#: Health status ranking used by the Prometheus exporter.
_STATUS_CODE = {"ok": 0, "degraded": 1, "critical": 2}


def merge_snapshots(snapshots: Iterable[Mapping[str, Any]]) -> Monitor:
    """Fold group wire dicts into one read-only fleet monitor.

    Each dict is decoded once (a wrong schema raises ``ValueError``) and
    the decoded monitors are sorted by ``(zone label, end_s)`` before
    folding, so the merged state does not depend on the order shards
    completed in — the same property the sharded report merge has.  The
    first occurrence of a series key is adopted as is; later ones fold
    into it.  Bucket width and sketch alpha must match (``ValueError``
    otherwise); horizon and end time extend to cover every input.  The
    result is zone ``"fleet"``, its clock frozen at the latest end time;
    an empty input yields an empty monitor at the stock geometry.
    """
    ordered = sorted(
        (Monitor.from_dict(data) for data in snapshots),
        key=lambda m: (m.zone, m.clock.now),
    )
    if not ordered:
        return Monitor(_FrozenClock(0.0), zone="fleet")
    first = ordered[0]
    merged = Monitor(
        _FrozenClock(max(m.clock.now for m in ordered)),
        zone="fleet",
        bucket_s=first.bucket_s,
        horizon_s=max(m.horizon_s for m in ordered),
        alpha=first.alpha,
    )
    series = merged._series
    for monitor in ordered:
        if monitor.bucket_s != merged.bucket_s:
            raise ValueError(
                f"cannot merge snapshots with bucket_s {monitor.bucket_s} "
                f"!= {merged.bucket_s}"
            )
        if monitor.alpha != merged.alpha:
            raise ValueError(
                f"cannot merge snapshots with alpha {monitor.alpha} != "
                f"{merged.alpha}"
            )
        for key in monitor.entities():
            theirs = monitor._series[key]
            mine = series.get(key)
            if mine is None:
                series[key] = theirs
            else:
                mine.merge(theirs)
    return merged


# -- fleet SLO set ----------------------------------------------------------


def _fleet_slos(zones: Iterable[str], links: Iterable[str]) -> List[SLO]:
    """The fleet SLO vocabulary, in the given order: an availability SLO
    per zone entity (``availability:<entity>``), then a stall detector
    per link (``<link>-stall``: a stalled transfer takes far longer than
    the 30 s threshold)."""
    slos: List[SLO] = [
        AvailabilitySLO(f"availability:{entity}", entity=entity,
                        objective=0.99)
        for entity in zones
    ]
    for link in links:
        slos.append(
            LatencySLO(
                f"{link}-stall",
                kind=KIND_LINK,
                entity=link,
                threshold_s=30.0,
                objective=0.75,
                signal="throughput",
            )
        )
    return slos


def default_fleet_slos(monitor: Monitor) -> List[SLO]:
    """The SLO set a fleet replay evaluates over ``monitor``.

    Derived from the merged monitor's series: every coupling-group
    entity, then every link, each in sorted order.
    """
    keys = monitor.entities()
    return _fleet_slos(
        sorted({name for kind, name, _ in keys if kind == KIND_ZONE}),
        sorted({name for kind, name, _ in keys if kind == KIND_LINK}),
    )


def default_fleet_rule_overrides(
    slos: Sequence[SLO],
) -> Dict[str, Tuple[BurnRateRule, ...]]:
    """Sparse-series rule overrides: link-stall SLOs page on one event."""
    return {
        slo.name: _SPARSE_LINK_RULES
        for slo in slos
        if slo.kind == KIND_LINK
    }


def live_fleet_slos(group_label: str) -> List[SLO]:
    """The SLO set a *live* per-group engine evaluates during the sim.

    The same vocabulary as :func:`default_fleet_slos`, built up front
    from the coupling-group label (``availability:<group>``, then
    ``uplink-stall`` and ``downlink-stall``): a live engine cannot know
    which series will exist.  SLOs over series that never record data
    simply never fire.
    """
    return _fleet_slos((group_label,), ("uplink", "downlink"))


def replay_fleet_slos(merged: Monitor) -> SLOEngine:
    """Replay the fleet SLO engine over a merged monitor, offline.

    Builds an :class:`~repro.monitor.slo.SLOEngine` with
    :func:`default_fleet_slos`, :data:`FLEET_RULES` and the sparse link
    overrides, evaluates every :data:`FLEET_EVAL_INTERVAL_S` tick up
    past the monitor's end time, then finalizes at the last tick (at the
    end time itself when there is none) so the log's timestamps stay
    monotonic and an outage straddling the end still gets its terminal
    ``CLEARED ... final=true`` line.  The merged monitor is only read,
    so the replay is byte-identical for any shard/worker count.
    """
    slos = default_fleet_slos(merged)
    engine = SLOEngine(
        merged,
        slos,
        rules=FLEET_RULES,
        eval_interval_s=FLEET_EVAL_INTERVAL_S,
        rule_overrides=default_fleet_rule_overrides(slos),
    )
    end_s = merged.clock.now
    ticks = int(math.ceil(end_s / FLEET_EVAL_INTERVAL_S))
    for k in range(1, ticks + 1):
        engine.evaluate(k * FLEET_EVAL_INTERVAL_S)
    engine.finalize(ticks * FLEET_EVAL_INTERVAL_S if ticks else end_s)
    return engine


# -- Prometheus export ------------------------------------------------------

#: Label name used for a series entity, per monitor kind.
_KIND_LABEL = {KIND_ZONE: "zone", KIND_FUNCTION: "function", KIND_LINK: "link"}


def fleet_health_to_prometheus(document: Mapping[str, Any]) -> str:
    """Render a ``repro.monitor.fleet/1`` health document as Prometheus text.

    Goes through :class:`~repro.telemetry.registry.LabeledMetricsRegistry`
    so zone/function/link label values ride the exporter's escaping path
    (backslash, quote, newline) and family ordering.
    """
    from repro.telemetry.registry import LabeledMetricsRegistry

    if document.get("schema") != FLEET_HEALTH_SCHEMA:
        raise ValueError(
            f"not a fleet health document: schema {document.get('schema')!r}"
        )
    registry = LabeledMetricsRegistry()
    fleet = document.get("fleet", {})
    registry.gauge("fleet_status").set(
        float(_STATUS_CODE.get(fleet.get("status", "ok"), 0))
    )
    for name in ("zones", "ues", "groups", "alerts_fired", "alerts_active"):
        if name in fleet:
            registry.gauge(f"fleet_{name}").set(float(fleet[name]))
    zones: Mapping[str, Mapping[str, Any]] = document.get("zones", {})
    for zone in sorted(zones):
        entry = zones[zone]
        registry.gauge("fleet_zone_status", zone=zone).set(
            float(_STATUS_CODE.get(entry.get("status", "ok"), 0))
        )
        for name in (
            "ues", "jobs", "completed", "failures", "deadline_misses",
            "cold_starts", "invocations",
        ):
            if name in entry:
                registry.gauge(f"fleet_zone_{name}", zone=zone).set(
                    float(entry[name])
                )
        if "mean_response_s" in entry:
            registry.gauge(
                "fleet_zone_mean_response_seconds", zone=zone
            ).set(float(entry["mean_response_s"]))
        if "cost_usd" in entry:
            registry.gauge("fleet_zone_cost_usd", zone=zone).set(
                float(entry["cost_usd"])
            )
    meter_snapshot = document.get("meter", {})
    if meter_snapshot:
        from repro.perf.meter import RuntimeMeter

        meter = RuntimeMeter()
        meter.absorb_snapshot(meter_snapshot)
        # Counters only: a snapshot carries no wall clocks, so the
        # timing gauges would all read a misleading zero.
        meter.publish(registry, include_timings=False)
    alert_counts: Dict[Tuple[str, str, str], int] = {}
    for alert in document.get("alerts", ()):
        key = (alert["slo"], alert["rule"], alert["severity"])
        alert_counts[key] = alert_counts.get(key, 0) + 1
    for (slo, rule, severity) in sorted(alert_counts):
        counter = registry.counter(
            "fleet_alerts", slo=slo, rule=rule, severity=severity
        )
        counter.increment(alert_counts[(slo, rule, severity)])
    stats: Mapping[str, Mapping[str, float]] = document.get("stats", {})
    for key_text in sorted(stats):
        kind, name, signal = key_text.split("/", 2)
        label = _KIND_LABEL.get(kind, "entity")
        labels = {label: name, "signal": signal}
        entry = stats[key_text]
        registry.gauge("fleet_series_events", **labels).set(entry["count"])
        registry.gauge("fleet_series_error_ratio", **labels).set(
            entry["error_ratio"]
        )
        if "p95" in entry:
            registry.gauge("fleet_series_p95_seconds", **labels).set(
                entry["p95"]
            )
    return registry.to_prometheus()
