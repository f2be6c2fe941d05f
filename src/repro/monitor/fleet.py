"""Fleet-wide observability: mergeable monitor snapshots + SLO rollups.

The per-process :class:`~repro.monitor.monitor.Monitor` folds one
simulator's telemetry into windowed series.  A sharded fleet run (see
:mod:`repro.fleet.sharded`) has one monitor per coupling-group
simulator, spread across worker processes — so fleet-level alerting
needs three pieces, all byte-deterministic:

* :class:`MonitorSnapshot` — a canonical-JSON serializable freeze of a
  monitor's full state (every series, bucket by bucket, sketch bucket
  counts included), cheap to ship through the sweep machinery alongside
  the shard's report;
* :func:`merge_snapshots` — a key-ordered fold of shard snapshots into
  one fleet snapshot.  Series maps union (same key ⇒
  :meth:`~repro.monitor.window.WindowedSeries.merge`, bucket-aligned),
  inputs are sorted by zone label before folding, so the merged bytes
  are identical for any shard/worker count *given the same group
  decomposition* — exactly the regime where the sharded fleet report
  itself is exact (no split coupling links);
* :class:`FleetSLOEngine` — reads the merged snapshot in place through
  a read-only monitor view and **replays** the stock
  :class:`~repro.monitor.slo.SLOEngine` cadence over it offline (tick
  by tick up to the snapshot's end time), so availability / latency /
  cold-start / cost SLOs and multi-window burn-rate rules evaluate over
  the *merged* streams and emit the same canonical alert log the live
  engine would.

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
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.monitor.monitor import (
    KIND_FUNCTION,
    KIND_LINK,
    KIND_ZONE,
    Monitor,
    SeriesId,
)
from repro.monitor.slo import (
    SLO,
    Alert,
    AvailabilitySLO,
    BurnRateRule,
    ColdStartSLO,
    CostSLO,
    LatencySLO,
    SLOEngine,
)
from repro.monitor.window import WindowedSeries

__all__ = [
    "FLEET_HEALTH_SCHEMA",
    "FLEET_RULES",
    "FleetSLOEngine",
    "MonitorSnapshot",
    "SNAPSHOT_SCHEMA",
    "default_fleet_rule_overrides",
    "default_fleet_slos",
    "fleet_health_to_prometheus",
    "live_fleet_slos",
    "merge_snapshots",
    "restore_monitor",
]

#: Schema tag of one serialized monitor snapshot.
SNAPSHOT_SCHEMA = "repro.monitor.snapshot/1"

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

#: Health status ranking used by the Prometheus exporter.
_STATUS_CODE = {"ok": 0, "degraded": 1, "critical": 2}


class _FrozenClock:
    """A stand-in clock for restored monitors (replay never reads it)."""

    __slots__ = ("now",)

    def __init__(self, now: float) -> None:
        self.now = now


class MonitorSnapshot:
    """A serializable, mergeable freeze of one monitor's series state."""

    __slots__ = ("zone", "bucket_s", "horizon_s", "alpha", "end_s", "series")

    def __init__(
        self,
        zone: str,
        bucket_s: float = 10.0,
        horizon_s: float = 3600.0,
        alpha: float = 0.01,
        end_s: float = 0.0,
        series: Optional[Dict[SeriesId, WindowedSeries]] = None,
    ) -> None:
        self.zone = zone
        self.bucket_s = bucket_s
        self.horizon_s = horizon_s
        self.alpha = alpha
        self.end_s = end_s
        self.series: Dict[SeriesId, WindowedSeries] = series or {}

    # -- construction ------------------------------------------------------

    @classmethod
    def capture(
        cls, monitor: Monitor, end_s: Optional[float] = None
    ) -> "MonitorSnapshot":
        """Freeze ``monitor``; ``end_s`` defaults to its clock's now."""
        if end_s is None:
            end_s = float(getattr(monitor.clock, "now", 0.0))
        snapshot = cls(
            zone=monitor.zone,
            bucket_s=monitor.bucket_s,
            horizon_s=monitor.horizon_s,
            alpha=monitor.alpha,
            end_s=end_s,
        )
        for key in monitor.entities():
            snapshot.series[key] = monitor.series(*key).copy()
        return snapshot

    @property
    def total_events(self) -> int:
        """Events recorded across every series."""
        return sum(s.total_count for s in self.series.values())

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe state; series keyed ``kind/name/signal``, sorted."""
        return {
            "schema": SNAPSHOT_SCHEMA,
            "zone": self.zone,
            "bucket_s": self.bucket_s,
            "horizon_s": self.horizon_s,
            "alpha": self.alpha,
            "end_s": self.end_s,
            "series": {
                "/".join(key): self.series[key].to_dict()
                for key in sorted(self.series)
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MonitorSnapshot":
        """Rebuild a snapshot from :meth:`to_dict` output."""
        schema = data.get("schema", SNAPSHOT_SCHEMA)
        if schema != SNAPSHOT_SCHEMA:
            raise ValueError(f"not a monitor snapshot: schema {schema!r}")
        snapshot = cls(
            zone=str(data["zone"]),
            bucket_s=float(data["bucket_s"]),
            horizon_s=float(data["horizon_s"]),
            alpha=float(data["alpha"]),
            end_s=float(data.get("end_s", 0.0)),
        )
        series: Mapping[str, Mapping[str, Any]] = data.get("series", {})
        for key_text in series:
            parts = key_text.split("/")
            if len(parts) != 3:
                raise ValueError(f"bad series key {key_text!r}")
            key = (parts[0], parts[1], parts[2])
            snapshot.series[key] = WindowedSeries.from_dict(series[key_text])
        return snapshot

    # -- merging -----------------------------------------------------------

    def merge(self, other: "MonitorSnapshot") -> None:
        """Fold ``other``'s series into this snapshot, key-aligned.

        Bucket width and sketch alpha must match; the horizon and end
        time extend to cover both.  Same series key ⇒ bucket-aligned
        :meth:`~repro.monitor.window.WindowedSeries.merge`; new keys
        take a :meth:`~repro.monitor.window.WindowedSeries.copy` (so the
        two snapshots never share mutable state).
        """
        if other.bucket_s != self.bucket_s:
            raise ValueError(
                f"cannot merge snapshots with bucket_s {other.bucket_s} != "
                f"{self.bucket_s}"
            )
        if other.alpha != self.alpha:
            raise ValueError(
                f"cannot merge snapshots with alpha {other.alpha} != "
                f"{self.alpha}"
            )
        if other.horizon_s > self.horizon_s:
            self.horizon_s = other.horizon_s
        if other.end_s > self.end_s:
            self.end_s = other.end_s
        for key in sorted(other.series):
            theirs = other.series[key]
            mine = self.series.get(key)
            if mine is None:
                self.series[key] = theirs.copy()
            else:
                mine.merge(theirs)


def merge_snapshots(
    snapshots: Iterable[MonitorSnapshot], zone: str = "fleet"
) -> MonitorSnapshot:
    """Fold shard snapshots into one fleet snapshot, deterministically.

    Inputs are sorted by ``(zone label, end_s)`` before folding, so the
    merged bytes do not depend on the order shards completed in — the
    same property the sharded report merge has.  An empty input yields
    an empty snapshot (bucket/alpha defaults), which merges as identity.
    """
    ordered = sorted(snapshots, key=lambda s: (s.zone, s.end_s))
    if not ordered:
        return MonitorSnapshot(zone=zone)
    first = ordered[0]
    out = MonitorSnapshot(
        zone=zone,
        bucket_s=first.bucket_s,
        horizon_s=first.horizon_s,
        alpha=first.alpha,
        end_s=first.end_s,
    )
    for snapshot in ordered:
        out.merge(snapshot)
    return out


def restore_monitor(snapshot: MonitorSnapshot) -> Monitor:
    """A read-only :class:`Monitor` view over ``snapshot``'s series.

    The monitor shares the snapshot's series objects (nothing is
    copied), gets a frozen clock pinned at the snapshot's end time, and
    is only meant for offline queries (aggregate / stats / SLO replay).
    Never subscribe it to a live tracer: recording into it would write
    through to the snapshot.
    """
    monitor = Monitor(
        _FrozenClock(snapshot.end_s),
        zone=snapshot.zone,
        bucket_s=snapshot.bucket_s,
        horizon_s=snapshot.horizon_s,
        alpha=snapshot.alpha,
    )
    monitor._series = dict(snapshot.series)
    return monitor


# -- default fleet SLO set --------------------------------------------------


def default_fleet_slos(
    snapshot: MonitorSnapshot,
    availability_objective: float = 0.99,
    uplink_stall_threshold_s: float = 30.0,
    uplink_stall_objective: float = 0.75,
    cold_start_objective: Optional[float] = None,
    cost_usd_per_hour: Optional[float] = None,
) -> List[SLO]:
    """The SLO set a fleet replay evaluates, derived from the snapshot.

    Per coupling-group entity: an availability SLO always; a cold-start
    SLO and a cost SLO when objectives/budgets are given (both are
    noisy on fault-free batch fleets — initial cold starts are
    expected — so they are opt-in).  Per link entity: a latency SLO on
    transfer durations, the link-outage detector (a stalled transfer
    takes far longer than the threshold).
    """
    slos: List[SLO] = []
    zones = sorted(
        {name for kind, name, _ in snapshot.series if kind == KIND_ZONE}
    )
    for entity in zones:
        slos.append(
            AvailabilitySLO(
                f"availability:{entity}",
                entity=entity,
                objective=availability_objective,
            )
        )
        if cold_start_objective is not None:
            slos.append(
                ColdStartSLO(
                    f"cold-start:{entity}",
                    entity=entity,
                    objective=cold_start_objective,
                )
            )
        if cost_usd_per_hour is not None:
            slos.append(
                CostSLO(
                    f"cost:{entity}",
                    usd_per_hour=cost_usd_per_hour,
                    entity=entity,
                )
            )
    links = sorted(
        {name for kind, name, _ in snapshot.series if kind == KIND_LINK}
    )
    for link in links:
        slos.append(
            LatencySLO(
                f"{link}-stall",
                kind=KIND_LINK,
                entity=link,
                threshold_s=uplink_stall_threshold_s,
                objective=uplink_stall_objective,
                signal="throughput",
            )
        )
    return slos


def default_fleet_rule_overrides(
    slos: Sequence[SLO],
) -> Dict[str, Tuple[BurnRateRule, ...]]:
    """Sparse-series rule overrides: link-stall SLOs page on one event."""
    return {
        slo.name: _SPARSE_LINK_RULES
        for slo in slos
        if slo.kind == KIND_LINK
    }


def live_fleet_slos(
    group_label: str,
    availability_objective: float = 0.99,
    uplink_stall_threshold_s: float = 30.0,
    uplink_stall_objective: float = 0.75,
) -> List[SLO]:
    """The SLO set a *live* per-group engine evaluates during the sim.

    Mirrors :func:`default_fleet_slos`'s vocabulary (``availability:<group>``,
    ``uplink-stall`` / ``downlink-stall``) but is built up front from the
    coupling-group label rather than derived from an end-of-run snapshot —
    a live engine cannot know which series will exist.  SLOs over series
    that never record data simply never fire.
    """
    slos: List[SLO] = [
        AvailabilitySLO(
            f"availability:{group_label}",
            entity=group_label,
            objective=availability_objective,
        )
    ]
    for link in ("uplink", "downlink"):
        slos.append(
            LatencySLO(
                f"{link}-stall",
                kind=KIND_LINK,
                entity=link,
                threshold_s=uplink_stall_threshold_s,
                objective=uplink_stall_objective,
                signal="throughput",
            )
        )
    return slos


class FleetSLOEngine:
    """Offline burn-rate replay over a merged fleet snapshot.

    Wraps the stock :class:`~repro.monitor.slo.SLOEngine`: the snapshot
    is read in place through :func:`restore_monitor`, then
    :meth:`evaluate` replays the engine's cadence tick by tick from
    ``eval_interval_s`` up past the snapshot's end time.  Because the
    merged snapshot is byte-identical for any shard/worker count, so are
    the alert log, the alerts, and the health rollup.
    """

    def __init__(
        self,
        snapshot: MonitorSnapshot,
        slos: Optional[Sequence[SLO]] = None,
        rules: Sequence[BurnRateRule] = FLEET_RULES,
        eval_interval_s: float = 60.0,
        rule_overrides: Optional[
            Mapping[str, Sequence[BurnRateRule]]
        ] = None,
    ) -> None:
        self.snapshot = snapshot
        self.monitor = restore_monitor(snapshot)
        if slos is None:
            slos = default_fleet_slos(snapshot)
        if rule_overrides is None:
            rule_overrides = default_fleet_rule_overrides(slos)
        self.engine = SLOEngine(
            self.monitor,
            slos,
            rules=rules,
            eval_interval_s=eval_interval_s,
            rule_overrides=rule_overrides,
        )
        self._evaluated = False

    @property
    def eval_interval_s(self) -> float:
        return self.engine.eval_interval_s

    def evaluate(self) -> "FleetSLOEngine":
        """Replay every evaluation tick over the snapshot (idempotent).

        The replay ends with :meth:`~repro.monitor.slo.SLOEngine.finalize`
        at the last tick time, so an outage window that straddles the
        snapshot's end still produces a terminal ``CLEARED ... final=true``
        line and the log is complete at any horizon.
        """
        if self._evaluated:
            return self
        interval = self.engine.eval_interval_s
        ticks = int(math.ceil(self.snapshot.end_s / interval))
        for k in range(1, ticks + 1):
            self.engine.evaluate(k * interval)
        # Finalize at the last tick (>= end_s) to keep the log's
        # timestamps monotonic; with no ticks, at the end time itself.
        self.engine.finalize(ticks * interval if ticks else self.snapshot.end_s)
        self._evaluated = True
        return self

    # -- reading -----------------------------------------------------------

    @property
    def alerts(self) -> List[Alert]:
        return self.engine.alerts

    def alert_log(self) -> str:
        """The canonical fleet alert log (newline-terminated when non-empty)."""
        return self.engine.alert_log()

    def health(self) -> Dict[str, Dict[str, Any]]:
        """Per-entity (coupling group / link) health at the end time."""
        return self.engine.health(self.snapshot.end_s)

    def stats(self) -> Dict[str, Dict[str, float]]:
        """Merged per-series statistics over the full snapshot horizon."""
        return self.monitor.stats(self.snapshot.end_s)

    def report(self) -> Dict[str, Any]:
        """The engine-level slice of the fleet health document."""
        self.evaluate()
        return {
            "evaluated_at": self.snapshot.end_s,
            "eval_interval_s": self.engine.eval_interval_s,
            "slos": [slo.name for slo in self.engine.slos],
            "alerts": [alert.to_dict() for alert in self.engine.alerts],
            "log": list(self.engine.log),
            "health": self.health(),
            "stats": self.stats(),
        }


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
