"""The monitoring plane: a tracer listener feeding windowed aggregates.

:class:`Monitor` subscribes to a recording
:class:`~repro.telemetry.tracer.Tracer` and turns finished spans and
instant events into sliding-window series keyed by entity — a *zone*
(the serverless platform as a whole), a *function*, or a *link*
(uplink/downlink) — and a signal name:

=========  ==========  ============================================
entity     signal      fed by
=========  ==========  ============================================
function   latency     cloud ``execute`` spans (bad = errored)
function   queue       ``queue`` spans (max depth, wait time)
function   cold_start  ``cold_start`` spans
zone       availability cloud ``execute`` spans + ``outage_rejected``
zone       job         ``job`` spans (latency, deadline misses, cost)
zone       wasted      ``attempt_failed`` instants (wasted spend)
zone       hedges      ``hedge_started`` instants
zone       fallbacks   ``fallback_local`` instants
link       throughput  ``upload`` / ``download`` spans (bytes, radio)
=========  ==========  ============================================

The monitor is an *observer*: it never mutates spans, never schedules
simulator events, and reads only the data the trace already carries, so
attaching it cannot perturb a run (golden fixtures stay byte-identical)
and two same-seed runs produce bit-equal aggregates.  It also keeps an
append-only log of successful cloud executions for the observed-signal
demand feed (:mod:`repro.monitor.observed`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Tuple

from repro.monitor.window import WindowAggregate, WindowedSeries
from repro.telemetry.tracer import (
    PHASE_COLD_START,
    PHASE_DOWNLOAD,
    PHASE_EXECUTE,
    PHASE_JOB,
    PHASE_QUEUE,
    PHASE_UPLOAD,
)

__all__ = ["Monitor", "ObservedExecution", "attach_monitor"]

#: Entity kinds the monitor tracks.
KIND_ZONE = "zone"
KIND_FUNCTION = "function"
KIND_LINK = "link"

#: One series identity: (kind, entity name, signal).
SeriesId = Tuple[str, str, str]

#: Schema tag of one serialized monitor (a group's wire dict).
SNAPSHOT_SCHEMA = "repro.monitor.snapshot/1"


class _FrozenClock:
    """The clock of a deserialized monitor: pinned at its end time."""

    __slots__ = ("now",)

    def __init__(self, now: float) -> None:
        self.now = now


class ObservedExecution(NamedTuple):
    """One successful cloud invocation as the monitor saw it."""

    function: str
    at: float
    duration_s: float
    memory_mb: float
    cold: bool


class Monitor:
    """Streaming aggregates over telemetry events, on the sim clock.

    Parameters
    ----------
    clock:
        Object with a float ``now`` (normally the Simulator).
    zone:
        Entity name for platform-wide signals (default ``"faas"``,
        matching the platform name in the stock environment).
    bucket_s / horizon_s / alpha:
        Window granularity, retention, and sketch accuracy shared by
        every series.
    """

    def __init__(
        self,
        clock: Any,
        zone: str = "faas",
        bucket_s: float = 10.0,
        horizon_s: float = 3600.0,
        alpha: float = 0.01,
    ) -> None:
        self.clock = clock
        self.zone = zone
        self.bucket_s = bucket_s
        self.horizon_s = horizon_s
        self.alpha = alpha
        self._series: Dict[SeriesId, WindowedSeries] = {}
        self.executions: List[ObservedExecution] = []

    # -- series access -----------------------------------------------------

    def series(self, kind: str, name: str, signal: str) -> WindowedSeries:
        """Get or create the series for ``(kind, name, signal)``."""
        key = (kind, name, signal)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = WindowedSeries(
                bucket_s=self.bucket_s,
                horizon_s=self.horizon_s,
                alpha=self.alpha,
            )
        return series

    def entities(self) -> List[SeriesId]:
        """Sorted identities of every series with at least one event."""
        return sorted(self._series)

    def aggregate(
        self, kind: str, name: str, signal: str, now: float, window_s: float
    ) -> WindowAggregate:
        """Windowed fold of one series (empty aggregate if unknown)."""
        series = self._series.get((kind, name, signal))
        if series is None:
            return WindowAggregate(window_s, self.alpha)
        return series.aggregate(now, window_s)

    def link_rate(
        self, link: str, now: float, window_s: Optional[float] = None
    ) -> Optional[float]:
        """Observed link goodput (bytes / radio-second), or ``None``.

        The denominator is *radio* time (the airtime the transfer
        actually used), so the estimate reflects achieved throughput
        rather than queueing delay.
        """
        agg = self.aggregate(
            KIND_LINK, link, "throughput", now, window_s or self.horizon_s
        )
        radio_s = agg.extra("radio_s")
        if radio_s <= 0.0:
            return None
        return agg.extra("bytes") / radio_s

    def link_goodput_points(
        self, link: str, now: float, window_s: Optional[float] = None
    ) -> List[Tuple[float, float]]:
        """Per-bucket link goodput samples over the window, oldest first.

        Each point is ``(bucket_end_s, bytes / radio_s)`` for a bucket
        that saw transfer airtime; buckets without radio time are
        skipped (no transfer finished there, so there is no rate to
        report).  This is the time series the short-horizon forecaster
        fits — :meth:`link_rate` is the same quantity folded to one
        number.
        """
        series = self._series.get((KIND_LINK, link, "throughput"))
        if series is None:
            return []
        points: List[Tuple[float, float]] = []
        for end, extras in series.bucket_extras(
            now, window_s or self.horizon_s, ("bytes", "radio_s")
        ):
            radio_s = extras["radio_s"]
            if radio_s > 0.0:
                points.append((end, extras["bytes"] / radio_s))
        return points

    def queue_depth(
        self, function: str, now: float, window_s: Optional[float] = None
    ) -> float:
        """Peak observed queue depth for ``function`` over the window."""
        agg = self.aggregate(
            KIND_FUNCTION, function, "queue", now,
            window_s or self.horizon_s,
        )
        return agg.extra_max("depth")

    # -- tracer listener protocol -----------------------------------------

    def on_span_end(self, span: Any) -> None:
        category = span.category
        attrs = span.attributes
        end = span.end
        if category == PHASE_EXECUTE:
            if attrs.get("tier") != "cloud":
                return
            errored = "error" in attrs
            cold = bool(attrs.get("cold", False))
            extras = {"cold": 1.0 if cold else 0.0}
            if "billed_usd" in attrs:
                extras["billed_usd"] = float(attrs["billed_usd"])
            self.series(KIND_FUNCTION, span.name, "latency").observe(
                end, value=span.duration, bad=errored, extras=extras
            )
            self.series(KIND_ZONE, self.zone, "availability").observe(
                end, value=span.duration, bad=errored, extras=extras
            )
            if not errored:
                self.executions.append(
                    ObservedExecution(
                        function=span.name,
                        at=end,
                        duration_s=span.duration,
                        memory_mb=float(attrs.get("memory_mb", 0.0)),
                        cold=cold,
                    )
                )
        elif category == PHASE_QUEUE:
            self.series(KIND_FUNCTION, span.name, "queue").observe(
                end,
                value=span.duration,
                extras_max={"depth": float(attrs.get("depth", 0.0))},
            )
        elif category == PHASE_COLD_START:
            self.series(KIND_FUNCTION, span.name, "cold_start").observe(
                end, value=span.duration
            )
        elif category == PHASE_UPLOAD or category == PHASE_DOWNLOAD:
            link = "uplink" if category == PHASE_UPLOAD else "downlink"
            self.series(KIND_LINK, link, "throughput").observe(
                end,
                value=span.duration,
                extras={
                    "bytes": float(attrs.get("bytes", 0.0)),
                    "radio_s": float(attrs.get("radio_s", 0.0)),
                },
            )
        elif category == PHASE_JOB:
            bad = "error" in attrs or attrs.get("met_deadline") is False
            self.series(KIND_ZONE, self.zone, "job").observe(
                end,
                value=span.duration,
                bad=bad,
                extras={"cost_usd": float(attrs.get("cloud_cost_usd", 0.0))},
            )

    def on_instant(
        self, at: float, name: str, attributes: Dict[str, Any], parent: Any
    ) -> None:
        if name == "outage_rejected":
            # No execute span exists for a control-plane rejection, so it
            # only appears here; errored attempts that *ran* are counted
            # by their execute span instead (never both).
            self.series(KIND_ZONE, self.zone, "availability").observe(
                at, bad=True, extras={"rejected": 1.0}
            )
        elif name == "attempt_failed":
            self.series(KIND_ZONE, self.zone, "wasted").observe(
                at,
                bad=True,
                extras={"wasted_usd": float(attributes.get("wasted_usd", 0.0))},
            )
        elif name == "hedge_started":
            self.series(KIND_ZONE, self.zone, "hedges").observe(at)
        elif name == "fallback_local":
            self.series(KIND_ZONE, self.zone, "fallbacks").observe(at)

    # -- reading -----------------------------------------------------------

    def stats(
        self, now: float, window_s: Optional[float] = None
    ) -> Dict[str, Dict[str, float]]:
        """Canonical per-series statistics over one window.

        Keys are ``kind/name/signal`` strings in sorted order; values
        hold count, rate, error ratio, mean and p50/p95/p99 — floats
        only, so the dict JSON-dumps byte-identically across runs.
        """
        window = window_s or self.horizon_s
        out: Dict[str, Dict[str, float]] = {}
        for kind, name, signal in self.entities():
            agg = self.aggregate(kind, name, signal, now, window)
            entry: Dict[str, float] = {
                "count": float(agg.count),
                "rate_per_s": agg.rate_per_s,
                "error_ratio": agg.error_ratio,
                "mean": agg.mean,
            }
            for q, label in ((0.5, "p50"), (0.95, "p95"), (0.99, "p99")):
                value = agg.quantile(q)
                if value is not None:
                    entry[label] = value
            for extra in sorted(agg.extras):
                entry[f"sum_{extra}"] = agg.extras[extra]
            for extra in sorted(agg.extras_max):
                entry[f"max_{extra}"] = agg.extras_max[extra]
            out[f"{kind}/{name}/{signal}"] = entry
        return out

    # -- wire format -------------------------------------------------------

    def to_dict(self, end_s: float) -> Dict[str, Any]:
        """The wire dict (schema ``repro.monitor.snapshot/1``).

        ``end_s`` records how far simulated time had advanced (the SLO
        replay needs it), which can exceed the last observation.  Series
        are keyed ``kind/name/signal``, sorted.
        """
        return {
            "schema": SNAPSHOT_SCHEMA,
            "zone": self.zone,
            "bucket_s": self.bucket_s,
            "horizon_s": self.horizon_s,
            "alpha": self.alpha,
            "end_s": end_s,
            "series": {
                "/".join(key): self._series[key].to_dict()
                for key in sorted(self._series)
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Monitor":
        """A read-only monitor rebuilt from :meth:`to_dict` output.

        Its clock is frozen at the dict's ``end_s``; it is meant for
        offline queries (aggregate / stats / SLO replay), never for a
        live tracer.
        """
        schema = data.get("schema", SNAPSHOT_SCHEMA)
        if schema != SNAPSHOT_SCHEMA:
            raise ValueError(f"not a monitor snapshot: schema {schema!r}")
        monitor = cls(
            _FrozenClock(float(data.get("end_s", 0.0))),
            zone=str(data["zone"]),
            bucket_s=float(data["bucket_s"]),
            horizon_s=float(data["horizon_s"]),
            alpha=float(data["alpha"]),
        )
        series: Mapping[str, Mapping[str, Any]] = data.get("series", {})
        for key_text in series:
            parts = key_text.split("/")
            if len(parts) != 3:
                raise ValueError(f"bad series key {key_text!r}")
            monitor._series[(parts[0], parts[1], parts[2])] = (
                WindowedSeries.from_dict(series[key_text])
            )
        return monitor


def attach_monitor(env: Any, monitor: Optional[Monitor] = None) -> Monitor:
    """Subscribe a (new) :class:`Monitor` to ``env``'s tracer.

    Requires a recording tracer on ``env.sim`` (attach one first with
    :func:`~repro.telemetry.tracer.attach_tracer`); raises
    ``RuntimeError`` against the null tracer so a silently-blind
    monitor cannot happen.
    """
    if monitor is None:
        monitor = Monitor(env.sim)
    env.sim.tracer.subscribe(monitor)
    return monitor
