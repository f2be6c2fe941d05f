"""Online monitoring plane: streaming aggregates, SLOs, alerts, diffing.

The observability loop the paper's C1 presumes: a
:class:`~repro.monitor.monitor.Monitor` subscribes to telemetry events
on the sim clock and keeps sliding-window aggregates (rates, quantile
sketches, error ratios, queue depth) per zone/function/link; an
:class:`~repro.monitor.slo.SLOEngine` evaluates burn-rate alert rules
against latency/availability/cost objectives and emits a deterministic
alert log plus per-entity health; :mod:`repro.monitor.observed` feeds
monitored history back into demand estimation (the observed-signal
mode, ablation A10); :mod:`repro.monitor.diff` compares two runs'
artifacts for the ``repro diff`` CLI.

Everything runs on simulated time and is an *observer* of the trace:
attaching the plane never perturbs the simulation, and all outputs are
byte-deterministic across same-seed runs and sweep worker counts.
"""

from repro.monitor.diff import (
    DiffRow,
    TraceDiff,
    diff_files,
    diff_profiles,
    load_profile,
)
from repro.monitor.fleet import (
    FLEET_HEALTH_SCHEMA,
    FLEET_RULES,
    default_fleet_slos,
    fleet_health_to_prometheus,
    merge_snapshots,
    replay_fleet_slos,
)
from repro.monitor.monitor import Monitor, ObservedExecution, attach_monitor
from repro.monitor.observed import ObservedDemandFeed, observations_from_history
from repro.monitor.sketch import QuantileSketch
from repro.monitor.slo import (
    DEFAULT_RULES,
    SLO,
    Alert,
    AvailabilitySLO,
    BurnRateRule,
    ColdStartSLO,
    CostSLO,
    LatencySLO,
    MonitoringPlane,
    SLOEngine,
    attach_monitoring,
)
from repro.monitor.window import WindowAggregate, WindowedSeries

__all__ = [
    "Alert",
    "AvailabilitySLO",
    "BurnRateRule",
    "ColdStartSLO",
    "CostSLO",
    "DEFAULT_RULES",
    "DiffRow",
    "FLEET_HEALTH_SCHEMA",
    "FLEET_RULES",
    "LatencySLO",
    "Monitor",
    "MonitoringPlane",
    "ObservedDemandFeed",
    "ObservedExecution",
    "QuantileSketch",
    "SLO",
    "SLOEngine",
    "TraceDiff",
    "WindowAggregate",
    "WindowedSeries",
    "attach_monitor",
    "attach_monitoring",
    "default_fleet_slos",
    "diff_files",
    "diff_profiles",
    "fleet_health_to_prometheus",
    "load_profile",
    "merge_snapshots",
    "observations_from_history",
    "replay_fleet_slos",
]
