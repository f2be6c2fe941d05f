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

from repro import _lazy_exports

_EXPORTS = {
    "Alert": "slo",
    "AvailabilitySLO": "slo",
    "BurnRateRule": "slo",
    "ColdStartSLO": "slo",
    "CostSLO": "slo",
    "DEFAULT_RULES": "slo",
    "DiffRow": "diff",
    "FLEET_HEALTH_SCHEMA": "fleet",
    "FLEET_RULES": "fleet",
    "LatencySLO": "slo",
    "Monitor": "monitor",
    "MonitoringPlane": "slo",
    "ObservedDemandFeed": "observed",
    "ObservedExecution": "monitor",
    "QuantileSketch": "sketch",
    "SLO": "slo",
    "SLOEngine": "slo",
    "TraceDiff": "diff",
    "WindowAggregate": "window",
    "WindowedSeries": "window",
    "attach_monitor": "monitor",
    "attach_monitoring": "slo",
    "default_fleet_slos": "fleet",
    "diff_files": "diff",
    "diff_profiles": "diff",
    "fleet_health_to_prometheus": "fleet",
    "load_profile": "diff",
    "merge_snapshots": "fleet",
    "observations_from_history": "observed",
    "replay_fleet_slos": "fleet",
}

__getattr__, __dir__, __all__ = _lazy_exports(globals(), _EXPORTS)
