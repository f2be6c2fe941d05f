"""Closed-loop remediation: SLO alerts and forecasts drive the controller.

The monitor plane detects burn; this package *acts* on it.  A
:class:`~repro.remediate.engine.RemediationEngine` subscribes to a live
:class:`~repro.monitor.slo.SLOEngine`, maps alerts through the
declarative policy table in :mod:`repro.remediate.policy` to controller
actions (hedging escalation, memory re-allocation, traffic shifting,
fallback-to-local), and polls the short-horizon goodput forecasters in
:mod:`repro.remediate.forecast` for proactive re-planning — all logged
into a byte-deterministic action log mirroring the alert log.
"""

from repro import _lazy_exports

_EXPORTS = {
    "ACTION_ESCALATE_HEDGING": "policy",
    "ACTION_FALLBACK_LOCAL": "policy",
    "ACTION_REALLOCATE_MEMORY": "policy",
    "ACTION_REPLAN_RATE": "policy",
    "ACTION_SHIFT_TRAFFIC": "policy",
    "Action": "engine",
    "ControllerActuator": "engine",
    "DEFAULT_POLICY": "policy",
    "Forecast": "forecast",
    "LinkForecaster": "forecast",
    "PolicyRule": "policy",
    "RemediationEngine": "engine",
    "RemediationPlane": "engine",
    "attach_remediation": "engine",
    "ewma": "forecast",
    "holt_linear": "forecast",
}

__getattr__, __dir__, __all__ = _lazy_exports(globals(), _EXPORTS)
