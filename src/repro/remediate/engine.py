"""Closed-loop remediation: SLO alerts drive controller actions.

:class:`RemediationEngine` subscribes to a live
:class:`~repro.monitor.slo.SLOEngine` (see
:meth:`~repro.monitor.slo.SLOEngine.subscribe`) and maps every newly
fired alert through the declarative policy table
(:mod:`repro.remediate.policy`) to one or more controller actions,
applied by a :class:`ControllerActuator`.  A forecast pump on the same
simulated cadence polls :class:`~repro.remediate.forecast.LinkForecaster`
verdicts, so a *degrading trend* triggers proactive re-planning before
any burn-rate rule fires.

Every applied action is appended to an action log that is canonical by
the same construction as the alert log: alert-driven actions inherit the
engine's (SLO name, rule name) evaluation order within an instant,
forecast-driven actions follow a fixed forecaster order, and floats
render via ``repr`` — so two same-seed runs, at any shard or sweep
worker count, emit byte-identical action logs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.monitor.fleet import (
    FLEET_RULES,
    default_fleet_rule_overrides,
    live_fleet_slos,
)
from repro.monitor.monitor import Monitor, attach_monitor
from repro.monitor.slo import Alert, SLOEngine
from repro.remediate.forecast import Forecast, LinkForecaster
from repro.remediate.policy import (
    ACTION_ESCALATE_HEDGING,
    ACTION_FALLBACK_LOCAL,
    ACTION_REALLOCATE_MEMORY,
    ACTION_REPLAN_RATE,
    ACTION_SHIFT_TRAFFIC,
    DEFAULT_POLICY,
    PolicyRule,
)
from repro.serverless.function import STANDARD_MEMORY_TIERS_MB

__all__ = [
    "Action",
    "ControllerActuator",
    "RemediationEngine",
    "RemediationPlane",
    "attach_remediation",
]


#: Hedge delay (s) set by the first hedging escalation.
HEDGE_START_S = 60.0
#: Each further escalation multiplies the hedge delay by this factor ...
HEDGE_FACTOR = 0.5
#: ... but never takes it below this floor (s).
HEDGE_FLOOR_S = 15.0
#: How long (s) a traffic shift holds every component on the UE.
HOLD_LOCAL_S = 300.0
#: Fallback tightening halves the slack fraction down to this floor.
MIN_FALLBACK_FRACTION = 0.1


@dataclass(frozen=True)
class Action:
    """One applied remediation action (a row of the action log)."""

    at: float
    kind: str
    rule: str
    slo: str
    entity: str
    reason: str  # "alert" | "cleared" | "forecast"
    detail: str

    def line(self) -> str:
        """The canonical log line (same conventions as the alert log)."""
        return (
            f"t={self.at!r} ACTION kind={self.kind} rule={self.rule} "
            f"slo={self.slo} entity={self.entity} reason={self.reason} "
            f"detail=[{self.detail}]"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "at": self.at,
            "kind": self.kind,
            "rule": self.rule,
            "slo": self.slo,
            "entity": self.entity,
            "reason": self.reason,
            "detail": self.detail,
        }


class ControllerActuator:
    """Applies remediation actions to one or more offload controllers.

    The controller list is fixed at construction and iterated in order,
    so multi-controller fleets (one actuator per coupling group) stay
    deterministic.  Every ``apply`` returns a canonical detail string
    when at least one controller actually changed, or ``None`` for a
    no-op — the engine skips logging no-ops, so a saturated knob does
    not spam the action log.
    """

    def __init__(self, controllers: Sequence[Any]) -> None:
        if not controllers:
            raise ValueError("actuator needs at least one controller")
        self.controllers = list(controllers)

    # -- actions -----------------------------------------------------------

    def apply(
        self, kind: str, now: float, forecast: Optional[Forecast] = None
    ) -> Optional[str]:
        """Apply action ``kind``; detail string on change, None on no-op."""
        if kind == ACTION_SHIFT_TRAFFIC:
            return self._shift_traffic(now)
        if kind == ACTION_ESCALATE_HEDGING:
            return self._escalate_hedging()
        if kind == ACTION_FALLBACK_LOCAL:
            return self._tighten_fallback()
        if kind == ACTION_REALLOCATE_MEMORY:
            return self._reallocate_memory()
        if kind == ACTION_REPLAN_RATE:
            assert forecast is not None
            return self._replan_rate(forecast)
        raise ValueError(f"unknown action kind {kind!r}")

    def _shift_traffic(self, now: float) -> Optional[str]:
        until = now + HOLD_LOCAL_S
        changed = False
        for controller in self.controllers:
            changed = controller.hold_local(until) or changed
        return f"hold_local_until={until!r}" if changed else None

    def _escalate_hedging(self) -> Optional[str]:
        applied: Optional[float] = None
        for controller in self.controllers:
            policy = controller.degradation
            if policy is None:
                continue
            current = policy.hedge_after_s
            new = (
                HEDGE_START_S if current is None
                else max(HEDGE_FLOOR_S, current * HEDGE_FACTOR)
            )
            if current is not None and new >= current:
                continue
            controller.degradation = dataclasses.replace(
                policy, hedge_after_s=new
            )
            applied = new if applied is None else applied
        return None if applied is None else f"hedge_after_s={applied!r}"

    def _tighten_fallback(self) -> Optional[str]:
        applied: Optional[float] = None
        for controller in self.controllers:
            policy = controller.degradation
            if policy is None:
                continue
            fraction = policy.fallback_slack_fraction
            if policy.fallback_local:
                new = max(MIN_FALLBACK_FRACTION, fraction * 0.5)
                if new >= fraction:
                    continue
            else:
                new = fraction
            controller.degradation = dataclasses.replace(
                policy, fallback_local=True, fallback_slack_fraction=new
            )
            applied = new if applied is None else applied
        return (
            None if applied is None
            else f"fallback_slack_fraction={applied!r}"
        )

    def _reallocate_memory(self) -> Optional[str]:
        applied: Optional[float] = None
        raised = []
        for controller in self.controllers:
            current = max(
                controller.memory_floor_mb,
                max(
                    (d.memory_mb for d in controller.allocation.values()),
                    default=0.0,
                ),
            )
            above = [t for t in STANDARD_MEMORY_TIERS_MB if t > current]
            if not above:
                continue
            controller.memory_floor_mb = above[0]
            raised.append(controller)
            applied = above[0] if applied is None else applied
        for controller in raised:
            controller.plan(controller.planned_input_mb)
        return None if applied is None else f"memory_floor_mb={applied!r}"

    def _replan_rate(self, forecast: Forecast) -> Optional[str]:
        changed = []
        for controller in self.controllers:
            if controller.plan_rate_overrides.get(forecast.link) != (
                forecast.forecast_bps
            ):
                controller.plan_rate_overrides[forecast.link] = (
                    forecast.forecast_bps
                )
                changed.append(controller)
        for controller in changed:
            controller.plan(controller.planned_input_mb)
        return forecast.detail() if changed else None

    def clear_rate_override(self, link: str) -> Optional[str]:
        """Drop a pinned planning rate once the link's alert clears."""
        changed = []
        for controller in self.controllers:
            if link in controller.plan_rate_overrides:
                del controller.plan_rate_overrides[link]
                changed.append(controller)
        for controller in changed:
            controller.plan(controller.planned_input_mb)
        return f"link={link}" if changed else None


class RemediationEngine:
    """Maps SLO alerts (and forecasts) to controller actions, with a log.

    Subscribes itself to ``engine`` at construction and keeps only its
    evaluation cadence: the engine holds this listener, so a reference
    back would tie the two (and the controllers behind the actuator)
    into a cycle that outlives the run.  Cooldowns are per
    (policy rule, alert entity): within ``rule.cooldown_s`` of a prior
    application, that rule stays quiet for that entity even if the alert
    re-fires.  Forecast polling shares the cooldown machinery under a
    synthetic rule name per forecaster.
    """

    def __init__(
        self,
        engine: SLOEngine,
        actuator: ControllerActuator,
        policy: Sequence[PolicyRule] = DEFAULT_POLICY,
        forecasters: Sequence[LinkForecaster] = (),
    ) -> None:
        names = [rule.name for rule in policy]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate policy rule names: {sorted(names)}")
        self.eval_interval_s = engine.eval_interval_s
        self.actuator = actuator
        self.policy = tuple(policy)
        self.forecasters = tuple(forecasters)
        self.actions: List[Action] = []
        self.log: List[str] = []
        self._last_applied: Dict[Tuple[str, str], float] = {}
        engine.subscribe(self)

    # -- SLOEngine listener protocol ---------------------------------------

    def on_alert_fired(self, alert: Alert, now: float) -> None:
        for rule in self.policy:
            if not rule.matches(alert.slo, alert.severity):
                continue
            key = (rule.name, alert.entity)
            last = self._last_applied.get(key)
            if last is not None and now - last < rule.cooldown_s:
                continue
            detail = self.actuator.apply(rule.action, now)
            if detail is None:
                continue
            self._last_applied[key] = now
            self._record(Action(
                at=now, kind=rule.action, rule=rule.name, slo=alert.slo,
                entity=alert.entity, reason="alert", detail=detail,
            ))

    def on_alert_cleared(self, alert: Alert, now: float) -> None:
        if not alert.entity.startswith("link/"):
            return
        link = alert.entity.split("/", 1)[1]
        detail = self.actuator.clear_rate_override(link)
        if detail is None:
            return
        self._record(Action(
            at=now, kind=ACTION_REPLAN_RATE, rule="-", slo=alert.slo,
            entity=alert.entity, reason="cleared", detail=detail,
        ))

    # -- forecast pump -----------------------------------------------------

    def poll(self, now: float) -> None:
        """Assess every forecaster at ``now`` and act on degrading trends."""
        for forecaster in self.forecasters:
            key = (f"forecast:{forecaster.name}", f"link/{forecaster.link}")
            last = self._last_applied.get(key)
            if last is not None and now - last < forecaster.cooldown_s:
                continue
            verdict = forecaster.assess(now)
            if verdict is None:
                continue
            detail = self.actuator.apply(
                ACTION_REPLAN_RATE, now, forecast=verdict
            )
            if detail is None:
                continue
            self._last_applied[key] = now
            self._record(Action(
                at=now, kind=ACTION_REPLAN_RATE, rule=key[0],
                slo="-", entity=key[1], reason="forecast", detail=detail,
            ))

    def attach(self, sim: Any) -> None:
        """Spawn the forecast pump on ``sim``'s clock.

        It polls at the SLO engine's evaluation cadence.  The pump is
        spawned *after* the SLO engine's (construction order), so at a
        shared instant alerts are handled before forecasts — fixed, and
        therefore deterministic.
        """
        interval = self.eval_interval_s

        def _pump():
            while True:
                yield sim.timeout(interval)
                self.poll(sim.now)

        sim.spawn(_pump())

    # -- reading -----------------------------------------------------------

    def _record(self, action: Action) -> None:
        self.actions.append(action)
        self.log.append(action.line())

    def action_log(self) -> str:
        """Canonical action log text (newline-terminated when non-empty)."""
        return "\n".join(self.log) + ("\n" if self.log else "")

    def counts(self) -> Dict[str, int]:
        """Actions applied per kind, key-sorted (for metrics/ledger)."""
        out: Dict[str, int] = {}
        for action in self.actions:
            out[action.kind] = out.get(action.kind, 0) + 1
        return dict(sorted(out.items()))


@dataclass
class RemediationPlane:
    """Monitoring plus remediation, attached to one environment."""

    monitor: Monitor
    engine: SLOEngine
    remediation: RemediationEngine


def attach_remediation(
    env: Any,
    controllers: Sequence[Any],
    zone: str = "faas",
    eval_interval_s: float = 30.0,
    monitor: Optional[Monitor] = None,
) -> RemediationPlane:
    """Wire monitor → SLO engine → remediation onto one environment.

    The environment must already carry a recording tracer.  ``monitor``
    is one already subscribed to it (a fleet group subscribes its own
    before any span ends); by default a new one is subscribed here.
    SLOs use the fleet vocabulary (``availability:<zone>``,
    ``uplink-stall``, …) with the fleet rule set, so single-run and
    fleet policies match the same table (``DEFAULT_POLICY``).  A goodput
    forecaster on the uplink feeds proactive re-planning.
    """
    if monitor is None:
        monitor = attach_monitor(env)
    slos = live_fleet_slos(zone)
    engine = SLOEngine(
        monitor,
        slos,
        rules=FLEET_RULES,
        eval_interval_s=eval_interval_s,
        rule_overrides=default_fleet_rule_overrides(slos),
    )
    engine.attach(env.sim)
    remediation = RemediationEngine(
        engine,
        ControllerActuator(controllers),
        forecasters=(LinkForecaster(monitor),),
    )
    remediation.attach(env.sim)
    return RemediationPlane(
        monitor=monitor, engine=engine, remediation=remediation
    )
