"""SLO objectives, multi-window burn-rate alert rules, and health.

An :class:`SLO` binds one monitored series (see
:class:`~repro.monitor.monitor.Monitor`) to an objective and knows how
to turn a window aggregate into a **burn rate**: the ratio of the
observed bad fraction to the error budget (``1 - objective``).  A burn
of 1.0 spends the budget exactly at the allowed pace; a burn of 10
exhausts it ten times too fast.

:class:`BurnRateRule` is the Google-SRE multi-window pattern: an alert
fires only when *both* a short window (recency — the problem is still
happening) and a long window (significance — it is not one blip) burn
faster than ``factor``, and the long window has seen at least
``min_events`` events.  The rule clears as soon as either window cools
below the factor.

:class:`SLOEngine` evaluates every (SLO, rule) pair on a fixed cadence
of the *simulated* clock and appends to an alert log that is canonical
by construction: entries are ordered by (time, SLO name, rule name) and
all floats render via ``repr``, so two same-seed runs — at any sweep
worker count — emit byte-identical logs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.monitor.monitor import KIND_ZONE, Monitor, attach_monitor
from repro.monitor.window import WindowAggregate

__all__ = [
    "Alert",
    "AvailabilitySLO",
    "BurnRateRule",
    "ColdStartSLO",
    "CostSLO",
    "DEFAULT_RULES",
    "LatencySLO",
    "MonitoringPlane",
    "SLO",
    "SLOEngine",
    "attach_monitoring",
]


@dataclass(frozen=True)
class BurnRateRule:
    """One multi-window burn-rate alert condition."""

    name: str
    short_s: float
    long_s: float
    factor: float
    min_events: int = 1
    severity: str = "page"

    def __post_init__(self) -> None:
        if self.short_s <= 0 or self.long_s < self.short_s:
            raise ValueError(
                f"rule {self.name!r}: need 0 < short_s <= long_s, got "
                f"{self.short_s}/{self.long_s}"
            )


#: The stock rule pair: a fast page and a slow ticket.
DEFAULT_RULES: Tuple[BurnRateRule, ...] = (
    BurnRateRule("fast", short_s=60.0, long_s=300.0, factor=4.0,
                 min_events=5, severity="page"),
    BurnRateRule("slow", short_s=300.0, long_s=1800.0, factor=1.0,
                 min_events=10, severity="ticket"),
)


class SLO:
    """Base objective over one monitored series.

    ``objective`` is the fraction of events that must be good (e.g.
    0.99); the error budget is ``1 - objective``.  Subclasses define
    what "bad" means via :meth:`bad_fraction`.
    """

    def __init__(
        self, name: str, kind: str, entity: str, signal: str,
        objective: float,
    ) -> None:
        if not 0.0 < objective < 1.0:
            raise ValueError(f"objective must be in (0, 1), got {objective}")
        self.name = name
        self.kind = kind
        self.entity = entity
        self.signal = signal
        self.objective = objective

    @property
    def budget(self) -> float:
        """The error budget: allowed bad fraction."""
        return 1.0 - self.objective

    def bad_fraction(self, agg: WindowAggregate) -> Optional[float]:
        """Observed bad fraction, or ``None`` when the window is empty."""
        raise NotImplementedError

    def burn_rate(self, agg: WindowAggregate) -> Optional[float]:
        """Bad fraction over budget, or ``None`` with no data."""
        bad = self.bad_fraction(agg)
        if bad is None:
            return None
        return bad / self.budget

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} {self.name} "
            f"{self.kind}/{self.entity}/{self.signal}>"
        )


class AvailabilitySLO(SLO):
    """Fraction of requests that must succeed (errors + rejections bad)."""

    def __init__(
        self, name: str, entity: str = "faas", objective: float = 0.99,
        kind: str = KIND_ZONE, signal: str = "availability",
    ) -> None:
        super().__init__(name, kind, entity, signal, objective)

    def bad_fraction(self, agg: WindowAggregate) -> Optional[float]:
        if agg.count == 0:
            return None
        return agg.error_ratio


class LatencySLO(SLO):
    """Fraction of events that must finish under ``threshold_s``.

    Works on any valued series — function execution latency, or link
    transfer durations (an outage shows up as transfers that take far
    longer than the threshold, so this doubles as the link-outage
    detector).
    """

    def __init__(
        self, name: str, kind: str, entity: str, threshold_s: float,
        objective: float = 0.95, signal: str = "latency",
    ) -> None:
        super().__init__(name, kind, entity, signal, objective)
        if threshold_s <= 0:
            raise ValueError(f"threshold_s must be positive, got {threshold_s}")
        self.threshold_s = threshold_s

    def bad_fraction(self, agg: WindowAggregate) -> Optional[float]:
        total = agg.valued
        if total == 0:
            return None
        return 1.0 - agg.count_at_most(self.threshold_s) / total


class ColdStartSLO(SLO):
    """Fraction of invocations that must hit a warm sandbox.

    A reclamation storm destroys sandboxes mid-flight, so the cold
    fraction spikes — this is the cold-start-spike detector.
    """

    def __init__(
        self, name: str, entity: str = "faas", objective: float = 0.5,
        kind: str = KIND_ZONE, signal: str = "availability",
    ) -> None:
        super().__init__(name, kind, entity, signal, objective)

    def bad_fraction(self, agg: WindowAggregate) -> Optional[float]:
        if agg.count == 0:
            return None
        return min(1.0, agg.extra("cold") / agg.count)


class CostSLO(SLO):
    """Cloud spend must stay under a USD-per-hour budget.

    Burn rate is spend-rate over budget-rate directly (there is no
    per-event good/bad), so ``bad_fraction`` reports the same ratio
    scaled back into the budget convention.
    """

    def __init__(
        self, name: str, usd_per_hour: float, entity: str = "faas",
        kind: str = KIND_ZONE, signal: str = "job",
    ) -> None:
        # objective is synthetic here; burn_rate is overridden.
        super().__init__(name, kind, entity, signal, objective=0.5)
        if usd_per_hour <= 0:
            raise ValueError(f"usd_per_hour must be positive, got {usd_per_hour}")
        self.usd_per_hour = usd_per_hour

    def bad_fraction(self, agg: WindowAggregate) -> Optional[float]:
        burn = self.burn_rate(agg)
        return None if burn is None else burn * self.budget

    def burn_rate(self, agg: WindowAggregate) -> Optional[float]:
        if agg.count == 0:
            return None
        spend_per_hour = agg.extra("cost_usd") * 3600.0 / agg.window_s
        return spend_per_hour / self.usd_per_hour


@dataclass
class Alert:
    """One firing of (SLO, rule); ``cleared_at`` stays ``None`` while active.

    ``final=True`` marks a forced close by :meth:`SLOEngine.finalize`:
    the run ended while the alert was still burning, so ``cleared_at``
    records the horizon rather than a recovery.  Health rollups treat
    final alerts as unresolved.
    """

    slo: str
    rule: str
    severity: str
    entity: str
    fired_at: float
    burn_short: float
    burn_long: float
    cleared_at: Optional[float] = None
    final: bool = False

    @property
    def active(self) -> bool:
        return self.cleared_at is None

    @property
    def resolved(self) -> bool:
        """True only for an organic clear — the burn actually recovered."""
        return self.cleared_at is not None and not self.final

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "slo": self.slo,
            "rule": self.rule,
            "severity": self.severity,
            "entity": self.entity,
            "fired_at": self.fired_at,
            "burn_short": self.burn_short,
            "burn_long": self.burn_long,
            "cleared_at": self.cleared_at,
        }
        if self.final:
            out["final"] = True
        return out


class SLOEngine:
    """Evaluates SLO burn rates on a cadence and keeps the alert log."""

    def __init__(
        self,
        monitor: Monitor,
        slos: Sequence[SLO],
        rules: Sequence[BurnRateRule] = DEFAULT_RULES,
        eval_interval_s: float = 30.0,
        rule_overrides: Optional[
            Mapping[str, Sequence[BurnRateRule]]
        ] = None,
    ) -> None:
        if eval_interval_s <= 0:
            raise ValueError(
                f"eval_interval_s must be positive, got {eval_interval_s}"
            )
        names = [slo.name for slo in slos]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO names: {sorted(names)}")
        unknown = set(rule_overrides or ()) - set(names)
        if unknown:
            raise ValueError(
                f"rule overrides for unknown SLOs: {sorted(unknown)}"
            )
        self.monitor = monitor
        self.slos = sorted(slos, key=lambda s: s.name)
        self.rules = tuple(rules)
        self.rule_overrides = {
            name: tuple(override)
            for name, override in (rule_overrides or {}).items()
        }
        self.eval_interval_s = eval_interval_s
        self.alerts: List[Alert] = []
        self.log: List[str] = []
        self._active: Dict[Tuple[str, str], Alert] = {}
        self._listeners: List[Any] = []
        self._finalized_at: Optional[float] = None

    def subscribe(self, listener: Any) -> None:
        """Register an alert-lifecycle listener.

        A listener may implement ``on_alert_fired(alert, now)`` and
        ``on_alert_cleared(alert, now)``; both are optional.  Listeners
        are notified in subscription order, inside :meth:`evaluate`, in
        the same canonical (SLO name, rule name) order as the log — so
        anything a listener does is as deterministic as the log itself.
        Forced closes from :meth:`finalize` do not notify (the run is
        over; there is nothing left to act on).
        """
        self._listeners.append(listener)

    def _notify(self, event: str, alert: Alert, now: float) -> None:
        for listener in self._listeners:
            hook = getattr(listener, event, None)
            if hook is not None:
                hook(alert, now)

    def rules_for(self, slo: SLO) -> Tuple[BurnRateRule, ...]:
        """The rule set evaluated for ``slo`` (override or the default).

        Overrides exist because one rule pair cannot fit every event
        rate: link transfers arrive a few per minute, so the stock
        ``min_events`` gates sized for request streams would mask a
        total outage.
        """
        return self.rule_overrides.get(slo.name, self.rules)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, now: float) -> List[Alert]:
        """Evaluate every (SLO, rule) pair at sim time ``now``.

        Fires and clears are appended to the log ordered by (SLO name,
        rule name) within this instant; re-evaluating the same instant
        is idempotent.  Each (series, window) is folded once per call
        and shared by every rule and SLO that reads it.  Returns alerts
        newly fired at this evaluation.
        """
        fired: List[Alert] = []
        folds: Dict[Tuple[str, str, str, float], WindowAggregate] = {}
        for slo in self.slos:
            for rule in self.rules_for(slo):
                key = (slo.name, rule.name)
                agg_short = self._fold(folds, slo, now, rule.short_s)
                agg_long = self._fold(folds, slo, now, rule.long_s)
                burn_short = slo.burn_rate(agg_short)
                burn_long = slo.burn_rate(agg_long)
                firing = (
                    burn_short is not None
                    and burn_long is not None
                    and burn_short >= rule.factor
                    and burn_long >= rule.factor
                    and agg_long.count >= rule.min_events
                )
                active = self._active.get(key)
                if firing and active is None:
                    alert = Alert(
                        slo=slo.name,
                        rule=rule.name,
                        severity=rule.severity,
                        entity=f"{slo.kind}/{slo.entity}",
                        fired_at=now,
                        burn_short=burn_short,
                        burn_long=burn_long,
                    )
                    self._active[key] = alert
                    self.alerts.append(alert)
                    fired.append(alert)
                    self.log.append(
                        f"t={now!r} FIRING slo={slo.name} rule={rule.name} "
                        f"severity={rule.severity} entity={alert.entity} "
                        f"burn_short={burn_short!r} burn_long={burn_long!r}"
                    )
                    self._notify("on_alert_fired", alert, now)
                elif not firing and active is not None:
                    active.cleared_at = now
                    del self._active[key]
                    self.log.append(
                        f"t={now!r} CLEARED slo={slo.name} rule={rule.name} "
                        f"severity={rule.severity} entity={active.entity}"
                    )
                    self._notify("on_alert_cleared", active, now)
        return fired

    def _fold(
        self,
        folds: Dict[Tuple[str, str, str, float], WindowAggregate],
        slo: SLO,
        now: float,
        window_s: float,
    ) -> WindowAggregate:
        """``slo``'s series folded over ``window_s``, memoised in ``folds``."""
        key = (slo.kind, slo.entity, slo.signal, window_s)
        agg = folds.get(key)
        if agg is None:
            agg = folds[key] = self.monitor.aggregate(
                slo.kind, slo.entity, slo.signal, now, window_s
            )
        return agg

    def finalize(self, now: float) -> List[Alert]:
        """Run a last evaluation, then force-close any alert still firing.

        Without this, an outage window that straddles the end of the run
        leaves its alert FIRING forever: the log never gains a terminal
        CLEARED line, so the log's byte content depends on whether the
        horizon happened to land after the recovery.  Forced closes are
        marked ``final=true`` in both the log line and the alert dict,
        and the alert still counts as *unresolved* for health rollups.
        Idempotent; returns the alerts that were force-closed.
        """
        if self._finalized_at is not None:
            if now != self._finalized_at:
                raise ValueError(
                    f"finalize({now!r}) after finalize({self._finalized_at!r})"
                )
            return []
        self.evaluate(now)
        closed: List[Alert] = []
        for key in sorted(self._active):
            alert = self._active[key]
            alert.cleared_at = now
            alert.final = True
            closed.append(alert)
            self.log.append(
                f"t={now!r} CLEARED slo={alert.slo} rule={alert.rule} "
                f"severity={alert.severity} entity={alert.entity} final=true"
            )
        self._active.clear()
        self._finalized_at = now
        return closed

    def attach(self, sim: Any) -> None:
        """Spawn the evaluation pump on ``sim``'s clock."""

        def _pump():
            while True:
                yield sim.timeout(self.eval_interval_s)
                self.evaluate(sim.now)

        sim.spawn(_pump())

    # -- reading -----------------------------------------------------------

    def active_alerts(self) -> List[Alert]:
        """Currently firing alerts, ordered by (SLO name, rule name)."""
        return [self._active[key] for key in sorted(self._active)]

    def unresolved_alerts(self) -> List[Alert]:
        """Alerts that never organically recovered, in canonical order.

        Mid-run this equals :meth:`active_alerts`; after
        :meth:`finalize` it also includes the force-closed
        (``final=true``) alerts, so health keeps reporting a fleet that
        ended the run burning.
        """
        out = self.active_alerts()
        out.extend(
            alert for alert in self.alerts
            if alert.final and alert not in out
        )
        out.sort(key=lambda a: (a.slo, a.rule))
        return out

    def alert_log(self) -> str:
        """The canonical alert log: one line per fire/clear, newline-terminated."""
        return "\n".join(self.log) + ("\n" if self.log else "")

    def health(self, now: float) -> Dict[str, Dict[str, Any]]:
        """Per-entity health snapshot derived from unresolved alerts.

        ``critical`` with an unresolved page-severity alert,
        ``degraded`` with only ticket-severity alerts, ``ok``
        otherwise.  After :meth:`finalize`, force-closed alerts still
        count: a zone that ended the run burning is not ``ok``.
        """
        out: Dict[str, Dict[str, Any]] = {}
        for slo in self.slos:
            entity = f"{slo.kind}/{slo.entity}"
            out.setdefault(entity, {"status": "ok", "active_alerts": []})
        for alert in self.unresolved_alerts():
            entry = out.setdefault(
                alert.entity, {"status": "ok", "active_alerts": []}
            )
            entry["active_alerts"].append(f"{alert.slo}/{alert.rule}")
            if alert.severity == "page":
                entry["status"] = "critical"
            elif entry["status"] == "ok":
                entry["status"] = "degraded"
        return dict(sorted(out.items()))

    def report(self, now: float) -> Dict[str, Any]:
        """The full alert report as a canonically ordered document."""
        return {
            "version": 1,
            "evaluated_at": now,
            "alerts": [alert.to_dict() for alert in self.alerts],
            "log": list(self.log),
            "health": self.health(now),
            "stats": self.monitor.stats(now),
        }

    def report_json(self, now: float, indent: int = 0) -> str:
        """Canonical JSON text of :meth:`report` (byte-stable)."""
        return json.dumps(
            self.report(now),
            sort_keys=True,
            indent=indent or None,
            separators=(",", ": ") if indent else (",", ":"),
        )


@dataclass
class MonitoringPlane:
    """A monitor plus its SLO engine, attached to one environment."""

    monitor: Monitor
    engine: SLOEngine


def attach_monitoring(
    env: Any,
    slos: Sequence[SLO],
    rules: Sequence[BurnRateRule] = DEFAULT_RULES,
    eval_interval_s: float = 30.0,
    monitor: Optional[Monitor] = None,
    rule_overrides: Optional[Mapping[str, Sequence[BurnRateRule]]] = None,
) -> MonitoringPlane:
    """Wire a monitor and SLO engine onto a (traced) environment.

    The environment must already carry a recording tracer.  The engine's
    evaluation pump is spawned on the simulator, so alerts fire *during*
    the run at deterministic sim times.
    """
    monitor = attach_monitor(env, monitor)
    engine = SLOEngine(
        monitor, slos, rules=rules, eval_interval_s=eval_interval_s,
        rule_overrides=rule_overrides,
    )
    engine.attach(env.sim)
    return MonitoringPlane(monitor=monitor, engine=engine)
