"""Alert lifecycle regression tests: every FIRING gets a terminal state.

An alert that is still burning when the run ends used to stay FIRING
forever — no CLEARED line, health rollups counting it active with no way
to distinguish "recovered" from "truncated".  :meth:`SLOEngine.finalize`
closes the books: still-active alerts are force-closed at the horizon
with ``final=True``, the log gains a terminal ``CLEARED ... final=true``
line, and health keeps treating them as unresolved.
"""

import random

import pytest

from repro.apps import Job, photo_backup_app
from repro.core.controller import Environment, OffloadController
from repro.faults import FaultKind, FaultSchedule, FaultWindow, inject_faults
from repro.monitor import (
    DEFAULT_RULES,
    AvailabilitySLO,
    BurnRateRule,
    ColdStartSLO,
    CostSLO,
    LatencySLO,
    Monitor,
    SLOEngine,
)
from repro.monitor.fleet import (
    FLEET_RULES,
    default_fleet_rule_overrides,
    live_fleet_slos,
)
from repro.monitor.monitor import attach_monitor
from repro.serverless import RetryPolicy
from repro.telemetry import attach_tracer


class _Clock:
    def __init__(self, now=0.0):
        self.now = now


class _Span:
    def __init__(self, category, name, start, end, **attributes):
        self.category = category
        self.name = name
        self.start = start
        self.end = end
        self.attributes = attributes

    @property
    def duration(self):
        return self.end - self.start


def _burning_engine(at=100.0):
    """An engine with one alert fired at ``at`` and still burning."""
    monitor = Monitor(_Clock(at))
    for _ in range(20):
        monitor.on_span_end(
            _Span("execute", "app.f", at - 1.0, at, tier="cloud", error="X")
        )
    engine = SLOEngine(
        monitor,
        [AvailabilitySLO("availability:test", objective=0.95)],
        rules=(BurnRateRule("r", 60.0, 300.0, 1.0, min_events=1),),
    )
    engine.evaluate(at)
    assert len(engine.active_alerts()) == 1
    return engine


class TestFinalize:
    def test_forces_a_terminal_cleared_state(self):
        engine = _burning_engine(at=100.0)
        closed = engine.finalize(130.0)
        assert [a.final for a in closed] == [True]
        assert closed[0].cleared_at == 130.0
        assert not closed[0].active
        assert not closed[0].resolved  # forced close is not a recovery
        assert engine.active_alerts() == []
        assert engine.alert_log().splitlines()[-1] == (
            "t=130.0 CLEARED slo=availability:test rule=r severity=page "
            "entity=zone/faas final=true"
        )

    def test_is_idempotent_at_the_same_instant(self):
        engine = _burning_engine()
        engine.finalize(130.0)
        assert engine.finalize(130.0) == []
        assert len(engine.alert_log().splitlines()) == 2  # FIRING + CLEARED

    def test_rejects_a_second_horizon(self):
        engine = _burning_engine()
        engine.finalize(130.0)
        with pytest.raises(ValueError, match="finalize"):
            engine.finalize(140.0)

    def test_health_still_counts_final_alerts_as_unresolved(self):
        engine = _burning_engine()
        engine.finalize(130.0)
        health = engine.health(130.0)
        assert health["zone/faas"]["status"] == "critical"
        assert engine.unresolved_alerts()[0].final is True

    def test_organic_clear_is_not_final(self):
        engine = _burning_engine(at=100.0)
        engine.evaluate(1000.0)  # both windows empty -> organic clear
        assert engine.finalize(1000.0) == []  # nothing left to force
        alert = engine.alerts[0]
        assert alert.resolved and not alert.final
        assert "final=true" not in engine.alert_log()

    def test_to_dict_marks_only_final_alerts(self):
        engine = _burning_engine()
        engine.finalize(130.0)
        payload = engine.alerts[0].to_dict()
        assert payload["final"] is True
        organic = _burning_engine(at=100.0)
        organic.evaluate(1000.0)
        assert "final" not in organic.alerts[0].to_dict()


class TestListeners:
    class _Recorder:
        def __init__(self):
            self.events = []

        def on_alert_fired(self, alert, now):
            self.events.append(("fired", alert.slo, now))

        def on_alert_cleared(self, alert, now):
            self.events.append(("cleared", alert.slo, now))

    def test_subscribe_sees_fires_and_organic_clears(self):
        engine = _burning_engine(at=100.0)
        recorder = self._Recorder()
        engine.subscribe(recorder)
        engine.evaluate(1000.0)
        assert recorder.events == [("cleared", "availability:test", 1000.0)]

    def test_forced_close_does_not_notify(self):
        # finalize is bookkeeping, not a recovery signal: remediation
        # must not tear down mitigations because the run merely ended.
        engine = _burning_engine()
        recorder = self._Recorder()
        engine.subscribe(recorder)
        engine.finalize(130.0)
        assert recorder.events == []


class TestOutageStraddlingSimEnd:
    """The original bug, end to end: a zone outage that outlives the
    workload leaves availability alerts burning at sim end; finalize
    must give them a terminal CLEARED while health stays critical."""

    def _run(self):
        env = Environment.build_custom(
            seed=7, uplink_bandwidth=2.0e6, access_latency_s=0.030
        )
        attach_tracer(env)
        # The outage opens mid-run and extends far past the horizon.
        inject_faults(
            env,
            FaultSchedule(
                [FaultWindow(FaultKind.ZONE_OUTAGE, 120.0, 5000.0)]
            ),
        )
        controller = OffloadController(
            env,
            photo_backup_app(),
            retry_policy=RetryPolicy(
                max_attempts=3, base_delay_s=1.0, multiplier=2.0
            ),
        )
        controller.profile_offline()
        controller.plan(input_mb=3.0)
        monitor = attach_monitor(env)
        slos = live_fleet_slos("faas")
        engine = SLOEngine(
            monitor,
            slos,
            rules=FLEET_RULES,
            eval_interval_s=30.0,
            rule_overrides=default_fleet_rule_overrides(slos),
        )
        engine.attach(env.sim)
        jobs = [
            Job(
                controller.app,
                input_mb=3.0,
                released_at=60.0 * i,
                deadline=60.0 * i + 240.0,
                job_id=100 + i,
            )
            for i in range(4)
        ]
        controller.run_workload(jobs)
        return engine, float(env.sim.now)

    def test_alerts_burning_at_end_get_terminal_cleared(self):
        engine, end = self._run()
        assert engine.active_alerts(), "outage should still be burning"
        closed = engine.finalize(end)
        assert closed and all(a.final for a in closed)
        assert engine.active_alerts() == []
        log = engine.alert_log().splitlines()
        assert any("FIRING slo=availability:faas" in line for line in log)
        fired = sum(1 for line in log if " FIRING " in line)
        cleared = sum(1 for line in log if " CLEARED " in line)
        assert fired == cleared  # every FIRING has a terminal state
        assert all(
            line.endswith("final=true")
            for line in log
            if " CLEARED " in line
        )
        assert engine.health(end)["zone/faas"]["status"] == "critical"


class _PerRuleFoldEngine(SLOEngine):
    """Reference engine: every rule folds its own windows, unshared."""

    def _fold(self, folds, slo, now, window_s):
        return self.monitor.aggregate(
            slo.kind, slo.entity, slo.signal, now, window_s
        )


class _MergedSketchLatencySLO(LatencySLO):
    """Reference latency SLO: reads an eagerly merged window sketch."""

    def bad_fraction(self, agg):
        total = agg.sketch.count
        if total == 0:
            return None
        return 1.0 - agg.sketch.count_at_most(self.threshold_s) / total


def _stall_slo(cls, link):
    return cls(
        f"{link}-stall", kind="link", entity=link, threshold_s=30.0,
        objective=0.75, signal="throughput",
    )


def _shared_series_slos(latency_cls):
    """Availability and cold start read the same zone series."""
    return [
        AvailabilitySLO("availability", objective=0.95),
        ColdStartSLO("cold-start", objective=0.7),
        CostSLO("cost", usd_per_hour=0.5, signal="job"),
        _stall_slo(latency_cls, "uplink"),
        latency_cls("fn-latency", kind="function", entity="app.f",
                    threshold_s=2.0, objective=0.9),
    ]


def _fleet_slos(latency_cls):
    slos = [AvailabilitySLO("availability:faas", objective=0.99)]
    slos += [_stall_slo(latency_cls, link) for link in ("uplink", "downlink")]
    return slos


def _noisy_spans(seed, horizon_s=1500.0):
    """A span stream with bursts of errors, cold starts and stalls."""
    rng = random.Random(seed)
    spans = []
    t = 0.0
    while t < horizon_s:
        t += rng.expovariate(1 / 4.0)
        burst = (t // 300.0) % 2 == 1  # every other 5 minutes misbehaves
        duration = rng.uniform(0.1, 6.0 if burst else 1.5)
        cold = rng.random() < (0.8 if burst else 0.2)
        attrs = {"tier": "cloud", "cold": cold}
        if rng.random() < (0.3 if burst else 0.01):
            attrs["error"] = "Boom"
        spans.append(_Span("execute", "app.f", t - duration, t, **attrs))
        if rng.random() < 0.3:
            stall = rng.uniform(40.0, 90.0) if burst else rng.uniform(0.5, 5)
            link = rng.choice(("upload", "download"))
            spans.append(
                _Span(link, "x", t - stall, t, bytes=1e6, radio_s=1.0)
            )
        if rng.random() < 0.2:
            spans.append(_Span(
                "job", "j", t - 10.0, t,
                cloud_cost_usd=rng.uniform(0.0, 0.02 if burst else 0.001),
            ))
    spans.sort(key=lambda span: span.end)
    return spans


class TestSharedFolds:
    """Sharing folds across rules and SLOs changes no alert byte."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "rules,build_slos",
        [(FLEET_RULES, _fleet_slos), (DEFAULT_RULES, _shared_series_slos)],
        ids=["fleet", "default-shared-series"],
    )
    def test_shared_fold_engine_matches_per_rule_reference(
        self, seed, rules, build_slos
    ):
        monitor = Monitor(_Clock())
        folds = {"n": 0}
        aggregate = monitor.aggregate

        def counting_aggregate(*args):
            folds["n"] += 1
            return aggregate(*args)

        monitor.aggregate = counting_aggregate
        engines = {}
        for name, cls, latency_cls in (
            ("shared", SLOEngine, LatencySLO),
            ("reference", _PerRuleFoldEngine, _MergedSketchLatencySLO),
        ):
            slos = build_slos(latency_cls)
            engines[name] = cls(
                monitor, slos, rules=rules,
                rule_overrides=default_fleet_rule_overrides(slos),
            )
        fold_counts = {"shared": 0, "reference": 0}
        spans = iter(_noisy_spans(seed))
        pending = next(spans, None)
        for tick in range(1, 61):
            now = tick * 30.0
            while pending is not None and pending.end <= now:
                monitor.on_span_end(pending)
                pending = next(spans, None)
            for name, engine in engines.items():
                before = folds["n"]
                engine.evaluate(now)
                fold_counts[name] += folds["n"] - before
        for engine in engines.values():
            engine.finalize(1830.0)
        shared, reference = engines["shared"], engines["reference"]
        assert " FIRING " in reference.alert_log()
        assert " CLEARED " in reference.alert_log()
        assert shared.alert_log() == reference.alert_log()
        assert [a.to_dict() for a in shared.alerts] == [
            a.to_dict() for a in reference.alerts
        ]
        assert shared.health(1830.0) == reference.health(1830.0)
        assert fold_counts["shared"] < fold_counts["reference"]
