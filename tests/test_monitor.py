"""Tests for the monitoring plane: monitor routing, SLO burn-rate
alerting, and the pinned monitored scenario's acceptance properties."""

import json

import pytest

from repro.monitor import (
    AvailabilitySLO,
    BurnRateRule,
    ColdStartSLO,
    CostSLO,
    LatencySLO,
    Monitor,
    SLOEngine,
    attach_monitor,
)
from repro.monitor.monitor import KIND_FUNCTION, KIND_LINK, KIND_ZONE
from repro.sim import Simulator
from repro.testing.golden import run_monitored_scenario


class _Clock:
    def __init__(self, now=0.0):
        self.now = now


class _Span:
    """A minimal span shape for feeding the listener directly."""

    def __init__(self, category, name, start, end, **attributes):
        self.category = category
        self.name = name
        self.start = start
        self.end = end
        self.attributes = attributes

    @property
    def duration(self):
        return self.end - self.start


class TestMonitorRouting:
    def test_cloud_execute_feeds_latency_and_availability(self):
        monitor = Monitor(_Clock())
        monitor.on_span_end(
            _Span("execute", "app.f", 0.0, 2.0, tier="cloud", cold=True,
                  memory_mb=512, billed_usd=0.01)
        )
        monitor.on_span_end(
            _Span("execute", "app.f", 2.0, 3.0, tier="cloud",
                  error="SandboxReclaimedError")
        )
        latency = monitor.aggregate(KIND_FUNCTION, "app.f", "latency", 10.0, 60.0)
        assert latency.count == 2
        assert latency.bad == 1
        avail = monitor.aggregate(KIND_ZONE, "faas", "availability", 10.0, 60.0)
        assert avail.error_ratio == 0.5
        assert avail.extra("cold") == 1.0
        assert avail.extra("billed_usd") == 0.01
        # Only the successful execution enters the observed history.
        assert len(monitor.executions) == 1
        assert monitor.executions[0].function == "app.f"
        assert monitor.executions[0].cold is True

    def test_local_execute_is_ignored(self):
        monitor = Monitor(_Clock())
        monitor.on_span_end(_Span("execute", "app.f", 0.0, 1.0, tier="local"))
        assert monitor.entities() == []

    def test_transfers_feed_link_rate(self):
        monitor = Monitor(_Clock())
        monitor.on_span_end(
            _Span("upload", "ue->cloud", 0.0, 2.0, bytes=2_000_000.0,
                  radio_s=1.0)
        )
        assert monitor.link_rate("uplink", now=5.0) == pytest.approx(2e6)
        assert monitor.link_rate("downlink", now=5.0) is None

    def test_queue_depth_is_maxed(self):
        monitor = Monitor(_Clock())
        monitor.on_span_end(_Span("queue", "app.f", 0.0, 0.5, depth=2))
        monitor.on_span_end(_Span("queue", "app.f", 1.0, 1.5, depth=7))
        assert monitor.queue_depth("app.f", now=5.0) == 7.0

    def test_instants_route_to_zone_signals(self):
        monitor = Monitor(_Clock())
        monitor.on_instant(1.0, "outage_rejected", {"function": "app.f"}, None)
        monitor.on_instant(2.0, "attempt_failed", {"wasted_usd": 0.004}, None)
        monitor.on_instant(3.0, "hedge_started", {}, None)
        monitor.on_instant(4.0, "fallback_local", {}, None)
        avail = monitor.aggregate(KIND_ZONE, "faas", "availability", 10.0, 60.0)
        assert avail.bad == 1
        wasted = monitor.aggregate(KIND_ZONE, "faas", "wasted", 10.0, 60.0)
        assert wasted.extra("wasted_usd") == 0.004
        assert monitor.aggregate(KIND_ZONE, "faas", "hedges", 10.0, 60.0).count == 1
        assert monitor.aggregate(KIND_ZONE, "faas", "fallbacks", 10.0, 60.0).count == 1

    def test_stats_is_canonical_and_json_stable(self):
        def build():
            monitor = Monitor(_Clock())
            monitor.on_span_end(
                _Span("execute", "app.f", 0.0, 2.0, tier="cloud", cold=False)
            )
            monitor.on_span_end(
                _Span("upload", "ue->cloud", 0.0, 1.0, bytes=10.0, radio_s=0.5)
            )
            return json.dumps(monitor.stats(10.0), sort_keys=True)

        assert build() == build()
        stats = json.loads(build())
        assert "zone/faas/availability" in stats
        assert "link/uplink/throughput" in stats

    def test_attach_requires_recording_tracer(self):
        class Env:
            sim = Simulator()

        with pytest.raises(RuntimeError, match="disabled tracer"):
            attach_monitor(Env())


class TestSLOEngine:
    def _monitor_with_errors(self, bad_ratio, n=100, at=100.0):
        monitor = Monitor(_Clock(at))
        for i in range(n):
            attrs = {"tier": "cloud"}
            if i < bad_ratio * n:
                attrs["error"] = "X"
            monitor.on_span_end(
                _Span("execute", "app.f", at - 1.0, at, **attrs)
            )
        return monitor

    def test_fires_when_both_windows_burn(self):
        monitor = self._monitor_with_errors(0.5)
        engine = SLOEngine(
            monitor,
            [AvailabilitySLO("avail", objective=0.95)],
            rules=(BurnRateRule("r", 60.0, 300.0, 4.0, min_events=10),),
        )
        fired = engine.evaluate(100.0)
        assert [alert.slo for alert in fired] == ["avail"]
        assert engine.active_alerts()[0].severity == "page"

    def test_min_events_gates_sparse_windows(self):
        monitor = self._monitor_with_errors(1.0, n=3)
        engine = SLOEngine(
            monitor,
            [AvailabilitySLO("avail", objective=0.95)],
            rules=(BurnRateRule("r", 60.0, 300.0, 1.0, min_events=10),),
        )
        assert engine.evaluate(100.0) == []

    def test_alert_clears_when_burn_cools(self):
        monitor = self._monitor_with_errors(1.0, at=100.0)
        engine = SLOEngine(
            monitor,
            [AvailabilitySLO("avail", objective=0.95)],
            rules=(BurnRateRule("r", 60.0, 300.0, 1.0, min_events=1),),
        )
        engine.evaluate(100.0)
        assert len(engine.active_alerts()) == 1
        # Far later both windows are empty -> burn None -> clear.
        engine.evaluate(1000.0)
        assert engine.active_alerts() == []
        alert = engine.alerts[0]
        assert alert.cleared_at == 1000.0
        assert not alert.active
        log = engine.alert_log().splitlines()
        assert log[0].startswith("t=100.0 FIRING slo=avail")
        assert log[1].startswith("t=1000.0 CLEARED slo=avail")

    def test_evaluate_is_idempotent_per_instant(self):
        monitor = self._monitor_with_errors(1.0)
        engine = SLOEngine(
            monitor,
            [AvailabilitySLO("avail", objective=0.95)],
            rules=(BurnRateRule("r", 60.0, 300.0, 1.0, min_events=1),),
        )
        engine.evaluate(100.0)
        engine.evaluate(100.0)
        assert len(engine.alerts) == 1

    def test_rule_overrides_apply_per_slo(self):
        monitor = self._monitor_with_errors(1.0, n=3)
        strict = (BurnRateRule("r", 60.0, 300.0, 1.0, min_events=50),)
        lenient = (BurnRateRule("r", 60.0, 300.0, 1.0, min_events=1),)
        engine = SLOEngine(
            monitor,
            [AvailabilitySLO("avail", objective=0.95)],
            rules=strict,
            rule_overrides={"avail": lenient},
        )
        assert engine.rules_for(engine.slos[0]) == lenient
        assert [alert.slo for alert in engine.evaluate(100.0)] == ["avail"]

    def test_rule_overrides_for_unknown_slo_rejected(self):
        monitor = Monitor(_Clock())
        with pytest.raises(ValueError, match="unknown SLO"):
            SLOEngine(
                monitor,
                [AvailabilitySLO("avail")],
                rule_overrides={"nope": ()},
            )

    def test_duplicate_slo_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SLOEngine(
                Monitor(_Clock()),
                [AvailabilitySLO("a"), AvailabilitySLO("a")],
            )

    def test_health_reflects_severity(self):
        monitor = self._monitor_with_errors(1.0)
        engine = SLOEngine(
            monitor,
            [AvailabilitySLO("avail", objective=0.95),
             ColdStartSLO("cold", objective=0.5)],
            rules=(BurnRateRule("r", 60.0, 300.0, 1.0, min_events=1,
                                severity="ticket"),),
        )
        engine.evaluate(100.0)
        health = engine.health(100.0)
        # errors fire avail; every span is warm so cold stays ok.
        assert health["zone/faas"]["status"] == "degraded"
        assert health["zone/faas"]["active_alerts"] == ["avail/r"]

    def test_cost_slo_burn_is_spend_rate_over_budget(self):
        monitor = Monitor(_Clock(100.0))
        monitor.on_span_end(
            _Span("job", "job1", 0.0, 100.0, cloud_cost_usd=0.05)
        )
        slo = CostSLO("cost", usd_per_hour=1.0)
        agg = monitor.aggregate(KIND_ZONE, "faas", "job", 100.0, 3600.0)
        # $0.05 in one hour window = 0.05 burn of the $1/h budget.
        assert slo.burn_rate(agg) == pytest.approx(0.05)

    def test_latency_slo_validation(self):
        with pytest.raises(ValueError):
            LatencySLO("x", KIND_LINK, "uplink", threshold_s=0.0)
        with pytest.raises(ValueError):
            AvailabilitySLO("x", objective=1.0)


class TestMonitoredGoldenScenario:
    """The acceptance properties of the monitored pinned scenario."""

    @pytest.fixture(scope="class")
    def fault_free(self):
        return run_monitored_scenario(with_faults=False)

    @pytest.fixture(scope="class")
    def chaos(self):
        return run_monitored_scenario(with_faults=True)

    def test_fault_free_run_produces_zero_alerts(self, fault_free):
        assert fault_free["alert_log"] == ""
        assert fault_free["fired_slos"] == []
        statuses = {
            entry["status"] for entry in fault_free["health"].values()
        }
        assert statuses == {"ok"}

    def test_chaos_run_fires_link_outage_and_cold_start_spike(self, chaos):
        assert "link-outage" in chaos["fired_slos"]
        assert "cold-start-spike" in chaos["fired_slos"]
        log = chaos["alert_log"]
        assert "FIRING slo=link-outage" in log
        assert "FIRING slo=cold-start-spike" in log
        # The stalled upload clears once the outage window passes.
        assert "CLEARED slo=link-outage" in log

    def test_chaos_workload_still_completes(self, chaos):
        assert chaos["jobs_completed"] == 4
        assert chaos["failures"] == 0

    def test_alert_log_is_byte_identical_across_runs(self, chaos):
        again = run_monitored_scenario(with_faults=True)
        assert again["alert_log"] == chaos["alert_log"]
        assert (
            again["plane"].engine.report_json(again["sim_end_s"])
            == chaos["plane"].engine.report_json(chaos["sim_end_s"])
        )

    def test_chaos_report_dumps_as_sort_keyed_json(self, chaos):
        report = chaos["plane"].engine.report(chaos["sim_end_s"])
        text = json.dumps(report, sort_keys=True, indent=2)
        payload = json.loads(text)
        assert {"alerts", "log", "health", "stats"} <= set(payload)
        assert text == json.dumps(payload, sort_keys=True, indent=2)
        assert payload["log"] == chaos["alert_log"].splitlines()
        assert {a["slo"] for a in payload["alerts"]} == set(
            chaos["fired_slos"]
        )
        assert payload["stats"]

    def test_monitoring_does_not_perturb_the_simulation(self, chaos):
        # The monitor observes the chaos schedule's run; the same
        # schedule without monitoring must land on the same clock.
        from repro.faults import inject_faults
        from repro.testing.golden import (
            GOLDEN_SEED,
            _build_golden_env,
            _run_golden_workload,
            monitoring_chaos_schedule,
        )

        env, _ = _build_golden_env(
            GOLDEN_SEED, with_faults=False, traced=False
        )
        inject_faults(env, monitoring_chaos_schedule())
        report = _run_golden_workload(env)
        assert report.jobs_completed == chaos["jobs_completed"]
        assert env.sim.now == chaos["sim_end_s"]


class TestMonitoredSweepScenario:
    def test_alert_log_byte_identical_across_worker_counts(self, tmp_path):
        from repro.sweep import SweepRunner, SweepSpec

        spec = SweepSpec(
            scenario="repro.sweep.scenarios:monitored_run",
            points=[{"faults": True}, {"faults": False}],
        )
        merged = {}
        for workers in (1, 4):
            cache = tmp_path / f"cache-{workers}"
            result = SweepRunner(
                spec, workers=workers, cache_dir=str(cache)
            ).run()
            merged[workers] = result.merged_json()
        assert merged[1] == merged[4]
        payload = json.loads(merged[1])
        assert any(
            "FIRING slo=link-outage" in json.dumps(run["result"])
            for run in payload["runs"]
        )
