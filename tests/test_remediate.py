"""Tests for the closed-loop remediation plane.

Covers the policy table (matching, validation), the forecasting math
(EWMA / Holt linear), the controller actuator (every action kind plus
its no-op saturation), the remediation engine (cooldowns, canonical
action log, forecast pump, clear-driven unpinning), and the
``attach_remediation`` wiring end to end under a seeded chaos campaign.
"""

import pytest

from repro.apps import Job, photo_backup_app
from repro.core.controller import Environment, OffloadController
from repro.faults import DegradationPolicy, FaultSchedule, inject_faults
from repro.monitor.slo import Alert
from repro.remediate import (
    ACTION_ESCALATE_HEDGING,
    ACTION_FALLBACK_LOCAL,
    ACTION_REPLAN_RATE,
    ACTION_SHIFT_TRAFFIC,
    Action,
    ControllerActuator,
    DEFAULT_POLICY,
    Forecast,
    LinkForecaster,
    PolicyRule,
    RemediationEngine,
    attach_remediation,
    ewma,
    holt_linear,
)
from repro.remediate.forecast import forecast_ahead
from repro.serverless import RetryPolicy
from repro.sim.rng import RngStream
from repro.telemetry import attach_tracer


class TestPolicyRule:
    def test_glob_and_severity_matching(self):
        rule = PolicyRule(
            "r", ACTION_SHIFT_TRAFFIC, match_slo="availability*",
            match_severity="page",
        )
        assert rule.matches("availability:faas", "page")
        assert not rule.matches("availability:faas", "ticket")
        assert not rule.matches("uplink-stall", "page")

    def test_wildcards_match_everything(self):
        rule = PolicyRule("r", ACTION_FALLBACK_LOCAL)
        assert rule.matches("anything", "page")
        assert rule.matches("uplink-stall", "ticket")

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown action"):
            PolicyRule("r", "reboot-the-moon")

    def test_negative_cooldown_rejected(self):
        with pytest.raises(ValueError, match="cooldown"):
            PolicyRule("r", ACTION_SHIFT_TRAFFIC, cooldown_s=-1.0)

    def test_default_policy_covers_the_slo_vocabulary(self):
        matched = {
            slo: [r.name for r in DEFAULT_POLICY if r.matches(slo, "page")]
            for slo in (
                "availability:faas", "uplink-stall", "cold-start:app",
                "cost:budget",
            )
        }
        assert all(matched.values()), f"unmatched SLOs: {matched}"


class TestForecastMath:
    def test_ewma_degenerate_cases(self):
        assert ewma([]) is None
        assert ewma([5.0], alpha=0.5) == 5.0
        assert ewma([1.0, 2.0, 3.0], alpha=1.0) == 3.0

    def test_ewma_alpha_validated(self):
        with pytest.raises(ValueError):
            ewma([1.0], alpha=0.0)

    def test_holt_recovers_a_linear_trend_exactly(self):
        assert holt_linear([0.0, 2.0, 4.0, 6.0], alpha=1.0, beta=1.0) == (
            6.0, 2.0,
        )

    def test_holt_needs_two_points(self):
        assert holt_linear([1.0]) is None

    def test_holt_parameters_validated(self):
        with pytest.raises(ValueError):
            holt_linear([1.0, 2.0], alpha=2.0)
        with pytest.raises(ValueError):
            holt_linear([1.0, 2.0], beta=-0.1)

    def test_forecast_ahead_floors_at_zero(self):
        # Perfectly linear decline: level 2, trend -2, five steps out
        # would be -8 — a goodput forecast can never go negative.
        assert forecast_ahead([6.0, 4.0, 2.0], 5.0, alpha=1.0, beta=1.0) == 0.0


class _FakeMonitor:
    bucket_s = 10.0

    def __init__(self, points):
        self._points = points

    def link_goodput_points(self, link, now, window_s):
        return list(self._points)


class TestLinkForecaster:
    def test_flags_a_collapsing_link(self):
        points = [(10.0, 2.0e6), (20.0, 1.0e6), (30.0, 0.5e6)]
        forecaster = LinkForecaster(_FakeMonitor(points))
        verdict = forecaster.assess(30.0)
        assert verdict is not None
        assert verdict.link == "uplink"
        assert verdict.baseline_bps == 2.0e6
        assert verdict.forecast_bps < 0.5 * verdict.baseline_bps

    def test_quiet_on_a_flat_link(self):
        points = [(10.0, 1.0e6), (20.0, 1.0e6), (30.0, 1.0e6)]
        assert LinkForecaster(_FakeMonitor(points)).assess(30.0) is None

    def test_quiet_below_min_points(self):
        points = [(10.0, 2.0e6), (20.0, 0.1e6)]
        assert LinkForecaster(_FakeMonitor(points)).assess(20.0) is None

    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            LinkForecaster(_FakeMonitor([]), degraded_fraction=1.0)
        with pytest.raises(ValueError):
            LinkForecaster(_FakeMonitor([]), min_points=1)

    def test_detail_renders_canonically(self):
        forecast = Forecast(
            link="uplink", at=30.0, horizon_s=60.0, observed_bps=1.0,
            forecast_bps=0.5, baseline_bps=2.0,
        )
        assert forecast.detail() == (
            "link=uplink forecast_bps=0.5 baseline_bps=2.0 horizon_s=60.0"
        )


def _controller(with_degradation=True):
    env = Environment.build_custom(seed=3)
    degradation = (
        DegradationPolicy(
            outage_aware_backoff=True, hedge_after_s=None, fallback_local=True
        )
        if with_degradation
        else None
    )
    controller = OffloadController(
        env, photo_backup_app(), degradation=degradation
    )
    controller.profile_offline()
    controller.plan(input_mb=2.0)
    return controller


class TestControllerActuator:
    def test_escalate_hedging_starts_then_halves_to_the_floor(self):
        controller = _controller()
        actuator = ControllerActuator([controller])
        assert actuator.apply(ACTION_ESCALATE_HEDGING, 0.0) == (
            "hedge_after_s=60.0"
        )
        assert actuator.apply(ACTION_ESCALATE_HEDGING, 0.0) == (
            "hedge_after_s=30.0"
        )
        assert actuator.apply(ACTION_ESCALATE_HEDGING, 0.0) == (
            "hedge_after_s=15.0"
        )
        # Saturated at the floor: further escalation is a no-op.
        assert actuator.apply(ACTION_ESCALATE_HEDGING, 0.0) is None
        assert controller.degradation.hedge_after_s == 15.0

    def test_actions_are_noops_without_a_degradation_policy(self):
        actuator = ControllerActuator([_controller(with_degradation=False)])
        assert actuator.apply(ACTION_ESCALATE_HEDGING, 0.0) is None
        assert actuator.apply(ACTION_FALLBACK_LOCAL, 0.0) is None

    def test_tighten_fallback_halves_with_a_floor(self):
        controller = _controller()
        actuator = ControllerActuator([controller])
        assert actuator.apply(ACTION_FALLBACK_LOCAL, 0.0) == (
            "fallback_slack_fraction=0.25"
        )
        assert actuator.apply(ACTION_FALLBACK_LOCAL, 0.0) == (
            "fallback_slack_fraction=0.125"
        )
        assert actuator.apply(ACTION_FALLBACK_LOCAL, 0.0) == (
            "fallback_slack_fraction=0.1"
        )
        assert actuator.apply(ACTION_FALLBACK_LOCAL, 0.0) is None

    def test_tighten_fallback_enables_a_disabled_policy(self):
        controller = _controller()
        controller.degradation = DegradationPolicy(fallback_local=False)
        actuator = ControllerActuator([controller])
        assert actuator.apply(ACTION_FALLBACK_LOCAL, 0.0) == (
            "fallback_slack_fraction=0.5"
        )
        assert controller.degradation.fallback_local is True

    def test_shift_traffic_holds_and_does_not_shrink(self):
        controller = _controller()
        actuator = ControllerActuator([controller])
        assert actuator.apply(ACTION_SHIFT_TRAFFIC, 100.0) == (
            "hold_local_until=400.0"
        )
        assert controller._hold_local_until == 400.0
        # Re-applying at the same instant cannot extend the hold.
        assert actuator.apply(ACTION_SHIFT_TRAFFIC, 100.0) is None
        assert actuator.apply(ACTION_SHIFT_TRAFFIC, 200.0) == (
            "hold_local_until=500.0"
        )

    def test_reallocate_memory_floors_at_the_next_tier(self):
        controller = _controller()
        actuator = ControllerActuator([controller])
        before = max(d.memory_mb for d in controller.allocation.values())
        detail = actuator.apply("reallocate-memory", 0.0)
        assert detail is not None and detail.startswith("memory_floor_mb=")
        floor = controller.memory_floor_mb
        assert floor > before
        # The floor lands on the deployed functions, not the planner's
        # stored decisions.
        platform = controller.env.platform
        for component in controller.allocation:
            spec = platform.spec(controller._function_name(component))
            assert spec.memory_mb >= floor

    def test_replan_rate_pins_and_clear_unpins(self):
        controller = _controller()
        actuator = ControllerActuator([controller])
        forecast = Forecast(
            link="uplink", at=10.0, horizon_s=60.0, observed_bps=1.0e6,
            forecast_bps=0.4e6, baseline_bps=2.0e6,
        )
        assert actuator.apply(
            ACTION_REPLAN_RATE, 10.0, forecast=forecast
        ) == forecast.detail()
        assert controller.plan_rate_overrides == {"uplink": 0.4e6}
        # Same forecast again: nothing changed, so a no-op.
        assert actuator.apply(
            ACTION_REPLAN_RATE, 10.0, forecast=forecast
        ) is None
        assert actuator.clear_rate_override("uplink") == "link=uplink"
        assert controller.plan_rate_overrides == {}
        assert actuator.clear_rate_override("uplink") is None

    def test_unknown_action_kind_rejected(self):
        actuator = ControllerActuator([_controller()])
        with pytest.raises(ValueError, match="unknown action"):
            actuator.apply("defragment", 0.0)

    def test_needs_at_least_one_controller(self):
        with pytest.raises(ValueError):
            ControllerActuator([])


class _StubSLOEngine:
    eval_interval_s = 30.0

    def __init__(self):
        self.listeners = []

    def subscribe(self, listener):
        self.listeners.append(listener)


class _StubActuator:
    def __init__(self, quiet=False):
        self.calls = []
        self.quiet = quiet

    def apply(self, kind, now, forecast=None):
        self.calls.append((kind, now))
        return None if self.quiet else f"applied {kind}"

    def clear_rate_override(self, link):
        self.calls.append(("clear", link))
        return None if self.quiet else f"link={link}"


def _alert(slo="availability:z", severity="page", entity="zone/z"):
    return Alert(
        slo=slo, rule="fast", severity=severity, entity=entity,
        fired_at=100.0, burn_short=2.0, burn_long=2.0,
    )


class TestRemediationEngine:
    def test_policy_rules_apply_in_table_order(self):
        actuator = _StubActuator()
        engine = RemediationEngine(_StubSLOEngine(), actuator)
        engine.on_alert_fired(_alert(), 100.0)
        # availability + page matches shift, hedge, and fallback rules.
        assert [kind for kind, _ in actuator.calls] == [
            ACTION_SHIFT_TRAFFIC,
            ACTION_ESCALATE_HEDGING,
            ACTION_FALLBACK_LOCAL,
        ]
        assert [a.rule for a in engine.actions] == [
            "availability-shift", "availability-hedge",
            "availability-fallback",
        ]

    def test_cooldowns_gate_per_rule_and_entity(self):
        actuator = _StubActuator()
        engine = RemediationEngine(_StubSLOEngine(), actuator)
        engine.on_alert_fired(_alert(), 100.0)
        engine.on_alert_fired(_alert(), 150.0)  # all three still cooling
        assert len(engine.actions) == 3
        # At t=350: shift (180s) and hedge (120s) are cool again, the
        # fallback rule (300s) is not.
        engine.on_alert_fired(_alert(), 350.0)
        assert [a.rule for a in engine.actions[3:]] == [
            "availability-shift", "availability-hedge",
        ]
        # A different entity has its own cooldown clock.
        engine.on_alert_fired(_alert(entity="zone/other"), 150.0)
        assert len([a for a in engine.actions if a.entity == "zone/other"]) == 3

    def test_noop_actions_are_not_logged_or_cooled(self):
        actuator = _StubActuator(quiet=True)
        engine = RemediationEngine(_StubSLOEngine(), actuator)
        engine.on_alert_fired(_alert(), 100.0)
        assert engine.actions == []
        # The knob freeing up later must be re-attempted (no cooldown
        # was recorded for the no-ops).
        actuator.quiet = False
        engine.on_alert_fired(_alert(), 101.0)
        assert len(engine.actions) == 3

    def test_cleared_link_alert_drops_the_rate_pin(self):
        actuator = _StubActuator()
        engine = RemediationEngine(_StubSLOEngine(), actuator)
        engine.on_alert_cleared(_alert(slo="uplink-stall",
                                       entity="link/uplink"), 200.0)
        assert actuator.calls == [("clear", "uplink")]
        (action,) = engine.actions
        assert action.kind == ACTION_REPLAN_RATE
        assert action.reason == "cleared"

    def test_cleared_zone_alert_is_ignored(self):
        actuator = _StubActuator()
        engine = RemediationEngine(_StubSLOEngine(), actuator)
        engine.on_alert_cleared(_alert(), 200.0)
        assert actuator.calls == []

    def test_forecast_pump_respects_forecaster_cooldown(self):
        class _Forecaster:
            name = "uplink-goodput"
            link = "uplink"
            cooldown_s = 240.0

            def assess(self, now):
                return Forecast(
                    link="uplink", at=now, horizon_s=60.0,
                    observed_bps=1.0, forecast_bps=0.5, baseline_bps=2.0,
                )

        actuator = _StubActuator()
        engine = RemediationEngine(
            _StubSLOEngine(), actuator, forecasters=(_Forecaster(),)
        )
        engine.poll(100.0)
        engine.poll(200.0)  # cooling
        engine.poll(340.0)
        assert [a.at for a in engine.actions] == [100.0, 340.0]
        assert all(a.reason == "forecast" for a in engine.actions)

    def test_duplicate_rule_names_rejected(self):
        rules = (
            PolicyRule("dup", ACTION_SHIFT_TRAFFIC),
            PolicyRule("dup", ACTION_FALLBACK_LOCAL),
        )
        with pytest.raises(ValueError, match="duplicate"):
            RemediationEngine(_StubSLOEngine(), _StubActuator(), policy=rules)

    def test_action_line_is_canonical(self):
        action = Action(
            at=1.5, kind=ACTION_SHIFT_TRAFFIC, rule="stall-shift",
            slo="uplink-stall", entity="link/uplink", reason="alert",
            detail="hold_local_until=301.5",
        )
        assert action.line() == (
            "t=1.5 ACTION kind=shift-traffic rule=stall-shift "
            "slo=uplink-stall entity=link/uplink reason=alert "
            "detail=[hold_local_until=301.5]"
        )

    def test_counts_and_log_round_trip(self):
        actuator = _StubActuator()
        engine = RemediationEngine(_StubSLOEngine(), actuator)
        engine.on_alert_fired(_alert(), 100.0)
        assert engine.counts() == {
            ACTION_ESCALATE_HEDGING: 1,
            ACTION_FALLBACK_LOCAL: 1,
            ACTION_SHIFT_TRAFFIC: 1,
        }
        assert engine.action_log() == "\n".join(engine.log) + "\n"
        assert RemediationEngine(
            _StubSLOEngine(), _StubActuator()
        ).action_log() == ""


class TestAttachRemediationEndToEnd:
    """The full loop against a seeded chaos campaign: alerts fire,
    actions land, and the action log is byte-deterministic."""

    SEED = 171

    def _cell(self):
        env = Environment.build_custom(
            seed=self.SEED, uplink_bandwidth=2.0e6, access_latency_s=0.030
        )
        attach_tracer(env)
        inject_faults(
            env,
            FaultSchedule.chaos(0.3, 750.0, RngStream(self.SEED * 1000 + 30)),
        )
        controller = OffloadController(
            env,
            photo_backup_app(),
            retry_policy=RetryPolicy(
                max_attempts=3, base_delay_s=1.0, multiplier=2.0
            ),
            degradation=DegradationPolicy(
                outage_aware_backoff=True,
                hedge_after_s=None,
                fallback_local=True,
            ),
        )
        controller.profile_offline()
        controller.plan(input_mb=3.0)
        plane = attach_remediation(env, [controller])
        jobs = [
            Job(
                controller.app,
                input_mb=3.0,
                released_at=60.0 * i,
                deadline=60.0 * i + 500.0,
                job_id=5000 + i,
            )
            for i in range(12)
        ]
        report = controller.run_workload(jobs)
        plane.engine.finalize(float(env.sim.now))
        return plane, report

    def test_alerts_drive_actions(self):
        plane, report = self._cell()
        assert len(plane.engine.alerts) >= 1
        assert len(plane.remediation.actions) >= 1
        assert not report.failures
        # Every alert reached a terminal state by the horizon.
        assert all(a.cleared_at is not None for a in plane.engine.alerts)

    def test_episodes_hedge_only_after_the_escalation(self, monkeypatch):
        """Hedging starts off and an alert escalates it mid-run: cloud
        episodes started before the escalation are one process each
        (the retry loop itself); later ones are hedged invocations with
        their retry lanes."""
        from repro.sim import Simulator

        spawned = []
        spawn = Simulator.spawn

        def spying(sim, generator, name=None):
            spawned.append((sim.now, generator.__name__, name or ""))
            return spawn(sim, generator, name)

        monkeypatch.setattr(Simulator, "spawn", spying)
        plane, report = self._cell()
        assert not report.failures
        (escalated,) = [
            action.at for action in plane.remediation.actions
            if action.kind == ACTION_ESCALATE_HEDGING
        ]
        single = [
            at for at, body, name in spawned
            if body == "guarded" and ".retry." in name
        ]
        hedged = [at for at, body, _ in spawned if body == "_hedged_proc"]
        lanes = [at for at, body, _ in spawned if body == "retry_body"]
        assert single and hedged
        assert max(single) <= escalated <= min(hedged)
        # Only a hedged episode runs its retries in lanes of their own.
        assert lanes and min(lanes) >= escalated

    def test_action_log_is_byte_deterministic(self):
        first, _ = self._cell()
        second, _ = self._cell()
        assert first.remediation.action_log() == (
            second.remediation.action_log()
        )
        assert first.remediation.action_log() != ""
        assert first.engine.alert_log() == second.engine.alert_log()


class TestCli:
    def test_run_remediate_writes_an_actions_file(self, tmp_path, capsys):
        from repro.cli import main

        actions = tmp_path / "actions.log"
        code = main([
            "run", "--app", "photo_backup", "--jobs", "2",
            "--remediate", "--actions-out", str(actions),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "alerts fired" in out
        assert "actions applied" in out
        # A calm run remediates nothing, but the artifact still lands.
        assert actions.exists()

    def test_actions_out_requires_remediate(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="remediate"):
            main([
                "run", "--app", "photo_backup", "--jobs", "1",
                "--actions-out", str(tmp_path / "a.log"),
            ])
        with pytest.raises(SystemExit, match="remediate"):
            main([
                "fleet", "--zones", "2", "--ues-per-zone", "1",
                "--window", "600", "--slack", "1200",
                "--actions-out", str(tmp_path / "a.log"),
            ])

    def test_fleet_remediate_acts_under_chaos(self, tmp_path, capsys):
        from repro.cli import main

        actions = tmp_path / "actions.log"
        code = main([
            "fleet", "--zones", "4", "--ues-per-zone", "2",
            "--couple", "pairs", "--window", "600", "--slack", "1200",
            "--chaos", "uplink-outage", "--remediate",
            "--actions-out", str(actions),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "actions applied" in out
        log = actions.read_text(encoding="utf-8")
        assert "ACTION kind=" in log
        assert log.endswith("\n")
